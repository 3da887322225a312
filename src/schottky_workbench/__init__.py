"""Workbench for Siegel theta series of even unimodular lattices, exact
Fourier-expansion arithmetic, the weight-8 Schottky form, and first-order
period-matrix degenerations."""

# Before any submodule imports numpy: its OpenBLAS starts one worker per
# core, and an idle worker busy-waits 2**28 cycles before it sleeps (the
# default OPENBLAS_THREAD_TIMEOUT of 28).  On a 2-vCPU VM, `import numpy`
# alone takes about 0.23 s wall and 0.35 s CPU; with the timeout at 4, CPU
# equals wall.  The pool stays for the float64 users: the direct sum's
# products (`theta._ip_histogram`), `SiegelPoint.im_min_eig` (`eigvalsh`)
# and `fay`'s sums; the shell walk and the counts are exact and call
# neither BLAS nor LAPACK.  A value set by the user wins.
import os

os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .cache import ENGINE_VERSION, ENV_CACHE_PATH, CountCache, cache_from_env
from .counting import CountEngine
from .expansion import (DerivativePolynomial, DomainError, EvalResult,
                        FourierExpansion, IncompatibleExpansionError,
                        SiegelPoint, TruncationError, apply_derivative,
                        evaluate, siegel_limit_check, siegel_operator)
from .fay import (DegenerationData, coefficient_A, coefficient_B,
                  derivative_identity_check, fay_check,
                  period_matrix_first_order, scaling_law_check, sigma_matrix)
from .indices import (border_zero_forced, canonical_signed_perm,
                      enumerate_indices, from_upper_triangle, is_psd,
                      upper_triangle, validate_index)
from .lattices import (Lattice, LatticeError, UnsupportedLatticeError,
                       direct_sum, lattice_by_id, shell_sizes,
                       short_vector_shells)
from .schottky import (first_nonzero_index, nonzero_report,
                       schottky_expansion, verify_vanishing)
from .theta import default_norm_budget, theta_eval, theta_expansion

__version__ = "0.1.0"

__all__ = [
    "CountCache", "CountEngine", "DegenerationData", "DerivativePolynomial",
    "DomainError", "ENGINE_VERSION", "ENV_CACHE_PATH", "EvalResult",
    "FourierExpansion", "IncompatibleExpansionError", "Lattice",
    "LatticeError", "SiegelPoint",
    "TruncationError", "UnsupportedLatticeError", "apply_derivative",
    "border_zero_forced", "cache_from_env",
    "canonical_signed_perm", "coefficient_A", "coefficient_B",
    "default_norm_budget", "derivative_identity_check", "direct_sum",
    "enumerate_indices", "evaluate", "fay_check",
    "first_nonzero_index", "from_upper_triangle", "is_psd",
    "lattice_by_id", "nonzero_report", "period_matrix_first_order",
    "scaling_law_check", "schottky_expansion",
    "shell_sizes", "short_vector_shells", "siegel_limit_check",
    "siegel_operator", "sigma_matrix", "theta_eval", "theta_expansion",
    "upper_triangle", "validate_index", "verify_vanishing",
]
