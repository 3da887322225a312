"""Theta series of even unimodular lattices.

Two computation paths on purpose: theta_expansion builds exact Fourier
coefficients from representation counts, while theta_eval sums the defining
series directly over lattice-vector tuples and never consults an expansion.
Their agreement is the workhorse cross-check of the package.
"""

from __future__ import annotations

import math

import numpy as np

from . import indices as idx
from .counting import CountEngine
from .expansion import (EvalResult, FourierExpansion,
                        IncompatibleExpansionError, SiegelPoint)
from .lattices import Lattice, short_vector_shells


def theta_expansion(lat: Lattice, g: int, max_trace: int,
                    cache=None) -> FourierExpansion:
    """Fourier expansion of the genus-g theta series, weight rank/2.

    The coefficient at S is the number of g-tuples of lattice vectors with
    Gram matrix S.
    """
    engine = CountEngine(lat, cache)
    coeffs = {s: engine.count(s) for s in idx.enumerate_indices(g, max_trace)}
    return FourierExpansion(g=g, weight=lat.rank // 2, max_trace=max_trace,
                            coeffs=coeffs)


def default_norm_budget(max_trace: int) -> int:
    """Budget making both truncation tails negligible at Im(tau) >~ 1.2 I."""
    return 2 * max_trace + 4


def theta_eval(lat: Lattice, g: int, point: SiegelPoint,
               norm_budget: int) -> EvalResult:
    """Direct theta sum over tuples (x_1..x_g) with total norm <= budget.

    Independent numerical oracle: it iterates actual lattice vectors and
    never consults representation counts or stored expansions.  Tuples are
    walked depth-first; the last slot is vectorized over whole shells.
    """
    if point.g != g:
        raise IncompatibleExpansionError("point genus mismatch")
    if norm_budget < 0 or norm_budget % 2 != 0:
        raise ValueError("norm_budget must be a non-negative even integer")
    tau = point.matrix
    shells = short_vector_shells(lat, norm_budget)
    norms = sorted(shells)
    gram = lat.gram_array

    total = 0j
    boundary = 0
    chunk_rows = 500_000  # bounds the float64 temporaries to ~64 MB

    def last_slot(m, chosen_gx, phase):
        """Vectorized sum over the whole norm-m shell in the final slot."""
        const = phase + 1j * math.pi * m * complex(tau[g - 1, g - 1])
        vecs = shells[m]
        if not chosen_gx:
            return len(vecs) * np.exp(const)
        out = 0j
        for lo in range(0, len(vecs), chunk_rows):
            block = vecs[lo : lo + chunk_rows].astype(np.float64)
            expo = np.full(len(block), const)
            for coef, gx in chosen_gx:
                expo = expo + coef * (block @ gx)
            out += np.exp(expo).sum()
        return out

    def rec(level, chosen, chosen_gx, used, phase):
        nonlocal total, boundary
        if level == g - 1:
            for m in norms:
                if used + m > norm_budget:
                    break
                total += last_slot(m, chosen_gx, phase)
                if used + m == norm_budget:
                    boundary += len(shells[m])
            return
        for m in norms:
            if used + m > norm_budget:
                break
            for row in shells[m]:
                x = row.astype(np.int64)
                ph = phase + 1j * math.pi * m * complex(tau[level, level])
                for j, xj in enumerate(chosen):
                    ph = ph + 2j * math.pi * complex(tau[j, level]) \
                        * int(xj @ gram @ x)
                gx = (gram @ x).astype(np.float64)
                coef = 2j * math.pi * complex(tau[level, g - 1])
                rec(level + 1, chosen + [x],
                    chosen_gx + [(coef, gx)], used + m, ph)

    rec(0, [], [], 0, 0j)
    lam = point.im_min_eig
    tail = math.exp(-math.pi * lam * (norm_budget + 2)) * max(boundary, 1)
    return EvalResult(value=complex(total), tail_estimate=tail)
