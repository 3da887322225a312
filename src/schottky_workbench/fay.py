"""First-order degeneration of period matrices and the tangency coefficients.

A one-parameter family of genus-(g+1) period matrices degenerating to a
genus-g one is modeled to first order in the pencil parameter t: the genus-g
block moves along tau + t*sigma, the border is an Abel-Jacobi difference plus
t*s, and the corner carries (1/(2*pi*i)) log t.  The module computes the two
coefficients A and B of the resulting t-expansion of a modular form and
verifies the tangent-direction identity and the lambda*mu scaling law.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .expansion import (CheckReport, DerivativePolynomial, DomainError,
                        FourierExpansion, IncompatibleExpansionError,
                        SiegelPoint, _is_int, _limit_report, _pair,
                        _tr_products, apply_derivative, evaluate,
                        json_complex, siegel_operator)

TWO_PI_I = 2j * math.pi

# t step of the central difference in derivative_identity_check; one
# Richardson step also takes it halved
_DIFFERENCE_STEP = 1e-4
# relative tolerance of the derivative identity in fay_check
_DERIVATIVE_TOLERANCE = 1e-5
# t and tolerance of corner_exponential_check, and the t values (toward 0)
# and relative tolerance of degeneration_limit_check
_CORNER_T = 1e-3
_CORNER_TOLERANCE = 1e-9
_LIMIT_T_VALUES = (1e-3, 1e-4, 1e-5)
_LIMIT_TOLERANCE = 1e-2


@dataclass(frozen=True)
class DegenerationData:
    """Inputs of the first-order period-matrix formula.

    v_a and v_b hold the values of the normalized differentials at the two
    glued points; aj is the Abel-Jacobi difference of the points; s, c1, c2
    are free holomorphic data that do not affect A.  lambda_ and mu are the
    nonzero local-coordinate rescalings at the two points.
    """

    g: int
    tau: SiegelPoint
    v_a: tuple
    v_b: tuple
    aj: tuple = None
    s: tuple = None
    c1: complex = 0j
    c2: complex = 0j
    lambda_: complex = 1 + 0j
    mu: complex = 1 + 0j

    def __post_init__(self):
        if self.tau.g != self.g:
            raise DomainError("tau genus mismatch")
        for name in ("v_a", "v_b", "aj", "s"):
            vec = getattr(self, name)
            if vec is None:
                vec = (0j,) * self.g
            if len(vec) != self.g:
                raise ValueError(f"{name} must have length g")
            object.__setattr__(self, name, tuple(complex(z) for z in vec))
        object.__setattr__(self, "c1", complex(self.c1))
        object.__setattr__(self, "c2", complex(self.c2))
        object.__setattr__(self, "lambda_", complex(self.lambda_))
        object.__setattr__(self, "mu", complex(self.mu))
        if self.lambda_ == 0 or self.mu == 0:
            raise ValueError("lambda and mu must be nonzero")

    @classmethod
    def from_json(cls, doc: dict) -> "DegenerationData":
        """Read a document of degeneration-data.schema.json; every complex
        value goes through expansion.json_complex."""
        g = doc["genus"]
        if not _is_int(g):
            raise ValueError(f"genus {g!r} is not an integer")
        tau = tuple(tuple(map(json_complex, row)) for row in doc["tau"])
        def vec(name):
            return tuple(map(json_complex, doc[name])) if name in doc else None
        return cls(
            g=g, tau=SiegelPoint(g, tau),
            v_a=vec("v_a"), v_b=vec("v_b"), aj=vec("aj"), s=vec("s"),
            c1=json_complex(doc.get("c1", 0)),
            c2=json_complex(doc.get("c2", 0)),
            lambda_=json_complex(doc.get("lambda", 1)),
            mu=json_complex(doc.get("mu", 1)),
        )

    @cached_property
    def sigma(self) -> np.ndarray:
        """sigma of the rescaled differentials lambda v_a and mu v_b."""
        return sigma_matrix(self.lambda_ * np.asarray(self.v_a),
                            self.mu * np.asarray(self.v_b))


def sigma_matrix(v_a, v_b) -> np.ndarray:
    """sigma_pq = 2*pi*i * (v_a[p] v_b[q] + v_a[q] v_b[p]); symmetric and
    bilinear, so rescaling the inputs by (lambda, mu) rescales sigma by
    lambda*mu."""
    a = np.asarray(v_a, dtype=complex)
    b = np.asarray(v_b, dtype=complex)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError("v_a and v_b must be equal-length vectors")
    return TWO_PI_I * (np.outer(a, b) + np.outer(b, a))


def period_matrix_first_order(data: DegenerationData, t: complex) -> np.ndarray:
    """The (g+1) x (g+1) period matrix of the degenerating family, first
    order in t, with the O(t^2) corrections omitted.

    The corner is (1/(2*pi*i)) (Log t + c1 + c2 t) with the principal branch
    of Log; t = 0 is the degenerate fiber and is rejected.
    """
    t = complex(t)
    if t == 0:
        raise DomainError("t = 0 is the degenerate fiber; the corner diverges")
    if abs(t) >= 1:
        raise DomainError("|t| must be < 1")
    g = data.g
    out = np.zeros((g + 1, g + 1), dtype=complex)
    out[:g, :g] = data.tau.matrix + t * data.sigma
    border = np.asarray(data.aj) + t * np.asarray(data.s)
    out[:g, g] = border
    out[g, :g] = border
    out[g, g] = (cmath.log(t) + data.c1 + data.c2 * t) / TWO_PI_I
    return out


def _nonzero_rows(f: FourierExpansion, n: DerivativePolynomial):
    """The table rows S with a(S) N(S) != 0, and those products as floats."""
    nonzero = f.column != 0
    mats = f.table.mats[nonzero]
    wts = f.column[nonzero].astype(float) \
        * n.evaluate_rows(mats).astype(float)
    keep = wts != 0
    return mats[keep], wts[keep]


def coefficient_A(f: FourierExpansion, n: DerivativePolynomial,
                  tau: SiegelPoint, sigma) -> complex:
    """A = sum over stored indices S of
    a(S) N(S) (pi*i sum S_pq sigma_pq) exp(pi*i sum S_pq tau_pq).

    This is the exact t-derivative at 0 of the truncated evaluation of N(F)
    along tau + t*sigma; no (pi*i)^deg(N) prefactor is folded in, matching
    the bare values returned by evaluate."""
    if n.g != f.g or tau.g != f.g:
        raise IncompatibleExpansionError("genus mismatch")
    sig = np.asarray(sigma, dtype=complex)
    if sig.shape != (f.g, f.g):
        raise ValueError("sigma must be a g x g matrix")
    mats, wts = _nonzero_rows(f, n)
    pii = 1j * math.pi
    return complex(wts @ (pii * _tr_products(mats, sig)
                          * np.exp(pii * _tr_products(mats, tau.matrix))))


def coefficient_B(f_next: FourierExpansion, n_next: DerivativePolynomial,
                  tau: SiegelPoint, aj) -> complex:
    """B = sum over stored genus-(g+1) indices X with corner entry 2 of
    a(X) N(X) exp(2*pi*i sum_p X_{p,g+1} aj_p) exp(pi*i sum_{p,q<=g} X_pq tau_pq).

    Reads neither lambda nor mu, so it is invariant under their rescaling."""
    g = f_next.g - 1
    if n_next.g != f_next.g or tau.g != g:
        raise IncompatibleExpansionError("genus mismatch")
    ajv = np.array([complex(z) for z in aj])
    if len(ajv) != g:
        raise ValueError("aj must have length g")
    mats, wts = _nonzero_rows(f_next, n_next)
    corner = mats[:, g, g] == 2
    mats, wts = mats[corner], wts[corner]
    return complex(wts @ (np.exp(TWO_PI_I * (mats[:, :g, g] @ ajv))
                          * np.exp(1j * math.pi * _tr_products(
                              mats[:, :g, :g], tau.matrix))))


def _directional_derivative(f: FourierExpansion, tau: SiegelPoint,
                            sigma) -> complex:
    """Central difference in t of evaluate(f, tau + t*sigma) at t = 0, with
    one Richardson extrapolation step."""
    tm = tau.matrix
    sig = np.asarray(sigma, dtype=complex)

    def at(t: float) -> complex:
        point = SiegelPoint(f.g, tuple(map(tuple, tm + t * sig)))
        return complex(evaluate(f, point).value)

    def central(h: float) -> complex:
        return (at(h) - at(-h)) / (2 * h)

    d1 = central(_DIFFERENCE_STEP)
    d2 = central(_DIFFERENCE_STEP / 2)
    return (4 * d2 - d1) / 3


def derivative_identity_check(f: FourierExpansion, n: DerivativePolynomial,
                              tau: SiegelPoint, sigma,
                              tolerance: float = 1e-6) -> CheckReport:
    """Verify that A equals the t-derivative at 0 of N(F)(tau + t*sigma).

    The right-hand side is a finite difference of the truncated evaluation,
    so sigma is confirmed to be a tangent direction of the form up to the
    stated tolerance."""
    lhs = coefficient_A(f, n, tau, sigma)
    rhs = _directional_derivative(apply_derivative(f, n), tau, sigma)
    abs_err = abs(lhs - rhs)
    scale = max(abs(lhs), abs(rhs))
    rel_err = abs_err / scale if scale > 0 else 0.0
    return CheckReport(
        name="derivative-identity", passed=rel_err <= tolerance,
        abs_error=abs_err, rel_error=rel_err, tolerance=tolerance,
        details={"A": _pair(lhs), "finite_difference": _pair(rhs),
                 "step": _DIFFERENCE_STEP})


DEFAULT_SCALING_PAIRS = ((1, 1), (2, 1), (1, 3), (-1, 2))


def scaling_law_check(f: FourierExpansion, n: DerivativePolynomial,
                      tau: SiegelPoint, v_a, v_b,
                      pairs=DEFAULT_SCALING_PAIRS,
                      tolerance: float = 1e-9) -> CheckReport:
    """A computed from sigma(lambda v_a, mu v_b) factors as D * lambda * mu
    with D independent of the pair; also recomputes B-irrelevant data: the
    ratios A/(lambda mu) must agree across the sample."""
    ratios, a_values = [], []
    for lam, mu in pairs:
        lam, mu = complex(lam), complex(mu)
        if lam == 0 or mu == 0:
            raise ValueError("lambda and mu must be nonzero")
        sig = sigma_matrix(lam * np.asarray(v_a, dtype=complex),
                           mu * np.asarray(v_b, dtype=complex))
        a_val = coefficient_A(f, n, tau, sig)
        ratios.append(a_val / (lam * mu))
        a_values.append(a_val)
    d = ratios[0]
    scale = max(abs(r) for r in ratios)
    spread = max(abs(r - d) for r in ratios)
    rel = spread / scale if scale > 0 else 0.0
    return CheckReport(
        name="scaling-law", passed=rel <= tolerance,
        abs_error=spread, rel_error=rel, tolerance=tolerance,
        details={"D": _pair(d),
                 "pairs": [[_pair(complex(l)), _pair(complex(m))]
                           for l, m in pairs],
                 "A_values": [_pair(a) for a in a_values]})


def corner_exponential_check(data: DegenerationData) -> CheckReport:
    """exp(2*pi*i T_{g+1,g+1}) must equal t exp(c1) (1 + c2 t) modulo t^2;
    with the first-order corner it equals t exp(c1) exp(c2 t) exactly."""
    t = complex(_CORNER_T)
    pm = period_matrix_first_order(data, t)
    lhs = cmath.exp(TWO_PI_I * pm[data.g, data.g])
    gamma1 = cmath.exp(data.c1)
    rhs = t * gamma1 * (1 + data.c2 * t)
    abs_err = abs(lhs - rhs)
    # the omitted t^2 terms bound the allowed discrepancy
    budget = abs(t) ** 2 * max(1.0, abs(gamma1)) \
        * max(1.0, abs(data.c2)) ** 2 + _CORNER_TOLERANCE
    rel = abs_err / max(abs(lhs), abs(rhs), 1e-300)
    return CheckReport(
        name="corner-exponential", passed=abs_err <= budget,
        abs_error=abs_err, rel_error=rel, tolerance=budget,
        details={"t": _pair(t), "lhs": _pair(lhs), "rhs": _pair(rhs)})


def degeneration_limit_check(f_next: FourierExpansion,
                             data: DegenerationData) -> CheckReport:
    """The t -> 0+ limit of the genus-(g+1) form f_next at the degenerating
    period matrix must be its Siegel image siegel_operator(f_next) at tau:
    the constant term of the t-expansion survives alone."""
    if f_next.g != data.g + 1:
        raise IncompatibleExpansionError("genus mismatch")
    path = [SiegelPoint(data.g + 1,
                        tuple(map(tuple, period_matrix_first_order(data, t))))
            for t in _LIMIT_T_VALUES]
    return _limit_report("degeneration-limit", f_next, data.tau,
                         _LIMIT_T_VALUES, path, _LIMIT_TOLERANCE,
                         relative=True)


def fay_check(data: DegenerationData, f_next: FourierExpansion) -> dict:
    """Run the full battery of degeneration checks against one data set.

    f_next is the genus-(g+1) form: B and the limit check read it, and A,
    the derivative identity and the scaling law read its Siegel image
    siegel_operator(f_next).  The derivative polynomial is the constant 1,
    and the derivative identity holds to _DERIVATIVE_TOLERANCE, relative."""
    g = data.g
    f = siegel_operator(f_next)
    n = DerivativePolynomial.constant(g)
    derivative = derivative_identity_check(f, n, data.tau, data.sigma,
                                           tolerance=_DERIVATIVE_TOLERANCE)
    checks = [
        corner_exponential_check(data),
        derivative,
        scaling_law_check(f, n, data.tau, data.v_a, data.v_b),
        degeneration_limit_check(f_next, data),
    ]
    a_val = complex(*derivative.details["A"])
    b_val = coefficient_B(f_next, DerivativePolynomial.constant(g + 1),
                          data.tau, data.aj)
    return {
        "genus": g,
        "A": _pair(a_val),
        "B": _pair(b_val),
        "t_coefficient": _pair(a_val + cmath.exp(data.c1) * b_val),
        "lambda": _pair(data.lambda_),
        "mu": _pair(data.mu),
        "checks": [c.to_json() for c in checks],
        "status": "pass" if all(c.passed for c in checks) else "fail",
    }
