"""Per-coefficient reference loops for the columnar expansion layer.

These are the dict-based loops the package used before expansions became a
shared index table plus one coefficient column.  They walk `f.coeffs` one
index at a time and serve as the test oracle: integer results must match
the package exactly, float results to a small multiple of the term mass
sum |a N exp(pi i tr S tau)|.
"""

import cmath
import math
import operator
from fractions import Fraction

import numpy as np

from index_rows import trace
from schottky_workbench import expansion, fay
from schottky_workbench.expansion import DerivativePolynomial as Poly
from schottky_workbench.expansion import SiegelPoint

TWO_PI_I = 2j * math.pi


def phase_trace(s, tau, g=None) -> complex:
    """sum_{p,q} S_pq tau_pq over the leading g x g block (default: all)."""
    n = len(s) if g is None else g
    total = 0j
    for p in range(n):
        total += s[p][p] * complex(tau[p][p])
        for q in range(p + 1, n):
            total += 2 * s[p][q] * complex(tau[p][q])
    return total


def combine(f1, f2, op) -> dict:
    """op(a1, a2) over the indices of both, up to the common truncation."""
    mt = min(f1.max_trace, f2.max_trace)
    c1, c2 = f1.coeffs, f2.coeffs
    keys = {s for s in c1 if trace(s) <= mt} | {s for s in c2
                                                 if trace(s) <= mt}
    return {s: op(c1.get(s, 0), c2.get(s, 0)) for s in keys}


def scale(f, c) -> dict:
    return {s: c * v for s, v in f.coeffs.items()}


def siegel_operator(f) -> dict:
    g = f.g - 1
    out = {}
    for s, v in f.coeffs.items():
        if any(s[g][q] != 0 for q in range(g + 1)):
            continue
        out[tuple(tuple(s[p][q] for q in range(g)) for p in range(g))] = v
    return out


def poly_at(n, s) -> Fraction:
    """Exact value of a DerivativePolynomial at one index."""
    total = Fraction(0)
    for mono, coef in n.terms.items():
        val = coef
        for (p, q), e in mono:
            val *= Fraction(s[p][q]) ** e
        total += val
    return total


def evaluate(f, point):
    """(value, tail estimate, term mass) of the float evaluation."""
    lam = point.im_min_eig
    boundary = sum(abs(v) for s, v in f.coeffs.items()
                   if trace(s) == f.max_trace)
    tail = math.exp(-math.pi * lam * (f.max_trace + 2)) * float(boundary)
    total, mass = 0j, 0.0
    for s, a in f.coeffs.items():
        if a == 0:
            continue
        term = float(a) * cmath.exp(1j * math.pi
                                    * phase_trace(s, point.tau))
        total += term
        mass += abs(term)
    return total, tail, mass


def coefficient_A(f, n, tau, sigma):
    """(A, term mass)."""
    tm = tau.matrix
    total, mass = 0j, 0.0
    for s, a in f.coeffs.items():
        if a == 0:
            continue
        nv = poly_at(n, s)
        if nv == 0:
            continue
        term = float(a) * float(nv) \
            * (1j * math.pi * phase_trace(s, sigma, f.g)) \
            * cmath.exp(1j * math.pi * phase_trace(s, tm, f.g))
        total += term
        mass += abs(term)
    return total, mass


def coefficient_B(f_next, n_next, tau, aj):
    """(B, term mass)."""
    g = f_next.g - 1
    ajv = [complex(z) for z in aj]
    tm = tau.matrix
    total, mass = 0j, 0.0
    for s, a in f_next.coeffs.items():
        if a == 0 or s[g][g] != 2:
            continue
        nv = poly_at(n_next, s)
        if nv == 0:
            continue
        border = sum(s[p][g] * ajv[p] for p in range(g))
        term = float(a) * float(nv) * cmath.exp(TWO_PI_I * border) \
            * cmath.exp(1j * math.pi * phase_trace(s, tm, g))
        total += term
        mass += abs(term)
    return total, mass


# -- the comparison --------------------------------------------------------


def siegel_point(g: int):
    """A non-diagonal point: Re tau varies per entry, Im tau has diagonal
    1.1 + 0.1 p and off-diagonal 0.15 (positive definite for g <= 4)."""
    return SiegelPoint(g, tuple(
        tuple(complex((0.1 if p == q else 0.3) - 0.07 * (p + q),
                      1.1 + 0.1 * p if p == q else 0.15)
              for q in range(g)) for p in range(g)))


def polynomial(g: int):
    """x_00 x_{0,g-1} + x_{g-1,g-1} + 1/3: rational, inhomogeneous, and
    nonzero at most indices."""
    return Poly.variable(g, 0, 0) * Poly.variable(g, 0, g - 1) \
        + Poly.variable(g, g - 1, g - 1) + Poly.constant(g, Fraction(1, 3))


def assert_matches_reference(f):
    """+, -, scale and the Siegel operator exactly; evaluate and A to 1e-12
    of their term mass."""
    lower = expansion.FourierExpansion(
        f.g, f.weight, f.max_trace - 2,
        {s: 5 * v - 1 for s, v in f.coeffs.items()
         if trace(s) <= f.max_trace - 2})
    assert dict((f + lower).coeffs) == combine(f, lower, operator.add)
    assert dict((lower - f).coeffs) == combine(lower, f, operator.sub)
    assert dict((f - f).coeffs) == combine(f, f, operator.sub)
    third = Fraction(-2, 3)
    assert dict(f.scale(third).coeffs) == scale(f, third)
    if f.g >= 2:
        assert dict(expansion.siegel_operator(f).coeffs) == siegel_operator(f)

    point = siegel_point(f.g)
    got = expansion.evaluate(f, point)
    want, tail, mass = evaluate(f, point)
    assert mass > 0 and abs(got.value - want) <= 1e-12 * mass
    assert got.tail_estimate == tail

    n = polynomial(f.g)
    rng = np.random.default_rng(f.g)
    v_a, v_b = rng.normal(size=(2, f.g)) + 1j * rng.normal(size=(2, f.g))
    sigma = fay.sigma_matrix(v_a, v_b)
    got = fay.coefficient_A(f, n, point, sigma)
    want, mass = coefficient_A(f, n, point, sigma)
    assert mass > 0 and abs(got - want) <= 1e-12 * mass


def assert_b_matches_reference(f_next):
    """B of a genus-(g+1) expansion to 1e-12 of its term mass."""
    g = f_next.g - 1
    point = siegel_point(g)
    n_next = polynomial(f_next.g)
    aj = [complex(0.2 - 0.1 * p, 0.05 * (p + 1)) for p in range(g)]
    got = fay.coefficient_B(f_next, n_next, point, aj)
    want, mass = coefficient_B(f_next, n_next, point, aj)
    assert mass > 0 and abs(got - want) <= 1e-12 * mass
