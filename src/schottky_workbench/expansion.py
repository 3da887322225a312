"""Truncated Fourier expansions of Siegel modular forms, exact arithmetic,
the Siegel operator, derivative polynomials and numerical evaluation.

A FourierExpansion stores an exact coefficient for *every* enumerated index
of trace <= max_trace, so "known zero" and "beyond truncation" stay distinct.
It holds the shared index table of (genus, max_trace) plus one aligned
column of exact coefficients, so arithmetic, the Siegel operator and the
numerical sums are array operations over the table.
Derivative prefactors (pi*i)^d are carried symbolically as an integer power,
which evaluation reports as `prefactor_power` and never folds into a value.
The numerical checks, here the Siegel limit and in `fay` the degeneration
checks, each return one CheckReport.
"""

from __future__ import annotations

import json
import math
import operator
import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

import numpy as np

from . import indices as idx

SERIALIZATION_VERSION = 1
_DECIMAL = re.compile(r"-?[0-9]+")      # ASCII only, unlike int()
# the largest genus x max(max_trace, 2) that from_json and the fay-check
# command build a table for (check_table_bound):
# the genus-5 trace-10 frontier (a trace-0 table still holds a g x g index)
MAX_GENUS_TRACE = 50


def check_table_bound(g: int, max_trace: int):
    """Raise ValueError when genus x max(max_trace, 2) is past
    MAX_GENUS_TRACE, before any index table of that size is built."""
    top = max(max_trace, 2)
    if g * top > MAX_GENUS_TRACE:
        raise ValueError(f"genus x max(max_trace, 2) = {g} x {top} is past "
                         f"{MAX_GENUS_TRACE}")


def _is_int(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


def json_complex(val) -> complex:
    """A JSON real or an [re, im] pair of reals as a finite complex number;
    a bool, a string, a third element, an integer past the float range, NaN
    or an infinity (json reads NaN, Infinity and 1e400) raises ValueError."""
    parts = val if isinstance(val, list) else [val, 0]
    if len(parts) == 2 and all(_is_int(v) or isinstance(v, float)
                               for v in parts):
        try:
            z = complex(*parts)
            if np.isfinite(z):
                return z
        except OverflowError:
            pass
    raise ValueError(f"{val!r} is not a finite real or [re, im] pair")


class IncompatibleExpansionError(ValueError):
    """Genus or weight mismatch in expansion arithmetic."""


class TruncationError(KeyError):
    """Coefficient requested beyond the truncation bound."""


class DomainError(ValueError):
    """Evaluation point outside the Siegel upper half-space."""


@dataclass(frozen=True)
class SiegelPoint:
    """A point of the Siegel upper half-space: tau symmetric, Im tau > 0.

    Exact symmetry is enforced by symmetrizing on construction; the smallest
    eigenvalue of Im(tau) is kept for tail bounds.
    """

    g: int
    tau: tuple

    def __post_init__(self):
        m = np.array(self.tau, dtype=complex)
        if m.shape != (self.g, self.g):
            raise DomainError("tau must be a g x g matrix")
        if not np.isfinite(m).all():
            raise DomainError("tau entries must be finite")
        if not np.allclose(m, m.T, rtol=0, atol=1e-12 * (1 + np.abs(m).max())):
            raise DomainError("tau must be symmetric")
        sym = tuple(tuple(0.5 * (m[p][q] + m[q][p]) for q in range(self.g))
                    for p in range(self.g))
        object.__setattr__(self, "tau", sym)
        if self.im_min_eig <= 0:
            raise DomainError("Im(tau) must be positive definite")

    @property
    def matrix(self) -> np.ndarray:
        return np.array(self.tau, dtype=complex)

    @property
    def im_min_eig(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix.imag).min())

    @classmethod
    def scalar(cls, g: int, z: complex) -> "SiegelPoint":
        return cls(g=g, tau=tuple(tuple(z if p == q else 0.0 for q in range(g))
                                  for p in range(g)))

    def direct_sum(self, other: "SiegelPoint") -> "SiegelPoint":
        a, b = self.matrix, other.matrix
        g = self.g + other.g
        m = np.zeros((g, g), dtype=complex)
        m[: self.g, : self.g] = a
        m[self.g :, self.g :] = b
        return SiegelPoint(g=g, tau=tuple(map(tuple, m)))


@dataclass(frozen=True)
class EvalResult:
    """Numerical value of a truncated expansion plus a heuristic tail bound.

    The tail estimate is exp(-pi*lambda_min*(max_trace+2)) scaled by the
    total coefficient mass on the truncation boundary; it is reported, not
    asserted.
    """

    value: complex
    tail_estimate: float
    prefactor_power: int = 0


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one numerical identity check."""

    name: str
    passed: bool
    abs_error: float
    rel_error: float
    tolerance: float
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "status": "pass" if self.passed else "fail",
            "abs_error": self.abs_error,
            "rel_error": self.rel_error,
            "tolerance": self.tolerance,
            "details": self.details,
        }


def _pair(z: complex):
    return [z.real, z.imag]


class FourierExpansion:
    """Exact truncated Fourier expansion: genus, weight, trace bound, the
    shared `table` = indices.index_table(g, max_trace) and `column`, one
    exact coefficient (a Python int or Fraction, in a read-only object
    array) per table row.  `coeffs` is the derived {index: value} view.

    The constructor takes such a mapping or a sequence aligned with the
    table.  Only mapping keys that miss the table's rows are validated;
    an index inside the truncation that the mapping omits is stored as 0.
    """

    def __init__(self, g: int, weight: int, max_trace: int, coeffs,
                 prefactor_power: int = 0):
        self.g = g
        self.weight = weight
        self.max_trace = max_trace
        self.prefactor_power = prefactor_power
        self.table = idx.index_table(g, max_trace)
        column = np.zeros(len(self.table.mats), dtype=object)
        if isinstance(coeffs, Mapping):
            for key, val in coeffs.items():
                column[self._row(key, ValueError)] = val
        elif len(coeffs) == len(column):
            column[:] = coeffs
        else:
            raise ValueError("column length differs from the index table")
        column.setflags(write=False)
        self.column = column

    def _row(self, key, beyond) -> int:
        """Table row of an index; only a key that misses the table is
        validated, and a valid one, beyond the truncation, raises `beyond`."""
        if (r := self.table.row(key)) is None:
            raise beyond(f"{idx.validate_index(key)} is not a genus-{self.g} "
                         f"index of trace <= {self.max_trace}")
        return r

    @cached_property
    def coeffs(self):
        keys = map(idx.as_entries, self.table.mats.tolist())
        return MappingProxyType(dict(zip(keys, self.column)))

    def coefficient(self, key):
        """Exact coefficient at the index; absent keys within the truncation
        are zero, beyond it they raise TruncationError."""
        return self.column[self._row(key, TruncationError)]

    def is_zero(self) -> bool:
        return not np.any(self.column != 0)

    # -- arithmetic -------------------------------------------------------

    def _combine(self, other, op):
        """op on the two columns over the common truncation: the smaller
        trace's table is a prefix of the larger one's."""
        if self.g != other.g or self.weight != other.weight \
                or self.prefactor_power != other.prefactor_power:
            raise IncompatibleExpansionError(
                "expansions differ in genus, weight or prefactor")
        mt = min(self.max_trace, other.max_trace)
        k = len(idx.index_table(self.g, mt).mats)
        return FourierExpansion(self.g, self.weight, mt,
                                op(self.column[:k], other.column[:k]),
                                self.prefactor_power)

    def __add__(self, other):
        return self._combine(other, operator.add)

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def scale(self, c):
        return FourierExpansion(self.g, self.weight, self.max_trace,
                                c * self.column, self.prefactor_power)

    def __eq__(self, other):
        if not isinstance(other, FourierExpansion):
            return NotImplemented
        if (self.g, self.weight, self.max_trace, self.prefactor_power) != \
                (other.g, other.weight, other.max_trace, other.prefactor_power):
            return False
        return bool(np.all(self.column == other.column))

    def __hash__(self):
        return hash((self.g, self.weight, self.max_trace))

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        r, c = np.triu_indices(self.g)
        upper = self.table.mats[:, r, c]
        # by (trace, upper triangle); lexsort's last key is its first
        order = np.lexsort((*upper.T[::-1], self.table.mats.trace(0, 1, 2)))
        entries = []
        for a, s in zip(self.column[order], upper[order].tolist()):
            if not isinstance(a, int):
                raise ValueError("only integer coefficients serialize")
            entries.append({"S": s, "a": str(a)})
        return {
            "format": "fourier-expansion",
            "version": SERIALIZATION_VERSION,
            "genus": self.g,
            "weight": self.weight,
            "max_trace": self.max_trace,
            "prefactor_power": self.prefactor_power,
            "entries": entries,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "FourierExpansion":
        """Read a document of fourier-expansion.schema.json; anything else,
        such as a bool or a float where an integer belongs, or a genus x
        max_trace past MAX_GENUS_TRACE, raises ValueError before any index
        table is built."""
        if not isinstance(doc, dict) or \
                doc.get("format") != "fourier-expansion" or \
                not _is_int(doc.get("version")) or \
                doc["version"] != SERIALIZATION_VERSION:
            raise ValueError("not a supported fourier-expansion document")
        doc = {"prefactor_power": 0, **doc}
        for name, least in (("genus", 1), ("weight", -math.inf),
                            ("max_trace", 0), ("prefactor_power", 0)):
            val = doc.get(name)
            if not _is_int(val) or val < least:
                raise ValueError(f"{name} {val!r} is not an integer >= "
                                 f"{least}")
        g = doc["genus"]
        check_table_bound(g, doc["max_trace"])
        entries = doc.get("entries")
        if not isinstance(entries, list):
            raise ValueError("entries must be a list")
        coeffs = {}
        for ent in entries:
            if not isinstance(ent, dict) or ent.keys() != {"S", "a"}:
                raise ValueError(f"entry {ent!r} is not an object of S and a")
            if not isinstance(ent["S"], list) or \
                    not all(_is_int(v) for v in ent["S"]):
                raise ValueError(f"S {ent['S']!r} is not a list of integers")
            if not isinstance(ent["a"], str) or \
                    not _DECIMAL.fullmatch(ent["a"]):
                raise ValueError(f"a {ent['a']!r} is not a decimal string")
            s = idx.from_upper_triangle(g, ent["S"])
            if s in coeffs:
                raise ValueError(f"index {ent['S']} is listed twice")
            coeffs[s] = int(ent["a"])
        return cls(g=g, weight=doc["weight"], max_trace=doc["max_trace"],
                   coeffs=coeffs, prefactor_power=doc["prefactor_power"])

    def dumps(self) -> str:
        return json.dumps(self.to_json(), separators=(",", ":"),
                          sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "FourierExpansion":
        return cls.from_json(json.loads(text))


def siegel_operator(f: FourierExpansion) -> FourierExpansion:
    """Drop one genus: the new coefficient at S1 is the old one at S1 + [0].

    Weight and truncation are preserved.  The rows whose last row and column
    vanish are, in order, the genus-(g-1) table, so this is one row mask.
    """
    if f.g < 2:
        raise IncompatibleExpansionError("siegel operator needs genus >= 2")
    bordered = ~f.table.mats[:, -1, :].any(axis=1)
    return FourierExpansion(f.g - 1, f.weight, f.max_trace,
                            f.column[bordered], f.prefactor_power)


class DerivativePolynomial:
    """A polynomial in the entries x_pq (p <= q) of a symmetric g x g matrix,
    used as a constant-coefficient derivative operator on expansions.

    terms maps a monomial (a sorted tuple of ((p, q), exponent) pairs, 0-based
    positions) to an exact rational coefficient.
    """

    def __init__(self, g: int, terms: dict):
        self.g = g
        clean = {}
        for mono, coef in terms.items():
            mono = tuple(sorted(((int(p), int(q)), int(e)) for (p, q), e in mono))
            for (p, q), e in mono:
                if not (0 <= p <= q < g) or e < 1:
                    raise ValueError("bad monomial variable")
            coef = Fraction(coef)
            if coef:
                clean[mono] = clean.get(mono, Fraction(0)) + coef
        self.terms = {m: c for m, c in clean.items() if c}

    @property
    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e for _, e in mono) for mono in self.terms)

    @classmethod
    def constant(cls, g: int, c=1) -> "DerivativePolynomial":
        return cls(g, {(): Fraction(c)})

    @classmethod
    def variable(cls, g: int, p: int, q: int) -> "DerivativePolynomial":
        p, q = min(p, q), max(p, q)
        return cls(g, {(((p, q), 1),): Fraction(1)})

    def evaluate_rows(self, mats) -> np.ndarray:
        """Exact values (an object column of Fractions) of the polynomial at
        each matrix of a K x g x g integer array."""
        ent = np.asarray(mats).astype(object)
        total = np.full(len(ent), Fraction(0), dtype=object)
        for mono, coef in self.terms.items():
            val = np.full(len(ent), coef, dtype=object)
            for (p, q), e in mono:
                val = val * ent[:, p, q] ** e
            total = total + val
        return total

    def __add__(self, other):
        if self.g != other.g:
            raise ValueError("genus mismatch")
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, Fraction(0)) + c
        return DerivativePolynomial(self.g, terms)

    def __mul__(self, other):
        if self.g != other.g:
            raise ValueError("genus mismatch")
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                merged = {}
                for (pq, e) in m1 + m2:
                    merged[pq] = merged.get(pq, 0) + e
                mono = tuple(sorted(merged.items()))
                terms[mono] = terms.get(mono, Fraction(0)) + c1 * c2
        return DerivativePolynomial(self.g, terms)


def apply_derivative(f: FourierExpansion,
                     n: DerivativePolynomial) -> FourierExpansion:
    """Multiply each coefficient a(X) by N({x_pq}); the (pi*i)^deg(N)
    prefactor is tracked on the result, not applied numerically."""
    if n.g != f.g:
        raise IncompatibleExpansionError("derivative genus mismatch")
    vals = n.evaluate_rows(f.table.mats) * f.column
    return FourierExpansion(
        f.g, f.weight, f.max_trace,
        [int(v) if v.denominator == 1 else v for v in vals],
        f.prefactor_power + n.degree)


def _tr_products(mats: np.ndarray, m) -> np.ndarray:
    """tr(S m) for every S of a K x g x g array and a symmetric matrix m."""
    return np.einsum("kpq,pq->k", mats, m)


def evaluate(f: FourierExpansion, point: SiegelPoint,
             precision: int = None) -> EvalResult:
    """sum over stored indices of a(S) exp(pi*i*tr(S tau)).

    The symbolic prefactor is *not* folded in; it is reported on the result.
    With `precision` set, the sum runs in mpmath at that many decimal
    digits, each phase formed in mpmath from the integer entries of S.
    """
    if point.g != f.g:
        raise IncompatibleExpansionError("point genus mismatch")
    on_boundary = np.einsum("kpp->k", f.table.mats) == f.max_trace
    boundary = np.abs(f.column[on_boundary]).sum()
    tail = math.exp(-math.pi * point.im_min_eig * (f.max_trace + 2)) \
        * float(boundary)
    nonzero = f.column != 0
    mats, col = f.table.mats[nonzero], f.column[nonzero]
    if precision is None:
        # summed exactly rounded: finite differences of evaluate (the
        # derivative identity check) divide its rounding error by their step
        terms = col.astype(float) * np.exp(
            1j * math.pi * _tr_products(mats, point.matrix))
        value = complex(math.fsum(terms.real), math.fsum(terms.imag))
        return EvalResult(value=value, tail_estimate=tail,
                          prefactor_power=f.prefactor_power)
    import mpmath as mp
    with mp.workdps(precision):
        tau = [[mp.mpc(z) for z in row] for row in point.tau]
        pii = mp.mpc(0, mp.pi)
        total = mp.mpc(0)
        for s, a in zip(mats.tolist(), col):
            ph = mp.fsum(s[p][q] * tau[p][q]
                         for p in range(f.g) for q in range(f.g))
            wt = mp.mpf(a.numerator) / a.denominator \
                if isinstance(a, Fraction) else mp.mpf(a)
            total += wt * mp.exp(pii * ph)
    return EvalResult(value=total, tail_estimate=tail,
                      prefactor_power=f.prefactor_power)


def _limit_report(name: str, f: FourierExpansion, point: SiegelPoint,
                  t_values, path, tolerance: float, relative: bool = False,
                  precision: int = None) -> CheckReport:
    """Convergence of F toward its limit (Phi F)(tau) at the genus-(g-1)
    point tau, along the genus-g points of `path`, one per t value, all
    evaluated with `evaluate`'s precision.  abs_error is the deviation
    |F(p) - (Phi F)(tau)| at the last point and rel_error is that over
    max(|(Phi F)(tau)|, 1).  The check passes when rel_error, if
    `relative`, or else abs_error is at most `tolerance`."""
    target = evaluate(siegel_operator(f), point, precision=precision).value
    devs = [float(abs(evaluate(f, p, precision=precision).value - target))
            for p in path]
    limit = complex(target)
    rel = devs[-1] / max(abs(limit), 1.0)
    return CheckReport(
        name=name, passed=(rel if relative else devs[-1]) <= tolerance,
        abs_error=devs[-1], rel_error=rel, tolerance=tolerance,
        details={"t_values": list(t_values), "deviations": devs,
                 "limit": _pair(limit)})


def siegel_limit_check(f: FourierExpansion, point: SiegelPoint, t_values,
                       tolerance: float = 1e-12,
                       precision: int = None) -> CheckReport:
    """Evaluate F at tau (+) i*t for increasing t and compare with the
    Fourier-side Siegel operator: the "siegel-limit" check passes when the
    deviation at the last t is at most `tolerance`."""
    if point.g != f.g - 1:
        raise IncompatibleExpansionError("point genus must be f.g - 1")
    t_values = tuple(t_values)
    if not t_values or any(t <= 0 for t in t_values):
        raise DomainError("t_values must be nonempty and positive")
    path = [point.direct_sum(SiegelPoint.scalar(1, 1j * t))
            for t in t_values]
    return _limit_report("siegel-limit", f, point, t_values, path, tolerance,
                         precision=precision)
