"""Even unimodular lattices and short-vector enumeration.

The two rank-16 building blocks are E8 + E8 and D16+; both are realized by
explicit integer Gram matrices (documented below) so that every vector is an
integer coordinate tuple in the corresponding basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .indices import is_psd


class LatticeError(ValueError):
    """Invalid lattice data."""


class UnsupportedLatticeError(LatticeError):
    """Requested lattice name is not one of the supported constructions."""


# E8 in its root basis: the Gram matrix is the E8 Cartan matrix (simple roots
# in Bourbaki coordinates; all basis vectors have norm 2).
E8_GRAM = (
    (2, 0, -1, 0, 0, 0, 0, 0),
    (0, 2, 0, -1, 0, 0, 0, 0),
    (-1, 0, 2, -1, 0, 0, 0, 0),
    (0, -1, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, 0),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, -1),
    (0, 0, 0, 0, 0, 0, -1, 2),
)

# D16+ = D16 glued by the all-halves vector.  Basis rows (in R^16):
#   b1 = (1/2, ..., 1/2),  b2 = e1 + e2,  b_{i+2} = e_i - e_{i+1} (i = 1..14).
# The basis has determinant -1 in ambient coordinates, so it spans the whole
# glued lattice; the Gram matrix below is b_i . b_j.
_D16 = [[0] * 16 for _ in range(16)]
_D16[0][0] = 4
_D16[0][1] = _D16[1][0] = 1
_D16[1][1] = 2
_D16[1][3] = _D16[3][1] = 1
for _i in range(2, 16):
    _D16[_i][_i] = 2
for _i in range(2, 15):
    _D16[_i][_i + 1] = _D16[_i + 1][_i] = -1
D16PLUS_GRAM = tuple(tuple(row) for row in _D16)
del _D16, _i


def _bareiss_det(mat) -> int:
    """Exact determinant of an integer matrix (fraction-free elimination)."""
    a = [list(map(int, row)) for row in mat]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class Lattice:
    """An even unimodular positive definite lattice, given by a Gram matrix."""

    name: str
    rank: int
    gram: tuple

    def __post_init__(self):
        g = self.gram
        if len(g) != self.rank or any(len(row) != self.rank for row in g):
            raise LatticeError("gram matrix shape does not match rank")
        for i in range(self.rank):
            if g[i][i] % 2 != 0:
                raise LatticeError("gram diagonal must be even")
            for j in range(i):
                if g[i][j] != g[j][i]:
                    raise LatticeError("gram matrix must be symmetric")
        # psd with determinant 1 is positive definite
        if not is_psd(g):
            raise LatticeError("gram matrix must be positive definite")
        if _bareiss_det(g) != 1:
            raise LatticeError("gram matrix must be unimodular")

    @property
    def gram_array(self) -> np.ndarray:
        return np.array(self.gram, dtype=np.int64)

    def key(self) -> str:
        return self.name


SUPPORTED = {
    "E8": (8, E8_GRAM),
    "D16plus": (16, D16PLUS_GRAM),
}


def build_lattice(name: str) -> Lattice:
    """Return one of the named even unimodular lattices (E8 or D16plus)."""
    try:
        rank, gram = SUPPORTED[name]
    except KeyError:
        raise UnsupportedLatticeError(
            f"unsupported lattice {name!r}; supported: {sorted(SUPPORTED)}"
        ) from None
    return Lattice(name=name, rank=rank, gram=gram)


def direct_sum(l1: Lattice, l2: Lattice) -> Lattice:
    """Orthogonal direct sum, with block-diagonal Gram matrix."""
    n1, n2 = l1.rank, l2.rank
    gram = tuple(
        tuple(l1.gram[i][j] if j < n1 else 0 for j in range(n1 + n2))
        for i in range(n1)
    ) + tuple(
        tuple(0 if j < n1 else l2.gram[i - n1][j - n1] for j in range(n1 + n2))
        for i in range(n1, n1 + n2)
    )
    return Lattice(name=f"{l1.name}+{l2.name}", rank=n1 + n2, gram=gram)


def e8e8() -> Lattice:
    ds = direct_sum(build_lattice("E8"), build_lattice("E8"))
    return Lattice(name="E8E8", rank=ds.rank, gram=ds.gram)


def _unit_ldl(gram: np.ndarray):
    """G = L diag(d) L^T with L unit lower triangular (float)."""
    c = np.linalg.cholesky(gram.astype(np.float64))
    dsq = np.diag(c)
    return c / dsq, dsq * dsq


def _enumerate_array(gram: np.ndarray, max_norm: int) -> np.ndarray:
    """All vectors x with x^T G x <= max_norm, sorted by (norm, lex coords).

    Quadratic-completion enumeration: coordinates are generated from the last
    to the first inside the exact interval allowed by the LDL form of G, with
    small float padding; an exact integer norm filter runs at the end, so the
    float arithmetic can only overproduce candidates, never lose solutions.
    """
    n = gram.shape[0]
    if max_norm < 0:
        raise ValueError("max_norm must be >= 0")
    lmat, d = _unit_ldl(gram)
    bound = float(max_norm) + 0.25
    # partial prefixes: coordinates i+1..n-1 filled
    xs = np.zeros((1, n), dtype=np.int16)
    partial = np.zeros(1, dtype=np.float64)
    for i in range(n - 1, -1, -1):
        center = xs[:, i + 1 :].astype(np.float64) @ lmat[i + 1 :, i]
        radius = np.sqrt(np.maximum(bound - partial, 0.0) / d[i])
        pad = 1e-7 * (1.0 + np.abs(center))
        lo = np.ceil(-center - radius - pad).astype(np.int64)
        hi = np.floor(-center + radius + pad).astype(np.int64)
        width = np.maximum(hi - lo + 1, 0)
        total = int(width.sum())
        rep = np.repeat(np.arange(len(xs)), width)
        offs = np.arange(total) - np.repeat(np.cumsum(width) - width, width)
        xi = lo[rep] + offs
        if total and (xi.min() < -(1 << 15) or xi.max() >= 1 << 15):
            raise LatticeError("coordinates exceed int16 range")
        new_xs = xs[rep]
        new_xs[:, i] = xi.astype(np.int16)
        y = xi.astype(np.float64) + center[rep]
        partial = partial[rep] + d[i] * y * y
        xs = new_xs
    del partial
    # exact integer filter, chunked to bound the int64 temporaries
    norms = np.empty(len(xs), dtype=np.int64)
    for lo in range(0, len(xs), 500_000):
        chunk = xs[lo : lo + 500_000].astype(np.int64)
        norms[lo : lo + 500_000] = np.einsum("ij,jk,ik->i", chunk, gram, chunk)
    keep = norms <= max_norm
    xs, norms = xs[keep], norms[keep]
    if len(xs) and int(np.abs(xs).max()) > 127:
        raise LatticeError("coordinates exceed int8 range")  # not expected
    xs = xs.astype(np.int8)
    order = np.lexsort(tuple(xs[:, j] for j in range(n - 1, -1, -1)) + (norms,))
    return xs[order], norms[order]


_SHELL_CACHE: dict = {}


def short_vector_shells(lat: Lattice, max_norm: int) -> dict:
    """Vectors of norm <= max_norm grouped by norm, as int8 arrays.

    Results are cached per lattice; a request below an already-computed bound
    reuses the stored arrays.
    """
    if max_norm < 0 or max_norm % 2 != 0:
        raise ValueError("max_norm must be a non-negative even integer")
    ck = (lat.gram, max_norm)
    got = _SHELL_CACHE.get(ck)
    if got is not None:
        return got
    # reuse a larger cached run if present
    for (gram, bound), shells in _SHELL_CACHE.items():
        if gram == lat.gram and bound >= max_norm:
            sub = {m: v for m, v in shells.items() if m <= max_norm}
            _SHELL_CACHE[ck] = sub
            return sub
    xs, norms = _enumerate_array(lat.gram_array, max_norm)
    shells = {
        m: xs[norms == m] for m in range(0, max_norm + 1, 2)
    }
    _SHELL_CACHE[ck] = shells
    return shells


@lru_cache(maxsize=None)
def _named(name: str) -> Lattice:
    if name == "E8E8":
        return e8e8()
    return build_lattice(name)


def lattice_by_id(name: str) -> Lattice:
    """Resolve a lattice id as used by the CLI and the cache (E8, D16plus, E8E8)."""
    if name not in ("E8", "D16plus", "E8E8"):
        raise UnsupportedLatticeError(f"unknown lattice id {name!r}")
    return _named(name)
