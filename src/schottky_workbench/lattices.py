"""Even unimodular lattices, short-vector enumeration, shell sizes from the
theta series' modular form, and shell orbits.

The two rank-16 building blocks are E8 + E8 and D16+; both are realized by
explicit integer Gram matrices (documented below) so that every vector is an
integer coordinate tuple in the corresponding basis.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .indices import InvalidIndexError, orbit_labels, psd_pivots, \
    validate_index


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


@dataclass(frozen=True)
class Lattice:
    """An even unimodular positive definite lattice, given by a Gram matrix.

    Each instance owns one private store of the data derived from its Gram
    matrix: the int64 Gram array (`gram_array`, built once, read-only), the
    one shell run of `short_vector_shells`, the orbit representatives and
    sizes of `shell_orbits` (keyed by norm), and the histograms of
    `tag_histograms` (keyed by norms and fixed vectors).  The store takes
    no part in equality or hashing, and two instances with equal Gram
    matrices do not share it; `lattice_by_id` returns one instance per
    name, so its callers do.
    """

    name: str
    rank: int
    gram: tuple
    _store: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        try:
            g = validate_index(self.gram)
        except InvalidIndexError as exc:
            raise LatticeError(f"gram matrix is not even, symmetric and "
                               f"positive definite: {exc}") from None
        if len(g) != self.rank:
            raise LatticeError("gram matrix shape does not match rank")
        # no zero pivot and a last pivot (the determinant) of 1
        pivots = psd_pivots(g)
        if 0 in pivots or pivots[-1] != 1:
            raise LatticeError("gram matrix must be unimodular")
        gram = np.array(g, dtype=np.int64)
        gram.flags.writeable = False
        self._store.update(gram=gram, shells={}, orbits={}, tags={})

    @property
    def gram_array(self) -> np.ndarray:
        return self._store["gram"]


def _block_sum(g1, g2) -> tuple:
    """Block-diagonal Gram matrix of an orthogonal direct sum."""
    n1, n2 = len(g1), len(g2)
    return tuple(tuple(row) + (0,) * n2 for row in g1) + \
        tuple((0,) * n1 + tuple(row) for row in g2)


def direct_sum(l1: Lattice, l2: Lattice) -> Lattice:
    """Orthogonal direct sum, with block-diagonal Gram matrix."""
    return Lattice(name=f"{l1.name}+{l2.name}", rank=l1.rank + l2.rank,
                   gram=_block_sum(l1.gram, l2.gram))


# float64 sqrt of an integer below 2**52 is within 1 of its integer square
# root, and every square formed while correcting it stays inside int64
_SQRT_EXACT = 1 << 52


def _isqrt(disc: np.ndarray) -> np.ndarray:
    """Exact floor square roots of a non-negative int64 array.

    A float64 sqrt corrected by one integer step each way; exact while every
    entry is below _SQRT_EXACT, so a larger entry raises ArithmeticError
    instead of rounding.
    """
    if disc.size and int(disc.max()) >= _SQRT_EXACT:
        raise ArithmeticError(
            "a discriminant reaches 2**52: its float64 square root would "
            "not be exact")
    r = np.sqrt(disc.astype(np.float64)).astype(np.int64)
    r -= r * r > disc
    r += (r + 1) * (r + 1) <= disc
    return r


def _expand(lo: np.ndarray, hi: np.ndarray):
    """Row index and value of every integer in each interval [lo_k, hi_k].

    A value with |x| > 32767 raises LatticeError: the walk keeps one half
    of a shell, and the other half's coordinates are the negated ones.  The
    values are the integers of the non-empty intervals, so their ends are
    checked before any array of them is allocated.
    """
    width = np.maximum(hi - lo + 1, 0)
    full = width > 0
    if full.any() and (lo[full].min() <= -(1 << 15)
                       or hi[full].max() >= 1 << 15):
        raise LatticeError("coordinates exceed int16 range")
    rep = np.repeat(np.arange(len(lo)), width)
    xi = np.arange(len(rep)) - np.repeat(np.cumsum(width) - width - lo, width)
    return rep, xi


# the walk expands each level in blocks of at most this many new prefixes
# and finishes one block before it starts the next; a level keeps one
# block's exact state and trail (parent row, new coordinate), not its
# coordinates, so the walk's memory does not grow with the number of vectors
_WALK_ROWS = 1 << 12

# entry budget of one block: of int64 tags in `_tag_histograms`, and of
# inner products in the direct sum's pair histograms, whose float64 and
# integer temporaries stay at 256 KiB each (512 KiB complex weights for
# genus >= 3)
_BLOCK_ENTRIES = 1 << 15

# the least pad of a walk interval, 1e-7 (1 + |c|): it covers a center's
# float error, which `_prefix_walk` bounds in units of float64's roundoff
_PAD = 1e-7
_ROUNDOFF = 2.0 ** -53


def _center_rows(gram: np.ndarray) -> list:
    """Row 0 of G[i:, i:]^-1 for i = 0..n-2, each entry an exact rational
    rounded once to float64.

    One fraction-free elimination of [G | I] from its last coordinate, by
    the update of `indices._border` with the pivots taken n-1 down to 1.
    It factors G = U D U^T with U unit upper triangular, so G[i:, i:] =
    U_ii D_ii U_ii^T and row 0 of its inverse is (U^-1)[i, i:] / d_i.  Once
    the pivots after i are used, row i is det G[i+1:, i+1:] times
    [(D U^T)[i] | (U^-1)[i]], whose diagonal entry d_i det G[i+1:, i+1:] is
    det G[i:, i:].  So the row is the identity part of row i over its
    diagonal entry, a quotient of Python ints, which `/` rounds correctly.
    G is positive definite, so no pivot is 0.
    """
    n = len(gram)
    m = [row + [int(r == c) for c in range(n)]
         for r, row in enumerate(gram.tolist())]
    prev = 1
    for k in range(n - 1, 0, -1):
        row, p = m[k], m[k][k]
        for r in range(k):
            f = m[r][k]
            m[r] = [(p * a - f * b) // prev for a, b in zip(m[r], row)]
        prev = p
    return [[a / m[i][i] for a in m[i][n + i:]] for i in range(n - 1)]


def _prefix_walk(gram: np.ndarray, max_norm: int):
    """Blocks of every prefix (x_0..x_{n-2}) that can reach norm <= max_norm.

    Coordinates are filled first to last.  A prefix carries exact integer
    state: q = x_p^T G_pp x_p and h = (G x_p) on the unfilled coordinates u.
    Given the prefix, the real minimum of the norm over x_u is reached at
    -G_uu^{-1} h; its first coordinate is the center of the next interval,
    and the minimum itself is the carried float `partial`.  Each interval
    is padded by small float slack, so the walk can only overproduce
    prefixes, never lose one.  Each level is expanded in blocks of at most
    `_WALK_ROWS` new prefixes, walked depth first.  Yields (trail, q, h_last)
    per block, blocks in lexicographic order: q and h of the last
    coordinate, and the trail of the block's coordinates, one pair
    (parent row, int16 value) per filled coordinate i: entry i maps each
    prefix of level i to its row at level i - 1 and its x_i.

    A level holds no coordinates and no float temporaries while the walk
    descends: its block's q, h and partial, the block boundaries of its
    children and its trail entry.  h is kept only on the open coordinates
    k that a filled one touches (G[:i, k] != 0 at level i), fixed per
    level by the zero pattern of G; every other entry is identically zero.
    On E8, E8 + E8 and D16+ that is at most 2 columns.

    Only the zero prefix and the lexicographically positive prefixes (first
    nonzero coordinate > 0) are walked; their negations are the rest.  G is
    positive definite, so q = 0 holds on the zero prefix alone, and its next
    coordinate starts at 0.  The zero prefix is thus row 0 of the first
    block at every level.

    Exactness of the centers: the rows of G_uu^-1 are exact rationals
    rounded once (`_center_rows`).  Under `_expand`'s cap |x| <= 32767, at
    level i each live |h_k| is at most r_k = 32767 sum_{j<i} |G_jk|, and c
    = sum_k h_k w_k is formed from L live products, so its float error is
    at most gamma_{L+1} sum_k |w_k| r_k, gamma_j = j u / (1 - j u) with u =
    2**-53 (Higham, Accuracy and Stability of Numerical Algorithms,
    section 3.1); about 3e-11 on D16+.  The walk checks once, before it
    walks any prefix, that this stays below 1e-7, the least pad, and that
    every r_k is below 2**53, so h is exact in int64 and in float64;
    otherwise it raises ArithmeticError.
    """
    n = gram.shape[0]
    bound = float(max_norm) + 0.25
    # the columns of h at level i: the open coordinates a filled one touches
    live = [np.flatnonzero(gram[:i, i:].any(axis=0)) + i for i in range(n)]
    levels = []
    for i, row in enumerate(_center_rows(gram)):
        # row 0 of G_uu^{-1} for u = (i..n-1): its entry 0 is 1 / (the LDL
        # pivot of x_i), and minus its product with h is the center of x_i
        w = np.array(row)[live[i] - i]
        reach = 32767 * np.abs(gram[:i, live[i]]).sum(axis=0)
        gamma = (len(w) + 1) * _ROUNDOFF / (1 - (len(w) + 1) * _ROUNDOFF)
        if reach.max(initial=0) >= 1 << 53 or \
                gamma * float((np.abs(w) * reach).sum()) >= _PAD:
            raise ArithmeticError(
                f"the float error of a level-{i} center could reach the "
                f"interval pad {_PAD}")
        at = {k: j for j, k in enumerate(live[i].tolist())}
        # each column of level i + 1: its column at level i (None if it
        # opens now) and its coefficient G_ik of x_i
        moves = [(at.get(k), int(gram[i, k])) for k in live[i + 1].tolist()]
        levels.append((w, row[0], at.get(i), moves))

    def interval(i, q, h, partial):
        """the center c of x_i on these prefixes and its padded interval
        [lo, hi]; elementwise, so a slice of a block gets the same floats
        as the whole block"""
        w, w0 = levels[i][:2]
        c = np.zeros(len(q))
        for j, wj in enumerate(w):
            c += h[:, j] * wj
        radius = np.sqrt(np.maximum(bound - partial, 0.0) * w0)
        pad = _PAD * (1.0 + np.abs(c))
        lo = np.ceil(-c - radius - pad).astype(np.int64)
        hi = np.floor(-c + radius + pad).astype(np.int64)
        lo[q == 0] = 0
        return c, lo, hi

    def descend(i, trail, q, h, partial):
        if i == n - 1:
            # h has at most one column now: that of the last coordinate
            yield trail, q, h[:, 0] if h.shape[1] else np.zeros_like(q)
            return
        # a level keeps only its block boundaries: each block's centers and
        # intervals are formed again from its own parents
        lo, hi = interval(i, q, h, partial)[1:]
        ends = np.cumsum(np.maximum(hi - lo + 1, 0))
        del lo, hi
        w0, at, moves = levels[i][1:]
        b = 0
        while b < len(ends):
            # the next parents whose children fit in one block
            e = int(np.searchsorted(ends, (ends[b - 1] if b else 0)
                                    + _WALK_ROWS, "right"))
            e = max(e, b + 1)
            c, lo, hi = interval(i, q[b:e], h[b:e], partial[b:e])
            rep, xi = _expand(lo, hi)
            y = xi + c[rep]
            rep += b
            hx = 0 if at is None else h[rep, at]
            qb = q[rep] + xi * (gram[i, i] * xi + 2 * hx)
            hb = np.empty((len(rep), len(moves)), dtype=np.int64)
            for j, (src, gik) in enumerate(moves):
                hb[:, j] = gik * xi
                if src is not None:
                    hb[:, j] += h[rep, src]
            pb = partial[rep] + y * y / w0
            step = (rep, xi.astype(np.int16))
            del c, lo, hi, y, hx, xi
            yield from descend(i + 1, trail + (step,), qb, hb, pb)
            b = e

    yield from descend(0, (), np.zeros(1, dtype=np.int64),
                       np.zeros((1, 0), dtype=np.int64), np.zeros(1))


def _vectors(gram: np.ndarray, max_norm: int):
    """Blocks of every lexicographically positive x (first nonzero
    coordinate > 0) with x^T G x <= max_norm, in lexicographic order, with
    no coordinates built: (trail, rep, xi, norms), the block's trail from
    `_prefix_walk` and, per vector, its prefix row, its int64 last
    coordinate and its exact int64 norm.

    Every other vector of the ellipsoid is 0 or the negation of one of
    these, and G is positive definite, so only 0 has norm 0.
    `_prefix_walk` fills every coordinate but the last, x, which ranges
    over the exact integer interval of a x^2 + 2 h x + q <= max_norm
    (a = G_ll) with ends from `_isqrt`, so no norm needs a filter; on
    the zero prefix (q = 0) it starts at 1.  Memory is the walk's bounded
    state plus one block.  A coordinate with |x| > 32767 raises
    LatticeError, and a discriminant at or above 2**52 ArithmeticError.
    """
    gram = np.asarray(gram, dtype=np.int64)
    n = gram.shape[0]
    a = int(gram[n - 1, n - 1])
    for trail, q, h in _prefix_walk(gram, max_norm):
        disc = h * h - a * (q - max_norm)
        r = _isqrt(np.maximum(disc, 0))
        lo = -((h + r) // a)
        lo[q == 0] = 1
        hi = np.where(disc >= 0, (r - h) // a, lo - 1)
        rep, xi = _expand(lo, hi)
        yield trail, rep, xi, q[rep] + xi * (a * xi + 2 * h[rep])


def _prefix_columns(trail):
    """(j, int16 x_j of every prefix of a block) for j = n - 2 down to 0:
    the prefixes' coordinates, followed back along the walk's trail once."""
    row = slice(None)
    for j in range(len(trail) - 1, -1, -1):
        parent, x = trail[j]
        yield j, x[row]
        row = parent[row]


def _coords(trail, rep, xi) -> np.ndarray:
    """The int8 coordinates of a block of `_vectors`: each vector takes
    its prefix's coordinates (`_prefix_columns`) and its last coordinate.

    The guard reads what the vectors hold: |x| > 127 in any of their
    coordinates raises LatticeError, so negating a block never wraps; the
    full ellipsoid is symmetric, so it reaches -128 exactly when it
    reaches 128.
    """
    xs = np.empty((len(rep), len(trail) + 1), dtype=np.int8)
    cols = ((j, x[rep]) for j, x in _prefix_columns(trail))
    for j, v in itertools.chain(cols, [(len(trail), xi)]):
        if v.size and (v.min() < -127 or v.max() > 127):
            raise LatticeError("coordinates exceed int8 range")
        xs[:, j] = v
    return xs


def _shells(gram: np.ndarray, max_norm: int) -> dict:
    """{m: int8 array of the vectors of norm m} for even m <= max_norm.

    Each block of `_vectors` is split by norm as it arrives, so each half
    shell keeps the walk's lexicographic order with no sort.  Negation
    reverses that order, so the full shell is -half[::-1] followed by half,
    both written into one array.
    """
    n = len(gram)
    parts = {}  # per norm from the first block: too big a bound raises first
    for trail, rep, xi, norms in _vectors(gram, max_norm):
        xs = _coords(trail, rep, xi)
        for m in range(2, max_norm + 1, 2):
            parts.setdefault(m, []).append(xs[norms == m])
    shells = {0: np.zeros((1, n), dtype=np.int8)}
    for m in range(2, max_norm + 1, 2):
        half = parts.pop(m)
        k = sum(map(len, half))
        shell = shells[m] = np.empty((2 * k, n), dtype=np.int8)
        np.concatenate(half, out=shell[k:])
        np.negative(shell[k:][::-1], out=shell[:k])
    return shells


def _shell_counts(gram: np.ndarray, max_norm: int) -> dict:
    """{m: #{x : x^T G x = m}} for even m <= max_norm, without building x:
    the count-only walk, which the genus-1 direct sum reads and which is
    the walk oracle of `shell_sizes`.

    Bincounts the exact norms of `_vectors` block by block, with no
    coordinates: memory is the walk's bounded state plus one block's norms.
    The walk visits one of x and -x, so each count m > 0 is twice its
    bincount, and norm 0 has the zero vector alone.
    """
    counts = 0      # an array from the first block on (see `_shells`)
    for *_, norms in _vectors(gram, max_norm):
        counts = counts + np.bincount(norms // 2, minlength=max_norm // 2 + 1)
    return {2 * k: 2 * int(c) if k else 1 for k, c in enumerate(counts)}


def _tag_histograms(gram: np.ndarray, fixed: np.ndarray, norm: int,
                    m: int) -> np.ndarray:
    """Per row x_r of `fixed`, the histogram of the tags <y, x_r> over the
    vectors y of norm m, from one count-only walk: int64 entry [r, t + b]
    is #{y : y^T G y = m, <y, x_r> = t}, |t| <= b = isqrt(m * norm).

    A tag is linear in y.  For each block of `_vectors`, x_j (G x_r)_j is
    summed along the trail (`_prefix_columns`) into one int64 per prefix
    and row, and x_{n-1} (G x_r)_{n-1} is added for each last coordinate;
    only the vectors of norm exactly m are kept and bincounted, and no
    coordinate array is formed.  The walk yields one of y and -y, and
    <-y, x> = -<y, x>, so each full row is h + h[::-1].  The rows of
    `fixed` go in chunks whose tags over one block's vectors stay within
    _BLOCK_ENTRIES entries, all in the same walk.

    Exactness: the walk's coordinates are at most 32767 in absolute value,
    so every partial tag is at most n * 32767 * max|G x_r| in absolute
    value, far below 2**63 on E8, D16+ and E8 + E8; a Gram matrix and
    fixed vectors for which the bound reaches 2**63 raise ArithmeticError
    before the walk.  When every x_r has norm `norm`, Cauchy-Schwarz
    bounds each final tag by b; a tag outside [-b, b] (a fixed vector
    longer than `norm`) raises ArithmeticError before it is binned.
    """
    n = len(gram)
    b = math.isqrt(m * norm)
    width = 2 * b + 1
    gx = gram @ fixed.T.astype(np.int64)
    if gx.size and n * 32767 * int(np.abs(gx).max()) >= 1 << 63:
        raise ArithmeticError("a partial tag could reach 2**63")
    hist = np.zeros((len(fixed), width), dtype=np.int64)
    for trail, rep, xi, norms in _vectors(gram, m):
        step = max(1, _BLOCK_ENTRIES // max(len(rep), 1))
        top = norms == m
        rep, xi = rep[top], xi[top]
        if not len(rep):
            continue
        for c in range(0, len(fixed), step):
            g = gx[:, c : c + step]
            pre = np.zeros((1, g.shape[1]), dtype=np.int64)
            for j, x in _prefix_columns(trail):
                pre = pre + x[:, None] * g[j]
            tags = pre[rep] + xi[:, None] * g[n - 1]
            if tags.min() < -b or tags.max() > b:
                raise ArithmeticError(
                    f"a tag outside [-{b}, {b}]: a fixed vector is longer "
                    f"than norm {norm}")
            tags += b + width * np.arange(g.shape[1])
            hist[c : c + step] += np.bincount(
                tags.ravel(), minlength=g.shape[1] * width).reshape(-1, width)
    return hist + hist[:, ::-1]


def _check_norm(max_norm: int):
    if max_norm < 0 or max_norm % 2 != 0:
        raise ValueError("max_norm must be a non-negative even integer")


def short_vector_shells(lat: Lattice, max_norm: int) -> dict:
    """Vectors of norm <= max_norm grouped by norm, as read-only int8 arrays.

    Built by `_shells` from one walk of `_vectors`; each shell is in
    lexicographic order and costs rank bytes per vector.  The
    lattice's store keeps one run: a request at or below its bound returns
    that run's arrays, and a request above it walks once at the new bound
    and replaces the run.
    """
    _check_norm(max_norm)
    run = lat._store["shells"]
    if run and max(run) >= max_norm:
        return {m: v for m, v in run.items() if m <= max_norm}
    shells = _shells(lat.gram_array, max_norm)
    for v in shells.values():
        v.flags.writeable = False
    lat._store["shells"] = shells
    return shells


def _divisor_series(k: int, coeff: int, terms: int) -> list:
    """1 + coeff * sum_{j >= 1} sigma_k(j) q^j, as `terms` Python ints."""
    series = [1] + [0] * (terms - 1)
    for d in range(1, terms):
        for j in range(d, terms, d):
            series[j] += coeff * d ** k
    return series


def _product(f: list, g: list) -> list:
    """The product of two q-series, truncated to the length of f."""
    return [sum(f[i] * g[j - i] for i in range(j + 1)) for j in range(len(f))]


def _modular_series(weight: int, head: list, terms: int) -> list:
    """The first `terms` q-coefficients of the form in M_weight(SL_2(Z))
    whose first d = dim M_weight coefficients are `head`.

    The basis is E_4^a E_6^b, 4a + 6b = weight, with E_4 = 1 + 240 sum
    sigma_3(j) q^j and E_6 = 1 - 504 sum sigma_5(j) q^j; products are
    truncated convolutions of Python ints.  By the valence formula no
    nonzero form in M_weight vanishes to order d at infinity, so the d x d
    system of the first d coefficients is regular; it is solved in
    Fractions.  A coefficient that comes out non-integral raises
    ArithmeticError.
    """
    terms = max(terms, len(head))
    e4, e6 = _divisor_series(3, 240, terms), _divisor_series(5, -504, terms)
    basis = []
    for b in range(weight // 6 + 1):
        if (weight - 6 * b) % 4 == 0:
            f = [1] + [0] * (terms - 1)
            for e, power in ((e4, (weight - 6 * b) // 4), (e6, b)):
                for _ in range(power):
                    f = _product(f, e)
            basis.append(f)
    d = len(basis)
    if len(head) != d:
        raise ValueError(f"M_{weight} has dimension {d}, not {len(head)}")
    # Gauss-Jordan on [f_i(q^j) | head_j], j < d
    rows = [[Fraction(f[j]) for f in basis] + [Fraction(head[j])]
            for j in range(d)]
    for c in range(d):
        p = next(r for r in range(c, d) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(d):
            if r != c and rows[r][c]:
                rows[r] = [v - rows[r][c] * w for v, w in zip(rows[r], rows[c])]
    coeffs = [row[d] for row in rows]
    series = [sum(c * f[j] for c, f in zip(coeffs, basis))
              for j in range(terms)]
    if any(a.denominator != 1 for a in series):
        raise ArithmeticError(
            f"a coefficient of the weight-{weight} form with head {head} is "
            f"not an integer")
    return [int(a) for a in series]


# the largest norm `shell_sizes` reads from the theta series: its q-series
# convolutions are quadratic in the number of terms, and at this bound the
# D16+ series (two products of 5001 terms) takes about 2.7 s on a 2-vCPU VM
_MAX_SERIES_NORM = 10_000


def shell_sizes(lat: Lattice, max_norm: int) -> dict:
    """{m: number of vectors of norm m} for even m <= max_norm.

    Read from the theta series, a modular form of weight k = rank / 2 for
    SL_2(Z) whose q^j coefficient is N(2j) (`_modular_series`).  Exactness:
    `Lattice.__post_init__` proves L even, unimodular and positive
    definite, so rank = 0 mod 8 and k = 0 mod 4, and the first d = dim M_k
    coefficients fix the form.  N(0) = 1 always; for d >= 2 the next d - 1
    are the shell sizes up to norm 2(d - 1) from `short_vector_shells`
    (the roots alone at rank 24 and 32).  At rank 8 and 16, d = 1 and the
    series is E_4^(rank / 8): nothing is walked and the store is left as
    it is.  A norm above `_MAX_SERIES_NORM` raises ValueError before any
    series is built.
    """
    _check_norm(max_norm)
    if max_norm > _MAX_SERIES_NORM:
        raise ValueError(f"max_norm {max_norm} exceeds the theta series "
                         f"bound {_MAX_SERIES_NORM}")
    weight = lat.rank // 2
    d = weight // 12 + (weight % 12 != 2)
    shells = short_vector_shells(lat, 2 * (d - 1)) if d > 1 else {}
    head = [1] + [len(shells[2 * j]) for j in range(1, d)]
    series = _modular_series(weight, head, max_norm // 2 + 1)
    return {2 * j: series[j] for j in range(max_norm // 2 + 1)}


def _simple_roots(gram: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """The simple roots among the norm-2 vectors `roots` of a lattice.

    A root is positive when its first nonzero coordinate is positive.  The
    lexicographic order is compatible with addition, and the root system is
    simply laced, so a positive root r is simple unless a lexicographically
    smaller positive s has <r, s> = 1 (then r - s is a positive root too).
    Exact int64 throughout.
    """
    lead = roots[np.arange(len(roots)), (roots != 0).argmax(axis=1)]
    pos = roots[lead > 0].astype(np.int64)
    pos = pos[np.lexsort(pos.T[::-1])]
    # row i has a 1 at a column j < i: a smaller positive root
    lower = np.tril(pos @ gram @ pos.T == 1, k=-1)
    return pos[~lower.any(axis=1)]


def reflection_orbits(x: np.ndarray, gram: np.ndarray, roots: np.ndarray):
    """Orbits of the rows of x under the group generated by the reflections
    y -> y - <y, r> r in the simple roots r of the root system `roots`
    (`_simple_roots`), as (representatives, sizes); a representative is its
    orbit's first row.

    The rows are matched by their exact int16 bytes (`orbit_labels`); a
    reflection that maps a row outside them raises LatticeError.

    Exactness: <x, r> is exact in int64, and an image coordinate x_i -
    <x, r> r_i is at most max|x| + max|<x, r>| max|r| in absolute value.
    Shell rows are int8, so |<x, r>| <= 127 sum_j |(G r)_j|: for the simple
    roots of E8 and E8 + E8 (sum 5, max|r| = 1) an image stays within 762,
    and for those of D16+ (sum 5, max|r| = 13) within 8382.  A root for
    which the bound on the rows themselves passes 32767 raises LatticeError
    before any int16 cast.
    """
    xs = x.astype(np.int16)
    top = int(np.abs(xs).max(initial=0))

    def images():
        for r in _simple_roots(gram, roots):
            ip = np.einsum("ki,i->k", x, gram @ r)
            if top + int(np.abs(ip).max(initial=0)) * int(np.abs(r).max()) \
                    > 32767:
                raise LatticeError("a reflected row could leave int16 range")
            yield xs - ip.astype(np.int16)[:, None] * r.astype(np.int16)

    try:
        labels = orbit_labels(xs, images())
    except ValueError as exc:
        raise LatticeError(str(exc)) from None
    return np.unique(labels, return_counts=True)


def shell_orbits(lat: Lattice, norm: int):
    """Orbits of the norm-`norm` shell under the reflections in the simple
    roots (`reflection_orbits`; `counting` says why -1 is no generator), as
    (representatives, sizes).  Kept in the lattice's store, keyed by norm.
    """
    store = lat._store["orbits"]
    if norm not in store:
        shells = short_vector_shells(lat, max(norm, 2))
        store[norm] = reflection_orbits(shells[norm], lat.gram_array,
                                        shells[2])
    return store[norm]


def tag_histograms(lat: Lattice, fixed: np.ndarray, norm: int,
                   m: int) -> np.ndarray:
    """The read-only `_tag_histograms` of the rows of `fixed` (vectors of
    norm `norm`) over the norm-m vectors, which are walked, not built.
    Kept in the lattice's store, keyed by (norm, m) and the bytes of
    `fixed`, so one walk answers every inner product of every row.
    """
    _check_norm(m)
    store = lat._store["tags"]
    key = (norm, m, fixed.tobytes())
    if key not in store:
        hist = _tag_histograms(lat.gram_array, fixed, norm, m)
        hist.flags.writeable = False
        store[key] = hist
    return store[key]


# the lattice ids of the CLI and the cache
_GRAMS = {
    "E8": E8_GRAM,
    "D16plus": D16PLUS_GRAM,
    "E8E8": _block_sum(E8_GRAM, E8_GRAM),
}


@lru_cache(maxsize=None)
def lattice_by_id(name: str) -> Lattice:
    """The one Lattice per id (E8, D16plus, E8E8), so callers share its
    store."""
    if name not in _GRAMS:
        raise UnsupportedLatticeError(f"unknown lattice id {name!r}")
    return Lattice(name=name, rank=len(_GRAMS[name]), gram=_GRAMS[name])
