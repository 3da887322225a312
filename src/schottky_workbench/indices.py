"""Fourier index matrices: symmetric, integral, even diagonal, psd.

The same shape serves two roles: as the index of a Fourier coefficient and as
the target Gram matrix of a representation count (GramTarget).  One matrix
is taken as nested int tuples (`as_entries`); the index table of a genus and
trace bound is one read-only K x g x g int16 array (`enumerate_indices`).
"""

from __future__ import annotations

import array
import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np


# the largest max_trace of an index table: its entries are int16
MAX_TABLE_TRACE = 32766


class InvalidIndexError(ValueError):
    """Invalid index matrix."""


def as_entries(mat) -> tuple:
    """Normalize a matrix-like (nested sequence or numpy array) to int tuples.

    Each entry is taken by `operator.index`, so a float or a string raises
    InvalidIndexError instead of being truncated or parsed."""
    try:
        rows = tuple(tuple(map(operator.index, row)) for row in mat)
    except TypeError:
        raise InvalidIndexError(f"{mat!r} is not an integer matrix") from None
    g = len(rows)
    if any(len(r) != g for r in rows):
        raise InvalidIndexError("matrix must be square")
    return rows


def validate_index(entries) -> tuple:
    """Check the GramTarget/IndexMatrix invariants; return normalized entries."""
    s = as_entries(entries)
    g = len(s)
    if g < 1:
        raise InvalidIndexError("genus must be >= 1")
    for p in range(g):
        if s[p][p] % 2 != 0 or s[p][p] < 0:
            raise InvalidIndexError("diagonal entries must be even and >= 0")
        for q in range(p):
            if s[p][q] != s[q][p]:
                raise InvalidIndexError("matrix must be symmetric")
    if not is_psd(s):
        raise InvalidIndexError("matrix must be positive semi-definite")
    return s


def is_psd(entries) -> bool:
    """Exact positive semi-definiteness in integer arithmetic."""
    return psd_pivots(entries) is not None


def psd_pivots(entries):
    """The pivots of an exact symmetric elimination, or None if the matrix
    is not positive semi-definite.

    The rows are added one at a time by `_border`, so the pivots are those
    of a symmetric Gaussian elimination with diagonal pivots.  When no pivot
    is zero, pivot k is the leading principal minor of order k + 1, so the
    last pivot is the determinant.
    """
    state = ((), ())
    for k, row in enumerate(as_entries(entries)):
        state = _border(state, row[:k + 1])
        if state is None:
            return None
    return list(state[1])


def _border(state, row):
    """The elimination state of a psd block grown by one row and column, or
    None if the grown block is not psd.

    `state` is (rows, pivots) of a k x k block: rows[j] holds row j's
    entries (j, l), l > j, after j elimination steps, and pivots[j] its
    entry (j, j).  `row` is the new row's entries (k, 0..k).  The
    elimination is fraction-free: at step j, with p = pivots[j] and f the
    new row's entry j, each later entry r_l becomes (p r_l - f E_jl) //
    prev, prev the previous nonzero pivot.  The division is exact
    (Bareiss), it keeps the entries as small as minors, and the trailing
    block stays prev times the rational Schur complement, so signs and zero
    pattern, hence the verdict, are those of the rational elimination: a
    zero pivot forces f = 0, and the new pivot, the last entry, must be
    >= 0.  The trailing block is symmetric, so f is also entry (j, k), which
    rows[j] appends.
    """
    rows, pivots = state
    k = len(pivots)
    r = list(row)
    prev = 1
    for j, (e, p) in enumerate(zip(rows, pivots)):
        f = r[j]
        if p:
            for l in range(j + 1, k):
                r[l] = (p * r[l] - f * e[l - j - 1]) // prev
            r[k] = (p * r[k] - f * f) // prev
            prev = p
        elif f:
            return None
    if r[k] < 0:
        return None
    # step j leaves r[j] as it read it, f
    return tuple(e + (f,) for e, f in zip(rows, r)) + ((),), pivots + (r[k],)


def border_zero_forced(entries) -> bool:
    """True iff a zero corner entry comes with a zero last row and column.

    For a psd even matrix the corner S[g][g] = 0 forces the border to vanish;
    this predicate checks the statement on a concrete matrix rather than
    assuming it.  No program path calls it: it is kept as public API because
    acceptance criterion 9 and `tests/test_indices.py` check the statement
    through it.
    """
    s = validate_index(entries)
    g = len(s)
    if s[g - 1][g - 1] != 0:
        return True
    return all(s[g - 1][q] == 0 for q in range(g))


def upper_triangle(entries) -> list:
    """Row-major upper triangle (including diagonal), the serialization order."""
    g = len(entries)
    return [int(entries[p][q]) for p in range(g) for q in range(p, g)]


def from_upper_triangle(g: int, values) -> tuple:
    """The symmetric g x g matrix of a row-major upper triangle, as nested
    int tuples (`as_entries`, so a non-integral entry raises)."""
    vals = list(values)
    if len(vals) != g * (g + 1) // 2:
        raise InvalidIndexError("wrong number of upper-triangle entries")
    it = iter(vals)
    upper = [[next(it) for _ in range(p, g)] for p in range(g)]
    return as_entries([[upper[min(p, q)][abs(p - q)] for q in range(g)]
                       for p in range(g)])


def enumerate_indices(g: int, max_trace: int) -> np.ndarray:
    """All index matrices of genus g with trace <= max_trace, as one
    read-only K x g x g int16 array in (trace, diagonal, upper triangle)
    order, so the output is deterministic.

    The matrices grow one row and column at a time: the new diagonal entry
    is even and fits the trace that is left, each entry against an earlier
    row runs over that pair's Cauchy-Schwarz range, and the grown leading
    block must pass the exact psd test.  Every leading block of a psd matrix
    is psd, so a block that fails can only end in matrices that are not
    indices, and cutting its branch loses none.  Each block carries its
    elimination state, so a candidate costs one `_border` step, the new
    row's, and not a whole elimination.  A finished matrix appends its
    lower triangle, row by row, to one flat int16 buffer, and one lexsort
    orders the rows.  No entry exceeds max_trace in size, so a max_trace
    past MAX_TABLE_TRACE is refused before the walk.  Each call walks
    afresh: `index_table` is the memo.
    """
    if g < 1:
        raise InvalidIndexError("genus must be >= 1")
    if not (0 <= max_trace <= MAX_TABLE_TRACE and max_trace % 2 == 0):
        raise InvalidIndexError(f"max_trace must be an even integer in [0, "
                                f"{MAX_TABLE_TRACE}]: entries are int16")
    lower = array.array("h")

    def grow(diag, low, state, left):
        if len(diag) == g:
            lower.extend(low)
            return
        for d in range(0, left + 1, 2):
            bounds = (math.isqrt(d * e) for e in diag)
            for col in itertools.product(*(range(-b, b + 1) for b in bounds)):
                grown = _border(state, col + (d,))
                if grown is not None:
                    grow(diag + (d,), low + col + (d,), grown, left - d)

    grow((), (), ((), ()), max_trace)
    low = np.frombuffer(lower, np.int16).reshape(-1, g * (g + 1) // 2)
    # at[p, q]: the column of entry (p, q) in a row of `low`, which holds
    # entry (p, q), q <= p, at p (p + 1) / 2 + q
    i, j = np.indices((g, g))
    at = np.maximum(i, j) * (np.maximum(i, j) + 1) // 2 + np.minimum(i, j)
    diag, upper = low[:, at.diagonal()], low[:, at[np.triu_indices(g)]]
    # lexsort's last key is its first
    order = np.lexsort((*upper.T[::-1], *diag.T[::-1], diag.sum(1)))
    mats = low[order].take(at, axis=1)    # C-contiguous, for `orbit_labels`
    mats.setflags(write=False)
    return mats


def orbit_labels(rows: np.ndarray, images) -> np.ndarray:
    """Each row's orbit label under a group generated by involutions: the
    least index of a row in its orbit.

    `rows` is a C-contiguous 2-d array of distinct rows, and `images` yields,
    one generator at a time, the array of the rows' images under it, of the
    rows' shape and dtype.  An image is matched to a row by its exact bytes;
    one outside the rows raises ValueError.  One image is held at a time,
    and only each generator's permutation of the row indices is kept.
    Labels start as row indices and take the least label over each
    generator's images, with pointer jumping, until they are stable.  The
    generators are involutions, so each orbit's label is then its least
    index.
    """
    keys = rows.view(f"V{rows.itemsize * rows.shape[1]}").ravel()
    order = np.argsort(keys)

    def permutation(image):
        image = np.ascontiguousarray(image).view(keys.dtype).ravel()
        at = np.searchsorted(keys, image, sorter=order)
        if not (keys[order].take(at, mode="clip") == image).all():
            raise ValueError("generator does not map the rows onto themselves")
        return order[at]

    # map keeps no image once its permutation is made
    perms = list(map(permutation, images))
    labels, last = np.arange(len(rows)), None
    while last is None or (labels != last).any():
        last = labels
        for perm in perms:
            labels = np.minimum(labels, labels[perm])
        labels = labels[labels]
    return labels


@dataclass(frozen=True, eq=False)
class IndexTable:
    """enumerate_indices(g, max_trace) as `mats`, one read-only K x g x g
    int16 array, with `row(key)`, a key's row, and, built on first use, each
    row's class: class_keys[classes[r]] == canonical_signed_perm(mats[r]),
    classes numbered by first row.  Every row is a valid index, and a
    smaller trace's table and classes are prefixes of a larger one's.

    The classes are the orbits of the signed slot permutations, which the
    sign flip of slot 0 and the g - 1 adjacent slot swaps generate
    (`orbit_labels`).  The table is closed under them and sorted by (trace,
    diagonal, upper triangle), and `canonical_signed_perm` minimizes
    (diagonal, upper triangle) over an orbit, inside one trace: so each
    orbit's first row is the canonical key of every row in it, and no row
    is canonicalized here."""

    mats: np.ndarray
    class_keys = property(lambda self: self._classes[0])
    classes = property(lambda self: self._classes[1])

    def row(self, key):
        """The row of `key`, or None if the table does not hold it.

        An int16 array is matched by its exact bytes.  Any other key is read
        by `as_entries`, which raises for a non-integral entry; an entry past
        int16 is a miss, never a wrapped value."""
        if not (isinstance(key, np.ndarray) and key.dtype == np.int16
                and key.shape == self.mats.shape[1:]):
            key = as_entries(key)
            if any(abs(v) > MAX_TABLE_TRACE for row in key for v in row):
                return None
            key = np.array(key, np.int16)
        return self._rows.get(key.tobytes())

    @cached_property
    def _rows(self) -> dict:
        """Row number by the row's bytes."""
        return {m.tobytes(): r for r, m in enumerate(self.mats)}

    @cached_property
    def _classes(self) -> tuple:
        k, g = self.mats.shape[:2]
        flat = self.mats.reshape(k, g * g)
        # int16 like the rows: orbit_labels matches images by their bytes
        sign = np.where(np.arange(g) == 0, -1, 1).astype(np.int16)

        def images():
            yield flat * np.multiply.outer(sign, sign).ravel()
            for p in range(g - 1):
                s = np.r_[:p, p + 1, p, p + 2:g]      # swaps slots p, p + 1
                yield flat[:, (g * s[:, None] + s).ravel()]

        labels = orbit_labels(flat, images())
        first = np.flatnonzero(labels == np.arange(k))
        return (tuple(map(as_entries, self.mats[first].tolist())),
                tuple(np.searchsorted(first, labels).tolist()))


@lru_cache(maxsize=None)
def index_table(g: int, max_trace: int) -> IndexTable:
    """The memoized IndexTable of (g, max_trace): one per process, and the
    one memo of `enumerate_indices`."""
    return IndexTable(enumerate_indices(g, max_trace))


def transform(entries, u) -> tuple:
    """U^T S U for an integer matrix U (tuple rows).

    No program path calls it: it is kept because acceptance criterion 10 and
    the GL_g(Z)-invariance tests of `tests/test_counting.py` and
    `tests/test_indices.py` move an index by it.
    """
    g = len(entries)
    su = [[sum(entries[i][k] * u[k][j] for k in range(g)) for j in range(g)]
          for i in range(g)]
    return as_entries(
        [[sum(u[k][i] * su[k][j] for k in range(g)) for j in range(g)]
         for i in range(g)]
    )


def _block_orders(s, block):
    """Every order of one block of slots, up to the order of its zero-row
    slots: swapping two zero rows leaves the matrix as it is, so they keep
    one order, at each choice of their positions."""
    zero = [p for p in block if not any(s[p])]
    rest = [p for p in block if any(s[p])]
    for at in itertools.combinations(range(len(block)), len(zero)):
        for perm in itertools.permutations(rest):
            z, r = iter(zero), iter(perm)
            yield [next(z) if i in at else next(r) for i in range(len(block))]


def _block_permutations(s):
    """Slot orders that sort the diagonal ascending: every permutation
    within each block of equal diagonal entries (zero-row slots kept in
    one order), blocks in ascending order."""
    g = len(s)
    order = sorted(range(g), key=lambda p: s[p][p])
    blocks = [tuple(b) for _, b in itertools.groupby(order,
                                                      key=lambda p: s[p][p])]
    for parts in itertools.product(*(_block_orders(s, b) for b in blocks)):
        yield [p for part in parts for p in part]


def _greedy_signed_upper(s, perm) -> tuple:
    """Lexicographically least upper triangle of the slot order `perm` over
    all sign flips.

    Positions are walked in serialization order.  A union-find with parity
    records which slots already have a fixed relative sign: an entry between
    linked slots is forced, and a nonzero entry between unlinked slots gets
    the relative sign that makes it negative, after which the slots are
    linked.
    """
    g = len(perm)
    parent = list(range(g))
    parity = [1] * g          # sign of a slot relative to its parent

    def find(x):
        sign = 1
        while parent[x] != x:
            sign *= parity[x]
            x = parent[x]
        return x, sign

    out = []
    for p in range(g):
        row = s[perm[p]]
        out.append(row[perm[p]])
        for q in range(p + 1, g):
            v = row[perm[q]]
            if v:
                rp, sp = find(p)
                rq, sq = find(q)
                v *= sp * sq
                if rp != rq:
                    parent[rq] = rp
                    if v > 0:
                        parity[rq] = -1
                        v = -v
            out.append(v)
    return tuple(out)


def canonical_signed_perm(entries) -> tuple:
    """Minimal representative of S under simultaneous permutations and sign
    flips of the tuple slots (a bounded search inside GL_g(Z)).

    The key is (diagonal, upper triangle), minimized lexicographically over
    all 2^g * g! signed permutations; the diagonal is thereby sorted
    ascending, which also puts the largest vector classes last for counting.

    The minimum is found without visiting every signed permutation.  Signs
    leave the diagonal alone, so the least key has the sorted diagonal, and
    exactly the permutations within blocks of equal diagonal entries reach
    it (at most 24 orders at genus 4 instead of 384 signed permutations).
    Orders that differ only among zero-row slots give one matrix, so one
    of them is tried: a g x g zero index takes one order, not g!.
    For a fixed order the upper triangle is minimized over signs greedily:
    walking the positions in serialization order, an entry between slots
    whose relative sign is already fixed takes the same value in every
    remaining candidate, and a nonzero entry between unlinked slots can be
    made negative without changing any earlier position, because flipping
    the whole component of one slot only touches entries that cross the two
    components, and no earlier nonzero entry does.  So each greedy choice is
    the least value the position can take given the earlier ones, which is
    the lexicographic minimum over signs; the least of these over the block
    orders is the brute-force minimum itself, entry for entry.
    """
    s = as_entries(entries)
    g = len(s)
    best = min(_greedy_signed_upper(s, perm) for perm in _block_permutations(s))
    return from_upper_triangle(g, best)
