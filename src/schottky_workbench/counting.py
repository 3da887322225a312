"""Representation numbers: tuples of lattice vectors with a prescribed Gram
matrix.

After the zero-slot and Cauchy-Schwarz reductions, each genus has one path:

- genus 1 is a shell size, counted without building the shell;
- genus 2 reads one histogram of <x, y> per diagonal (d1, d2);
- genus >= 3 fixes x_0, x_1, ... one vector at a time, each narrowing every
  later slot to its candidates, and ends in a block count (two open slots)
  or a float32 triple contraction (three).  Every inner product goes
  through one accessor over the candidate blocks.

Exactness: int8 pair-Gram matrices hold every |<x, y>| <= isqrt(n1 n2) <=
127 (checked); the contraction's float32 products are exact below 2**24
candidates per slot (checked), its float64 sum below 2**53 completions of
one fixed prefix; a pair too large to store uses int64 products of int8
coordinates.  Totals are Python integers.
"""

from __future__ import annotations

import math

import numpy as np

from . import indices as idx
from .cache import CountCache, index_key
from .lattices import Lattice, shell_sizes, short_vector_shells

# pair-Gram matrices above this many entries are not materialized
_PAIR_GRAM_LIMIT = 60_000_000
# float64 work-block budget (entries, 4 MiB) for building pair-Gram matrices
# and for the streamed histograms
_BLOCK_ENTRIES = 1 << 19
# float32 represents every integer below 2**24 exactly
_F32_EXACT = 1 << 24


def _ip_blocks(gram: np.ndarray, v1: np.ndarray, v2: np.ndarray):
    """Yield (row offset, block) over the rounded products V1 G V2^T.

    Each float64 block holds at most _BLOCK_ENTRIES entries, exact integers
    of int8 coordinates and a small Gram matrix.  theta._ip_histogram keeps
    its own loop on purpose: the direct sum is this path's independent
    oracle.
    """
    right = gram.astype(np.float64) @ v2.T.astype(np.float64)
    rows = max(1, _BLOCK_ENTRIES // max(1, len(v2)))
    for lo in range(0, len(v1), rows):
        block = v1[lo : lo + rows].astype(np.float64) @ right
        yield lo, np.rint(block, out=block)


def _pair_gram(lat: Lattice, n1: int, n2: int):
    """Cross inner-product matrix between the norm-n1 and norm-n2 shells,
    or None if it would be too large to hold; kept in the lattice's store."""
    store = lat._store["pair_grams"]
    if (n1, n2) in store:
        return store[(n1, n2)]
    if math.isqrt(n1 * n2) > 127:
        raise OverflowError(
            f"inner products of norms {n1} and {n2} can exceed the int8 "
            f"range of a pair-Gram matrix")
    shells = short_vector_shells(lat, max(n1, n2))
    v1, v2 = shells[n1], shells[n2]
    if v1.size == 0 or v2.size == 0 or len(v1) * len(v2) > _PAIR_GRAM_LIMIT:
        store[(n1, n2)] = None
        return None
    out = np.empty((len(v1), len(v2)), dtype=np.int8)
    for lo, block in _ip_blocks(lat.gram_array, v1, v2):
        out[lo : lo + len(block)] = block
    store[(n1, n2)] = out
    if n1 != n2:
        store[(n2, n1)] = out.T
    return out


class CountEngine:
    """Counts vector tuples of a fixed lattice, memoized in a CountCache.

    Without a cache argument the engine keeps a private in-memory
    CountCache.  Every count() call performs exactly one cache lookup (on the
    canonical key), so cache hits + misses equals the number of calls.
    """

    def __init__(self, lattice: Lattice, cache=None):
        self.lattice = lattice
        self.cache = cache if cache is not None else CountCache()
        self.calls = 0

    # -- public ----------------------------------------------------------

    def count(self, target) -> int:
        """Number of tuples (x_1..x_g) with Gram matrix `target`."""
        s = idx.validate_index(target)
        self.calls += 1
        key_m = idx.canonical_signed_perm(s)
        key = index_key(len(key_m), idx.upper_triangle(key_m))
        lid = self.lattice.name
        got = self.cache.get(lid, key)
        if got is not None:
            return got
        value = self._compute(key_m)
        self.cache.put(lid, key, value)
        return value

    # -- reductions ------------------------------------------------------

    def _compute(self, s) -> int:
        g = len(s)
        # zero-norm slots: a norm-0 vector is the zero vector
        zero = [p for p in range(g) if s[p][p] == 0]
        if zero:
            for p in zero:
                if any(s[p][q] != 0 for q in range(g)):
                    return 0
            keep = [p for p in range(g) if p not in zero]
            if not keep:
                return 1
            minor = tuple(tuple(s[p][q] for q in keep) for p in keep)
            return self.count(minor)
        # Cauchy-Schwarz equality forces x_q to be a multiple of x_p
        for p in range(g):
            for q in range(p + 1, g):
                if s[p][q] * s[p][q] == s[p][p] * s[q][q]:
                    if s[p][q] % s[p][p] == 0:
                        r = s[p][q] // s[p][p]
                        if any(s[q][j] != r * s[p][j]
                               for j in range(g) if j != q):
                            return 0
                        keep = [j for j in range(g) if j != q]
                        minor = tuple(tuple(s[a][b] for b in keep) for a in keep)
                        return self.count(minor)
        if g == 1:
            # a shell size: counted, the shell itself is never built
            return shell_sizes(self.lattice, s[0][0])[s[0][0]]
        if g == 2:
            return self._pair_histogram(s[0][0], s[1][1]).get(s[0][1], 0)
        return self._count_dfs(s)

    # -- genus 2: one histogram covers every off-diagonal value ----------

    def _pair_histogram(self, d1: int, d2: int) -> dict:
        """Histogram of <x, y> over the norm-d1 x norm-d2 shell pairs,
        streamed in blocks: the pair-Gram matrix is never held whole.
        Kept in the lattice's store."""
        store = self.lattice._store["histograms"]
        if (d1, d2) in store:
            return store[(d1, d2)]
        shells = short_vector_shells(self.lattice, max(d1, d2))
        off = math.isqrt(d1 * d2)
        counts = np.zeros(2 * off + 1, dtype=np.int64)
        # <x, y> is symmetric: the longer shell runs in blocks, so the
        # right-hand factor G V2^T is formed from the shorter one
        v1, v2 = sorted((shells[d1], shells[d2]), key=len, reverse=True)
        for _, block in _ip_blocks(self.lattice.gram_array, v1, v2):
            block += off
            counts += np.bincount(block.astype(np.intp).ravel(),
                                  minlength=2 * off + 1)
        hist = {t - off: int(c) for t, c in enumerate(counts)}
        store[(d1, d2)] = hist
        return hist

    # -- genus >= 3: fix slots one vector at a time ------------------------

    def _count_dfs(self, s) -> int:
        """Fix x_0, x_1, ... one vector at a time until two or three slots
        are open, then count those with one block or one contraction."""
        g = len(s)
        norms = [s[p][p] for p in range(g)]
        shells = short_vector_shells(self.lattice, max(norms))
        vs = [shells[n] for n in norms]
        pgs = {(p, q): _pair_gram(self.lattice, norms[p], norms[q])
               for p in range(g) for q in range(p + 1, g)}

        def ips(p, q, rows, cols):
            """<x, y> for x in slot p's `rows` (an index or an index array)
            and y in slot q's `cols`: the stored int8 pair-Gram block, else
            exact int64 products of only these candidates' coordinates."""
            pg = pgs[(p, q)]
            if pg is not None:      # rows, then columns: faster than np.ix_
                return pg[rows][..., cols]
            return vs[p][rows].astype(np.int64) @ self.lattice.gram_array @ \
                vs[q][cols].T.astype(np.int64)

        def hit(p, q, rows, cols):
            return ips(p, q, rows, cols) == s[p][q]

        def rec(p, cands):
            # cands[i] holds the candidate indices of slot p + i
            total = 0
            for x in cands[0]:
                later = [c[hit(p, p + i, x, c)]
                         for i, c in enumerate(cands[1:], 1)]
                if any(c.size == 0 for c in later):
                    continue
                if len(later) == 2:
                    total += int(hit(p + 1, p + 2, *later).sum())
                elif len(later) == 3:
                    total += contract(p + 1, *later)
                else:
                    total += rec(p + 1, later)
            return total

        def contract(p, j, k, l):
            """sum_{j,k,l} A[j,k] C[k,l] B[j,l] over slots p, p+1, p+2, in
            float32 (an entry of A C is at most the slot p+1 count)."""
            if max(j.size, k.size, l.size) >= _F32_EXACT:
                raise OverflowError(
                    "a slot has 2**24 or more candidates: the float32 "
                    "contraction would not be exact")
            a = hit(p, p + 1, j, k).astype(np.float32)
            b = hit(p, p + 2, j, l).astype(np.float32)
            c = hit(p + 1, p + 2, k, l).astype(np.float32)
            return int(np.rint(((a @ c) * b).sum(dtype=np.float64)))

        return rec(0, [np.arange(len(v)) for v in vs])


def representation_count(lattice: Lattice, target, cache=None) -> int:
    """#{(x_1..x_g) in lattice^g : <x_p, x_q> = target[p][q] for all p, q}."""
    return CountEngine(lattice, cache).count(target)
