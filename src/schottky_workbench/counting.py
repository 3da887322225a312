"""Representation numbers: tuples of lattice vectors with a prescribed Gram
matrix.

After the zero-slot and Cauchy-Schwarz reductions, genus 1 is a shell size,
read from the theta series as a modular form (`shell_sizes`: at rank 8 and
16 nothing is walked), and every genus >= 2 index runs through one
recursion.  Slot 0 runs over orbit representatives of its shell under
reflections in the simple roots and -1 (`shell_orbits`), each weighted by its
orbit size: the count of completions is constant on an orbit.  Candidates
are vectors, not indices: a slot starts as its shell, with no copy, and each
fixed vector narrows every later slot to the rows that match it.  One open
slot ends in its candidate count, two in a block count, three in a float32
triple contraction.

Exactness: inner products of one fixed vector with candidates are int64;
a block of candidates is a float32 product, exact while rank * max|xG| *
max|y| < 2**24 (checked per block); the contraction's float32 products are
exact below 2**24 candidates per slot (checked), its float64 sum below 2**53
completions of one fixed prefix.  Totals are Python integers.

The float32 products run on numpy's BLAS thread pool, and neither the order
of summation nor the split over threads can round: every partial sum of a
block product is bounded by the guarded rank * max|xG| * max|y| < 2**24, and
every partial sum of the contraction's A @ C, a sum of 0/1 products, by the
slot's candidate count, which is below 2**24.
"""

from __future__ import annotations

import numpy as np

from . import indices as idx
from .cache import CountCache, index_key
from .lattices import Lattice, shell_orbits, shell_sizes, short_vector_shells

# float32 represents every integer below 2**24 exactly
_F32_EXACT = 1 << 24


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
        """Count the valid, hence psd, index s: there a norm-0 slot has a
        zero row, and Cauchy-Schwarz equality s_pq^2 = s_pp s_qq > 0 makes
        row q r times row p, r = s_pq / s_pp.  So the reductions only drop
        slots: each norm-0 one, else the first q with r integral."""
        g = len(s)
        drop = [p for p in range(g) if s[p][p] == 0] or [
            q for p in range(g) for q in range(p + 1, g)
            if s[p][q] ** 2 == s[p][p] * s[q][q] and not s[p][q] % s[p][p]][:1]
        if drop:
            keep = [p for p in range(g) if p not in drop]
            return self.count(tuple(tuple(s[a][b] for b in keep)
                                    for a in keep)) if keep else 1
        if g == 1:
            # a shell size, read from the modular form: no shell is built
            return shell_sizes(self.lattice, s[0][0])[s[0][0]]
        return self._count_dfs(s)

    # -- genus >= 2: fix slots one vector at a time ------------------------

    def _count_dfs(self, s) -> int:
        """Fix x_0 to each orbit representative, weighted by its orbit size,
        then x_1, ... one vector at a time until at most three slots are
        open, and count those by size, one block or one contraction."""
        g = len(s)
        norms = [s[p][p] for p in range(g)]
        shells = short_vector_shells(self.lattice, max(norms))
        vs = [shells[n] for n in norms]
        gram = self.lattice.gram_array

        def hit(p, q, x, y):
            """<x, y> == s[p][q] for x in slot p and the candidate vectors y
            of slot q: exact int64 products for one vector x, float32
            products of only these candidates for a block of vectors x."""
            if x.ndim == 1:
                return np.einsum("ki,i->k", y, gram @ x) == s[p][q]
            xg = x @ gram
            y_max = max(int(y.max()), -int(y.min()))   # no int8 abs: -128
            if self.lattice.rank * int(np.abs(xg).max()) * y_max >= _F32_EXACT:
                raise OverflowError(
                    "inner products of this block can reach 2**24: float32 "
                    "products would not be exact")
            return xg.astype(np.float32) @ y.T.astype(np.float32) == s[p][q]

        def rec(p, x, cands):
            """Completions of x_p = x; cands[i] holds the candidate vectors
            of slot p + 1 + i."""
            later = [c[hit(p, p + i, x, c)] for i, c in enumerate(cands, 1)]
            if any(len(c) == 0 for c in later):
                return 0
            if len(later) == 1:
                return len(later[0])
            if len(later) == 2:
                return int(hit(p + 1, p + 2, *later).sum())
            if len(later) == 3:
                return contract(p + 1, *later)
            return sum(rec(p + 1, y, later[1:]) for y in later[0])

        def contract(p, j, k, l):
            """sum_{j,k,l} A[j,k] C[k,l] B[j,l] over slots p, p+1, p+2, in
            float32 (an entry of A C is at most the slot p+1 count)."""
            if max(len(j), len(k), len(l)) >= _F32_EXACT:
                raise OverflowError(
                    "a slot has 2**24 or more candidates: the float32 "
                    "contraction would not be exact")
            a = hit(p, p + 1, j, k).astype(np.float32)
            b = hit(p, p + 2, j, l).astype(np.float32)
            c = hit(p + 1, p + 2, k, l).astype(np.float32)
            return int(np.rint(((a @ c) * b).sum(dtype=np.float64)))

        reps, sizes = shell_orbits(self.lattice, norms[0])
        return sum(int(w) * rec(0, x, vs[1:])
                   for x, w in zip(vs[0][reps], sizes))

