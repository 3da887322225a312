"""Representation numbers: tuples of lattice vectors with a prescribed Gram
matrix.

After the zero-slot and Cauchy-Schwarz reductions, each genus has one
counting path.  Genus 1 is a shell size, read from the theta series as a
modular form (`shell_sizes`: at rank 8 and 16 nothing is walked).  Genus 2
is one tagged walk (below).  Every genus >= 3 index runs through one
recursion.  Candidates are vectors, not indices: a slot starts as its shell,
with no copy, and each fixed vector narrows every later slot to the rows
that match it.  Each slot runs over orbit representatives of its candidates,
each weighted by its orbit size: the count of completions is constant on an
orbit.  Slot 0 takes the orbits of its shell under the reflections in the
simple roots, the Weyl group (`shell_orbits`).  It joins x and -x: -1 is the
longest element of W(E8) and of W(D16) (16 is even), and D16+ has the roots
of D16.  On a lattice whose Weyl group lacks -1 the orbits are only finer,
and counts stay exact.  Every later slot takes those under the reflections
in the simple roots of the roots orthogonal to every vector fixed so far
(`reflection_orbits`).  Such a reflection fixes the earlier vectors, so it
permutes the slot's candidates; by Steinberg's theorem these reflections
generate the whole stabilizer of the fixed vectors in the Weyl group.  The
root set is narrowed one fixed vector at a time, as the candidates are.  The
recursion stops when one slot is open, and that slot's candidate count is
its only leaf.

A genus-2 count is one lookup in the lattice's table of its diagonal
(`lattices.pair_counts`): every (x, y) with |x|^2 = n0, |y|^2 = m, counted
by <x, y> from one tagged walk at norm m, so counting builds no genus-2
shell itself.

Exactness: every inner product is an int64 product of one fixed vector with
int8 candidates, and totals are Python integers.
"""

from __future__ import annotations

import numpy as np

from . import indices as idx
from .cache import CountCache, index_key
from .lattices import (Lattice, pair_counts, reflection_orbits, shell_orbits,
                       shell_sizes, short_vector_shells)


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
        if g == 2:
            # a canonical key sorts its diagonal: one table per n0 <= m
            return pair_counts(self.lattice, s[0][0], s[1][1])[s[0][1]]
        return self._count_dfs(s)

    # -- genus >= 3: fix slots one vector at a time ------------------------

    def _count_dfs(self, s) -> int:
        """Fix x_0, x_1, ... one orbit representative at a time, each
        weighted by its orbit size, until one slot is open, and count its
        candidates in built shells.  Only genus >= 3 targets come here;
        genus 2 is `pair_counts`."""
        norms = [s[p][p] for p in range(len(s))]
        shells = short_vector_shells(self.lattice, max(norms))
        gram = self.lattice.gram_array

        def rec(p, x, cands, roots):
            """Completions of x_p = x; cands[i] holds the candidate vectors
            of slot p + 1 + i, and roots the roots orthogonal to x_0..x_{p-1}.
            """
            xg = gram @ x
            later = [c[np.einsum("ki,i->k", c, xg) == s[p][p + i]]
                     for i, c in enumerate(cands, 1)]
            if any(len(c) == 0 for c in later):
                return 0
            if len(later) == 1:
                return len(later[0])
            roots = roots[np.einsum("ki,i->k", roots, xg) == 0]
            reps, sizes = reflection_orbits(later[0], gram, roots)
            return sum(int(w) * rec(p + 1, later[0][r], later[1:], roots)
                       for r, w in zip(reps, sizes))

        reps, sizes = shell_orbits(self.lattice, norms[0])
        return sum(int(w) * rec(0, shells[norms[0]][r],
                                [shells[n] for n in norms[1:]], shells[2])
                   for r, w in zip(reps, sizes))
