"""Representation counts: oracles, reductions, invariances, memoization."""

import collections
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from index_rows import index_tuples, trace
from schottky_workbench import counting, indices as idx, lattices, theta
from schottky_workbench.cache import CountCache
from schottky_workbench.counting import CountEngine
from schottky_workbench.lattices import (Lattice, lattice_by_id, shell_orbits,
                                         short_vector_shells)
from schottky_workbench.theta import theta_expansion

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _naive_pair_counts(lat, d1, d2):
    """Histogram of <x, y> over the norm-d1 x norm-d2 shell pairs: a direct
    loop over the first shell, exact integer arithmetic."""
    shells = short_vector_shells(lat, max(d1, d2))
    g = lat.gram_array
    return collections.Counter(
        int(v) for x in shells[d1].astype(np.int64)
        for v in shells[d2].astype(np.int64) @ (g @ x))


def test_genus1_counts_match_shell_sizes(e8):
    eng = CountEngine(e8)
    shells = short_vector_shells(e8, 8)
    for m in (0, 2, 4, 6, 8):
        assert eng.count(((m,),)) == len(shells[m])


def test_genus1_counts_never_build_shells(d16, monkeypatch):
    # a genus-1 count is a shell size, read from the modular form: at rank
    # 16 nothing is walked, let alone materialized
    def forbidden(*args, **kwargs):
        raise AssertionError("a genus-1 count walked the lattice")

    monkeypatch.setattr(counting, "short_vector_shells", forbidden)
    monkeypatch.setattr(lattices, "short_vector_shells", forbidden)
    monkeypatch.setattr(lattices, "_vectors", forbidden)
    lat = Lattice(d16.name, d16.rank, d16.gram)        # an empty store
    eng = CountEngine(lat)
    assert eng.count(((6,),)) == 1050240
    assert eng.count(((6, 0), (0, 0))) == 1050240     # zero-slot reduction
    assert eng.count(((8,),)) == 7926240
    assert lat._store["shells"] == {}


def test_genus2_counts_match_naive_loop(e8):
    eng = CountEngine(e8)
    for d1, d2 in ((2, 2), (2, 4)):
        naive = _naive_pair_counts(e8, d1, d2)
        for t in range(-math.isqrt(d1 * d2), math.isqrt(d1 * d2) + 1):
            assert eng.count(((d1, t), (t, d2))) == naive[t], (d1, d2, t)
    assert eng.count(((2, 0), (0, 2))) == 30240
    assert eng.count(((2, 1), (1, 2))) == 13440
    assert eng.count(((2, 2), (2, 2))) == 240


def _fresh(name):
    """A copy of the named lattice with an empty store."""
    lat = lattice_by_id(name)
    return Lattice(lat.name, lat.rank, lat.gram)


_PAIRS = [("E8", n0, m) for m in range(2, 11, 2) for n0 in range(2, m + 1, 2)]
_PAIRS += [("D16plus", 2, 4), ("D16plus", 2, 6), ("D16plus", 4, 4),
           ("D16plus", 4, 6), ("E8E8", 2, 6), ("E8E8", 4, 4)]


@pytest.mark.parametrize("name,n0,m", _PAIRS)
def test_genus2_counts_match_pair_histograms(name, n0, m):
    # the oracle bins the inner products of built shells: each norm-n0
    # orbit representative against the whole norm-m shell, weighted by its
    # orbit size; the engine walks the norm-m vectors, also when m = n0
    lat = _fresh(name)
    eng = CountEngine(lat)
    b = math.isqrt(n0 * m)
    got = [eng.count(((n0, a), (a, m))) for a in range(-b, b + 1)]
    assert max(lat._store["shells"]) == n0
    built = _fresh(name)
    shells = short_vector_shells(built, m)
    reps, sizes = shell_orbits(built, n0)
    rows = [theta._ip_histogram(shells[m], shells[n0][r : r + 1],
                                built.gram_array, b) for r in reps]
    want = sum(int(w) * h for w, h in zip(sizes, rows))
    assert got == want.tolist()
    # and row by row, one row per representative
    (hist,) = lat._store["tags"].values()
    assert hist.tolist() == np.array(rows).tolist()


def test_genus2_never_reaches_the_recursion(monkeypatch):
    # every genus-2 class, equal norms included, is one tagged walk; summed
    # over a, the (n0, a, m) coefficients give N(n0) N(m), two shell sizes
    def forbidden(*args, **kwargs):
        raise AssertionError("a genus-2 count reached _count_dfs")

    monkeypatch.setattr(CountEngine, "_count_dfs", forbidden)
    for name, trace in (("E8", 10), ("D16plus", 8)):
        lat = _fresh(name)
        sums = collections.Counter()
        coeffs = theta_expansion(lat, 2, trace).coeffs
        for ((n0, _), (_, m)), c in coeffs.items():
            sums[n0, m] += c
        sizes = lattices.shell_sizes(lat, trace)
        assert sums == {(n0, m): sizes[n0] * sizes[m] for n0 in sizes
                        for m in sizes if n0 + m <= trace}


def test_genus2_leaf_histograms_hold_zero_bins():
    # twice a root is a norm-8 representative of E8 whose inner products
    # are all even: against the norm-10 vectors its row is zero at every
    # odd t, and it reaches both edges t = +-isqrt(80) = +-8
    lat = _fresh("E8")
    CountEngine(lat).count(((8, 1), (1, 10)))
    (hist,) = lat._store["tags"].values()
    reps, _ = shell_orbits(lat, 8)
    fixed = short_vector_shells(lat, 8)[8][reps]
    (doubled,) = np.flatnonzero((fixed % 2 == 0).all(axis=1))
    assert (hist[doubled, 1::2] == 0).all()
    assert hist[doubled, 0] == hist[doubled, -1] > 0


def test_genus2_leaves_build_no_shell_past_slot_0():
    # (2, a, 4) on D16+ walks the norm-4 vectors; on E8 to trace 10 the
    # only shells built are those of slot 0, to norm 4 for (4, a, 4) and
    # (4, a, 6)
    for name, max_trace, bound in (("D16plus", 6, 2), ("E8", 10, 4)):
        lat = _fresh(name)
        theta_expansion(lat, 2, max_trace)
        assert max(lat._store["shells"]) == bound, name


# E8 shell sizes N(m) = 240 sigma_3(m / 2)
_E8_SHELLS = {0: 1, 2: 240, 4: 2160, 6: 6720, 8: 17520}


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_diagonal_sum_rule(e8, genus):
    # summing over every index with diagonal d counts all tuples of vectors
    # of norms d: the product of the shell sizes
    eng = CountEngine(e8)
    totals = collections.Counter()
    for s in index_tuples(genus, 8):
        totals[tuple(s[p][p] for p in range(genus))] += eng.count(s)
    assert totals
    for diag, total in totals.items():
        assert total == math.prod(_E8_SHELLS[d] for d in diag), diag


def test_genus3_counts_match_naive_loop(e8):
    eng = CountEngine(e8)
    shells = short_vector_shells(e8, 2)[2].astype(np.int64)
    gram = shells @ e8.gram_array @ shells.T
    targets = [s for s in index_tuples(3, 6)
               if (s[0][0], s[1][1], s[2][2]) == (2, 2, 2)]
    assert len(targets) == 49
    for s in targets:
        naive = int(((gram[:, :, None] == s[0][1]) &
                     (gram[:, None, :] == s[0][2]) &
                     (gram[None, :, :] == s[1][2])).sum())
        assert eng.count(s) == naive, s
    assert eng.count(((2, 0, 0), (0, 2, 0), (0, 0, 2))) == 1814400


def test_zero_diagonal_reduction(e8):
    eng = CountEngine(e8)
    assert eng.count(((2, 0), (0, 0))) == 240
    assert eng.count(((0, 0), (0, 0))) == 1
    with pytest.raises(ValueError):
        eng.count(((0, 1), (1, 2)))  # not psd


def test_non_integral_target_is_refused(e8, tmp_path):
    # 2.5 is not truncated to 2: the count refuses it before any cache read
    cache = CountCache(tmp_path / "counts.jsonl")
    eng = CountEngine(e8, cache)
    for target in ([[2.5]], ((2, 0.5), (0.5, 2)), [["2"]]):
        with pytest.raises(idx.InvalidIndexError):
            eng.count(target)
    assert eng.calls == 0 and not (tmp_path / "counts.jsonl").exists()


def test_cauchy_schwarz_equality_reduction(e8):
    eng = CountEngine(e8)
    # x2 = x1 forced: as many pairs as single vectors
    assert eng.count(((2, 2), (2, 2))) == 240
    # x2 = 2 x1 would need norm 8 = 4 * 2: consistent, counts norm-2 vectors
    assert eng.count(((2, 4), (4, 8))) == 240
    # duplicated slot: reduces to the genus-2 minor
    assert eng.count(((2, 2, 1), (2, 2, 1), (1, 1, 2))) == \
        eng.count(((2, 1), (1, 2)))
    # an inconsistent rank-1 profile is not psd; validation rejects it
    with pytest.raises(ValueError):
        eng.count(((2, 2, 0), (2, 2, 1), (0, 1, 2)))


# Cartan matrices of the genus-5 root systems A5 and D5
A5 = ((2, -1, 0, 0, 0), (-1, 2, -1, 0, 0), (0, -1, 2, -1, 0),
      (0, 0, -1, 2, -1), (0, 0, 0, -1, 2))
D5 = ((2, -1, 0, 0, 0), (-1, 2, -1, 0, 0), (0, -1, 2, -1, -1),
      (0, 0, -1, 2, 0), (0, 0, -1, 0, 2))


def test_gl_invariance_of_counts(e8):
    rng = np.random.default_rng(3)
    eng = CountEngine(e8)
    targets = [((2, 1), (1, 2)), ((2, 0), (0, 4)), ((4, 2), (2, 4))]
    for s in targets:
        base = eng.count(s)
        for _ in range(3):
            # random small unimodular U: product of elementary moves
            u = np.eye(2, dtype=np.int64)
            for _ in range(3):
                e = np.eye(2, dtype=np.int64)
                i, j = rng.permutation(2)[:2]
                e[i, j] = rng.integers(-1, 2)
                u = u @ e
            if abs(round(np.linalg.det(u))) != 1:
                continue
            t = idx.transform(s, tuple(map(tuple, u)))
            if trace(t) > 12:
                continue
            assert eng.count(t) == base
    # at genus 5 the basis (e0 + e1, e1, e2, e3, e4) moves D5 to a matrix of
    # another signed-permutation class
    u = tuple(tuple(int(p == q or (p, q) == (1, 0)) for q in range(5))
              for p in range(5))
    moved = idx.transform(D5, u)
    assert idx.canonical_signed_perm(moved) != idx.canonical_signed_perm(D5)
    assert eng.count(moved) == eng.count(D5)


def _signed_permutations(s):
    """Every matrix D P s P^T D with P a permutation, D a sign diagonal."""
    g = len(s)
    out = set()
    for perm in itertools.permutations(range(g)):
        for signs in itertools.product((1, -1), repeat=g):
            out.add(tuple(tuple(signs[p] * signs[q] * s[perm[p]][perm[q]]
                                for q in range(g)) for p in range(g)))
    return sorted(out)


def test_canonical_key_equals_uncanonicalized(e8):
    # count() looks up and computes on the canonical form; _compute works on
    # the matrix as given, so the two only agree if canonicalization keeps
    # the counted class
    eng = CountEngine(e8)
    for g in (2, 3):
        for s in index_tuples(g, 4):
            for t in _signed_permutations(s):
                assert eng.count(t) == CountEngine(e8)._compute(t)


def test_engine_uses_cache_once_per_call(e8, tmp_path):
    cache = CountCache(tmp_path / "counts.jsonl")
    eng = CountEngine(e8, cache=cache)
    s = ((2, 1), (1, 2))
    eng.count(s)
    eng.count(s)
    eng.count(idx.canonical_signed_perm(((2, -1), (-1, 2))))
    # every count() call (including recursive reductions) does one lookup
    assert cache.hits + cache.misses == eng.calls
    assert cache.hits >= 2


def test_engine_without_cache_memoizes_once_per_call(e8):
    eng = CountEngine(e8)
    assert isinstance(eng.cache, CountCache) and eng.cache.path is None
    for s in (((2, 1), (1, 2)), ((2, -1), (-1, 2)), ((2, 0), (0, 0)),
              ((2,),)):
        eng.count(s)
    assert eng.cache.hits + eng.cache.misses == eng.calls
    assert eng.cache.hits >= 2
    assert eng.cache.puts == eng.cache.misses


def test_expansion_fills_one_store(e8):
    lat = Lattice(e8.name, e8.rank, e8.gram)
    theta_expansion(lat, 3, 8)
    store = lat._store
    assert sorted(store) == ["gram", "orbits", "shells", "tags"]
    # one run, bound 4: the genus-2 (2, 6) leaves are walked, not built
    assert sorted(store["shells"]) == [0, 2, 4]
    # slot 0 has norm 2, or norm 4 in the genus-2 diagonal (4, 4)
    assert sorted(store["orbits"]) == [2, 4]
    # one walk per norm pair n0 <= m of the genus-2 targets, equal norms
    # included
    assert sorted(k[:2] for k in store["tags"]) == [(2, 2), (2, 4), (2, 6),
                                                    (4, 4)]
    assert e8._store is not store


def _trivial_orbits(n):
    """Every one of n rows its own weight-1 orbit."""
    return np.arange(n), np.ones(n, dtype=np.int64)


def _d16_classes():
    """The first five D16+ (2, 2, 4) indices that Cauchy-Schwarz does not
    reduce to genus 2."""
    return [s for s in index_tuples(3, 8)
            if (s[0][0], s[1][1], s[2][2]) == (2, 2, 4)
            and abs(s[0][1]) < 2][:5]


def _counts_with_trivial(monkeypatch, name, trivial, targets):
    """Counts of `targets` by one fresh engine per lattice, before and
    after the orbit function `name` of the counting module is replaced by
    `trivial`.  Each pass counts on fresh copies of the lattices, so no
    store the first pass fills (shells, orbits, tag histograms) answers
    the second, and the replacement must be called."""
    def counts():
        return {lat: list(map(CountEngine(_fresh(lat.name)).count, ts))
                for lat, ts in targets.items()}

    want = counts()
    calls = []

    def spy(*args):
        calls.append(args)
        return trivial(*args)

    monkeypatch.setattr(counting, name, spy)
    got = counts()
    assert calls
    return got, want


def test_trivial_orbits_count_the_same(e8, d16, monkeypatch):
    # with every vector its own weight-1 orbit, slot 0 runs over its whole
    # shell: the unweighted slot 0 is the orbit weighting's oracle; the
    # genus-5 root systems A5 and D5 run the recursion through four slots
    targets = {
        e8: list(index_tuples(3, 6)) +
        [s for s in index_tuples(4, 8)
         if all(s[p][p] == 2 for p in range(4))] + [A5, D5],
        d16: _d16_classes(),
    }
    got, want = _counts_with_trivial(
        monkeypatch, "shell_orbits",
        lambda lat, norm: _trivial_orbits(
            len(short_vector_shells(lat, norm)[norm])), targets)
    assert got == want


def test_trivial_later_orbits_count_the_same(e8, d16, monkeypatch):
    # the same oracle for the slots after slot 0: each runs over all its
    # candidates, while slot 0 keeps its orbits
    targets = {e8: list(index_tuples(3, 6)) + [A5, D5],
               d16: _d16_classes()}
    got, want = _counts_with_trivial(
        monkeypatch, "reflection_orbits",
        lambda x, gram, roots: _trivial_orbits(len(x)), targets)
    assert got == want


# runs the (2, 4, 4) leaves on both rank-16 lattices with the address space
# capped; OpenBLAS reserves buffers per thread, so the child keeps one
_LEAF_CHILD = """
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from schottky_workbench import CountEngine, lattice_by_id
classes = json.loads(sys.argv[1])
print(json.dumps([[CountEngine(lattice_by_id(lid)).count(s) for s in classes]
                  for lid in ("D16plus", "E8E8")]))
"""


def test_genus3_leaves_count_in_one_gigabyte():
    # the first class once formed a 33156 x 33156 block of slots 1 and 2
    classes = [((2, 0, 0), (0, 4, -3), (0, -3, 4)),
               ((2, 0, 0), (0, 4, 0), (0, 0, 4)),
               ((2, -1, 0), (-1, 4, -3), (0, -3, 4))]
    want = [1355304960, 193273516800, 179988480]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", _LEAF_CHILD,
                          json.dumps(classes)], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == [want, want]
