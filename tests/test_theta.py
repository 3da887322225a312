"""Theta expansions vs the direct series sum, and the operator identity."""

import math

import numpy as np
import pytest

from index_rows import index_tuples
from schottky_workbench import counting, lattices, theta
from schottky_workbench import indices as idx
from schottky_workbench.cache import CountCache
from schottky_workbench.expansion import SiegelPoint, evaluate, siegel_operator
from schottky_workbench.lattices import (Lattice, direct_sum,
                                         short_vector_shells)
from schottky_workbench.theta import (default_norm_budget, theta_eval,
                                      theta_expansion)

TAU = {
    1: SiegelPoint(1, ((0.3 + 1.2j,),)),
    2: SiegelPoint(2, ((0.2 + 1.1j, 0.1 + 0.2j), (0.1 + 0.2j, 0.3 + 1.3j))),
    3: SiegelPoint(3, ((0.2 + 1.1j, 0.1 + 0.2j, -0.05 + 0.1j),
                       (0.1 + 0.2j, 0.3 + 1.2j, 0.07 - 0.1j),
                       (-0.05 + 0.1j, 0.07 - 0.1j, -0.1 + 1.3j))),
    4: SiegelPoint(4, tuple(tuple(1.2j if p == q else 0.1 for q in range(4))
                            for p in range(4))),
}


def _theta_eval_reference(lat, g, point, norm_budget):
    """Brute-force oracle for theta_eval: every slot but the last is walked
    vector by vector, the last one vectorized over a whole shell.

    The terms are summed with math.fsum: a running complex sum over the
    ~1e5 leaves drifts by a few 1e-12 relative (D16+, genus 2, budget 4).
    """
    tau = point.matrix
    shells = short_vector_shells(lat, norm_budget)
    norms = sorted(shells)
    gram = lat.gram_array
    terms = []
    boundary = 0

    def last_slot(m, chosen_gx, phase):
        const = phase + 1j * math.pi * m * complex(tau[g - 1, g - 1])
        vecs = shells[m]
        if not chosen_gx:
            return len(vecs) * np.exp(const)
        expo = np.full(len(vecs), const)
        for coef, gx in chosen_gx:
            expo = expo + coef * (vecs.astype(np.float64) @ gx)
        vals = np.exp(expo)
        return complex(math.fsum(vals.real), math.fsum(vals.imag))

    def rec(level, chosen, chosen_gx, used, phase):
        nonlocal boundary
        if level == g - 1:
            for m in norms:
                if used + m > norm_budget:
                    break
                terms.append(last_slot(m, chosen_gx, phase))
                if used + m == norm_budget:
                    boundary += len(shells[m])
            return
        for m in norms:
            if used + m > norm_budget:
                break
            for row in shells[m]:
                x = row.astype(np.int64)
                ph = phase + 1j * math.pi * m * complex(tau[level, level])
                for j, xj in enumerate(chosen):
                    ph = ph + 2j * math.pi * complex(tau[j, level]) \
                        * int(xj @ gram @ x)
                gx = (gram @ x).astype(np.float64)
                coef = 2j * math.pi * complex(tau[level, g - 1])
                rec(level + 1, chosen + [x],
                    chosen_gx + [(coef, gx)], used + m, ph)

    rec(0, [], [], 0, 0j)
    total = complex(math.fsum(t.real for t in terms),
                    math.fsum(t.imag for t in terms))
    lam = point.im_min_eig
    tail = math.exp(-math.pi * lam * (norm_budget + 2)) * max(boundary, 1)
    return total, tail


def _assert_matches_reference(lat, g, budget):
    got = theta_eval(lat, g, TAU[g], budget)
    want, tail = _theta_eval_reference(lat, g, TAU[g], budget)
    assert abs(got.value - want) <= 1e-12 * abs(want)
    assert got.tail_estimate == tail


@pytest.mark.parametrize("name, g, budget", [
    ("e8", 1, 4), ("e8", 2, 4), ("e8", 3, 4), ("e8", 2, 6), ("d16", 2, 4),
    ("e8", 4, 2),       # two prefix slots: the walk's phase sum over them
    ("d16", 3, 4),      # the top shell's 61920 terms as one product
])
def test_theta_eval_matches_per_vector_reference(name, g, budget, request):
    _assert_matches_reference(request.getfixturevalue(name), g, budget)


@pytest.mark.parametrize("g, budget", [(2, 6), (3, 4)])
def test_theta_eval_tiny_blocks(e8, g, budget, monkeypatch):
    # 4 rows of a 240-column shell per block: the block loop runs many times
    monkeypatch.setattr(theta, "_BLOCK_ENTRIES", 1000)
    _assert_matches_reference(e8, g, budget)


def test_ip_histogram_raises_outside_cauchy_schwarz_range(e8):
    roots = short_vector_shells(e8, 2)[2]
    g = e8.gram_array
    hist = theta._ip_histogram(roots, roots, g, 2)
    # entry 0 is <x, y> = -2, which only y = -x reaches
    assert hist.sum() == len(roots) ** 2 and hist[0] == len(roots)
    with pytest.raises(ArithmeticError):
        theta._ip_histogram(roots, roots, g, 1)


def test_theta_eval_never_calls_counting(e8, monkeypatch):
    pt = TAU[2]
    want = evaluate(theta_expansion(e8, 2, 6), pt).value

    def forbidden(*args, **kwargs):
        raise AssertionError("theta_eval reached the counting engine")

    monkeypatch.setattr(counting.CountEngine, "count", forbidden)
    monkeypatch.setattr(counting.CountEngine, "_count_dfs", forbidden)
    monkeypatch.setattr(counting, "shell_orbits", forbidden)
    got = theta_eval(e8, 2, pt, 6).value
    assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("name, g, budget", [
    ("e8", 1, 8), ("d16", 1, 4), ("e8", 2, 0), ("e8", 2, 2), ("e8", 2, 6),
    ("d16", 2, 4), ("e8", 3, 0), ("e8", 3, 2), ("e8", 3, 4), ("d16", 3, 2),
])
def test_eval_builds_no_shell_past_budget_minus_two(name, g, budget,
                                                     request, monkeypatch):
    # the sizes come from the count-only walk, not from the modular form of
    # lattices.shell_sizes; genus 1 builds no shell, and from genus 2 on the
    # top shell (norm = budget) enters by its size alone
    named = request.getfixturevalue(name)
    lat = Lattice(named.name, named.rank, named.gram)   # an empty store
    want, tail = _theta_eval_reference(named, g, TAU[g], budget)

    def forbidden(*args, **kwargs):
        raise AssertionError("theta_eval read the modular form or built "
                             "genus-1 shells")

    monkeypatch.setattr(lattices, "shell_sizes", forbidden)
    if g == 1:
        monkeypatch.setattr(theta, "short_vector_shells", forbidden)
        monkeypatch.setattr(lattices, "short_vector_shells", forbidden)
    got = theta_eval(lat, g, TAU[g], budget)
    assert abs(got.value - want) <= 1e-12 * abs(want)
    assert got.tail_estimate == tail
    assert max(lat._store["shells"], default=0) <= max(budget - 2, 0)
    assert g > 1 or lat._store["shells"] == {}


@pytest.mark.parametrize("name, m1, m2, block", [
    ("e8", 4, 2, None), ("d16", 2, 2, None), ("e8", 2, 4, None),
    ("e8", 4, 4, 1000),     # 4 rows of a 2160-column shell per block
])
def test_pair_histogram_mirrors_half_a_shell(name, m1, m2, block, request,
                                             monkeypatch):
    # (2, 4): the shorter shell comes first, so the shells swap roles
    if block is not None:
        monkeypatch.setattr(theta, "_BLOCK_ENTRIES", block)
    lat = request.getfixturevalue(name)
    shells = short_vector_shells(lat, max(m1, m2))
    bound = math.isqrt(m1 * m2)
    full = theta._ip_histogram(shells[m1], shells[m2], lat.gram_array, bound)
    got = theta._pair_histogram(shells[m1], shells[m2], lat.gram_array,
                                bound)
    assert got.dtype == full.dtype and np.array_equal(got, full)
    assert full.sum() == len(shells[m1]) * len(shells[m2])


def test_genus1_coefficients(e8, d16):
    f = theta_expansion(e8, 1, 8)
    assert [f.coefficient(((m,),)) for m in (0, 2, 4, 6, 8)] == \
        [1, 240, 2160, 6720, 17520]
    g = theta_expansion(d16, 1, 8)
    assert [g.coefficient(((m,),)) for m in (0, 2, 4, 6, 8)] == \
        [1, 480, 61920, 1050240, 7926240]


def test_weight_is_half_rank(e8, d16):
    assert theta_expansion(e8, 1, 2).weight == 4
    assert theta_expansion(d16, 1, 2).weight == 8


def test_siegel_operator_recovers_lower_genus(e8):
    f2 = theta_expansion(e8, 2, 6)
    f1 = theta_expansion(e8, 1, 6)
    assert siegel_operator(f2) == f1


def test_direct_sum_coefficients_convolve(e8):
    # theta of an orthogonal sum is the product of theta series
    both = direct_sum(e8, e8)
    f = theta_expansion(e8, 1, 8)
    fs = theta_expansion(both, 1, 8)
    for m in range(0, 10, 2):
        conv = sum(f.coefficient(((a,),)) * f.coefficient(((m - a,),))
                   for a in range(0, m + 1, 2))
        assert fs.coefficient(((m,),)) == conv


def test_two_path_agreement_genus1(e8):
    pt = SiegelPoint.scalar(1, 0.3 + 1.2j)
    series = evaluate(theta_expansion(e8, 1, 12), pt).value
    direct = theta_eval(e8, 1, pt, 12).value
    assert abs(series - direct) < 1e-10 * abs(series)


def test_two_path_agreement_genus2(e8):
    pt = SiegelPoint(2, ((0.2 + 1.1j, 0.1 + 0.2j), (0.1 + 0.2j, 1.3j)))
    series = evaluate(theta_expansion(e8, 2, 6), pt).value
    direct = theta_eval(e8, 2, pt, 6).value
    assert abs(series - direct) < 1e-9 * abs(series)


def test_direct_sum_factorizes_numerically(e8):
    both = direct_sum(e8, e8)
    pt = SiegelPoint.scalar(1, 1.4j)
    one = theta_eval(e8, 1, pt, 8).value
    two = theta_eval(both, 1, pt, 8).value
    # truncation differs between the two sides; compare loosely
    assert abs(two - one * one) < 1e-6 * abs(two)


def test_default_norm_budget():
    assert default_norm_budget(8) == 20


def test_theta_eval_input_validation(e8):
    pt = SiegelPoint.scalar(1, 1j)
    with pytest.raises(ValueError):
        theta_eval(e8, 1, pt, 3)
    with pytest.raises(Exception):
        theta_eval(e8, 2, pt, 4)  # genus mismatch


def test_tail_estimate_reported(e8):
    pt = SiegelPoint.scalar(1, 1j)
    res = theta_eval(e8, 1, pt, 8)
    assert res.tail_estimate > 0
    far = theta_eval(e8, 1, SiegelPoint.scalar(1, 3j), 8)
    assert far.tail_estimate < res.tail_estimate


def test_theta_expansion_counts_once_per_class(e8, monkeypatch):
    cache = CountCache()
    cold = theta_expansion(e8, 4, 6, cache)
    calls = []
    real = counting.CountEngine.count

    def count(self, target):
        calls.append(target)
        return real(self, target)

    monkeypatch.setattr(counting.CountEngine, "count", count)
    assert theta_expansion(e8, 4, 6, cache) == cold
    assert len(calls) == 18
    assert calls == list(idx.index_table(4, 6).class_keys)


@pytest.mark.parametrize("name,g,top", [("e8", 3, 8), ("d16", 2, 6)])
def test_class_counts_match_a_count_per_row(name, g, top, tmp_path, request):
    # the per-row loop is the oracle: same column, same records in the same
    # order in a cold file cache
    lat = request.getfixturevalue(name)
    engine = counting.CountEngine(lat, CountCache(tmp_path / "rows.jsonl"))
    column = [engine.count(s) for s in index_tuples(g, top)]
    f = theta_expansion(lat, g, top, CountCache(tmp_path / "classes.jsonl"))
    assert list(f.column) == column
    assert (tmp_path / "classes.jsonl").read_bytes() == \
        (tmp_path / "rows.jsonl").read_bytes()
