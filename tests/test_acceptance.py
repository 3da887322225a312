"""Acceptance gate: one numbered test per criterion, each printing a
PASS/FAIL line with its measured numbers.

The suite shares a single fresh (cold) count cache; later criteria reuse the
counts computed by earlier ones, which is why the tests are numbered and run
in order.  The last test reuses them too: it holds the columnar expansion
layer to its per-coefficient reference loops on the genus-4 Schottky
difference.
"""

import itertools
import json
import time

import numpy as np
import pytest

import expansion_reference as ref
from index_rows import index_tuples
from schottky_workbench import indices as idx
from schottky_workbench.cache import CountCache
from schottky_workbench.counting import CountEngine
from schottky_workbench.expansion import (DerivativePolynomial,
                                          FourierExpansion, SiegelPoint,
                                          evaluate, siegel_limit_check,
                                          siegel_operator)
from schottky_workbench.fay import (coefficient_B, derivative_identity_check,
                                    scaling_law_check, sigma_matrix)
from schottky_workbench.lattices import lattice_by_id, short_vector_shells
from schottky_workbench.schottky import (first_nonzero_index,
                                         schottky_expansion)
from schottky_workbench.theta import theta_eval, theta_expansion


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    # a fresh file: every criterion below starts from a cold cache
    return CountCache(tmp_path_factory.mktemp("acceptance") / "counts.jsonl")


def _report(number: int, passed: bool, message: str):
    print(f"ACCEPTANCE {number} {'PASS' if passed else 'FAIL'}: {message}")
    assert passed, f"criterion {number}: {message}"


def _naive_root_count(n: int, with_halves: bool) -> int:
    """Norm-2 vectors in ambient coordinates, independently of the package:
    two nonzero integer entries +-1 (even sum holds automatically), plus,
    when present, the all-odd-halves coset with doubled-sum = 0 mod 4."""
    count = 2 * n * (n - 1)       # (+-1, +-1) placements: C(n,2) * 4
    if with_halves:
        count += sum(1 for cs in itertools.product((1, -1), repeat=n)
                     if sum(cs) % 4 == 0)
    return count


def test_criterion_01_lattice_kernel():
    expected = {"E8": (240, True), "D16plus": (480, False),
                "E8E8": (480, None)}
    lines = []
    for name, (want, halves) in expected.items():
        lat = lattice_by_id(name)
        start = time.monotonic()
        got = len(short_vector_shells(lat, 2)[2])
        elapsed = time.monotonic() - start
        if halves is not None:
            assert _naive_root_count(lat.rank, halves) == want
        lines.append(f"{name}={got} ({elapsed:.2f}s)")
        assert got == want and elapsed < 1.0
    _report(1, True, "norm-2 counts " + ", ".join(lines))


def test_criterion_02_theta_phi_identity(cache):
    start = time.monotonic()
    ok = True
    for name in ("E8E8", "D16plus"):
        lat = lattice_by_id(name)
        thetas = {g: theta_expansion(lat, g, 8, cache=cache)
                  for g in (1, 2, 3, 4)}
        for g in (1, 2, 3):
            ok = ok and siegel_operator(thetas[g + 1]) == thetas[g]
    elapsed = time.monotonic() - start
    _report(2, ok and elapsed < 600,
            f"Phi(theta_(g+1)) = theta_g exactly for both rank-16 lattices, "
            f"g in 1..3, trace <= 8 ({elapsed:.0f}s, cache cold)")


def test_criterion_03_low_genus_vanishing(cache):
    z1 = schottky_expansion(1, 8, cache=cache).is_zero()
    z2 = schottky_expansion(2, 8, cache=cache).is_zero()
    z3 = schottky_expansion(3, 6, cache=cache).is_zero()
    _report(3, z1 and z2 and z3,
            f"difference identically zero: g=1 trace 8 ({z1}), "
            f"g=2 trace 8 ({z2}), g=3 trace 6 ({z3})")


FIRST_NONZERO_INDEX = ((2, -1, -1, -1), (-1, 2, 0, 0),
                       (-1, 0, 2, 0), (-1, 0, 0, 2))
FIRST_NONZERO_VALUE = 5160960


def test_criterion_04_genus4_nonvanishing(cache):
    start = time.monotonic()
    found = first_nonzero_index(4, 8, cache=cache)
    elapsed = time.monotonic() - start
    assert found is not None
    s, v = found
    diag = tuple(s[p][p] for p in range(4))
    ok = diag == (2, 2, 2, 2) and elapsed < 600
    # frozen regression constants from the first verified run
    ok = ok and (s, v) == (FIRST_NONZERO_INDEX, FIRST_NONZERO_VALUE)

    f4 = schottky_expansion(4, 8, cache=cache)
    # on the diagonal (a product of elliptic curves, inside the Jacobian
    # locus closure) the form vanishes; just off it, it must dominate the
    # truncation tail
    on_diag = evaluate(f4, SiegelPoint.scalar(4, 1.2j))
    m = 1.2j * np.eye(4) + 0.3 * (np.ones((4, 4)) - np.eye(4))
    off_diag = evaluate(f4, SiegelPoint(4, tuple(map(tuple, m))))
    ratio = abs(off_diag.value) / off_diag.tail_estimate
    ok = ok and abs(on_diag.value) <= on_diag.tail_estimate and ratio > 10
    _report(4, ok,
            f"first nonzero at diag {diag}, value {v} ({elapsed:.0f}s); "
            f"|F4| / tail = {ratio:.0f} at the off-diagonal point, "
            f"|F4| = {abs(on_diag.value):.1e} on the diagonal")


def test_criterion_05_two_path_agreement(cache):
    cases = [
        ("E8", 1, 20, (1j, 1.5j, 0.3 + 1.2j)),
        ("D16plus", 1, 8, (1j, 1.5j, 0.3 + 1.2j)),
        ("E8", 2, 8, (1j, 1.5j)),
        ("D16plus", 2, 6, (1j, 1.5j)),
    ]
    worst = 0.0
    for name, g, max_trace, taus in cases:
        lat = lattice_by_id(name)
        f = theta_expansion(lat, g, max_trace, cache=cache)
        for z in taus:
            pt = SiegelPoint.scalar(g, z)
            a = evaluate(f, pt).value
            b = theta_eval(lat, g, pt, max_trace).value
            worst = max(worst, abs(a - b) / abs(a))
    _report(5, worst <= 1e-8,
            f"series vs direct sum, worst relative difference {worst:.1e} "
            f"(<= 1e-8) over E8/D16plus, genus 1-2")


def test_criterion_06_siegel_limit(cache):
    e8 = lattice_by_id("E8")
    f2 = theta_expansion(e8, 2, 8, cache=cache)
    rep = siegel_limit_check(f2, SiegelPoint.scalar(1, 1.3j),
                             t_values=(5.0, 10.0, 20.0), tolerance=1e-30,
                             precision=60)
    _report(6, rep.passed,
            f"deviation at t=20 is {rep.deviations[-1]:.1e} (< 1e-30)")


def test_criterion_07_derivative_identity(cache):
    e8 = lattice_by_id("E8")
    f1 = theta_expansion(e8, 1, 20, cache=cache)
    rep1 = derivative_identity_check(
        f1, DerivativePolynomial.variable(1, 0, 0),
        SiegelPoint.scalar(1, 0.41 + 1.27j),
        sigma_matrix((0.1,), (0.2,)), tolerance=1e-6)

    d16 = lattice_by_id("D16plus")
    f2 = theta_expansion(d16, 2, 8, cache=cache)
    rep2 = derivative_identity_check(
        f2, DerivativePolynomial.variable(2, 0, 1),
        SiegelPoint.scalar(2, 1.4j),
        sigma_matrix((0.1, -0.05), (0.2, 0.15)), tolerance=1e-5)
    _report(7, rep1.passed and rep2.passed,
            f"relative discrepancy {rep1.rel_error:.1e} (genus 1, <= 1e-6) "
            f"and {rep2.rel_error:.1e} (genus 2, <= 1e-5)")


def test_criterion_08_scaling_law(cache):
    e8 = lattice_by_id("E8")
    f1 = theta_expansion(e8, 1, 20, cache=cache)
    rep = scaling_law_check(f1, DerivativePolynomial.constant(1),
                            SiegelPoint.scalar(1, 1.3j), (0.1,), (0.2,),
                            pairs=((1, 1), (2, 1), (1, 3), (-1, 2)),
                            tolerance=1e-9)
    f2 = theta_expansion(e8, 2, 8, cache=cache)
    b_values = {coefficient_B(f2, DerivativePolynomial.constant(2),
                              SiegelPoint.scalar(1, 1.3j), (0.3 + 0.1j,))
                for _ in ((1, 1), (2, 1), (1, 3), (-1, 2))}
    _report(8, rep.passed and len(b_values) == 1,
            f"A/(lambda*mu) constant to {rep.rel_error:.1e} (<= 1e-9); "
            f"B bitwise identical across the sample")


def test_criterion_09_semi_positivity():
    total = 0
    for g in (1, 2, 3, 4):
        for s in index_tuples(g, 8):
            assert idx.border_zero_forced(s)
            total += 1
    _report(9, True,
            f"border_zero_forced holds on all {total} indices, g <= 4, "
            f"trace <= 8")


def test_criterion_10_property_suite(cache):
    start = time.monotonic()
    e8 = lattice_by_id("E8")
    eng = CountEngine(e8, cache=cache)
    # GL-invariance of representation counts
    s = ((2, 1), (1, 2))
    u = ((1, 1), (0, 1))
    gl_ok = eng.count(s) == eng.count(idx.transform(s, u))
    # Phi-linearity
    f2 = theta_expansion(e8, 2, 8, cache=cache)
    phi_ok = siegel_operator(f2 + f2.scale(3)) == \
        siegel_operator(f2) + siegel_operator(f2).scale(3)
    # serialization round trip
    ser_ok = FourierExpansion.loads(f2.dumps()) == f2
    # cache hits equal recomputation (fresh engines, each with an empty cache)
    engines = {}

    def recompute(lattice_id, key):
        rec = json.loads(key)
        eng2 = engines.setdefault(lattice_id,
                                  CountEngine(lattice_by_id(lattice_id)))
        return eng2.count(idx.from_upper_triangle(rec["g"], rec["u"]))

    mismatches = cache.verify_sample(recompute, fraction=0.02)
    cache_ok = mismatches == []
    elapsed = time.monotonic() - start
    _report(10, gl_ok and phi_ok and ser_ok and cache_ok and elapsed < 300,
            f"GL-invariance, Phi-linearity, round-trip, cache/recompute "
            f"equality all exact ({elapsed:.0f}s)")


def test_columnar_layer_on_the_schottky_difference(cache):
    f4 = schottky_expansion(4, 8, cache=cache)
    ref.assert_matches_reference(f4)
    ref.assert_b_matches_reference(f4)
