"""Degeneration machinery: sigma, the period matrix, A, B, and the checks."""

import cmath
import json
import math
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from conftest import load_schema
from schottky_workbench.expansion import (DerivativePolynomial, DomainError,
                                          SiegelPoint, evaluate,
                                          zero_expansion)
from schottky_workbench.fay import (DegenerationData, coefficient_A,
                                    coefficient_B, corner_exponential_check,
                                    degeneration_limit_check,
                                    derivative_identity_check, fay_check,
                                    period_matrix_first_order,
                                    scaling_law_check, sigma_matrix)
from schottky_workbench.theta import theta_expansion

TWO_PI_I = 2j * math.pi
ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def theta1(e8):
    return theta_expansion(e8, 1, 12)


@pytest.fixture(scope="module")
def theta2(e8):
    return theta_expansion(e8, 2, 8)


@pytest.fixture(scope="module")
def data1():
    return DegenerationData(
        g=1, tau=SiegelPoint.scalar(1, 1.3j), v_a=(0.1,), v_b=(0.2,),
        aj=(0.3 + 0.1j,), s=(0.05,), c1=0.2 + 0.1j, c2=0.1,
        lambda_=1.0, mu=1.0)


def test_sigma_matrix_standard_basis():
    sig = sigma_matrix((1, 0), (0, 1))
    expected = TWO_PI_I * np.array([[0, 1], [1, 0]], dtype=complex)
    assert np.allclose(sig, expected, atol=1e-15)
    assert np.allclose(sigma_matrix((0, 0), (0, 0)), 0)


def test_sigma_matrix_symmetric_and_bilinear():
    rng = np.random.default_rng(11)
    u = rng.normal(size=3) + 1j * rng.normal(size=3)
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    w = rng.normal(size=3) + 1j * rng.normal(size=3)
    sig = sigma_matrix(u, w)
    assert np.allclose(sig, sig.T, atol=1e-12)
    lhs = sigma_matrix(2.5 * u + v, w)
    rhs = 2.5 * sigma_matrix(u, w) + sigma_matrix(v, w)
    assert np.allclose(lhs, rhs, atol=1e-12)
    assert np.allclose(sigma_matrix(3 * u, 2 * v), 6 * sigma_matrix(u, v),
                       atol=1e-12)


def test_sigma_matrix_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        sigma_matrix((1, 0), (1, 0, 0))


def test_period_matrix_structure(data1):
    t = 1e-3
    pm = period_matrix_first_order(data1, t)
    assert pm.shape == (2, 2)
    assert pm[0, 1] == pm[1, 0]
    sig = sigma_matrix((0.1,), (0.2,))
    assert pm[0, 0] == pytest.approx(1.3j + t * sig[0, 0])
    assert pm[0, 1] == pytest.approx(0.3 + 0.1j + t * 0.05)
    corner = (cmath.log(t) + data1.c1 + data1.c2 * t) / TWO_PI_I
    assert pm[1, 1] == pytest.approx(corner)
    # small positive t puts the matrix inside the upper half-space
    SiegelPoint(2, tuple(map(tuple, pm)))


def test_period_matrix_rejects_degenerate_fiber(data1):
    with pytest.raises(DomainError):
        period_matrix_first_order(data1, 0)
    with pytest.raises(DomainError):
        period_matrix_first_order(data1, 1.5)


def test_period_matrix_constant_block_without_sigma():
    data = DegenerationData(g=1, tau=SiegelPoint.scalar(1, 1.3j),
                            v_a=(0.0,), v_b=(0.0,))
    for t in (1e-2, 1e-4):
        pm = period_matrix_first_order(data, t)
        assert pm[0, 0] == 1.3j and pm[0, 1] == 0


def test_corner_exponential_relation(data1):
    rep = corner_exponential_check(data1)
    assert rep.passed


def test_coefficient_A_trivial_cases(theta1):
    tau = SiegelPoint.scalar(1, 1.3j)
    n = DerivativePolynomial.constant(1)
    assert coefficient_A(theta1, n, tau, np.zeros((1, 1))) == 0
    zero = zero_expansion(1, 4, 8)
    sig = sigma_matrix((0.1,), (0.2,))
    assert coefficient_A(zero, n, tau, sig) == 0


def test_coefficient_A_linear_in_sigma(theta1):
    tau = SiegelPoint.scalar(1, 1.3j)
    n = DerivativePolynomial.constant(1)
    s1 = sigma_matrix((0.1,), (0.2,))
    s2 = sigma_matrix((0.3,), (-0.1,))
    a1 = coefficient_A(theta1, n, tau, s1)
    a2 = coefficient_A(theta1, n, tau, s2)
    a12 = coefficient_A(theta1, n, tau, s1 + s2)
    assert abs(a12 - (a1 + a2)) <= 1e-9 * max(abs(a1), abs(a2), abs(a12))


def test_coefficient_B_trivial_cases(theta2):
    tau = SiegelPoint.scalar(1, 1.3j)
    n2 = DerivativePolynomial.constant(2)
    assert coefficient_B(zero_expansion(2, 4, 8), n2, tau, (0.1,)) == 0
    # support limited to corner-zero indices: empty sum
    corner_zero = {s: v for s, v in theta2.coeffs.items() if s[1][1] == 0}
    from schottky_workbench.expansion import FourierExpansion
    f = FourierExpansion(2, 4, 8, corner_zero)
    assert coefficient_B(f, n2, tau, (0.1,)) == 0


def test_coefficient_B_integer_shift_periodicity(theta2):
    tau = SiegelPoint.scalar(1, 1.3j)
    n2 = DerivativePolynomial.constant(2)
    b0 = coefficient_B(theta2, n2, tau, (0.37 + 0.02j,))
    b1 = coefficient_B(theta2, n2, tau, (1.37 + 0.02j,))
    assert abs(b0 - b1) < 1e-12 * abs(b0)
    assert abs(b0) > 0


def test_derivative_identity_genus1(theta1):
    tau = SiegelPoint.scalar(1, 1.1j)
    n = DerivativePolynomial.variable(1, 0, 0)
    sig = sigma_matrix((0.1,), (0.2,))
    rep = derivative_identity_check(theta1, n, tau, sig, tolerance=1e-6)
    assert rep.passed


def test_derivative_identity_zero_sigma(theta1):
    tau = SiegelPoint.scalar(1, 1.1j)
    n = DerivativePolynomial.constant(1)
    rep = derivative_identity_check(theta1, n, tau, np.zeros((1, 1)))
    assert rep.passed and rep.abs_error < 1e-12


def test_scaling_law(theta1):
    tau = SiegelPoint.scalar(1, 1.3j)
    n = DerivativePolynomial.constant(1)
    rep = scaling_law_check(theta1, n, tau, (0.1,), (0.2,))
    assert rep.passed
    # lambda*mu = 1 pairs give identical A values
    rep2 = scaling_law_check(theta1, n, tau, (0.1,), (0.2,),
                             pairs=((1, 1), (2, 0.5), (4, 0.25)))
    assert rep2.passed
    vals = [complex(*v) for v in rep2.details["A_values"]]
    assert max(abs(v - vals[0]) for v in vals) < 1e-9 * abs(vals[0])


def test_scaling_law_zero_vector(theta1):
    tau = SiegelPoint.scalar(1, 1.3j)
    n = DerivativePolynomial.constant(1)
    rep = scaling_law_check(theta1, n, tau, (0.0,), (0.2,))
    assert rep.passed
    assert rep.details["D"] == [0.0, 0.0]


def test_degeneration_limit(data1, theta2):
    rep = degeneration_limit_check(theta2, data1)
    assert rep.passed
    devs = rep.details["deviations"]
    assert devs[0] > devs[-1]


def test_fay_check_full_report(data1, theta2):
    rep = fay_check(data1, theta2, derivative_tolerance=1e-6)
    assert rep["status"] == "pass"
    names = {c["name"] for c in rep["checks"]}
    assert names == {"corner-exponential", "derivative-identity",
                     "scaling-law", "degeneration-limit"}


def test_shipped_degeneration_documents_read():
    # the README's example and the benchmark's genus-2 document
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Degeneration data documents", 1)[1]
    example = json.loads(section.split("```json", 1)[1].split("```", 1)[0])
    bench = json.loads((ROOT / "perfbench" / "fay_genus2_e8.json").read_text())
    schema = load_schema("degeneration-data.schema.json")
    for doc in (example, bench):
        jsonschema.validate(doc, schema)
    assert DegenerationData.from_json(example) == DegenerationData(
        g=1, tau=SiegelPoint.scalar(1, 1.3j), v_a=(0.1,), v_b=(0.2,),
        aj=(0.3,), s=(0.05,), c1=0.2, c2=0.1)
    data2 = DegenerationData.from_json(bench)
    assert data2.tau.tau[0][1] == 0.05 + 0.2j and data2.aj[0] == 0.3 + 0.1j
    assert data2.c1 == 0.2 + 0.1j and data2.c2 == 0.1


def test_degeneration_data_validation():
    with pytest.raises(ValueError):
        DegenerationData(g=1, tau=SiegelPoint.scalar(1, 1j), v_a=(0.1,),
                         v_b=(0.2,), lambda_=0)
    with pytest.raises(ValueError):
        DegenerationData(g=2, tau=SiegelPoint.scalar(2, 1j), v_a=(0.1,),
                         v_b=(0.2, 0.3))
