"""Expansion arithmetic, the Siegel operator, derivatives, evaluation."""

import json
import math
import operator
import warnings
from fractions import Fraction

import jsonschema
import pytest

from conftest import load_schema
from schottky_workbench.expansion import (DerivativePolynomial, DomainError,
                                          FourierExpansion,
                                          IncompatibleExpansionError,
                                          SiegelPoint, TruncationError,
                                          apply_derivative, evaluate,
                                          siegel_limit_check, siegel_operator)
from schottky_workbench.theta import theta_expansion


@pytest.fixture(scope="module")
def theta1(e8):
    return theta_expansion(e8, 1, 8)


@pytest.fixture(scope="module")
def theta2(e8):
    return theta_expansion(e8, 2, 8)


def test_siegel_point_invariants():
    with pytest.raises(DomainError):
        SiegelPoint(1, ((1.0,),))            # real axis
    with pytest.raises(DomainError):
        SiegelPoint(2, ((1j, 1.0), (0.5, 1j)))   # asymmetric
    with pytest.raises(DomainError):
        SiegelPoint(2, ((1j, 2j), (2j, 1j)))   # Im not positive definite
    with warnings.catch_warnings():
        warnings.simplefilter("error")          # and no numpy RuntimeWarning
        for bad in (complex("nanj"), math.inf):
            with pytest.raises(DomainError, match="entries must be finite"):
                SiegelPoint(2, ((1j, bad), (0.5, 1j)))
    p = SiegelPoint.scalar(2, 1.5j)
    assert p.im_min_eig == pytest.approx(1.5)
    q = p.direct_sum(SiegelPoint.scalar(1, 2j))
    assert q.g == 3 and q.tau[2][2] == 2j and q.tau[0][2] == 0


def test_coefficient_lookup_and_truncation(theta1):
    assert theta1.coefficient(((2,),)) == 240
    assert theta1.coefficient(((8,),)) == 17520
    with pytest.raises(TruncationError):
        theta1.coefficient(((10,),))


def test_arithmetic_and_compatibility(theta1):
    twice = theta1 + theta1
    assert twice.coefficient(((4,),)) == 2 * 2160
    assert (theta1 - theta1).is_zero()
    assert theta1.scale(3).coefficient(((2,),)) == 720
    other_weight = FourierExpansion(1, 5, 8, {((0,),): 1})
    with pytest.raises(IncompatibleExpansionError):
        theta1 + other_weight
    # equal columns, other metadata; and no expansion equals a number
    assert FourierExpansion(1, 4, 8, theta1.column) == theta1
    assert FourierExpansion(1, 5, 8, theta1.column) != theta1
    assert theta1 != 240 and not theta1 == 240
    with pytest.raises(IncompatibleExpansionError, match="point genus"):
        evaluate(theta1, SiegelPoint.scalar(2, 1.2j))


def test_addition_truncates_to_common_bound(e8, theta1):
    short = theta_expansion(e8, 1, 4)
    both = theta1 + short
    assert both.max_trace == 4
    with pytest.raises(TruncationError):
        both.coefficient(((6,),))


def test_siegel_operator_linearity(theta2, e8):
    other = theta2.scale(2)
    assert siegel_operator(theta2 + other) == \
        siegel_operator(theta2) + siegel_operator(other)
    assert siegel_operator(FourierExpansion(2, 8, 8, {})).is_zero()
    with pytest.raises(IncompatibleExpansionError):
        siegel_operator(theta_expansion(e8, 1, 4))


def test_serialization_round_trip(theta2):
    text = theta2.dumps()
    back = FourierExpansion.loads(text)
    assert back == theta2 and hash(back) == hash(theta2)
    doc = json.loads(text)
    jsonschema.validate(doc, load_schema("fourier-expansion.schema.json"))
    assert doc["entries"] == sorted(
        doc["entries"], key=lambda e: (sum(e["S"][i] for i in (0, 2)),
                                       e["S"]))


def test_serialization_rejects_foreign_documents():
    with pytest.raises(ValueError):
        FourierExpansion.loads('{"format": "something-else", "version": 1}')
    doc = {"format": "fourier-expansion", "version": 1, "genus": 1,
           "weight": 4, "max_trace": 2}
    for entry in ({"S": [2]}, {"S": [2], "a": "240", "b": "0"}, [[2], "240"]):
        with pytest.raises(ValueError, match="is not an object of S and a"):
            FourierExpansion.from_json(dict(doc, entries=[entry]))
    half = FourierExpansion(1, 4, 2, {((2,),): Fraction(1, 2)})
    with pytest.raises(ValueError, match="only integer coefficients"):
        half.to_json()


def test_evaluate_periodicity(theta1):
    # integer Fourier indices: translating tau by 2 changes nothing
    a = evaluate(theta1, SiegelPoint.scalar(1, 0.3 + 1.2j)).value
    b = evaluate(theta1, SiegelPoint.scalar(1, 2.3 + 1.2j)).value
    assert abs(a - b) < 1e-12 * abs(a)


def test_evaluate_conjugation_symmetry(theta1):
    # real coefficients: F(-conj(tau)) = conj(F(tau))
    a = evaluate(theta1, SiegelPoint.scalar(1, 0.4 + 1.1j)).value
    b = evaluate(theta1, SiegelPoint.scalar(1, -0.4 + 1.1j)).value
    assert abs(b - a.conjugate()) < 1e-12 * abs(a)


def test_evaluate_high_precision_matches_float(theta1):
    pt = SiegelPoint.scalar(1, 1.3j)
    lo = evaluate(theta1, pt).value
    hi = evaluate(theta1, pt, precision=50).value
    assert abs(complex(hi) - lo) < 1e-13 * abs(lo)


def test_derivative_polynomial_algebra():
    x11 = DerivativePolynomial.variable(2, 0, 0)
    x12 = DerivativePolynomial.variable(2, 1, 0)  # normalizes to (0, 1)
    prod = x11 * x12 + DerivativePolynomial.constant(2, 3)
    assert prod.degree == 2
    assert DerivativePolynomial(2, {}).degree == 0
    for bad in ((((0, 2), 1),), (((1, 0), 1),), (((0, 0), 0),)):
        with pytest.raises(ValueError, match="bad monomial variable"):
            DerivativePolynomial(2, {bad: 1})
    x1 = DerivativePolynomial.variable(1, 0, 0)
    for op in (operator.add, operator.mul):
        with pytest.raises(ValueError, match="genus mismatch"):
            op(x11, x1)
    assert list(prod.evaluate_rows([((2, 1), (1, 4)), ((0, 0), (0, 2))])) \
        == [2 * 1 + 3, 3]
    assert (x11 * x11).evaluate_rows([((2, 0), (0, 0))])[0] == 4


def test_apply_derivative_matches_finite_difference(theta1):
    # d/dtau of sum a exp(pi i S tau) = (pi i) sum a S exp(pi i S tau)
    x11 = DerivativePolynomial.variable(1, 0, 0)
    df = apply_derivative(theta1, x11)
    assert df.prefactor_power == 1
    with pytest.raises(IncompatibleExpansionError, match="genus mismatch"):
        apply_derivative(theta1, DerivativePolynomial.variable(2, 0, 0))
    z = 1.4j
    h = 1e-5
    fd = (evaluate(theta1, SiegelPoint.scalar(1, z + h)).value -
          evaluate(theta1, SiegelPoint.scalar(1, z - h)).value) / (2 * h)
    sym = evaluate(df, SiegelPoint.scalar(1, z))
    assert sym.prefactor_power == 1
    with_prefactor = (1j * math.pi) ** sym.prefactor_power * sym.value
    assert abs(with_prefactor - fd) < 1e-6 * abs(fd)


def test_siegel_limit_check(theta2):
    rep = siegel_limit_check(theta2, SiegelPoint.scalar(1, 1.3j),
                             t_values=(2.0, 5.0, 10.0), tolerance=1e-12)
    # any iterable of t values, read once
    assert siegel_limit_check(theta2, SiegelPoint.scalar(1, 1.3j),
                              t_values=iter((2.0, 5.0, 10.0)),
                              tolerance=1e-12) == rep
    assert rep.passed and rep.name == "siegel-limit"
    devs = rep.details["deviations"]
    assert devs[0] > devs[-1] == rep.abs_error
    limit = complex(*rep.details["limit"])
    assert rep.rel_error == rep.abs_error / max(abs(limit), 1.0)
    # one report type with the degeneration checks: the same JSON item
    check = load_schema("verification-report.schema.json")
    jsonschema.validate(json.loads(json.dumps(rep.to_json())),
                        check["properties"]["checks"]["items"])
    for bad in ((-1.0,), ()):
        with pytest.raises(DomainError, match="nonempty and positive"):
            siegel_limit_check(theta2, SiegelPoint.scalar(1, 1.3j),
                               t_values=bad)
    with pytest.raises(IncompatibleExpansionError, match="f.g - 1"):
        siegel_limit_check(theta2, SiegelPoint.scalar(2, 1.3j),
                           t_values=(2.0,))
