"""The weight-8 theta difference: low-genus vanishing and reports.

The expensive genus-3 and genus-4 scans live in the acceptance suite; here
the same machinery is exercised at smaller truncations.
"""

import pytest

from index_rows import index_tuples
from schottky_workbench import indices as idx
from schottky_workbench import schottky
from schottky_workbench.expansion import FourierExpansion
from schottky_workbench.schottky import (first_nonzero_index, nonzero_report,
                                         schottky_expansion, verify_vanishing)


def test_difference_is_weight8_genus_preserving():
    f = schottky_expansion(1, 4)
    assert f.g == 1 and f.weight == 8 and f.max_trace == 4


def test_genus1_difference_vanishes():
    assert schottky_expansion(1, 8).is_zero()


def test_genus2_difference_vanishes_small():
    assert schottky_expansion(2, 4).is_zero()


def test_verify_vanishing_report():
    rep = verify_vanishing(1, 8)
    assert rep["status"] == "pass"
    assert rep["checked"] == 5
    with pytest.raises(ValueError):
        verify_vanishing(4, 4)


def test_first_nonzero_absent_below_threshold():
    # genus 4 indices of trace < 8 all reduce to lower genus, where the
    # difference vanishes
    assert first_nonzero_index(4, 4) is None


def test_nonzero_report_zero_case():
    rep = nonzero_report(2, 4)
    assert rep["status"] == "zero"
    assert rep["nonzero_indices"] == []
    assert rep["checked"] == 10


def test_views_of_one_scan_on_a_nonzero_difference(monkeypatch):
    # a stand-in difference with two nonzero coefficients checks that the
    # views report what the early-exit scans did: the first offender, and
    # `checked` counting up to it
    order = index_tuples(2, 4)
    first, later = order[3], order[7]
    fake = FourierExpansion(2, 8, 4, {first: -5, later: 7})
    builds = []

    def stand_in(*args, **kwargs):
        builds.append(args)
        return fake

    monkeypatch.setattr(schottky, "schottky_expansion", stand_in)
    rep = nonzero_report(2, 4)
    assert rep["status"] == "nonzero" and rep["checked"] == len(order)
    assert rep["nonzero_indices"] == [
        {"S": idx.upper_triangle(first), "a": "-5"},
        {"S": idx.upper_triangle(later), "a": "7"}]
    assert first_nonzero_index(2, 4) == (first, -5)
    assert verify_vanishing(2, 4) == {
        "genus": 2, "max_trace": 4, "status": "fail", "checked": 4,
        "counterexample": {"S": idx.upper_triangle(first),
                           "difference": "-5"}}
    assert len(builds) == 3
