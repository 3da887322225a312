"""The columnar expansion layer: shared index tables, one exact coefficient
column per expansion, and validation only for keys the table misses.

The per-coefficient loops in expansion_reference are the oracle; the genus-4
Schottky difference is checked the same way in the acceptance suite, which
already holds its counts.
"""

from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import expansion_reference as ref
from index_rows import index_tuples
from schottky_workbench import indices as idx
from schottky_workbench.expansion import (FourierExpansion, SiegelPoint,
                                          TruncationError, evaluate)
from schottky_workbench.theta import theta_expansion


@pytest.fixture(scope="module")
def e8_thetas(e8):
    return {g: theta_expansion(e8, g, 8) for g in (1, 2, 3)}


@pytest.mark.parametrize("g", [1, 2, 3])
def test_columnar_layer_matches_reference(e8_thetas, g):
    ref.assert_matches_reference(e8_thetas[g])
    if g >= 2:
        ref.assert_b_matches_reference(e8_thetas[g])


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_tables_are_prefixes_and_phi_is_a_row_mask(g):
    for top in (8, 10):
        full = index_tuples(g, top)
        for t in range(0, top, 2):
            assert index_tuples(g, t) == full[:len(index_tuples(g, t))]
        if g >= 2:
            bordered = [s for s in full
                        if not any(s[g - 1][q] for q in range(g))]
            minors = tuple(tuple(row[: g - 1] for row in s[: g - 1])
                           for s in bordered)
            assert minors == index_tuples(g - 1, top)


@pytest.mark.parametrize("g,top", [(1, 8), (2, 8), (3, 8), (4, 8), (5, 6),
                                   (4, 10), (5, 8)])
def test_class_column_holds_each_rows_canonical_key(g, top):
    full = idx.index_table(g, top)
    assert len(set(full.class_keys)) == len(full.class_keys)
    for t in range(0, top + 1, 2):
        table = idx.index_table(g, t)
        for r, s in enumerate(index_tuples(g, t)):
            assert table.class_keys[table.classes[r]] == \
                idx.canonical_signed_perm(s)
        assert table.classes == full.classes[:len(table.mats)]
        assert table.class_keys == full.class_keys[:len(table.class_keys)]


def test_classes_canonicalize_no_row(monkeypatch):
    """A fresh table finds its classes by orbit labels alone: each orbit's
    first row already is its canonical key."""
    def forbidden(entries):
        raise AssertionError("a table row was canonicalized")

    want = idx.index_table(4, 8)
    monkeypatch.setattr(idx, "canonical_signed_perm", forbidden)
    fresh = idx.index_table.__wrapped__(4, 8)
    assert fresh is not want
    assert fresh.class_keys == want.class_keys
    assert fresh.classes == want.classes


def test_class_counts():
    for (g, t), n in {(2, 8): 20, (3, 8): 44, (4, 6): 18, (4, 8): 70}.items():
        assert len(idx.index_table(g, t).class_keys) == n, (g, t)


def test_table_arrays_match_keys():
    t = idx.index_table(3, 6)
    assert t.mats.shape == (104, 3, 3) and t.mats.dtype == np.int16
    assert not t.mats.flags.writeable
    # an int16 row by its bytes, any other key by its entries
    assert all(t.row(m) == r for r, m in enumerate(t.mats))
    assert all(t.row(s) == r for r, s in enumerate(index_tuples(3, 6)))
    assert all(t.row(m.astype(np.int64)) == r for r, m in enumerate(t.mats))
    # a miss: beyond the trace, or another genus; a flat row is no matrix
    assert t.row(((8, 0, 0), (0, 0, 0), (0, 0, 0))) is None
    assert t.row(((2, 0), (0, 0))) is None
    assert t.row(t.mats[-1, :2, :2]) is None
    with pytest.raises(idx.InvalidIndexError):
        t.row(t.mats[0].ravel())


def test_column_is_exact_and_read_only(e8_thetas):
    f = e8_thetas[2]
    assert f.column.dtype == object and len(f.column) == len(f.table.mats)
    assert all(type(a) is int for a in f.column)
    assert all(type(a) is Fraction for a in f.scale(Fraction(1, 3)).column)
    big = f.scale(2**70) + f
    assert big.coefficient(((2, 0), (0, 0))) == 240 * (2**70 + 1)
    assert f.table is idx.index_table(2, 8)
    with pytest.raises(ValueError):
        f.column[0] = 1


def test_table_hits_are_not_validated(e8_thetas, monkeypatch):
    f = e8_thetas[3]
    calls = []
    real = idx.validate_index

    def counting(key, *args, **kwargs):
        calls.append(key)
        return real(key, *args, **kwargs)

    monkeypatch.setattr(idx, "validate_index", counting)
    for s in f.table.mats:
        f.coefficient(s)
    for s in index_tuples(3, 8):
        f.coefficient(s)
    FourierExpansion(3, 4, 8, dict(f.coeffs))
    assert FourierExpansion.loads(f.dumps()) == f
    f - f.scale(2)
    # a list finds its row by its entries, too
    assert f.coefficient([[2, 0, 0], [0, 0, 0], [0, 0, 0]]) == 240
    assert calls == []
    # a key that misses the table is validated once
    with pytest.raises(TruncationError):
        f.coefficient([[10, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert len(calls) == 1


def test_keys_past_int16_miss_the_table(e8_thetas):
    # 65538 = 2 mod 2**16: a key past int16 misses, and never reads the
    # coefficient of the int16 value it would wrap to
    f = e8_thetas[1]
    assert f.coefficient(((2,),)) == 240
    for key in (((65538,),), np.array([[65538]], dtype=np.int64)):
        assert f.table.row(key) is None
        with pytest.raises(TruncationError):
            f.coefficient(key)


def test_non_integral_keys_are_refused(e8_thetas):
    # a float entry is not truncated to the index it would round down to
    f = e8_thetas[1]
    for key in ([[2.9]], np.array([[2.0]]), [["2"]]):
        with pytest.raises(idx.InvalidIndexError):
            f.coefficient(key)
    with pytest.raises(idx.InvalidIndexError):
        FourierExpansion(1, 4, 8, {((2.5,),): 1})


def test_invalid_and_truncated_keys_still_raise(e8_thetas):
    f = e8_thetas[2]
    for bad in (((1, 0), (0, 2)),          # odd diagonal
                ((2, 3), (3, 2)),          # not psd
                ((2, 1), (0, 2))):         # not symmetric
        with pytest.raises(idx.InvalidIndexError):
            f.coefficient(bad)
        with pytest.raises(idx.InvalidIndexError):
            FourierExpansion(2, 4, 8, {bad: 1})
    beyond = ((6, 0), (0, 4))
    with pytest.raises(TruncationError):
        f.coefficient(beyond)
    with pytest.raises(ValueError):
        FourierExpansion(2, 4, 8, {beyond: 1})
    with pytest.raises(ValueError):
        FourierExpansion(2, 4, 8, [1, 2, 3])


def test_high_precision_phases_are_formed_in_mpmath(e8_thetas):
    f = e8_thetas[2]
    point = SiegelPoint(2, ((0.1 + 1.1j, 0.3 + 0.2j),
                            (0.3 + 0.2j, -0.2 + 1.3j)))
    with mp.workdps(60):
        tau = [[mp.mpc(z) for z in row] for row in point.tau]
        want = mp.fsum(
            a * mp.exp(mp.mpc(0, mp.pi) * mp.fsum(
                s[p][q] * tau[p][q] for p in range(2) for q in range(2)))
            for s, a in f.coeffs.items())
        got = evaluate(f, point, precision=50).value
        assert abs(got - want) <= mp.mpf("1e-40") * abs(want)
