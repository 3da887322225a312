"""Index-matrix enumeration and predicates, checked against brute force."""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from index_rows import as_tuples, index_tuples, trace
from schottky_workbench import indices as idx
from schottky_workbench.cache import index_key


def _brute_indices_genus2(max_trace):
    """Independent oracle: scan a box and keep psd via numpy eigenvalues."""
    out = set()
    for d1 in range(0, max_trace + 1, 2):
        for d2 in range(0, max_trace - d1 + 1, 2):
            for b in range(-max_trace, max_trace + 1):
                m = np.array([[d1, b], [b, d2]])
                if np.linalg.eigvalsh(m).min() >= -1e-9:
                    out.add(((d1, b), (b, d2)))
    return out


def test_enumerate_genus2_matches_brute_force():
    got = set(as_tuples(idx.enumerate_indices(2, 4)))
    assert got == _brute_indices_genus2(4)
    assert len(idx.enumerate_indices(2, 4)) == 10


def _column_pivots(entries):
    """Oracle: the pivots of the same fraction-free symmetric elimination,
    or None if the matrix is not psd, by a column sweep over the whole
    matrix: pivot k updates every later row at once."""
    m = [list(row) for row in idx.as_entries(entries)]
    g = len(m)
    prev = 1
    pivots = []
    for k in range(g):
        p = m[k][k]
        if p < 0:
            return None
        pivots.append(p)
        row = m[k]
        if p == 0:
            if any(row[j] != 0 for j in range(k + 1, g)):
                return None
            continue
        for i in range(k + 1, g):
            mi = m[i]
            f = mi[k]
            for j in range(k + 1, g):
                mi[j] = (p * mi[j] - f * row[j]) // prev
        prev = p
    return pivots


def _box_indices(g, max_trace):
    """Oracle: every matrix of the full Cauchy-Schwarz box over the even
    diagonals, kept when psd by the column sweep, in the enumeration's
    order."""
    pairs = [(p, q) for p in range(g) for q in range(p + 1, g)]
    out = []
    for diag in itertools.product(range(0, max_trace + 1, 2), repeat=g):
        if sum(diag) > max_trace:
            continue
        bounds = [math.isqrt(diag[p] * diag[q]) for p, q in pairs]
        for offs in itertools.product(*(range(-b, b + 1) for b in bounds)):
            m = [[0] * g for _ in range(g)]
            for p in range(g):
                m[p][p] = diag[p]
            for (p, q), v in zip(pairs, offs):
                m[p][q] = m[q][p] = v
            if _column_pivots(m) is not None:
                out.append(idx.as_entries(m))
    out.sort(key=lambda s: (trace(s), tuple(s[p][p] for p in range(g)),
                            tuple(idx.upper_triangle(s))))
    return tuple(out)


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_row_walk_matches_box(g):
    for max_trace in range(0, 10, 2):
        assert as_tuples(idx.enumerate_indices(g, max_trace)) == \
            _box_indices(g, max_trace), (g, max_trace)


def test_row_walk_carries_its_own_elimination(monkeypatch):
    # the walk grows each block's elimination state one row at a time: it
    # runs no whole psd test; enumerate_indices keeps no memo, so each call
    # is a fresh walk
    def forbidden(*args, **kwargs):
        raise AssertionError("the walk ran a whole psd test")

    monkeypatch.setattr(idx, "is_psd", forbidden)
    monkeypatch.setattr(idx, "psd_pivots", forbidden)
    for g, max_trace in ((4, 8), (5, 6)):
        assert as_tuples(idx.enumerate_indices(g, max_trace)) == \
            _box_indices(g, max_trace), (g, max_trace)


def test_enumeration_counts():
    assert len(idx.enumerate_indices(1, 4)) == 3
    assert len(idx.enumerate_indices(2, 8)) == 47
    assert len(idx.enumerate_indices(3, 6)) == 104


def test_enumeration_deterministic_order():
    a = idx.enumerate_indices(2, 6)
    assert np.array_equal(a, idx.enumerate_indices(2, 6))
    # one int16 array, shared through index_table, so read-only
    assert a.dtype == np.int16 and not a.flags.writeable
    with pytest.raises(ValueError):
        a[0, 0, 0] = 2
    keys = [(trace(s), tuple(s[p][p] for p in range(2)),
             tuple(idx.upper_triangle(s))) for s in as_tuples(a)]
    assert keys == sorted(keys)


def test_is_psd_exact_cases():
    assert idx.is_psd(((2, 1), (1, 2)))
    assert idx.is_psd(((2, 2), (2, 2)))          # rank 1, boundary
    assert not idx.is_psd(((2, 3), (3, 2)))
    assert idx.is_psd(((0, 0), (0, 2)))
    assert not idx.is_psd(((0, 1), (1, 2)))      # zero pivot, nonzero row
    assert idx.is_psd(((0, 0, 0), (0, 2, 2), (0, 2, 2)))
    # the second pivot becomes zero only after elimination
    assert idx.is_psd(((2, 2, 1), (2, 2, 1), (1, 1, 2)))
    assert not idx.is_psd(((2, 2, 1), (2, 2, 0), (1, 0, 2)))


def test_validate_rejects_bad_matrices():
    assert issubclass(idx.InvalidIndexError, ValueError)
    with pytest.raises(idx.InvalidIndexError):
        idx.validate_index(((1, 0), (0, 2)))     # odd diagonal
    with pytest.raises(idx.InvalidIndexError):
        idx.validate_index(((2, 1), (0, 2)))     # asymmetric
    with pytest.raises(idx.InvalidIndexError):
        idx.validate_index(((2, 3), (3, 2)))     # not psd
    with pytest.raises(idx.InvalidIndexError, match="genus must be >= 1"):
        idx.validate_index(())


def test_border_zero_forced_exhaustive():
    for g in (2, 3):
        for s in index_tuples(g, 6):
            assert idx.border_zero_forced(s)


def test_upper_triangle_round_trip():
    for s in index_tuples(3, 4):
        assert idx.from_upper_triangle(3, idx.upper_triangle(s)) == s


def test_transform_preserves_counted_class():
    s = ((2, 1), (1, 4))
    u = ((1, 1), (0, 1))
    t = idx.transform(s, u)
    assert t == ((2, 3), (3, 8))
    assert trace(t) % 2 == 0 and idx.is_psd(t)


def test_canonical_signed_perm_invariance():
    rng = random.Random(7)
    for s in index_tuples(3, 6)[::7]:
        canon = idx.canonical_signed_perm(s)
        g = len(s)
        for _ in range(5):
            perm = list(range(g))
            rng.shuffle(perm)
            signs = [rng.choice((1, -1)) for _ in range(g)]
            moved = tuple(
                tuple(signs[p] * signs[q] * s[perm[p]][perm[q]]
                      for q in range(g)) for p in range(g))
            assert idx.canonical_signed_perm(moved) == canon
        diag = [canon[p][p] for p in range(g)]
        assert diag == sorted(diag)


def test_orbit_labels_are_least_indices():
    rows = np.array([[0, 1], [1, 0], [2, 2], [1, 2], [2, 1]], dtype=np.int64)
    labels = idx.orbit_labels(rows, iter([rows[:, ::-1]]))
    assert labels.tolist() == [0, 0, 2, 3, 3]
    assert idx.orbit_labels(rows, iter(())).tolist() == [0, 1, 2, 3, 4]
    # an image outside the rows raises, wherever it falls in the sort
    for image in (rows + 1, rows - 3, np.flipud(rows) * 2):
        with pytest.raises(ValueError, match="onto themselves"):
            idx.orbit_labels(rows, iter([rows[:, ::-1], image]))


def test_even_diagonal_and_trace_bounds():
    for s in index_tuples(2, 6):
        assert trace(s) <= 6
        assert all(s[p][p] % 2 == 0 for p in range(2))
    with pytest.raises(ValueError):
        idx.enumerate_indices(2, 5)
    with pytest.raises(ValueError):
        idx.enumerate_indices(0, 4)


def test_int16_table_bounds(monkeypatch):
    # the table is int16: its last genus-1 row is the largest trace, and a
    # trace past 32766 is refused before the walk takes a step
    top = idx.enumerate_indices(1, 32766)
    assert top.dtype == np.int16 and len(top) == 16384
    assert top[-1].tolist() == [[32766]]

    def forbidden(*args):
        raise AssertionError("the walk started")

    monkeypatch.setattr(idx, "_border", forbidden)
    with pytest.raises(idx.InvalidIndexError, match="int16"):
        idx.enumerate_indices(1, 32768)


def test_non_integral_entries_are_refused():
    # entries are taken by operator.index: a float is not truncated and a
    # string is not parsed
    for bad in ([[2.7]], [["4"]], [[2, 0.0], [0.0, 2]], [[np.float64(2)]]):
        with pytest.raises(idx.InvalidIndexError, match="not an integer matrix"):
            idx.validate_index(bad)
    with pytest.raises(idx.InvalidIndexError):
        idx.from_upper_triangle(1, [2.5])
    with pytest.raises(idx.InvalidIndexError, match="wrong number"):
        idx.from_upper_triangle(2, [2, 1])
    assert idx.validate_index(np.array([[2, 1], [1, 2]])) == ((2, 1), (1, 2))


def test_off_diagonal_box_is_tight():
    # entries on the Cauchy-Schwarz boundary must appear
    assert ((2, 2), (2, 2)) in index_tuples(2, 4)
    assert ((2, -2), (-2, 2)) in index_tuples(2, 4)


# -- oracles for the fast paths ---------------------------------------------


def _brute_canonical(entries):
    """Oracle: the least (diagonal, upper triangle) over all 2^g * g! signed
    permutations, found by trying every one."""
    s = idx.as_entries(entries)
    g = len(s)
    best = None
    for perm in itertools.permutations(range(g)):
        for signs in itertools.product((1, -1), repeat=g):
            cand = tuple(
                tuple(signs[p] * signs[q] * s[perm[p]][perm[q]]
                      for q in range(g))
                for p in range(g))
            key = (tuple(cand[p][p] for p in range(g)),
                   tuple(idx.upper_triangle(cand)))
            if best is None or key < best[0]:
                best = (key, cand)
    return best[1]


def _signed_permuted(s, perm, signs):
    g = len(s)
    return tuple(tuple(signs[p] * signs[q] * s[perm[p]][perm[q]]
                       for q in range(g)) for p in range(g))


def _key(s):
    return index_key(len(s), idx.upper_triangle(s))


def test_canonical_matches_brute_force_up_to_genus3():
    for g in (1, 2, 3):
        for s in index_tuples(g, 8):
            fast = idx.canonical_signed_perm(s)
            assert fast == _brute_canonical(s), s
            assert _key(fast) == _key(_brute_canonical(s))


def test_canonical_matches_brute_force_genus4_sample():
    for s in index_tuples(4, 8)[::7]:
        assert idx.canonical_signed_perm(s) == _brute_canonical(s), s


def test_zero_rows_take_one_order():
    # swapping two zero rows leaves the matrix as it is: a 25 x 25 zero
    # index tries one slot order, not 25!
    zero = ((0,) * 25,) * 25
    start = time.monotonic()
    assert idx.canonical_signed_perm(zero) == zero
    assert time.monotonic() - start < 1
    # zero rows padded into genus-2 indices at every position, and (not
    # psd) zero rows beside other rows of zero diagonal in one block
    rng = random.Random(3)
    cases = [((0, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, -1), (0, 0, -1, 0)),
             ((0, 0, 0), (0, 0, 2), (0, 2, 2))]
    for s in index_tuples(2, 6):
        for zeros in itertools.combinations(range(4), 2):
            rest = iter((0, 1))
            at = [None if p in zeros else next(rest) for p in range(4)]
            cases.append(tuple(tuple(0 if None in (a, b) else s[a][b]
                                     for b in at) for a in at))
    for _ in range(30):
        m = [[0] * 4 for _ in range(4)]
        for p, q in itertools.combinations(range(4), 2):
            if p and q and rng.random() < 0.4:
                m[p][q] = m[q][p] = rng.choice((-2, -1, 1, 2))
        cases.append(tuple(map(tuple, m)))
    for s in cases:
        assert idx.canonical_signed_perm(s) == _brute_canonical(s), s


# cache keys written by the brute-force canonicalizer; a cache file stays
# readable only while these stay byte-identical
FROZEN_KEYS = [
    (((2, -1, -1, -1), (-1, 2, 0, 0), (-1, 0, 2, 0), (-1, 0, 0, 2)),
     '{"g":4,"u":[2,-1,-1,-1,2,0,0,2,0,2]}'),
    (((4, 1, -2), (1, 2, 1), (-2, 1, 4)), '{"g":3,"u":[2,-1,-1,4,-2,4]}'),
    (((2, 1, 1, 1), (1, 2, 1, 1), (1, 1, 2, 1), (1, 1, 1, 2)),
     '{"g":4,"u":[2,-1,-1,-1,2,1,1,2,1,2]}'),
    (((6, 3), (3, 2)), '{"g":2,"u":[2,-3,6]}'),
]


@pytest.mark.parametrize("s,key", FROZEN_KEYS)
def test_canonical_cache_keys_frozen(s, key):
    assert _key(idx.canonical_signed_perm(s)) == key


@st.composite
def _index_and_move(draw):
    g = draw(st.integers(1, 4))
    s = draw(st.sampled_from(index_tuples(g, 8)))
    perm = draw(st.permutations(range(g)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=g, max_size=g))
    return s, perm, signs


@settings(max_examples=300, deadline=None)
@given(_index_and_move())
def test_canonical_invariant_under_signed_permutation(case):
    s, perm, signs = case
    canon = idx.canonical_signed_perm(s)
    moved = idx.canonical_signed_perm(_signed_permuted(s, perm, signs))
    assert moved == canon
    assert _key(moved) == _key(canon)
    assert idx.canonical_signed_perm(canon) == canon


def _fraction_psd(s) -> bool:
    """Oracle: the same elimination over the rationals."""
    g = len(s)
    m = [[Fraction(s[i][j]) for j in range(g)] for i in range(g)]
    for k in range(g):
        if m[k][k] < 0:
            return False
        if m[k][k] == 0:
            if any(m[k][j] != 0 for j in range(k + 1, g)):
                return False
            continue
        for i in range(k + 1, g):
            f = m[i][k] / m[k][k]
            if f:
                for j in range(k, g):
                    m[i][j] -= f * m[k][j]
    return True


def _random_symmetric(rng, g):
    kind = rng.randrange(3)
    if kind == 0:
        # arbitrary entries, zero and negative diagonals included
        m = [[0] * g for _ in range(g)]
        for p in range(g):
            m[p][p] = rng.choice((-1, 0, 0, 1, 2, 4))
            for q in range(p + 1, g):
                m[p][q] = m[q][p] = rng.randint(-3, 3)
        return m
    # Gram matrices of a few integer vectors: psd, often singular, and
    # with zeroed slots they force zero pivots with vanishing rows
    vecs = [[rng.randint(-2, 2) for _ in range(rng.randint(1, g))]
            for _ in range(g)]
    n = max(len(v) for v in vecs)
    vecs = [v + [0] * (n - len(v)) for v in vecs]
    for p in range(g):
        if rng.random() < 0.2:
            vecs[p] = [0] * n
    m = [[sum(a * b for a, b in zip(vecs[p], vecs[q])) for q in range(g)]
         for p in range(g)]
    if kind == 2:
        # perturb one entry pair: breaks psd in most cases
        p, q = rng.randrange(g), rng.randrange(g)
        d = rng.choice((-1, 1))
        m[p][q] += d
        if p != q:
            m[q][p] += d
    return m


def test_integer_psd_matches_fraction_oracle():
    rng = random.Random(5)
    verdicts = set()
    for _ in range(3000):
        m = _random_symmetric(rng, rng.randint(1, 5))
        want = _fraction_psd(m)
        assert idx.is_psd(m) == want, m
        verdicts.add(want)
    assert verdicts == {True, False}



def _fraction_det(m, k):
    """The determinant of the leading k x k block, over the rationals."""
    a = [[Fraction(m[i][j]) for j in range(k)] for i in range(k)]
    det = Fraction(1)
    for c in range(k):
        p = next((r for r in range(c, k) if a[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, k):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def test_bordered_pivots_match_column_sweep_and_minors():
    # one row at a time (`_border`) gives the column sweep's pivots and
    # verdicts; with no zero pivot, pivot k is the leading principal minor
    # of order k + 1, which `Lattice`'s unimodular check reads
    rng = random.Random(11)
    verdicts, minors = set(), 0
    for _ in range(3000):
        m = _random_symmetric(rng, rng.randint(1, 6))
        pivots = idx.psd_pivots(m)
        assert pivots == _column_pivots(m), m
        verdicts.add(pivots is None)
        if pivots is not None and 0 not in pivots:
            assert pivots == [_fraction_det(m, k + 1)
                              for k in range(len(m))], m
            minors += 1
    assert verdicts == {True, False}
    assert minors > 300
