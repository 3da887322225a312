"""Lattice construction and short-vector enumeration.

The first oracle works in ambient R^n coordinates (integer vectors with even
coordinate sum, plus the all-half-integers coset where it exists), so it is
independent of the Gram-basis enumeration under test.  The others are the
earlier enumerator (full candidate arrays from LDL intervals, then an exact
norm filter and a lexicographic sort), a brute-force box enumeration, and
the Eisenstein series of weight 4 and 8.  The count-only walk
`_shell_counts` is the oracle of `shell_sizes`, which reads the counts from
the theta series' modular form.
"""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from schottky_workbench import lattices
from schottky_workbench.counting import CountEngine
from schottky_workbench.lattices import (Lattice, LatticeError,
                                         UnsupportedLatticeError,
                                         _center_rows, _modular_series,
                                         _shell_counts, _shells,
                                         _simple_roots, _tag_histograms,
                                         direct_sum, lattice_by_id,
                                         pair_counts, reflection_orbits,
                                         shell_orbits, shell_sizes,
                                         short_vector_shells)


def _ambient_count(n: int, norm: int, with_halves: bool) -> int:
    """Vectors of squared length `norm` in the ambient model: integer
    vectors with even coordinate sum, optionally plus the coset where every
    coordinate lies in Z + 1/2 (doubled coordinates odd, sum = 0 mod 4)."""
    count = 0
    for support in range(1, min(n, norm) + 1):
        for positions in itertools.combinations(range(n), support):
            for values in itertools.product(range(1, norm + 1),
                                            repeat=support):
                if sum(v * v for v in values) != norm:
                    continue
                for signs in itertools.product((1, -1), repeat=support):
                    if sum(s * v for s, v in zip(signs, values)) % 2 == 0:
                        count += 1
    if with_halves:
        # doubled coordinates: odd integers c_i with sum c_i^2 = 4*norm
        for cs in itertools.product((1, -1, 3, -3), repeat=n):
            if sum(c * c for c in cs) == 4 * norm and sum(cs) % 4 == 0:
                count += 1
    return count


def test_e8_norm2_count_matches_ambient_oracle(e8):
    assert _ambient_count(8, 2, with_halves=True) == 240
    assert len(short_vector_shells(e8, 2)[2]) == 240


def test_e8_norm4_count_matches_ambient_oracle(e8):
    assert _ambient_count(8, 4, with_halves=True) == 2160
    assert len(short_vector_shells(e8, 4)[4]) == 2160


def test_d16plus_norm2_count_matches_ambient_oracle(d16):
    # the half-integer coset has minimum norm 4 in rank 16, so the norm-2
    # vectors are exactly the D16 roots
    assert _ambient_count(16, 2, with_halves=False) == 480
    assert len(short_vector_shells(d16, 2)[2]) == 480


def test_e8e8_norm2_count(e8e8):
    assert len(short_vector_shells(e8e8, 2)[2]) == 480


def test_e8_shell_sizes(e8):
    shells = short_vector_shells(e8, 8)
    assert {m: len(v) for m, v in shells.items()} == {
        0: 1, 2: 240, 4: 2160, 6: 6720, 8: 17520}


def test_rank16_shell_sizes_agree(d16, e8e8):
    # both rank-16 theta series share the genus-1 coefficients
    a = short_vector_shells(d16, 4)
    b = short_vector_shells(e8e8, 4)
    assert {m: len(v) for m, v in a.items()} == \
        {m: len(v) for m, v in b.items()} == {0: 1, 2: 480, 4: 61920}


def _assert_mirrored(shells):
    """Each shell m > 0 is its own reversed negation, rows strictly
    increasing; the shell of norm 0 is the zero vector."""
    assert not shells[0].any() and len(shells[0]) == 1
    for m, shell in shells.items():
        if m == 0:
            continue
        assert np.array_equal(shell, -shell[::-1]), m
        rows = shell.tolist()
        assert all(a < b for a, b in zip(rows, rows[1:])), m


def test_shells_closed_under_negation():
    # the walk builds one half of each shell and negates it for the other
    for name, max_norm in [("E8", 6), ("D16plus", 4), ("E8E8", 4)]:
        _assert_mirrored(short_vector_shells(lattice_by_id(name), max_norm))
    for seed in range(3):
        for gram, max_norm in _random_even_grams(seed, 3):
            _assert_mirrored(_shells(gram, max_norm))


def test_exact_norms(d16):
    g = d16.gram_array
    for m, vecs in short_vector_shells(d16, 4).items():
        if len(vecs) == 0:
            continue
        v = vecs.astype(np.int64)
        assert (np.einsum("ij,jk,ik->i", v, g, v) == m).all()


def test_shells_sorted_and_typed(e8):
    shells = short_vector_shells(e8, 2)
    assert sorted(shells) == [0, 2]
    assert all(v.dtype == np.int8 for v in shells.values())
    assert shells[0].tolist() == [[0] * 8]
    rows = shells[2].tolist()
    assert len(rows) == 240 and rows == sorted(rows)


def test_direct_sum_block_structure(e8):
    ds = direct_sum(e8, e8)
    assert ds.rank == 16
    arr = ds.gram_array
    assert (arr[:8, 8:] == 0).all() and (arr[8:, :8] == 0).all()
    assert (arr[:8, :8] == e8.gram_array).all()
    assert (arr[8:, 8:] == e8.gram_array).all()


def test_lattice_validation_rejects_bad_gram():
    with pytest.raises(LatticeError):
        Lattice(name="bad", rank=2, gram=((2, 0), (0, 2)))  # det 4
    with pytest.raises(LatticeError):
        Lattice(name="bad", rank=2, gram=((1, 0), (0, 1)))  # odd diagonal
    with pytest.raises(LatticeError):
        Lattice(name="bad", rank=1, gram=((-2,),))
    # shape and symmetry are validate_index's checks
    with pytest.raises(LatticeError, match="matrix must be square"):
        Lattice(name="bad", rank=2, gram=((2, 1), (1,)))
    with pytest.raises(LatticeError, match="matrix must be symmetric"):
        Lattice(name="bad", rank=2, gram=((2, 1), (0, 2)))
    with pytest.raises(LatticeError, match="does not match rank"):
        Lattice(name="bad", rank=16, gram=lattices.E8_GRAM)


def test_lattice_validation_needs_definite_gram():
    # psd but singular: caught by the determinant after the psd test
    with pytest.raises(LatticeError, match="unimodular"):
        Lattice(name="bad", rank=2, gram=((2, 2), (2, 2)))
    # even, symmetric, determinant 1, but indefinite
    with pytest.raises(LatticeError, match="positive definite"):
        Lattice(name="bad", rank=2, gram=((0, 1), (1, 0)))
    with pytest.raises(LatticeError, match="positive definite"):
        Lattice(name="bad", rank=2, gram=((2, 3), (3, 4)))


def test_unknown_lattice_rejected():
    with pytest.raises(UnsupportedLatticeError):
        lattice_by_id("E7")


def test_shells_reject_odd_bound(e8):
    with pytest.raises(ValueError):
        short_vector_shells(e8, 3)


def _enumerate_array(gram, max_norm):
    """Every vector of norm <= max_norm sorted by (norm, lexicographic
    coordinates): the shells of `_shells` joined, with their norms."""
    shells = _shells(gram, max_norm)
    return (np.concatenate(list(shells.values())),
            np.repeat(np.array(list(shells), dtype=np.int64),
                      [len(v) for v in shells.values()]))


def _skew(k):
    """2 x_0^2 + 2 (x_1 + k x_0)^2: its norm-2 vectors are +-(1, -k),
    +-(0, 1), and its trailing minors D_i = det G[i:, i:] are 4, 2, 1."""
    return np.array([[2 * k * k + 2, 2 * k], [2 * k, 2]])


def _middle(k):
    """_skew(k) plus 2 x_2^2, so -k sits in a middle coordinate."""
    return np.array([[2 * k * k + 2, 2 * k, 0], [2 * k, 2, 0], [0, 0, 2]])


def test_expand_refuses_before_it_allocates(monkeypatch):
    # the int16 guard reads the ends of the non-empty intervals, so an
    # interval of 2**40 + 1 integers is refused before np.repeat is asked
    # for them; so is E8's level-0 interval at norm 2**56 (about 5.4e8)
    repeat = np.repeat

    def small_repeat(a, repeats, *args, **kwargs):
        assert int(np.sum(repeats)) <= 1 << 20, "np.repeat of a huge total"
        return repeat(a, repeats, *args, **kwargs)

    monkeypatch.setattr(np, "repeat", small_repeat)
    with pytest.raises(LatticeError, match="int16"):
        lattices._expand(np.array([0]), np.array([1 << 40]))
    with pytest.raises(LatticeError, match="int16"):
        _shell_counts(lattices.E8_GRAM, 1 << 56)
    # an empty interval is no value, whatever its ends
    rep, xi = lattices._expand(np.array([3, 1 << 40, -2]),
                               np.array([4, 0, -1]))
    assert rep.tolist() == [0, 0, 2, 2] and xi.tolist() == [3, 4, -2, -1]


def test_enumeration_refuses_int16_coordinates():
    # the rank-1 form 2x^2 <= 2 * 32768**2 allows x = +-32768 (65537 values)
    with pytest.raises(LatticeError, match="int16"):
        _enumerate_array(np.array([[2]]), 2 * 32768 ** 2)
    # the count-only walk refuses too, before it allocates anything per norm
    with pytest.raises(LatticeError, match="int16"):
        _shell_counts(np.array([[2]]), 2 * 32768 ** 2)
    with pytest.raises(LatticeError, match="int8"):
        _enumerate_array(np.array([[2]]), 2 * 32767 ** 2)
    # int8 holds +-127, so negating a half shell never wraps; a walk that
    # reached -128 would reach 128 too
    shells = _shells(np.array([[2]]), 2 * 127 ** 2)
    assert shells[2 * 127 ** 2].ravel().tolist() == [-127, 127]
    with pytest.raises(LatticeError, match="int8"):
        _shells(np.array([[2]]), 2 * 128 ** 2)
    # _skew(k) has the norm-2 vectors +-(1, -k): the walk keeps (1, -k)
    # alone, so only a guard on |x| sees the -(1, -k) it drops
    assert _shells(_skew(127), 2)[2].tolist() == \
        [[-1, 127], [0, -1], [0, 1], [1, -127]]
    with pytest.raises(LatticeError, match="int8"):
        _shells(_skew(128), 2)
    assert _shell_counts(_skew(32767), 2) == {0: 1, 2: 4}
    with pytest.raises(LatticeError, match="int16"):
        _shell_counts(_skew(32768), 2)
    # in _middle(k), -k sits in a middle coordinate, which is rebuilt from
    # the walk's trail and not from the last interval
    assert _shells(_middle(127), 2)[2].tolist() == [
        [-1, 127, 0], [0, -1, 0], [0, 0, -1], [0, 0, 1], [0, 1, 0],
        [1, -127, 0]]
    with pytest.raises(LatticeError, match="int8"):
        _shells(_middle(128), 2)


@pytest.mark.parametrize("name", ["D16plus", "E8E8"])
def test_walk_memory_stays_bounded(name):
    # a walk level keeps one block's trail (parent row, new coordinate),
    # its exact least norms F and the columns of h that a filled coordinate
    # touches; the norm-4 shells themselves are 0.95 MiB
    gram = lattice_by_id(name).gram_array
    tracemalloc.start()
    try:
        shells = _shells(gram, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert {m: len(v) for m, v in shells.items()} == {0: 1, 2: 480, 4: 61920}
    assert peak < 4 << 20, f"{peak / 2 ** 20:.2f} MiB"


def _enumerate_array_reference(gram, max_norm):
    """The earlier materializing enumerator, kept as an oracle: every
    candidate of the padded LDL intervals (last coordinate first), an exact
    int64 norm filter, then a sort by (norm, lexicographic coordinates)."""
    n = gram.shape[0]
    c = np.linalg.cholesky(gram.astype(np.float64))
    dsq = np.diag(c)
    lmat, d = c / dsq, dsq * dsq
    bound = float(max_norm) + 0.25
    xs = np.zeros((1, n), dtype=np.int16)
    partial = np.zeros(1, dtype=np.float64)
    for i in range(n - 1, -1, -1):
        center = xs[:, i + 1 :].astype(np.float64) @ lmat[i + 1 :, i]
        radius = np.sqrt(np.maximum(bound - partial, 0.0) / d[i])
        pad = 1e-7 * (1.0 + np.abs(center))
        lo = np.ceil(-center - radius - pad).astype(np.int64)
        hi = np.floor(-center + radius + pad).astype(np.int64)
        width = np.maximum(hi - lo + 1, 0)
        total = int(width.sum())
        rep = np.repeat(np.arange(len(xs)), width)
        offs = np.arange(total) - np.repeat(np.cumsum(width) - width, width)
        xi = lo[rep] + offs
        new_xs = xs[rep]
        new_xs[:, i] = xi.astype(np.int16)
        y = xi.astype(np.float64) + center[rep]
        partial = partial[rep] + d[i] * y * y
        xs = new_xs
    wide = xs.astype(np.int64)
    norms = np.einsum("ij,jk,ik->i", wide, gram, wide)
    keep = norms <= max_norm
    xs, norms = xs[keep].astype(np.int8), norms[keep]
    keys = tuple(xs[:, j] for j in range(n - 1, -1, -1)) + (norms,)
    order = np.lexsort(keys)
    return xs[order], norms[order]


def _box_reach(gram, max_norm):
    """Bounds |x_i| <= sqrt(max_norm (G^-1)_ii) of the ellipsoid
    x^T G x <= max_norm."""
    reach = np.sqrt(max_norm * np.diag(np.linalg.inv(gram))) + 1e-9
    return reach.astype(np.int64)


def _random_even_grams(seed, count, span=2):
    """(G, max_norm) for positive definite even integer Gram matrices of
    rank 2-5: 2 A^T A for a random integer A of full rank with entries in
    [-span, span], with max_norm the largest diagonal entry, kept when the
    box oracle below holds at most 2**18 points."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(2, 6))
        a = rng.integers(-span, span + 1, size=(n, n))
        if round(abs(np.linalg.det(a))) == 0:
            continue
        gram = 2 * a.T @ a
        max_norm = int(np.diag(gram).max())
        if np.prod(2 * _box_reach(gram, max_norm) + 1) <= 1 << 18:
            out.append((gram, max_norm))
    return out


def _box_enumeration(gram, max_norm):
    """Every x of the box around the ellipsoid x^T G x <= max_norm with
    norm <= max_norm, sorted by (norm, lexicographic coordinates)."""
    axes = [np.arange(-r, r + 1) for r in _box_reach(gram, max_norm)]
    box = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    box = box.reshape(-1, gram.shape[0])           # lexicographic order
    norms = np.einsum("ij,jk,ik->i", box, gram, box)
    keep = np.flatnonzero(norms <= max_norm)
    keep = keep[np.argsort(norms[keep], kind="stable")]
    return box[keep], norms[keep]


def _assert_same_arrays(got, want):
    assert got[0].dtype == want[0].dtype == np.int8
    assert got[1].dtype == want[1].dtype == np.int64
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("name,max_norm",
                         [("E8", 8), ("D16plus", 4), ("E8E8", 4)])
def test_enumeration_matches_reference(name, max_norm):
    gram = lattice_by_id(name).gram_array
    _assert_same_arrays(_enumerate_array(gram, max_norm),
                        _enumerate_array_reference(gram, max_norm))


def test_enumeration_blocks_match_reference(monkeypatch):
    # blocks of 3 prefixes: every level is cut many times (D16+ into over
    # ten thousand blocks) and the zero prefix must stay in row 0
    e8 = lattice_by_id("E8")
    reps, _ = shell_orbits(e8, 2)
    roots = short_vector_shells(e8, 2)[2][reps]
    tags = _tag_histograms(e8.gram_array, roots, 2, 6)
    monkeypatch.setattr(lattices, "_WALK_ROWS", 3)
    for name, max_norm in [("E8", 6), ("D16plus", 4)]:
        gram = lattice_by_id(name).gram_array
        want = _enumerate_array_reference(gram, max_norm)
        _assert_same_arrays(_enumerate_array(gram, max_norm), want)
        assert _shell_counts(gram, max_norm) == {
            m: int((want[1] == m).sum()) for m in range(0, max_norm + 1, 2)}
    # 36 of the E8 norm-6 walk's last-level blocks hold no vector of norm 6:
    # the tag walk skips them
    assert np.array_equal(_tag_histograms(e8.gram_array, roots, 2, 6), tags)


@pytest.mark.parametrize("seed", range(6))
def test_enumeration_random_grams_match_oracles(seed):
    # entries of A in [-3, 3] give trailing minors D_i up to 8786432, where
    # the radicand's cap (D_i 2**16)^2 gives way to `_isqrt`'s bound 2**52;
    # _skew(127) and _middle(127) put -254 and -508 into a_0 and walk x_1 to
    # -127
    grams = _random_even_grams(seed, 3) + _random_even_grams(seed, 3, span=3)
    if seed == 0:
        grams += [(_skew(127), 2), (_middle(127), 2)]
    for gram, max_norm in grams:
        got = _enumerate_array(gram, max_norm)
        _assert_same_arrays(got, _enumerate_array_reference(gram, max_norm))
        xs, norms = _box_enumeration(gram, max_norm)
        assert np.array_equal(got[0], xs) and np.array_equal(got[1], norms)
        assert _shell_counts(gram, max_norm) == {
            m: int((norms == m).sum()) for m in range(0, max_norm + 1, 2)}


def _det_and_inverse_row(m):
    """det m and row 0 of m^-1 in Fractions, by Gauss-Jordan on [m | I];
    m is positive definite, so no pivot is 0 and no row is swapped."""
    k = len(m)
    rows = [[Fraction(v) for v in row]
            + [Fraction(int(r == c)) for c in range(k)]
            for r, row in enumerate(m)]
    det = Fraction(1)
    for c in range(k):
        p = rows[c][c]
        det *= p
        rows[c] = [v / p for v in rows[c]]
        for r in range(k):
            if r != c:
                f = rows[r][c]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[c])]
    return det, rows[0][k:]


def test_center_rows_are_exact_minors_and_adjugate_rows():
    # D_i = det G[i:, i:] (D_n = 1) and a_i = D_i (row 0 of G[i:, i:]^-1),
    # Python ints, against Gauss-Jordan in Fractions
    grams = [lattice_by_id(name).gram_array
             for name in ("E8", "D16plus", "E8E8")]
    grams += [g for seed in range(6) for g, _ in _random_even_grams(seed, 3)]
    for gram in grams:
        n = len(gram)
        dets, rows = _center_rows(gram)
        assert len(dets) == n + 1 and dets[n] == 1 and len(rows) == n
        for i in range(n):
            det, row = _det_and_inverse_row(gram[i:, i:].tolist())
            assert type(dets[i]) is int and dets[i] == det
            assert all(type(v) is int for v in rows[i])
            assert rows[i] == [det * v for v in row]
            assert rows[i][0] == dets[i + 1]
    dets = _center_rows(lattice_by_id("D16plus").gram_array)[0]
    assert dets == [1, 4] + list(range(15, 0, -1))
    # G[1:, 1:] = [[2, 1], [1, 2]] has determinant 3 and inverse row
    # (2/3, -1/3)
    assert _center_rows(np.array([[4, 1, 1], [1, 2, 1], [1, 1, 2]])) == \
        ([10, 3, 2, 1], [[3, -1, -1], [2, -1], [1]])


def test_walk_takes_large_entries_and_refuses_past_int64(monkeypatch):
    # x_0 may reach 32767 under the int16 cap, so h on the columns 1 and 2
    # may reach 32767 b, 3.3e9 at b = 10**5; it stays exact, and the walk
    # finds the roots of G[1:, 1:] (A2)
    def gram(b):
        return np.array([[10 ** 10, b, b], [b, 2, 1], [b, 1, 2]])

    g = gram(10 ** 5)
    assert _shell_counts(g, 2) == {0: 1, 2: 6}
    xs, norms = _box_enumeration(g, 2)
    got = _enumerate_array(g, 2)
    assert np.array_equal(got[0], xs) and np.array_equal(got[1], norms)

    def expand(*args):
        raise AssertionError("the walk expanded a prefix")

    # D_0 D_1 max_norm = 3 * 10**10 * 2**30 passes 2**63, and E8's 4 * 2**62
    # does too: refused when the walk starts, before any prefix is expanded
    monkeypatch.setattr(lattices, "_expand", expand)
    for walk in (_shells, _shell_counts):
        with pytest.raises(LatticeError, match="int64"):
            walk(g, 1 << 30)
        with pytest.raises(LatticeError, match="int64"):
            walk(lattices.E8_GRAM, 1 << 62)


@pytest.mark.parametrize("name", ["E8", "D16plus", "E8E8"])
def test_walks_and_counts_call_no_lapack(name, monkeypatch):
    # the walks and the count recursion are exact: no LAPACK routine runs
    def refuse(*args, **kwargs):
        raise AssertionError("a LAPACK routine was called")

    for fn in ("inv", "solve", "cholesky", "eigvalsh"):
        monkeypatch.setattr(np.linalg, fn, refuse)
    named = lattice_by_id(name)
    lat = Lattice(named.name, named.rank, named.gram)   # an empty store
    gram = lat.gram_array
    shells = _shells(gram, 4)
    assert _shell_counts(gram, 4) == {m: len(v) for m, v in shells.items()}
    hist = _tag_histograms(gram, shells[2], 2, 4)
    assert (hist.sum(axis=1) == len(shells[4])).all()
    want = {"E8": 967680, "D16plus": 8386560, "E8E8": 8386560}[name]
    assert CountEngine(lat).count(((2, 1, 0), (1, 2, 0), (0, 0, 2))) == want


def _sigma(k, n):
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


def _eisenstein(rank, m):
    """Vectors of norm m in an even unimodular lattice of rank 8 or 16:
    the coefficients of E_4 and E_8 = E_4^2."""
    if m == 0:
        return 1
    return {8: 240 * _sigma(3, m // 2), 16: 480 * _sigma(7, m // 2)}[rank]


@pytest.mark.parametrize("name,max_norm",
                         [("E8", 12), ("D16plus", 6), ("E8E8", 6),
                          ("E8", 16), ("D16plus", 8), ("E8E8", 8)])
def test_shell_sizes_match_materialized_and_eisenstein(name, max_norm):
    named = lattice_by_id(name)
    lat = Lattice(named.name, named.rank, named.gram)  # an empty store
    sizes = shell_sizes(lat, max_norm)
    assert lat._store["shells"] == {}    # the form stores no run
    assert sizes == _shell_counts(lat.gram_array, max_norm)
    _, norms = _enumerate_array(lat.gram_array, max_norm)
    assert sizes == {m: int((norms == m).sum())
                     for m in range(0, max_norm + 1, 2)}
    assert sizes == {m: _eisenstein(lat.rank, m)
                     for m in range(0, max_norm + 1, 2)}


def test_shell_sizes_never_walk_at_rank_8_and_16(e8, d16, monkeypatch):
    # at rank 8 and 16 the form is E_4^(rank/8): no walk and no store, even
    # far past any shell run
    shells = short_vector_shells(e8, 8)

    def forbidden(*args, **kwargs):
        raise AssertionError("shell_sizes walked the lattice")

    monkeypatch.setattr(lattices, "_vectors", forbidden)
    monkeypatch.setattr(lattices, "short_vector_shells", forbidden)
    assert shell_sizes(e8, 6) == {m: len(shells[m]) for m in (0, 2, 4, 6)}
    fresh = Lattice(d16.name, d16.rank, d16.gram)
    sizes = shell_sizes(fresh, 200)
    assert sizes == {m: _eisenstein(16, m) for m in range(0, 201, 2)}
    assert fresh._store["shells"] == {}
    with pytest.raises(ValueError):
        shell_sizes(e8, 5)


def test_shell_sizes_refuse_a_huge_norm_before_any_series(e8, monkeypatch):
    # the series is quadratic in max_norm / 2 terms: a norm past the bound
    # is refused before a single term is built
    def forbidden(*args, **kwargs):
        raise AssertionError("shell_sizes built a series")

    monkeypatch.setattr(lattices, "_divisor_series", forbidden)
    with pytest.raises(ValueError, match="exceeds"):
        shell_sizes(e8, 2 ** 56)
    with pytest.raises(ValueError, match="exceeds"):
        shell_sizes(e8, lattices._MAX_SERIES_NORM + 2)


@pytest.mark.parametrize("parts,want", [
    (("E8", "D16plus"), {0: 1, 2: 720, 4: 179280}),
    (("E8", "D16plus", "E8"), {0: 1, 2: 960, 4: 354240}),
], ids=["rank24", "rank32"])
def test_shell_sizes_solve_for_the_roots(parts, want):
    # rank 24 and 32 have dim M_k = 2: the root count fixes the form, and
    # the roots are the only shell walked and stored
    lat = lattice_by_id(parts[0])
    for name in parts[1:]:
        lat = direct_sum(lat, lattice_by_id(name))
    assert shell_sizes(lat, 4) == _shell_counts(lat.gram_array, 4) == want
    assert sorted(lat._store["shells"]) == [0, 2]


def test_modular_series_is_exact():
    # weight 12 with no roots is the Leech lattice: 196560 and 16773120
    assert _modular_series(12, [1, 0], 4) == [1, 0, 196560, 16773120]
    # E_4^2: 480 sigma_7(j)
    assert _modular_series(8, [1], 4) == [1, 480, 61920, 1050240]
    # a forged root count leaves a non-integral coefficient
    with pytest.raises(ArithmeticError):
        _modular_series(12, [1, Fraction(1441, 2)], 4)
    with pytest.raises(ValueError):
        _modular_series(12, [1], 4)


def test_one_shell_run_per_lattice(e8, monkeypatch):
    lat = Lattice(e8.name, e8.rank, e8.gram)
    short_vector_shells(lat, 6)
    run = lat._store["shells"]
    assert sorted(run) == [0, 2, 4, 6]

    def forbidden(*args):
        raise AssertionError("walked again below the built bound")

    # a request at or below the bound is cut from the run
    with monkeypatch.context() as patch:
        patch.setattr(lattices, "_vectors", forbidden)
        cut = short_vector_shells(lat, 4)
    fresh = short_vector_shells(Lattice(e8.name, e8.rank, e8.gram), 4)
    assert sorted(cut) == sorted(fresh) == [0, 2, 4]
    for m, v in cut.items():
        assert v is run[m] and not v.flags.writeable
        assert (v.dtype, v.shape) == (fresh[m].dtype, fresh[m].shape)
        assert v.tobytes() == fresh[m].tobytes()
    # a larger request replaces the run
    short_vector_shells(lat, 8)
    assert sorted(lat._store["shells"]) == [0, 2, 4, 6, 8]
    assert lat._store["shells"][6].tobytes() == run[6].tobytes()
    # equal Gram matrices, equal lattices, separate stores
    twin = Lattice(e8.name, e8.rank, e8.gram)
    assert twin == lat and hash(twin) == hash(lat)
    assert twin._store["shells"] == {}
    assert lattice_by_id("E8") is lattice_by_id("E8")


def test_isqrt_is_exact_below_its_bound():
    top = lattices._SQRT_EXACT - 1
    edge = [0, 1, 2, 3, 4, 15, 16, 17, top, top - 1, (1 << 26) - 1,
            ((1 << 26) - 1) ** 2, ((1 << 26) - 1) ** 2 - 1,
            ((1 << 26) - 2) ** 2 + 1]
    rng = np.random.default_rng(0)
    edge += [int(v) for v in rng.integers(0, lattices._SQRT_EXACT, 1000)]
    got = lattices._isqrt(np.array(edge, dtype=np.int64))
    assert got.tolist() == [math.isqrt(v) for v in edge]
    with pytest.raises(ArithmeticError):
        lattices._isqrt(np.array([lattices._SQRT_EXACT], dtype=np.int64))


def test_count_only_step_refuses_inexact_sqrt(e8, monkeypatch):
    # the rank-1 form 2x^2 has one prefix (F = 0, no h); its radicand up to
    # norm 8 is D_1 (D_0 * 8 - F) = 16
    form = np.array([[2]])
    monkeypatch.setattr(lattices, "_SQRT_EXACT", 16)
    with pytest.raises(ArithmeticError):
        _shell_counts(form, 8)
    with pytest.raises(ArithmeticError):
        _enumerate_array(form, 8)
    monkeypatch.setattr(lattices, "_SQRT_EXACT", 17)
    assert _shell_counts(form, 8) == {0: 1, 2: 2, 4: 0, 6: 0, 8: 2}
    assert _enumerate_array(form, 8)[0].ravel().tolist() == [0, -1, 1, -2, 2]
    monkeypatch.setattr(lattices, "_SQRT_EXACT", 1)
    with pytest.raises(ArithmeticError):
        short_vector_shells(Lattice(e8.name, e8.rank, e8.gram), 2)


# orbit sizes under the reflections in the simple roots, by norm.  They are
# also the sizes under -1 and the reflections: -1 is the longest element of
# W(E8) and of W(D16) (16 is even), and D16+ has the roots of D16
_ORBIT_SIZES = {
    "E8": {2: [240], 4: [2160]},
    "D16plus": {2: [480], 4: [32, 29120, 32768]},
    "E8E8": {2: [240, 240], 4: [2160, 57600, 2160]},
}


def _generator_matrices(lat):
    """-1 and the reflections x -> x - <x, r> r in the simple roots, as
    integer matrices acting on coordinate columns."""
    g = lat.gram_array
    eye = np.eye(lat.rank, dtype=np.int64)
    roots = short_vector_shells(lat, 2)[2]
    return [-eye] + [eye - np.outer(r, g @ r) for r in _simple_roots(g, roots)]


@pytest.mark.parametrize("name", sorted(_ORBIT_SIZES))
def test_shell_orbits(name):
    lat = Lattice(name, lattice_by_id(name).rank, lattice_by_id(name).gram)
    for norm, want in _ORBIT_SIZES[name].items():
        shell = short_vector_shells(lat, 4)[norm]
        reps, sizes = shell_orbits(lat, norm)
        assert sizes.tolist() == want
        assert sizes.sum() == len(shell)
        # each representative is its orbit's first row: the first is row 0
        assert reps[0] == 0 and (np.diff(reps) > 0).all()
    assert sorted(lat._store["orbits"]) == [2, 4]


@pytest.mark.parametrize("name", sorted(_ORBIT_SIZES))
def test_orbit_generators_are_automorphisms(name):
    lat = lattice_by_id(name)
    gens = _generator_matrices(lat)
    assert len(gens) == 1 + lat.rank                    # -1 and rank roots
    g = lat.gram_array
    for r in gens:
        assert (r.T @ g @ r == g).all()
    rng = np.random.default_rng(9)
    word = np.eye(lat.rank, dtype=np.int64)
    for k in rng.integers(0, len(gens), 20):
        word = word @ gens[k]
    for norm, shell in short_vector_shells(lat, 4).items():
        image = shell.astype(np.int64) @ word.T
        assert sorted(map(tuple, image.tolist())) == \
            sorted(map(tuple, shell.tolist())), norm


# orbits of the roots y, grouped by <x_0, y> = -2..2, under the reflections
# in the roots orthogonal to a root x_0: E7 on E8, D14 + A1 on D16+
_STABILIZER_ORBIT_SIZES = {
    "E8": [[1], [56], [126], [56], [1]],
    "D16plus": [[1], [56], [2, 364], [56], [1]],
}


@pytest.mark.parametrize("name", sorted(_STABILIZER_ORBIT_SIZES))
def test_reflection_orbits_of_a_root_stabilizer(name):
    lat = lattice_by_id(name)
    g = lat.gram_array
    roots = short_vector_shells(lat, 2)[2]
    ip = roots.astype(np.int64) @ (g @ roots[0])
    orth = roots[ip == 0]
    sizes = []
    for t in range(-2, 3):
        reps, n = reflection_orbits(roots[ip == t], g, orth)
        assert n.sum() == (ip == t).sum()
        assert reps[0] == 0 and (np.diff(reps) > 0).all()
        sizes.append(n.tolist())
    assert sizes == _STABILIZER_ORBIT_SIZES[name]
    # a reflection in a root not orthogonal to x_0 leaves the rows
    with pytest.raises(LatticeError, match="onto themselves"):
        reflection_orbits(roots[ip == 1], g, roots)


def test_reflection_orbits_refuse_int16_images():
    # with k = 2**15, <x, r> = 2k + 10 = 65546 for x = (1, 5) and the root
    # r = (0, 1); cast to int16 it would wrap to 10, and the image
    # (1, 5 - 65546) would read as the row (1, -5), one false orbit of two
    # rows.  The guard raises before the cast
    k = 1 << 15
    gram = np.array([[2 * k * k + 2, 2 * k], [2 * k, 2]])
    x = np.array([[1, 5], [1, -5]], dtype=np.int8)
    with pytest.raises(LatticeError, match="int16"):
        reflection_orbits(x, gram, np.array([[0, 1], [0, -1]]))
    # with x_0 = 0 the images stay small and the rows are one orbit
    reps, sizes = reflection_orbits(np.array([[0, 5], [0, -5]], np.int8),
                                    gram, np.array([[0, 1], [0, -1]]))
    assert reps.tolist() == [0] and sizes.tolist() == [2]


def test_tag_histograms_refuse_a_longer_fixed_vector(e8, monkeypatch):
    # a norm-4 vector stated as norm 2 meets <y, x> = 4 at y = x, past the
    # Cauchy-Schwarz bound isqrt(4 * 2) = 2: the guard raises before it
    # bins
    lat = Lattice(e8.name, e8.rank, e8.gram)
    x = short_vector_shells(lat, 4)[4][:1]
    with pytest.raises(ArithmeticError, match="outside"):
        _tag_histograms(lat.gram_array, x, 2, 4)
    # stated right, the row is the histogram over the 2160 norm-4 vectors,
    # with y = x alone at the edge t = 4
    hist = _tag_histograms(lat.gram_array, x, 4, 4)
    assert hist.shape == (1, 9) and hist.sum() == 2160
    assert hist[0, 8] == hist[0, 0] == 1
    # the genus-2 tables: summed over t, N(n0) N(m) pairs; read-only
    for n0, m in ((2, 4), (4, 4)):
        table = pair_counts(lat, n0, m)
        assert sorted(table) == list(range(-math.isqrt(n0 * m),
                                           math.isqrt(n0 * m) + 1))
        assert sum(table.values()) == {2: 240, 4: 2160}[n0] * 2160
    assert table[4] == table[-4] == 2160
    with pytest.raises(TypeError):
        table[0] = 0
    # kept in the store under (n0, m): a second call walks nothing
    monkeypatch.setattr(lattices, "_vectors", None)
    assert pair_counts(lat, 4, 4) is table
    assert sorted(lat._store["pairs"]) == [(2, 4), (4, 4)]
    # a Gram entry of 2**50 lets a partial tag pass 2**63: refused up front
    with pytest.raises(ArithmeticError, match="2\\*\\*63"):
        lattices._tag_histograms(np.array([[1 << 50]]),
                                 np.ones((1, 1), dtype=np.int8), 2, 2)
