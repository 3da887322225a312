"""Lattice construction and short-vector enumeration.

The oracle below works in ambient R^n coordinates (integer vectors with even
coordinate sum, plus the all-half-integers coset where it exists), so it is
independent of the Gram-basis enumeration under test.
"""

import itertools

import numpy as np
import pytest

from schottky_workbench.lattices import (Lattice, LatticeError,
                                         UnsupportedLatticeError,
                                         _enumerate_array, build_lattice,
                                         direct_sum, lattice_by_id,
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


def test_shells_closed_under_negation(e8):
    shells = short_vector_shells(e8, 4)
    for m in (2, 4):
        rows = {tuple(int(c) for c in r) for r in shells[m]}
        assert rows == {tuple(-c for c in r) for r in rows}


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
        build_lattice("Leech")
    with pytest.raises(UnsupportedLatticeError):
        lattice_by_id("E7")


def test_shells_reject_odd_bound(e8):
    with pytest.raises(ValueError):
        short_vector_shells(e8, 3)


def test_enumeration_refuses_int16_coordinates():
    # the rank-1 form 2x^2 <= 2 * 32768**2 allows x = +-32768 (65537 values)
    with pytest.raises(LatticeError, match="int16"):
        _enumerate_array(np.array([[2]]), 2 * 32768 ** 2)
    with pytest.raises(LatticeError, match="int8"):
        _enumerate_array(np.array([[2]]), 2 * 32767 ** 2)
