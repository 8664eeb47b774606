import hashlib

import numpy as np
import pytest

from tensortopo import (COMPLEX, REAL, RetryExhausted, SplitMix64,
                        derive_seed, expected_generic_mrank, hyperdet222,
                        is_rank_one, mrank,
                        outer_product, random_invertible, random_orthogonal,
                        sample_fixed_mrank, sample_rank_r, sample_sym_mrank,
                        sample_sym_rank_r, sym_embed)
from tensortopo.certify import Kind222, classify_222


def test_expected_generic_mrank():
    assert expected_generic_mrank((3, 4, 5), 1) == (1, 1, 1)
    assert expected_generic_mrank((3, 4, 5), 2) == (2, 2, 2)
    assert expected_generic_mrank((2, 2, 2), 3) == (2, 2, 2)
    assert expected_generic_mrank((3, 3, 3), 4) == (3, 3, 3)
    # capped by products of the others, not only by r
    assert expected_generic_mrank((6, 2, 2), 5) == (4, 2, 2)


def test_sample_rank_r_certifies_rank_one():
    rng = SplitMix64(61)
    for field in (REAL, COMPLEX):
        T, terms = sample_rank_r((3, 4, 5), 1, field, rng)
        assert len(terms) == 1
        ok, _ = is_rank_one(T)
        assert ok
        assert np.allclose(T.data, outer_product(terms[0]).data, atol=1e-12)


def test_sample_rank_r_222_real_is_classified():
    rng = SplitMix64(62)
    for r, kind in ((2, Kind222.RANK2), (3, Kind222.BORDER_RANK3)):
        T, terms = sample_rank_r((2, 2, 2), r, REAL, rng)
        assert classify_222(T).kind is kind
        assert tuple(mrank(T)) == (2, 2, 2)


def test_sample_rank_r_reconstruction():
    rng = SplitMix64(63)
    T, terms = sample_rank_r((3, 3, 3), 2, REAL, rng)
    rebuilt = sum(outer_product(t).data for t in terms)
    assert np.allclose(T.data, rebuilt, atol=1e-12)
    assert tuple(mrank(T)) == (2, 2, 2)


def test_sample_rank_r_deterministic():
    a, _ = sample_rank_r((3, 3, 3), 2, REAL, SplitMix64(64))
    b, _ = sample_rank_r((3, 3, 3), 2, REAL, SplitMix64(64))
    assert np.array_equal(a.data, b.data)


def test_sample_sym_rank_r_signature_control():
    rng = SplitMix64(65)
    for target in (0, 1, 2):
        S, dec = sample_sym_rank_r(4, 4, 2, signature=target, rng=rng)
        assert dec.signature() == target
        assert len(dec) == 2
        assert np.allclose(dec.tensor().packed, S.packed, atol=1e-12)


def test_sample_sym_rank_r_odd_order():
    rng = SplitMix64(66)
    S, dec = sample_sym_rank_r(4, 3, 2, rng=rng)
    assert S.order == 3 and S.dim == 4
    E = sym_embed(S)
    assert tuple(mrank(E)) == (2, 2, 2)


def test_sample_sym_rank_r_rejects_impossible_signature():
    with pytest.raises(ValueError):
        sample_sym_rank_r(4, 4, 2, signature=3, rng=SplitMix64(67))


def test_sample_fixed_mrank_hits_target():
    rng = SplitMix64(68)
    for shape, ranks, field in (((3, 3, 3), (2, 2, 2), REAL),
                                ((4, 2, 2), (4, 2, 2), REAL),
                                ((5, 2, 2), (4, 2, 2), REAL),
                                ((2, 2, 2), (2, 2, 2), COMPLEX)):
        A, rep = sample_fixed_mrank(shape, ranks, field, rng)
        assert A.shape == shape
        assert tuple(mrank(A)) == ranks
        assert rep.core.shape == ranks


def test_sample_sym_mrank_hits_target():
    rng = SplitMix64(69)
    S = sample_sym_mrank(4, 3, 2, rng=rng)
    assert (S.dim, S.order) == (4, 3)
    assert tuple(mrank(sym_embed(S))) == (2, 2, 2)
    M = sample_sym_mrank(4, 2, 3, rng=rng)
    assert tuple(mrank(sym_embed(M))) == (3, 3)


def test_random_invertible_det_sign():
    rng = SplitMix64(70)
    for sign in (1, -1):
        for _ in range(5):
            M = random_invertible(3, rng, REAL, det_sign=sign)
            assert np.sign(np.linalg.det(M)) == sign
    Z = random_invertible(3, rng, COMPLEX)
    assert abs(np.linalg.det(Z)) > 1e-8


def test_random_orthogonal_is_orthogonal():
    rng = SplitMix64(71)
    Q = random_orthogonal(4, rng)
    assert np.allclose(Q.T @ Q, np.eye(4), atol=1e-12)
    U = random_orthogonal(4, rng, COMPLEX)
    assert np.allclose(U.conj().T @ U, np.eye(4), atol=1e-12)


def test_impossible_target_exhausts_retries():
    # rank 4 on (2, 2, 2) over R exceeds the maximal possible rank 3
    with pytest.raises((RetryExhausted, ValueError)):
        sample_rank_r((2, 2, 2), 4, REAL, SplitMix64(72))


def test_rank3_222_real_survives_a_long_redraw_run():
    # this stream rejects more than 100 draws in a row before one lands in
    # the border-rank-three region (about one draw in ten does)
    rng = SplitMix64(derive_seed(3304483664418628671, 140))
    A, terms = sample_rank_r((2, 2, 2), 3, REAL, rng)
    assert len(terms) == 3
    assert classify_222(A).kind is Kind222.BORDER_RANK3
    assert hyperdet222(A) == pytest.approx(-1.51, abs=0.01)


def test_rank3_222_real_draws_are_pinned():
    # the hyperdeterminant pre-filter rejects only draws that classify_222
    # rejects too, and every attempt draws its terms first, so the filter
    # leaves the accepted stream as it is
    rng = SplitMix64(0)
    digest = hashlib.sha256()
    for _ in range(20):
        A, _terms = sample_rank_r((2, 2, 2), 3, REAL, rng)
        digest.update(A.data.tobytes())
    assert digest.hexdigest() == (
        "237cfe7fd012e751d30b42fdb4ce49870dc83fc4bc5451855e15e6cb906945a4")
