"""Acceptance suite: each test is one criterion, run at full strength.

Heavy experiments are shared through module-scoped fixtures; the endpoint
fidelity criterion aggregates the defects recorded by the earlier ones.
"""

import hashlib
import itertools
from fractions import Fraction

import numpy as np
import pytest

from tensortopo import (COMPLEX, REAL, Hypermatrix, SplitMix64, ToleranceError,
                        census, connect, hyperdet222,
                        identifiability_experiment, mode_multiply,
                        pairwise_connect_experiment, parse_stratum,
                        path_verify, random_invertible, sample_rank_r,
                        sample_sym_rank_r)
from tensortopo.classifiers import classify_brank3_222
from tensortopo.cli import main

PAIR_N = 100
PAIR_K = 64


def _exact_hyperdet_222(entries) -> Fraction:
    """Degree-4 expansion over the rationals, the 2x2x2 hyperdeterminant."""
    a = {idx: Fraction(entries.get(idx, 0)) for idx in
         itertools.product((0, 1), repeat=3)}
    sq = (a[0, 0, 0] ** 2 * a[1, 1, 1] ** 2 + a[0, 0, 1] ** 2 * a[1, 1, 0] ** 2
          + a[0, 1, 0] ** 2 * a[1, 0, 1] ** 2 + a[0, 1, 1] ** 2 * a[1, 0, 0] ** 2)
    cross = (a[0, 0, 0] * a[0, 0, 1] * a[1, 1, 0] * a[1, 1, 1]
             + a[0, 0, 0] * a[0, 1, 0] * a[1, 0, 1] * a[1, 1, 1]
             + a[0, 0, 0] * a[0, 1, 1] * a[1, 0, 0] * a[1, 1, 1]
             + a[0, 0, 1] * a[0, 1, 0] * a[1, 0, 1] * a[1, 1, 0]
             + a[0, 0, 1] * a[0, 1, 1] * a[1, 1, 0] * a[1, 0, 0]
             + a[0, 1, 0] * a[0, 1, 1] * a[1, 0, 1] * a[1, 0, 0])
    quad = (a[0, 0, 0] * a[0, 1, 1] * a[1, 0, 1] * a[1, 1, 0]
            + a[0, 0, 1] * a[0, 1, 0] * a[1, 0, 0] * a[1, 1, 1])
    return sq - 2 * cross + 4 * quad


def _conj_pair_tensor() -> Hypermatrix:
    data = np.zeros((2, 2, 2))
    data[0, 0, 0] = 1.0
    data[1, 1, 0] = 1.0
    data[0, 1, 1] = -1.0
    data[1, 0, 1] = 1.0
    return Hypermatrix(data, REAL)


# --- shared heavy experiments -------------------------------------------------


@pytest.fixture(scope="module")
def sym_odd_pairs():
    st = parse_stratum("sym-rank:d=3;n=4;r=2;field=real")
    return pairwise_connect_experiment(st, PAIR_N, PAIR_K, seed=41)


@pytest.fixture(scope="module")
def rank_one_pairs_real():
    st = parse_stratum("rank:r=1;shape=3,4,5;field=real")
    return pairwise_connect_experiment(st, PAIR_N, PAIR_K, seed=42)


@pytest.fixture(scope="module")
def rank_one_pairs_complex():
    st = parse_stratum("rank:r=1;shape=3,4,5;field=complex")
    return pairwise_connect_experiment(st, PAIR_N, PAIR_K, seed=43)


@pytest.fixture(scope="module")
def mrank_slack_pairs():
    st = parse_stratum("mrank:r=2,2,2;shape=3,3,3;field=real")
    return pairwise_connect_experiment(st, PAIR_N, PAIR_K, seed=44)


@pytest.fixture(scope="module")
def mrank_roomy_pairs():
    st = parse_stratum("mrank:r=4,2,2;shape=5,2,2;field=real")
    return pairwise_connect_experiment(st, PAIR_N, PAIR_K, seed=45)


@pytest.fixture(scope="module")
def mrank_complex_pairs():
    st = parse_stratum("mrank:r=2,2,2;shape=2,2,2;field=complex")
    return pairwise_connect_experiment(st, PAIR_N, PAIR_K, seed=46)


# --- criteria -----------------------------------------------------------------


def test_c01_border_rank3_222_four_components():
    st = parse_stratum("brank:r=3;shape=2,2,2;field=real")
    report = census(st, 1000, seed=7)
    labels = {lab for lab, _ in report.label_counts}
    assert labels == {"sign-triple:+++", "sign-triple:+--",
                      "sign-triple:-+-", "sign-triple:--+"}
    assert report.cross_label_connections == 0
    assert report.within_passes == report.within_attempts >= 50
    assert report.verdict == "consistent"
    assert report.runtime_ms <= 60_000


def test_c02_hyperdeterminant_anchor():
    B = _conj_pair_tensor()
    exact = _exact_hyperdet_222({(0, 0, 0): 1, (1, 1, 0): 1,
                                 (0, 1, 1): -1, (1, 0, 1): 1})
    assert exact == Fraction(-4)
    assert hyperdet222(B) == -4.0

    diag = np.zeros((2, 2, 2))
    diag[0, 0, 0] = diag[1, 1, 1] = 1.0
    assert _exact_hyperdet_222({(0, 0, 0): 1, (1, 1, 1): 1}) == Fraction(1)
    assert hyperdet222(Hypermatrix(diag, REAL)) == 1.0

    rng = SplitMix64(47)
    for _ in range(20):
        one, _ = sample_rank_r((2, 2, 2), 1, REAL, rng)
        assert abs(hyperdet222(one)) <= 1e-12 * one.norm() ** 4


def test_c03_sym_even_order_three_components():
    st = parse_stratum("sym-rank:d=4;n=4;r=2;field=real")
    report = census(st, 300, seed=7)
    labels = {lab for lab, _ in report.label_counts}
    assert labels == {"signature:0", "signature:1", "signature:2"}
    assert report.cross_label_connections == 0
    # classifier constant along every verified in-label path at 64 samples
    assert report.within_passes == report.within_attempts > 0
    rng = SplitMix64(48)
    for sig in (0, 1, 2):
        _, da = sample_sym_rank_r(4, 4, 2, signature=sig, rng=rng)
        _, db = sample_sym_rank_r(4, 4, 2, signature=sig, rng=rng)
        path = connect(st, da.tensor(), db.tensor(), witness_a=da,
                       witness_b=db, rng=SplitMix64(100 + sig))
        verification = path_verify(path, K=64)
        assert verification.passed
        assert {s.label for s in verification.samples} == {f"signature:{sig}"}


def test_c04_sym_odd_order_connected(sym_odd_pairs):
    assert sym_odd_pairs.passes == PAIR_N
    assert sym_odd_pairs.different_components == 0
    assert sym_odd_pairs.worst_margin >= 1e-8


def test_c05_rank_one_connected_real_and_complex(rank_one_pairs_real,
                                                 rank_one_pairs_complex):
    assert rank_one_pairs_real.passes == PAIR_N
    assert rank_one_pairs_complex.passes == PAIR_N
    # pointwise exact rank one along explicit verified paths
    for field, seed in ((REAL, 49), (COMPLEX, 50)):
        rng = SplitMix64(seed)
        a, _ = sample_rank_r((3, 4, 5), 1, field, rng)
        b, _ = sample_rank_r((3, 4, 5), 1, field, rng)
        st = parse_stratum(f"rank:r=1;shape=3,4,5;field={field}")
        verification = path_verify(connect(st, a, b), K=64)
        assert verification.passed
        assert all(tuple(s.ranks) == (1, 1, 1) for s in verification.samples)


def test_c06a_mrank_slack_connected(mrank_slack_pairs):
    assert mrank_slack_pairs.passes == PAIR_N
    assert mrank_slack_pairs.different_components == 0


def test_c06b_mrank_saturated_two_det_sign_components():
    st = parse_stratum("mrank:r=4,2,2;shape=4,2,2;field=real")
    report = census(st, 500, seed=51)
    labels = {lab for lab, _ in report.label_counts}
    assert labels == {"sign:+", "sign:-"}
    assert report.cross_label_connections == 0
    assert report.verdict == "consistent"


def test_c06c_mrank_roomy_saturated_mode_connected(mrank_roomy_pairs):
    assert mrank_roomy_pairs.passes == PAIR_N
    assert mrank_roomy_pairs.different_components == 0


def test_c06d_mrank_complex_connected(mrank_complex_pairs):
    assert mrank_complex_pairs.passes == PAIR_N
    assert mrank_complex_pairs.different_components == 0


def test_c07_matrix_oracle_det_sign():
    real = census(parse_stratum("mrank:r=2,2;shape=2,2;field=real"),
                  200, seed=52)
    assert {lab for lab, _ in real.label_counts} == {"sign:+", "sign:-"}
    assert real.verdict == "consistent"
    cx = census(parse_stratum("mrank:r=2,2;shape=2,2;field=complex"),
                200, seed=53)
    assert {lab for lab, _ in cx.label_counts} == {"single"}
    assert cx.verdict == "consistent"


def test_c08_rank2_identifiability_covering_degree():
    report = identifiability_experiment((3, 3, 3), 100, seed=54)
    assert report.unique == 100
    assert report.degenerate == 0
    assert report.orderings == [2]


def test_c09_invariance_and_endpoint_fidelity(sym_odd_pairs,
                                              rank_one_pairs_real,
                                              rank_one_pairs_complex,
                                              mrank_slack_pairs,
                                              mrank_roomy_pairs,
                                              mrank_complex_pairs):
    rng = SplitMix64(55)
    # hyperdeterminant is relatively invariant: Det(gA) = prod det(g_i)^2 Det(A)
    # error measured against the degree-4 problem scale, not the possibly
    # cancelling value itself
    for _ in range(200):
        A = Hypermatrix(rng.normals((2, 2, 2)), REAL)
        mats = [random_invertible(2, rng) for _ in range(3)]
        moved = Hypermatrix(mode_multiply(A.data, mats), REAL)
        lhs = hyperdet222(moved)
        rhs = float(np.prod([np.linalg.det(g) ** 2 for g in mats])) * hyperdet222(A)
        assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs), moved.norm() ** 4)

    # the sign triple never moves under positive-determinant group elements
    changes = 0
    trials = 0
    while trials < 200:
        A = Hypermatrix(rng.normals((2, 2, 2)), REAL)
        if hyperdet222(A) >= -1e-3 * A.norm() ** 4:
            continue
        mats = [random_invertible(2, rng, det_sign=+1) for _ in range(3)]
        moved = Hypermatrix(mode_multiply(A.data, mats), REAL)
        try:
            after = str(classify_brank3_222(moved))
        except ToleranceError:
            # the action dragged the tensor into the tolerance band; the
            # label is undefined there, so the trial does not count
            continue
        if after != str(classify_brank3_222(A)):
            changes += 1
        trials += 1
    assert changes == 0

    # every constructed path hits its endpoints to 1e-10 relative
    for report in (sym_odd_pairs, rank_one_pairs_real, rank_one_pairs_complex,
                   mrank_slack_pairs, mrank_roomy_pairs, mrank_complex_pairs):
        assert report.worst_endpoint_defect <= 1e-10


def test_c10_verify_suite_quick_is_byte_deterministic(tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert main(["verify-suite", "--quick", "--seed", "0",
                 "--out", str(first)]) == 0
    assert main(["verify-suite", "--quick", "--seed", "0",
                 "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    # the behaviour fingerprint: SHA-256 of the canonical suite document
    assert hashlib.sha256(first.read_bytes().rstrip(b"\n")).hexdigest() == (
        "cb9e6e0880aeebac56d931883bdf3d71573b2d1bb0f6b074a09632aeba07acaa")
