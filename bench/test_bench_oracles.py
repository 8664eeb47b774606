"""Checks of the benchmark's oracles against hand-computed values.

    python3 -m pytest bench/test_bench_oracles.py -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracles  # noqa: E402
import tensortopo as tt  # noqa: E402
from tensortopo.lab import _conj_pair_anchor, _diagonal_unit_222  # noqa: E402

BRANK3 = tt.parse_stratum("brank:r=3;shape=2,2,2;field=real")


def _brank3_draws(count, seed=21):
    rng = tt.SplitMix64(seed)
    return [tt.sample_rank_r((2, 2, 2), 3, tt.REAL, rng)[0] for _ in range(count)]


def _mode_product(T, mode, g):
    return np.moveaxis(np.tensordot(g, T, axes=(1, mode)), 0, mode)


def test_hyperdet_reference_values():
    assert oracles.hyperdet(_conj_pair_anchor().data) == -4.0
    assert oracles.hyperdet(_diagonal_unit_222().data) == 1.0


def test_hyperdet_matches_cayley_and_scales_under_gl():
    rng = np.random.default_rng(3)
    for _ in range(50):
        T = rng.normal(size=(2, 2, 2))
        cayley = tt.hyperdet222(tt.Hypermatrix(T, tt.REAL))
        assert oracles.hyperdet(T) == pytest.approx(cayley, rel=1e-12, abs=1e-12)
        gs = [rng.normal(size=(2, 2)) for _ in range(3)]
        moved = T
        for mode, g in enumerate(gs):
            moved = _mode_product(moved, mode, g)
        scale = np.prod([np.linalg.det(g) ** 2 for g in gs])
        assert oracles.hyperdet(moved) == pytest.approx(scale * oracles.hyperdet(T),
                                                        rel=1e-9, abs=1e-12)


def test_binary_cubic_discriminant_signs():
    assert oracles.cubic_discriminant(1.0, 0.0, 0.0, 1.0) < 0      # x^3 + y^3
    assert oracles.cubic_discriminant(0.0, 1.0, -1.0, 0.0) > 0     # xy(x - y)
    sum_of_cubes = np.zeros((4, 4, 4))
    sum_of_cubes[0, 0, 0] = sum_of_cubes[1, 1, 1] = 1.0
    assert oracles.span_cubic_sign(sum_of_cubes) == -1
    three_lines = np.zeros((4, 4, 4))
    for idx in ((0, 0, 1), (0, 1, 0), (1, 0, 0)):
        three_lines[idx] = 1.0 / 3.0
    for idx in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
        three_lines[idx] = -1.0 / 3.0
    assert oracles.span_cubic_sign(three_lines) == 1


def test_sign_triple_agrees_with_the_package():
    for A in _brank3_draws(200):
        assert "sign-triple:" + oracles.sign_triple(A.data) == str(tt.classify(BRANK3, A))


@pytest.mark.parametrize("mode, flipped", [(0, {0, 1}), (1, {0, 2}), (2, {1, 2})])
def test_reflection_flips_the_two_entries_of_its_mode(mode, flipped):
    reflect = np.diag([1.0, -1.0])
    for A in _brank3_draws(20, seed=mode + 5):
        before = oracles.sign_triple(A.data)
        after = oracles.sign_triple(_mode_product(A.data, mode, reflect))
        changed = {k for k in range(3) if before[k] != after[k]}
        assert changed == flipped


def test_square_signature_counts_positive_terms():
    v, w = np.eye(4)[0], np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0)

    def fourth(u):
        return np.einsum("i,j,k,l->ijkl", u, u, u, u)

    assert oracles.square_signature(fourth(v) - 2.0 * fourth(w)) == (1, 1)
    assert oracles.square_signature(fourth(v) + fourth(w)) == (2, 0)
    stratum = tt.parse_stratum("sym-rank:d=4;n=4;r=2;field=real")
    rng = tt.SplitMix64(4)
    for _ in range(30):
        S, D = tt.sample_sym_rank_r(4, 4, 2, rng=rng)
        dense = oracles.dense_symmetric(4, 4, S.packed)
        assert np.array_equal(dense, tt.sym_embed(S).data)
        pos, neg = oracles.square_signature(dense)
        assert (pos + neg, f"signature:{pos}") == (2, str(tt.classify(stratum, D)))


def test_tucker_core_hyperdet_separates_rank_two_from_border_rank_three():
    rng = tt.SplitMix64(8)
    for _ in range(20):
        A, _terms = tt.sample_rank_r((3, 3, 3), 2, tt.REAL, rng)
        assert oracles.tucker_hyperdet_sign(A.data) == 1
    for B in _brank3_draws(20):
        padded = np.zeros((3, 3, 3))
        padded[:2, :2, :2] = B.data
        frames = [np.linalg.qr(np.random.default_rng(k).normal(size=(3, 3)))[0]
                  for k in range(3)]
        for mode, Q in enumerate(frames):
            padded = _mode_product(padded, mode, Q)
        assert oracles.tucker_hyperdet_sign(padded) == -1


def test_flattening_ranks_need_a_clear_gap():
    x, y, z = np.arange(1.0, 4.0), np.arange(1.0, 5.0), np.arange(1.0, 6.0)
    T = np.einsum("i,j,k->ijk", x, y, z)
    assert oracles.flattening_ranks(T) == (1, 1, 1)
    blur = np.random.default_rng(0).normal(size=T.shape)
    blur *= 1e-9 * np.linalg.norm(T) / np.linalg.norm(blur)
    with pytest.raises(oracles.Ambiguous):
        oracles.flattening_ranks(T + blur)
    assert oracles.flattening_ranks(T + 1e3 * blur) == (3, 4, 5)
