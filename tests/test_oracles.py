"""Independent recomputations of the frozen reference values.

Everything here is derived from scratch (exact rational arithmetic, explicit
loops, published generator constants) and must agree with the package.
"""

from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from tensortopo import (REAL, Hypermatrix, SplitMix64, SymTensor, derive_seed,
                        flatten, hyperdet222, mode_multiply, outer_product,
                        sym_embed, sym_extract, sym_packed_length, sym_power)
from tensortopo.core import RankOneFactors


def cayley_expansion(a):
    """Degree-4 hyperdeterminant of a 2x2x2 array, exact in Fractions.

    a[i][j][k] indexing, i = slice index of mode 1.
    """
    f = lambda i, j, k: Fraction(a[i][j][k])
    sq = (f(0, 0, 0) ** 2 * f(1, 1, 1) ** 2 + f(0, 0, 1) ** 2 * f(1, 1, 0) ** 2
          + f(0, 1, 0) ** 2 * f(1, 0, 1) ** 2 + f(0, 1, 1) ** 2 * f(1, 0, 0) ** 2)
    cross = (f(0, 0, 0) * f(0, 0, 1) * f(1, 1, 0) * f(1, 1, 1)
             + f(0, 0, 0) * f(0, 1, 0) * f(1, 0, 1) * f(1, 1, 1)
             + f(0, 0, 0) * f(0, 1, 1) * f(1, 0, 0) * f(1, 1, 1)
             + f(0, 0, 1) * f(0, 1, 0) * f(1, 0, 1) * f(1, 1, 0)
             + f(0, 0, 1) * f(0, 1, 1) * f(1, 1, 0) * f(1, 0, 0)
             + f(0, 1, 0) * f(0, 1, 1) * f(1, 0, 1) * f(1, 0, 0))
    quad = (f(0, 0, 0) * f(0, 1, 1) * f(1, 0, 1) * f(1, 1, 0)
            + f(0, 0, 1) * f(0, 1, 0) * f(1, 0, 0) * f(1, 1, 1))
    return sq - 2 * cross + 4 * quad


def pencil_discriminant(a, axis):
    """b^2 - 4ac for det(S0 + t S1), slices taken along the given axis."""
    arr = [[[Fraction(a[i][j][k]) for k in range(2)] for j in range(2)]
           for i in range(2)]
    def slc(s):
        idx = [slice(None)] * 3
        idx[axis] = s
        out = [[None, None], [None, None]]
        rng = [0, 1]
        coords = [(p, q) for p in rng for q in rng]
        for p, q in coords:
            full = [p, q]
            full.insert(axis, s)
            out[p][q] = arr[full[0]][full[1]][full[2]]
        return out
    S0, S1 = slc(0), slc(1)
    det = lambda M: M[0][0] * M[1][1] - M[0][1] * M[1][0]
    c0 = det(S0)
    c2 = det(S1)
    # mixed coefficient of t in det(S0 + t S1)
    c1 = (S0[0][0] * S1[1][1] + S1[0][0] * S0[1][1]
          - S0[0][1] * S1[1][0] - S1[0][1] * S0[1][0])
    return c1 * c1 - 4 * c0 * c2


def conj_pair_example():
    a = np.zeros((2, 2, 2))
    a[0, 0, 0] = 1.0
    a[1, 1, 0] = 1.0
    a[0, 1, 1] = -1.0
    a[1, 0, 1] = 1.0
    return a


def test_cayley_expansion_matches_pencil_discriminant():
    """Two independent exact formulas agree on random integer tensors."""
    rng = SplitMix64(101)
    for _ in range(200):
        a = [[[rng.integers(-9, 10) for _ in range(2)] for _ in range(2)]
             for _ in range(2)]
        ref = cayley_expansion(a)
        for axis in range(3):
            assert pencil_discriminant(a, axis) == ref


def test_hyperdet222_matches_exact_expansion():
    rng = SplitMix64(202)
    for _ in range(200):
        a = [[[rng.integers(-9, 10) for _ in range(2)] for _ in range(2)]
             for _ in range(2)]
        ref = float(cayley_expansion(a))
        got = hyperdet222(Hypermatrix(np.array(a, dtype=float), REAL))
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-9)


def test_hyperdet_conjugate_pair_example_is_minus_four():
    a = conj_pair_example()
    assert cayley_expansion(a.tolist()) == Fraction(-4)
    assert hyperdet222(Hypermatrix(a, REAL)) == -4.0


def test_hyperdet_diagonal_unit_is_one():
    a = np.zeros((2, 2, 2))
    a[0, 0, 0] = 1.0
    a[1, 1, 1] = 1.0
    assert cayley_expansion(a.tolist()) == Fraction(1)
    assert hyperdet222(Hypermatrix(a, REAL)) == 1.0


def test_hyperdet_rank_one_vanishes():
    rng = SplitMix64(7)
    for _ in range(50):
        t = RankOneFactors(1.0, tuple(rng.normals(2) for _ in range(3)), REAL)
        T = outer_product(t)
        scale = max(T.norm(), 1.0)
        assert abs(hyperdet222(T)) <= 1e-12 * scale ** 4


# SplitMix64 reference outputs for seed 0 and seed 1234567 (Steele/Lea/Flood
# constants, as published with the xoshiro generator family).
SPLITMIX_SEED0 = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
SPLITMIX_SEED1234567 = [6457827717110365317, 3203168211198807973,
                        9817491932198370423]


@pytest.mark.parametrize("seed,expected", [(0, SPLITMIX_SEED0),
                                           (1234567, SPLITMIX_SEED1234567)])
def test_splitmix64_reference_stream(seed, expected):
    gen = SplitMix64(seed)
    assert [gen.next_u64() for _ in range(len(expected))] == expected


def test_derive_seed_formula():
    """derive_seed is the first output of the xored-and-mixed stream."""
    gamma = 0x9E3779B97F4A7C15
    mask = (1 << 64) - 1
    for master in (0, 42, 2**63 + 11):
        for index in (0, 1, 999):
            mixed = (master ^ ((index * gamma) & mask)) & mask
            assert derive_seed(master, index) == SplitMix64(mixed).next_u64()


def test_flatten_matches_loop_gram():
    """Mode-m flattening has the Gram matrix given by explicit index sums."""
    rng = SplitMix64(11)
    A = Hypermatrix(rng.normals((3, 4, 2)), REAL)
    for mode in range(1, 4):
        F = flatten(A, mode)
        n = A.shape[mode - 1]
        G = np.zeros((n, n))
        for idx in np.ndindex(*A.shape):
            for i2 in range(n):
                jdx = list(idx)
                jdx[mode - 1] = i2
                G[idx[mode - 1], i2] += A.data[idx] * A.data[tuple(jdx)]
        assert F.shape == (n, A.data.size // n)
        assert np.allclose(F @ F.T, G, atol=1e-12)


def test_flatten_rows_are_mode_fibers():
    rng = SplitMix64(12)
    A = Hypermatrix(rng.normals((2, 3, 4)), REAL)
    # each mode-m fiber must appear as a row of the mode-m flattening
    for mode in range(1, 4):
        F = flatten(A, mode)
        fiber = np.take(A.data, 0, axis=mode - 1).ravel()
        rows = [F[i] for i in range(F.shape[0])]
        del rows
        first_axis = np.moveaxis(A.data, mode - 1, 0)
        assert np.array_equal(F, first_axis.reshape(F.shape[0], -1))
        assert np.allclose(F[0], fiber)


def test_mode_multiply_matches_einsum():
    rng = SplitMix64(13)
    core = rng.normals((2, 3, 2))
    M1 = rng.normals((4, 2))
    M3 = rng.normals((5, 2))
    got = mode_multiply(core, [M1, None, M3])
    ref = np.einsum("ai,ijk,ck->ajc", M1, core, M3)
    assert np.allclose(got, ref, atol=1e-13)
    # complex, with the one-row and one-column matrices of a rank-one mode
    core = rng.complex_normals((2, 3, 1))
    M1 = rng.complex_normals((1, 2))
    M3 = rng.complex_normals((4, 1))
    got = mode_multiply(core, [M1, None, M3])
    ref = np.einsum("ai,ijk,ck->ajc", M1, core, M3)
    assert np.allclose(got, ref, atol=1e-13)


def test_sym_embed_matches_permutation_sum():
    """Embedding of a packed symmetric tensor is permutation invariant and
    reproduces rank-one powers entrywise."""
    rng = SplitMix64(14)
    v = rng.normals(3)
    S = sym_power(v, 3)
    E = sym_embed(S).data
    for perm in permutations(range(3)):
        assert np.allclose(E, np.transpose(E, perm), atol=1e-14)
    for idx in np.ndindex(3, 3, 3):
        assert E[idx] == pytest.approx(v[idx[0]] * v[idx[1]] * v[idx[2]],
                                       rel=1e-12, abs=1e-14)


def test_sym_extract_round_trip():
    rng = SplitMix64(15)
    n, d = 4, 3
    packed = rng.normals(sym_packed_length(n, d))
    S = SymTensor(n, d, REAL, packed)
    back = sym_extract(sym_embed(S))
    assert np.allclose(back.packed, S.packed, atol=1e-13)
