from itertools import combinations_with_replacement

import numpy as np
import pytest

from tensortopo import (COMPLEX, REAL, Hypermatrix, SplitMix64, SymTensor,
                        TolerancePolicy, ToleranceError, flatten,
                        frobenius_inner, hypermatrix, mode_multiply, mrank,
                        numerical_rank, outer_product, parse_stratum,
                        sym_diagonal_sum, sym_embed, sym_extract,
                        sym_packed_length, sym_power)
from tensortopo.core import (MultilinearRank, RankOneFactors, fix_phase,
                             flatten_stack, flattening_det_signs,
                             mode_multiply_stack, mrank_admissible,
                             mrank_stack, sym_embed_stack,
                             sym_extract_stack, sym_mrank_stack,
                             sym_power_stack)
from tensortopo.kinds import kind_of


def test_hypermatrix_coerces_dtype():
    A = Hypermatrix(np.arange(8).reshape(2, 2, 2), REAL)
    assert A.data.dtype == np.float64
    assert A.shape == (2, 2, 2)
    assert A.order == 3
    B = Hypermatrix(np.arange(4).reshape(2, 2), COMPLEX)
    assert B.data.dtype == np.complex128


def test_hypermatrix_scalar_promotes_and_bad_field_rejected():
    # ascontiguousarray promotes 0-d input to one mode
    assert Hypermatrix(np.float64(3.0), REAL).shape == (1,)
    with pytest.raises(ValueError):
        Hypermatrix(np.zeros((2, 2)), "rational")


def test_hypermatrix_equality():
    a = hypermatrix([[1.0, 2.0], [3.0, 4.0]])
    b = hypermatrix([[1.0, 2.0], [3.0, 4.0]])
    c = hypermatrix([[1.0, 2.0], [3.0, 5.0]])
    assert a == b
    assert a != c
    assert a != hypermatrix([[1.0, 2.0], [3.0, 4.0]], COMPLEX)


def test_flatten_mode_is_one_based():
    A = hypermatrix(np.arange(24).reshape(2, 3, 4))
    assert flatten(A, 1).shape == (2, 12)
    assert flatten(A, 2).shape == (3, 8)
    assert flatten(A, 3).shape == (4, 6)
    with pytest.raises(ValueError):
        flatten(A, 0)
    with pytest.raises(ValueError):
        flatten(A, 4)


def test_numerical_rank_zero_matrix():
    assert numerical_rank(np.zeros((3, 5))) == (0, 1.0)


def test_numerical_rank_clean_gap():
    M = np.diag([1.0, 0.5, 1e-14])
    r, margin = numerical_rank(M)
    assert r == 2
    assert margin == pytest.approx(0.5)


def test_numerical_rank_threshold_is_inclusive():
    """A singular value exactly on tau counts as above it."""
    tol = TolerancePolicy(eps_rel=1e-10)
    tau = 1.0 * 2 * tol.eps_rel
    M = np.diag([1.0, tau])
    r, margin = numerical_rank(M, tol)
    assert r == 2
    assert margin == pytest.approx(tau)


def test_numerical_rank_scale_invariant():
    rng = SplitMix64(21)
    M = rng.normals((4, 6))
    r1, m1 = numerical_rank(M)
    r2, m2 = numerical_rank(1e8 * M)
    assert (r1, m1) == (r2, pytest.approx(m2))


def test_mrank_of_tucker_product():
    rng = SplitMix64(22)
    core = rng.normals((2, 3, 2))
    mats = [rng.normals((5, 2)), rng.normals((4, 3)), rng.normals((6, 2))]
    A = Hypermatrix(mode_multiply(core, mats), REAL)
    result = mrank(A)
    assert tuple(result) == (2, 3, 2)
    assert len(result) == 3
    assert result[0] == 2
    assert all(m > 1e-8 for m in result.margins)


def test_mrank_admissible():
    assert mrank_admissible((2, 2, 2))
    assert mrank_admissible((4, 2, 2))
    assert not mrank_admissible((5, 2, 2))
    assert mrank_admissible((0, 0, 0))
    assert not mrank_admissible((0, 1, 1))
    assert MultilinearRank((3, 3)).admissible()


def test_outer_product_entries():
    t = RankOneFactors(2.0, (np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                             np.array([1.0, 1.0])), REAL)
    T = outer_product(t)
    assert T.data[0, 1, 0] == 2.0
    assert T.data[0, 1, 1] == 2.0
    assert np.sum(np.abs(T.data)) == 4.0
    assert t.tensor() == T


def test_sym_packed_length():
    assert sym_packed_length(4, 3) == 20
    assert sym_packed_length(2, 4) == 5
    assert sym_packed_length(1, 7) == 1


def test_sym_tensor_packed_validation():
    with pytest.raises(ValueError):
        SymTensor(3, 2, REAL, np.zeros(5))


def test_sym_power_and_entry():
    v = np.array([2.0, -1.0, 3.0])
    S = sym_power(v, 3, coefficient=0.5)
    assert S.entry((0, 1, 2)) == pytest.approx(0.5 * 2.0 * -1.0 * 3.0)
    assert S.entry((2, 1, 0)) == S.entry((0, 1, 2))
    assert S.entry((1, 1, 1)) == pytest.approx(-0.5)


def test_sym_power_complex_autodetect():
    S = sym_power(np.array([1.0 + 1j, 0.0]), 2)
    assert S.field == COMPLEX
    assert S.entry((0, 0)) == pytest.approx(2j)


def test_sym_norm_matches_embedding():
    rng = SplitMix64(23)
    packed = rng.normals(sym_packed_length(3, 4))
    S = SymTensor(3, 4, REAL, packed)
    assert S.norm() == pytest.approx(sym_embed(S).norm(), rel=1e-12)


def test_sym_extract_rejects_asymmetric():
    data = np.zeros((2, 2))
    data[0, 1] = 1.0
    with pytest.raises(ToleranceError):
        sym_extract(Hypermatrix(data, REAL))
    with pytest.raises(ValueError):
        sym_extract(Hypermatrix(np.zeros((2, 3)), REAL))


def test_sym_diagonal_sum():
    rng = SplitMix64(24)
    packed = rng.normals(sym_packed_length(3, 3))
    S = SymTensor(3, 3, REAL, packed)
    E = sym_embed(S).data
    assert sym_diagonal_sum(S) == pytest.approx(sum(E[i, i, i] for i in range(3)))


def test_mode_multiply_identity_and_composition():
    rng = SplitMix64(25)
    core = rng.normals((2, 3, 4))
    assert np.array_equal(mode_multiply(core, [None, None, None]), core)
    M = rng.normals((3, 3))
    N = rng.normals((3, 3))
    once = mode_multiply(mode_multiply(core, [None, M, None]), [None, N, None])
    both = mode_multiply(core, [None, N @ M, None])
    assert np.allclose(once, both, atol=1e-12)


@pytest.mark.parametrize("data_field", [REAL, COMPLEX])
@pytest.mark.parametrize("matrix_field", [REAL, COMPLEX])
def test_mode_multiply_stack_matches_mode_multiply(data_field, matrix_field):
    """Bit for bit, real or complex data and matrices alike."""
    rng = SplitMix64(26)

    def draw(shape, field):
        return rng.complex_normals(shape) if field == COMPLEX else rng.normals(shape)

    for trial in range(60):
        shape = tuple(rng.integers(1, 5) for _ in range(2 + trial % 3))
        K = 3
        data = draw((K,) + shape, data_field)
        # per mode: identity, one shared matrix, or one matrix per tensor
        mats = [None if (trial + k) % 3 == 0 else
                draw((K, rng.integers(1, 5), n) if (trial + k) % 3 == 1
                     else (rng.integers(1, 5), n), matrix_field)
                for k, n in enumerate(shape)]
        stacked = mode_multiply_stack(data, mats)
        for i in range(K):
            one = mode_multiply(data[i], [M if M is None or M.ndim == 2 else M[i]
                                          for M in mats])
            assert np.array_equal(stacked[i], one)


def test_frobenius_inner_conjugates_second_argument():
    a = np.array([[1j, 0.0], [0.0, 0.0]])
    b = np.array([[2.0, 0.0], [0.0, 0.0]])
    assert frobenius_inner(a, b) == pytest.approx(2j)
    assert frobenius_inner(b, a) == pytest.approx(-2j)
    assert frobenius_inner(b, b) == pytest.approx(4.0)


def test_fix_phase():
    v = np.array([0.0, -2.0, 1.0])
    w = fix_phase(v)
    # largest-magnitude entry becomes positive real
    assert w[1] > 0
    assert np.allclose(np.abs(w), np.abs(v))
    z = fix_phase(np.array([1j, 0.0]))
    assert z[0] == pytest.approx(1.0)


def _scalar_rank_rule(M, eps_rel=1e-10):
    """The per-matrix threshold rule, written out as a plain loop."""
    sigma = np.linalg.svd(M, compute_uv=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0, 1.0
    tau = sigma[0] * max(M.shape) * eps_rel
    r = int(np.sum(sigma >= tau))
    return r, (float(sigma[r - 1] / sigma[0]) if r > 0 else 1.0)


STACK_STRATA = ["rank:r=1;shape=3,4,5;field=real",
                "rank:r=1;shape=3,4,5;field=complex",
                "rank:r=2;shape=3,3,3;field=real",
                "rank:r=2;shape=3,3,3;field=complex",
                "brank:r=3;shape=2,2,2;field=real",
                "sym-rank:d=4;n=3;r=2;field=real",
                "sym-rank:d=3;n=3;r=2;field=complex",
                "mrank:r=4,2,2;shape=4,2,2;field=real",
                "mrank:r=2,2,2;shape=3,3,3;field=complex",
                "sym-mrank:d=2;n=4;r=3;field=real",
                "sym-mrank:d=3;n=3;r=2;field=complex"]


@pytest.mark.parametrize("text", STACK_STRATA)
def test_mrank_stack_matches_a_per_tensor_loop(text):
    st = parse_stratum(text)
    rng = SplitMix64(25)
    values = [kind_of(st).draws(st, [rng], TolerancePolicy())[0][0] for _ in range(6)]
    tensors = [sym_embed(v) if isinstance(v, SymTensor) else v for v in values]
    # a rank-one member and the zero tensor share the stack
    shape, field = tensors[0].shape, tensors[0].field
    one = np.ones(())
    for n in shape:
        one = np.multiply.outer(one, rng.normals((n,)))
    tensors += [Hypermatrix(one, field), Hypermatrix(np.zeros(shape), field)]
    ranks, margins = mrank_stack(np.stack([A.data for A in tensors]))
    for A, rk, mg in zip(tensors, ranks.tolist(), margins.tolist()):
        loop = [_scalar_rank_rule(flatten(A, m)) for m in range(1, A.order + 1)]
        assert tuple(rk) == tuple(r for r, _m in loop)
        assert tuple(mg) == tuple(m for _r, m in loop)
        assert mrank(A).margins == tuple(mg)


def _at_threshold(field, below: bool = False):
    """A 2x2x2 tensor whose flattenings (2 x 4) all have singular values
    exactly 1 and tau = 1 * 4 * eps_rel, or the float just below tau."""
    tau = 1.0 * 4 * 1e-10
    data = np.zeros((2, 2, 2), dtype=np.complex128 if field == COMPLEX else np.float64)
    data[0, 0, 0] = 1.0
    data[1, 1, 1] = (1j if field == COMPLEX else 1.0) * (
        np.nextafter(tau, 0.0) if below else tau)
    return Hypermatrix(data, field)


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_array_rank_read_is_the_row_rule_on_edge_cases(field):
    """The (K, d) rank read gives the per-matrix rule's ranks and margins
    bit for bit on the zero tensor, a singular value exactly at tau (which
    counts as above it), the float just below tau, and a packed symmetric
    stack read through one flattening."""
    tensors = [Hypermatrix(np.zeros((2, 2, 2)), field), _at_threshold(field),
               _at_threshold(field, below=True)]
    rng = SplitMix64(27)
    draw = rng.complex_normals if field == COMPLEX else rng.normals
    tensors += [Hypermatrix(draw((2, 2, 2)), field) for _ in range(3)]
    ranks, margins = mrank_stack(np.stack([A.data for A in tensors]))
    assert ranks.tolist()[:3] == [[0, 0, 0], [2, 2, 2], [1, 1, 1]]
    for A, rk, mg in zip(tensors, ranks.tolist(), margins.tolist()):
        loop = [_scalar_rank_rule(flatten(A, m)) for m in range(1, 4)]
        assert (tuple(rk), tuple(mg)) == (tuple(r for r, _m in loop),
                                          tuple(m for _r, m in loop))
    assert margins[0].tolist() == [1.0] * 3 and margins[1, 0] == 4e-10
    # packed symmetric rows: the zero row, a diagonal row at tau and random rows
    n, d = 2, 3
    packed = np.zeros((4, sym_packed_length(n, d)), dtype=tensors[0].data.dtype)
    packed[1, 0] = 1.0
    packed[1, -1] = 1.0 * 4 * 1e-10
    packed[2:] = draw((2, sym_packed_length(n, d)))
    got = sym_mrank_stack(packed, n, d)
    want = mrank_stack(sym_embed_stack(packed, n, d))
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert got[0].tolist()[:2] == [[0] * d, [2] * d]
    for S, rk, mg in zip(packed, got[0].tolist(), got[1].tolist()):
        one = _scalar_rank_rule(sym_embed(SymTensor(n, d, field, S)).data.reshape(n, -1))
        assert (rk[0], mg[0]) == one


def test_flattening_det_signs_are_the_per_tensor_loop():
    """The signs array gives every tensor the tuple a per-tensor, per-mode
    slogdet loop gives it: Gaussian cores, a zero core (its zero
    determinants read -1), and no mode at all (the empty tuple)."""
    rng = SplitMix64(61)
    cores = rng.normals((40, 2, 2, 1))
    cores[3] = 0.0

    def loop(modes):
        return [tuple(1 if np.linalg.slogdet(flatten_stack(A[None], m)[0])[0] > 0
                      else -1 for m in modes) for A in cores]

    for modes in ([1], [2], [1, 2], []):
        got = flattening_det_signs(cores, modes)
        assert got == loop(modes)
        assert {type(s) for row in got for s in row} <= {int}
    assert flattening_det_signs(cores, [1, 2])[3] == (-1, -1)
    assert {row for row in flattening_det_signs(cores, [1])} == {(1,), (-1,)}


def test_checked_raises_on_an_inadmissible_read():
    bad = MultilinearRank((2, 1, 1))
    assert not bad.admissible()
    with pytest.raises(ToleranceError, match="inadmissible multilinear rank"):
        bad.checked()
    zero = Hypermatrix(np.zeros((2, 2, 2)), REAL)
    ranks, margins = mrank_stack(zero.data[None])
    assert ranks.tolist() == [[0, 0, 0]] and margins.tolist() == [[1.0] * 3]
    assert mrank(zero).ranks == (0, 0, 0)
    assert mrank_admissible(ranks).tolist() == [True]
    assert mrank_admissible(np.array([[2, 1, 1], [2, 2, 1]])).tolist() == [False, True]


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_sym_power_stack_rounds_as_scalar_products(field):
    """Each packed entry is coefficient * v_i1 * ... * v_id taken left to
    right in numpy scalars, for every row of the stack."""
    rng = SplitMix64(26)
    draw = rng.complex_normals if field == COMPLEX else rng.normals
    V = draw((30, 3))
    coefficient = complex(0.5, -2.0) if field == COMPLEX else -1.5
    rows = sym_power_stack(V, 4, coefficient, field)
    indices = list(combinations_with_replacement(range(3), 4))
    for v, row in zip(V, rows):
        want = []
        for idx in indices:
            prod = coefficient
            for i in idx:
                prod = prod * v[i]
            want.append(prod)
        assert np.array_equal(row, np.array(want))
        assert np.array_equal(row, sym_power(v, 4, coefficient, field).packed)


def test_sym_extract_stack_packs_each_row_and_names_the_first_misfit():
    rng = SplitMix64(27)
    packed = rng.normals((5, sym_packed_length(3, 3)))
    full = sym_embed_stack(packed, 3, 3)
    rows = sym_extract_stack(full)
    for A, row in zip(full, rows):
        assert np.array_equal(row, sym_extract(Hypermatrix(A, REAL)).packed)
    assert np.allclose(rows, packed, rtol=0.0, atol=1e-15)
    full[3, 0, 1, 2] += 1e-3
    with pytest.raises(ToleranceError, match="not symmetric"):
        sym_extract_stack(full)
