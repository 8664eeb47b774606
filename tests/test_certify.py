import numpy as np
import pytest

from tensortopo import (COMPLEX, REAL, DegenerateError, Hypermatrix,
                        SplitMix64, ToleranceError, connect, hyperdet222,
                        outer_product, parse_stratum)
from tensortopo.certify import (DecompositionCount, Kind222, brank3_conj_pair,
                                classify_222, conj_pair_factors,
                                conj_pair_stack, count_rank2_decompositions,
                                is_rank_one, rank2_certify, rank2_decompose,
                                rank2_decompositions)
from tensortopo import certify as certify_module
from tensortopo.core import DEFAULT_TOL, RankOneFactors, fix_phase, mrank_stack


def _rank_one(rng, shape, field=REAL):
    draw = rng.complex_normals if field == COMPLEX else rng.normals
    return RankOneFactors(1.0, tuple(draw(n) for n in shape), field)


def _conj_pair_example():
    a = np.zeros((2, 2, 2))
    a[0, 0, 0] = 1.0
    a[1, 1, 0] = 1.0
    a[0, 1, 1] = -1.0
    a[1, 0, 1] = 1.0
    return Hypermatrix(a, REAL)


def test_is_rank_one_accepts_products():
    rng = SplitMix64(31)
    for field in (REAL, COMPLEX):
        T = outer_product(_rank_one(rng, (3, 4, 5), field))
        ok, factors = is_rank_one(T)
        assert ok
        residual = T.data - outer_product(factors).data
        assert np.linalg.norm(residual.ravel()) <= 1e-10 * T.norm()
        # returned factors are unit vectors with the scale in front
        for v in factors.factors:
            assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)


def test_is_rank_one_rejects_sums():
    rng = SplitMix64(32)
    t1 = _rank_one(rng, (3, 4, 5))
    t2 = _rank_one(rng, (3, 4, 5))
    T = Hypermatrix(outer_product(t1).data + outer_product(t2).data, REAL)
    ok, factors = is_rank_one(T)
    assert not ok
    assert factors is None


def test_classify_222_kinds():
    rng = SplitMix64(33)
    zero = Hypermatrix(np.zeros((2, 2, 2)), REAL)
    assert classify_222(zero).kind is Kind222.ZERO

    T1 = outer_product(_rank_one(rng, (2, 2, 2)))
    assert classify_222(T1).kind is Kind222.RANK1

    diag = np.zeros((2, 2, 2))
    diag[0, 0, 0] = 1.0
    diag[1, 1, 1] = 1.0
    c = classify_222(Hypermatrix(diag, REAL))
    assert c.kind is Kind222.RANK2
    assert c.hyperdet == 1.0

    c = classify_222(_conj_pair_example())
    assert c.kind is Kind222.BORDER_RANK3
    assert c.hyperdet == -4.0


def test_classify_222_boundary():
    """The W-state-like tensor sits on the discriminant with full mrank."""
    w = np.zeros((2, 2, 2))
    w[1, 0, 0] = 1.0
    w[0, 1, 0] = 1.0
    w[0, 0, 1] = 1.0
    c = classify_222(Hypermatrix(w, REAL))
    assert c.kind is Kind222.BOUNDARY
    assert abs(c.hyperdet) <= 1e-12


def test_classify_222_input_checks():
    with pytest.raises(ValueError):
        classify_222(Hypermatrix(np.zeros((2, 2)), REAL))
    with pytest.raises(ValueError):
        classify_222(Hypermatrix(np.zeros((2, 2, 2)), COMPLEX))


def test_rank2_decompose_reconstructs():
    rng = SplitMix64(34)
    for _ in range(20):
        t1 = _rank_one(rng, (2, 2, 2))
        t2 = _rank_one(rng, (2, 2, 2))
        T = Hypermatrix(outer_product(t1).data + 2.0 * outer_product(t2).data, REAL)
        if classify_222(T).kind is not Kind222.RANK2:
            continue
        s1, s2 = rank2_decompose(T)
        rebuilt = outer_product(s1).data + outer_product(s2).data
        assert np.linalg.norm((rebuilt - T.data).ravel()) <= 1e-9 * T.norm()


def test_rank2_decompose_refuses_negative_hyperdet():
    with pytest.raises(DegenerateError):
        rank2_decompose(_conj_pair_example())


def test_count_rank2_decompositions_unique():
    rng = SplitMix64(35)
    t1 = _rank_one(rng, (2, 2, 2))
    t2 = _rank_one(rng, (2, 2, 2))
    T = Hypermatrix(outer_product(t1).data + outer_product(t2).data, REAL)
    verdict, orderings = count_rank2_decompositions(T)
    assert verdict is DecompositionCount.UNIQUE_UP_TO_PERMUTATION
    assert len(orderings) == 2
    (a1, a2), (b1, b2) = orderings
    assert a1 is b2 and a2 is b1


def test_count_rank2_decompositions_degenerate():
    verdict, orderings = count_rank2_decompositions(_conj_pair_example())
    assert verdict is DecompositionCount.CONTINUUM_OR_DEGENERATE
    assert orderings == ()


def test_brank3_conj_pair_reconstructs():
    rng = SplitMix64(36)
    seen = 0
    while seen < 10:
        data = rng.normals((2, 2, 2))
        T = Hypermatrix(data, REAL)
        if classify_222(T).kind is not Kind222.BORDER_RANK3:
            continue
        seen += 1
        term = brank3_conj_pair(T)
        assert term.field == COMPLEX
        rebuilt = 2.0 * np.real(outer_product(term).data)
        assert np.linalg.norm((rebuilt - T.data).ravel()) <= 1e-8 * T.norm()
        # orientation of the first factor is the canonical choice
        x = term.factors[0]
        w = np.column_stack([np.real(x), np.imag(x)])
        assert np.linalg.det(w) > 0


def test_conj_pair_stack_matches_one_tensor_at_a_time():
    """conj_pair_stack checks a whole stack in one pass; each tensor gets
    the factors, bit for bit, or the refusal, message for message, that
    conj_pair_factors gives it alone."""
    rng = SplitMix64(47)
    inputs = [rng.normals((2, 2, 2)) for _ in range(1500)]
    for k in range(1500):
        # conjugate pairs whose factors approach real ones
        shrink = 10.0 ** (-7.0 * k / 1500)
        x, y, z = (rng.normals((2,)) + 1j * shrink * rng.normals((2,))
                   for _mode in range(3))
        T = complex(rng.normal(), rng.normal()) * np.multiply.outer(
            np.multiply.outer(x, y), z)
        inputs.append(2.0 * np.real(T))
    want = []
    for A in inputs:
        try:
            want.append(b"".join(f.tobytes()
                                 for f in conj_pair_factors(Hypermatrix(A, REAL))))
        except ToleranceError as exc:
            want.append(str(exc))
    factors, errors = conj_pair_stack(np.stack(inputs))
    got = [factors[k].tobytes() if e is None else str(e)
           for k, e in enumerate(errors)]
    assert got == want
    refusals = [w for w in want if isinstance(w, str)]
    assert 500 <= len(refusals) <= len(want) - 500
    assert any(w.startswith("slice pencil roots") for w in refusals)
    assert any(w.startswith("conjugate-pair reconstruction") for w in refusals)


def test_brank3_conj_pair_rejects_rank2():
    diag = np.zeros((2, 2, 2))
    diag[0, 0, 0] = 1.0
    diag[1, 1, 1] = 1.0
    with pytest.raises((DegenerateError, ValueError)):
        brank3_conj_pair(Hypermatrix(diag, REAL))


def test_hyperdet_scaling_degree_four():
    rng = SplitMix64(37)
    T = Hypermatrix(rng.normals((2, 2, 2)), REAL)
    d = hyperdet222(T)
    scaled = hyperdet222(Hypermatrix(3.0 * T.data, REAL))
    assert scaled == pytest.approx(81.0 * d, rel=1e-12)


def test_hyperdet_of_a_stack_is_each_tensors_hyperdet():
    rng = SplitMix64(38)
    stack = rng.normals((500, 2, 2, 2))
    dets = hyperdet222(stack)
    assert [float(d) for d in dets] == [hyperdet222(Hypermatrix(A, REAL))
                                        for A in stack]
    with pytest.raises(ValueError):
        hyperdet222(stack.astype(np.complex128))


def _unit(rng, n, field):
    v = rng.complex_normals((n,)) if field == COMPLEX else rng.normals((n,))
    return v / np.linalg.norm(v)


def _term(factors, scalar):
    out = np.asarray(scalar)
    for v in factors:
        out = np.multiply.outer(out, v)
    return out


def _rank2_inputs(rng, shape, field, count):
    """Rank two, rank three, rank two with nearly shared factors, and rank
    one plus a tiny second term, dealt in turn."""
    def factors():
        return [_unit(rng, n, field) for n in shape]

    def scalar():
        return complex(rng.normal(), rng.normal()) if field == COMPLEX else rng.normal()

    inputs = []
    for k in range(count):
        kind = k % 4
        if kind == 0:
            data = _term(factors(), scalar()) + _term(factors(), scalar())
        elif kind == 1:
            data = sum(_term(factors(), scalar()) for _ in range(3))
        elif kind == 2:
            base = factors()
            eps = 10.0 ** (-7.0 + 5.0 * rng.random())
            near = [v + eps * _unit(rng, v.shape[0], field) for v in base]
            data = _term(base, scalar()) + _term(near, scalar())
        else:
            tiny = 10.0 ** (-9.0 + 6.0 * rng.random())
            data = _term(factors(), scalar()) + tiny * _term(factors(), scalar())
        inputs.append(Hypermatrix(data, field))
    return inputs


def _verdict(call):
    try:
        call()
    except (ToleranceError, DegenerateError) as exc:
        return type(exc).__name__, str(exc)
    return None


def test_rank2_certify_matches_rank2_decompose_on_each_tensor():
    """One batched pass per shape and field gives every tensor the verdict
    and message rank2_decompose gives it alone, including the tensors that
    fail at each of its steps in between tensors that pass."""
    rng = SplitMix64(39)
    cases = [((2, 2, 2), 260), ((3, 3, 3), 260), ((2, 3, 4), 260),
             ((4, 4, 4), 260), ((2, 2, 2, 2), 110), ((3, 2, 2, 2), 110)]
    total = 0
    messages = set()
    for shape, count in cases:
        for field in (REAL, COMPLEX):
            tensors = _rank2_inputs(rng, shape, field, count * 4)
            data = np.stack([A.data for A in tensors])
            ranks, _margins = mrank_stack(data)
            batched = [None if err is None else (type(err).__name__, str(err))
                       for err in rank2_certify(data, ranks)]
            single = [_verdict(lambda A=A: rank2_decompose(A)) for A in tensors]
            assert batched == single, shape
            total += len(tensors)
            messages |= {v[1].split(" ")[0] + " " + v[1].split(" ")[1]
                         for v in single if v is not None}
    assert total >= 10_000
    # passes and failures at the Tucker step, the pencil and its separation,
    # the rank-one pencil slice and the trailing factor all occur
    assert {"tucker round", "slice pencil", "pencil slice",
            "grouped trailing"} <= messages


def _rank_one_reference(M: np.ndarray) -> str | None:
    """The rank-one pencil rule for one matrix, written out with Python
    floats: its refusal message, or None."""
    sigma = np.linalg.svd(M, compute_uv=False).tolist()
    if sigma[0] == 0.0 or sigma[1] > 1e-6 * sigma[0]:
        return ("pencil slice expected to be rank one is not "
                f"(sigma ratio {sigma[1] / max(sigma[0], 1e-300):.3e})")
    return None


def test_rank_one_rule_words_each_rejected_matrix_as_alone():
    """The array rank-one rule of the pencil rejects the matrices, and
    formats the messages, that the one-matrix rule does, on a stack whose
    sigma ratios straddle 1e-6 and which holds the zero matrix."""
    rng = SplitMix64(48)
    ratios = np.geomspace(1e-8, 1e-4, 60)
    mats = [np.outer(rng.normals((2,)), rng.normals((2,)))
            + r * np.outer(rng.normals((2,)), rng.normals((2,))) for r in ratios]
    mats.append(np.zeros((2, 2)))
    _u, _w, errors = certify_module._rank_one_matrix_factors(np.stack(mats))
    got = [None if e is None else str(e) for e in errors]
    assert got == [_rank_one_reference(M) for M in mats]
    assert None in got and got[-1] is not None and len(set(got)) > 10


def test_hyperdet_signs_read_the_band_as_one_tensor():
    """Tensors that cross classify_222's band around a boundary tensor get
    the sign the one-tensor rule gives: Det against eps_rel ||A||^4, the
    fourth power taken as Python's pow takes it."""
    rng = SplitMix64(49)
    w = np.zeros((2, 2, 2))
    w[0, 0, 1] = w[0, 1, 0] = w[1, 0, 0] = 1.0  # tangential: Det = 0
    steps = np.geomspace(1e-14, 1e-6, 80)
    inputs = [w + sign * s * rng.normals((2, 2, 2)) for s in steps for sign in (1, -1)]
    want = []
    for A in inputs:
        det, scale = hyperdet222(Hypermatrix(A, REAL)), Hypermatrix(A, REAL).norm()
        tau = 1e-10 * scale ** 4
        want.append(1 if det > tau else -1 if det < -tau else 0)
    got = certify_module.hyperdet_signs(np.stack(inputs)).tolist()
    assert got == want
    assert {-1, 0, 1} <= set(got)


def test_conj_pair_factors_refuses_a_pencil_that_vanishes():
    """A rank-one tensor's slice pencil vanishes, so its roots are 0/0; the
    conjugate-pair read refuses it with ToleranceError, alone and in a
    stack, instead of handing NaN roots to the pencil SVD."""
    one = np.multiply.outer(np.multiply.outer([1.0, 2.0], [3.0, -1.0]), [0.5, 1.0])
    with pytest.raises(ToleranceError, match="slice pencil roots separated by nan"):
        conj_pair_factors(Hypermatrix(one, REAL))
    factors, errors = conj_pair_stack(np.stack([_conj_pair_example().data, one]))
    assert errors[0] is None and "nan" in str(errors[1])
    assert np.array_equal(factors[0], np.stack(conj_pair_factors(_conj_pair_example())))


def test_lstsq_stack_is_lstsq_row_by_row():
    """The one batched gelsd call of _rank2_terms gives every row the bits
    np.linalg.lstsq gives it alone, real and complex, on full-rank,
    rank-deficient, zero and 1e-200-scaled rows. It calls numpy's private
    gufunc, so a numpy change that moves it fails here."""
    gen = np.random.default_rng(40)
    for complex_ in (False, True):
        M = gen.standard_normal((600, 8, 2))
        y = gen.standard_normal((600, 8))
        if complex_:
            M = M + 1j * gen.standard_normal(M.shape)
            y = y + 1j * gen.standard_normal(y.shape)
        M[1::5, :, 1] = 3.0 * M[1::5, :, 0]
        M[2::5] *= 1e-200
        y[3::5] *= 1e-200
        M[4::25] = 0.0
        got = certify_module._lstsq_stack(M, y)
        want = np.array([np.linalg.lstsq(A, b, rcond=None)[0] for A, b in zip(M, y)])
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def _terms_bytes(terms):
    """A decomposition's bits, or its refusal's type and message."""
    if isinstance(terms, Exception):
        return type(terms).__name__, str(terms)
    return [(np.asarray(t.scalar).tobytes(), [f.tobytes() for f in t.factors])
            for t in terms]


def test_stacked_rank2_decompositions_are_the_one_tensor_ones():
    """rank2_decompositions gives every tensor of a stack the terms, bit for
    bit, or the refusal, message for message, that rank2_decompose gives
    it alone; connect_rank_r decomposes both ends in one such call and
    raises A's refusal before B's."""
    rng = SplitMix64(41)
    for field in (REAL, COMPLEX):
        tensors = _rank2_inputs(rng, (3, 3, 3), field, 240)
        stacked = rank2_decompositions(np.stack([A.data for A in tensors]))
        alone = []
        for A in tensors:
            try:
                alone.append(rank2_decompose(A))
            except (ToleranceError, DegenerateError) as exc:
                alone.append(exc)
        assert [_terms_bytes(t) for t in stacked] == [_terms_bytes(t) for t in alone]
        refused = [A for A, t in zip(tensors, alone) if isinstance(t, Exception)]
        fine = [A for A, t in zip(tensors, alone) if not isinstance(t, Exception)]
        assert len(refused) >= 2 and fine
        st = parse_stratum(f"rank:r=2;shape=3,3,3;field={field}")
        for a, b, blamed in ((refused[0], refused[1], refused[0]),
                             (fine[0], refused[1], refused[1])):
            with pytest.raises((ToleranceError, DegenerateError)) as caught:
                connect(st, a, b)
            assert str(caught.value) == _verdict(lambda: rank2_decompose(blamed))[1]


def _normalized_term_reference(scalar, factors, field):
    """One term normalized on its own, factor by factor: the loop that
    _normalized_terms runs as array steps."""
    for v in factors:
        nv = np.linalg.norm(v)
        u = v / nv
        fixed = fix_phase(u)
        pivot = np.nonzero(np.abs(u) > 1e-8 * np.max(np.abs(u)))[0][0]
        phase = u[pivot] / fixed[pivot] if fixed[pivot] != 0 else 1.0
        scalar = scalar * nv * phase
        yield fixed
    yield float(np.real(scalar)) if field == REAL else scalar


def test_normalized_terms_are_each_term_normalized_alone():
    """Every term of a stack gets the unit factors and scalar, bit for bit
    and of the same type, that normalizing it alone gives, on orders 3 and
    4, both fields and norms from 1e-150 to 1e150."""
    rng = SplitMix64(42)
    for shape in ((3, 3, 3), (2, 3, 4), (3, 2, 2, 2)):
        for field in (REAL, COMPLEX):
            tensors = _rank2_inputs(rng, shape, field, 200)
            scales = 10.0 ** (300.0 * np.array([rng.random() for _ in tensors]) - 150.0)
            data = np.stack([A.data for A in tensors]) * scales.reshape((-1,) + (1,) * len(shape))
            _outcome, (live, lam, lifted) = certify_module._rank2_terms(data, None, DEFAULT_TOL)
            got = certify_module._normalized_terms(lam, lifted, field)
            assert len(live) >= 50
            for row, terms in enumerate(got):
                for k, term in enumerate(terms):
                    *factors, scalar = _normalized_term_reference(
                        lam[row, k], [f[row, k] for f in lifted], field)
                    assert type(term.scalar) is type(scalar)
                    assert np.asarray(term.scalar).tobytes() == np.asarray(scalar).tobytes()
                    assert [f.tobytes() for f in term.factors] == [f.tobytes() for f in factors]
