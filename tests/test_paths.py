import numpy as np
import pytest

from tensortopo import (COMPLEX, REAL, DifferentComponents, Hypermatrix,
                        SplitMix64, SymTensor, TolerancePolicy,
                        UnsupportedStratumError, census, connect,
                        connect_brank3_222, connect_mrank, connect_rank_one,
                        connect_sym_mrank, connect_sym_rank_one,
                        connect_sym_rank_r, expected_component_count,
                        hyperdet222, mrank, outer_product, parse_stratum,
                        path_verify, sample_fixed_mrank, sample_rank_r,
                        sample_sym_mrank, sample_sym_rank_r, sym_embed,
                        sym_power, sym_tucker_compress)
from tensortopo.classifiers import classify_brank3_222
from tensortopo.core import RankOneFactors
from tensortopo.io import dumps_canonical
from tensortopo.paths import (TensorPath, TuckerCurve, chebyshev_grid,
                              eigen_core_track, gl_core_track,
                              value_diff_norm)

GRID = np.linspace(0.0, 1.0, 17)


def assert_connects(path, a, b, max_rel=1e-10):
    """Endpoints exact to max_rel and full verification green."""
    scale = max(a.norm(), b.norm(), 1e-300)
    assert value_diff_norm(path.eval(0.0), a) <= max_rel * scale
    assert value_diff_norm(path.eval(1.0), b) <= max_rel * scale
    report = path_verify(path)
    assert report.passed, [s.note for s in report.samples if not s.ok]
    return report


# --- rank one ---------------------------------------------------------------


def test_rank_one_real():
    rng = SplitMix64(201)
    a, _ = sample_rank_r((3, 4, 5), 1, REAL, rng)
    b, _ = sample_rank_r((3, 4, 5), 1, REAL, rng)
    path = connect_rank_one(a, b)
    report = assert_connects(path, a, b)
    for s in report.samples:
        assert tuple(s.ranks) == (1, 1, 1)


def test_rank_one_complex():
    rng = SplitMix64(202)
    a, _ = sample_rank_r((3, 4, 5), 1, COMPLEX, rng)
    b, _ = sample_rank_r((3, 4, 5), 1, COMPLEX, rng)
    assert_connects(connect_rank_one(a, b), a, b)


def test_rank_one_negation_is_reachable():
    rng = SplitMix64(203)
    a, _ = sample_rank_r((3, 4, 5), 1, REAL, rng)
    neg = Hypermatrix(-a.data, REAL)
    assert_connects(connect_rank_one(a, neg), a, neg)


def test_rank_one_antipodal_factors():
    """Factor pairs at angle pi take the basis-vector detour."""
    rng = SplitMix64(204)
    a, _ = sample_rank_r((3, 3, 3), 1, REAL, rng)
    w = a.tensor() if hasattr(a, "tensor") else None
    del w
    from tensortopo.certify import is_rank_one
    _, fa = is_rank_one(a)
    flipped = RankOneFactors(fa.scalar, tuple(-v for v in fa.factors), REAL)
    b = outer_product(flipped)
    # odd number of factor negations: b = -a entrywise
    assert np.allclose(b.data, -a.data, atol=1e-12)
    assert_connects(connect_rank_one(a, b), a, b)


def test_rank_one_same_tensor_trivial_path():
    rng = SplitMix64(205)
    a, _ = sample_rank_r((2, 2, 2), 1, REAL, rng)
    path = connect_rank_one(a, a)
    assert_connects(path, a, a)


# --- symmetric rank one and rank r ------------------------------------------


def test_sym_rank_one_odd_order_crosses_sign():
    v = np.array([1.0, 2.0, 0.5, -1.0])
    a = sym_power(v, 3, 2.0)
    b = sym_power(np.array([0.3, -1.0, 2.0, 0.2]), 3, -1.5)
    assert_connects(connect_sym_rank_one(a, b), a, b)


def test_sym_rank_one_even_order_sign_components():
    v = np.array([1.0, 2.0, 0.5, -1.0])
    u = np.array([0.3, -1.0, 2.0, 0.2])
    a = sym_power(v, 4, 2.0)
    same = sym_power(u, 4, 1.5)
    other = sym_power(u, 4, -1.5)
    assert_connects(connect_sym_rank_one(a, same), a, same)
    with pytest.raises(DifferentComponents) as info:
        connect_sym_rank_one(a, other)
    assert {str(info.value.label_a), str(info.value.label_b)} == \
        {"sign:+", "sign:-"}
    assert not info.value.conjectural


def test_sym_rank_r_odd_order():
    rng = SplitMix64(206)
    _, da = sample_sym_rank_r(4, 3, 2, rng=rng)
    _, db = sample_sym_rank_r(4, 3, 2, rng=rng)
    path = connect_sym_rank_r(da, db, rng=SplitMix64(1))
    assert_connects(path, da.tensor(), db.tensor())


def test_sym_rank_r_even_order_same_signature():
    rng = SplitMix64(207)
    _, da = sample_sym_rank_r(4, 4, 2, signature=1, rng=rng)
    _, db = sample_sym_rank_r(4, 4, 2, signature=1, rng=rng)
    path = connect_sym_rank_r(da, db, rng=SplitMix64(2))
    report = assert_connects(path, da.tensor(), db.tensor())
    assert report.label == "signature:1"


def test_sym_rank_r_even_order_signature_mismatch():
    rng = SplitMix64(208)
    _, da = sample_sym_rank_r(4, 4, 2, signature=2, rng=rng)
    _, db = sample_sym_rank_r(4, 4, 2, signature=0, rng=rng)
    with pytest.raises(DifferentComponents):
        connect_sym_rank_r(da, db, rng=SplitMix64(3))


def test_sym_rank_complex_ignores_signs():
    rng = SplitMix64(209)
    _, da = sample_sym_rank_r(3, 4, 2, field=COMPLEX, rng=rng)
    _, db = sample_sym_rank_r(3, 4, 2, field=COMPLEX, rng=rng)
    path = connect_sym_rank_r(da, db, rng=SplitMix64(4))
    assert_connects(path, da.tensor(), db.tensor())


def _binary_cubic_discriminant(S) -> float:
    """Discriminant of the form sum_ijk S_ijk x_i x_j x_k. Below zero the
    cubic has one real root, so by Sylvester its real rank is two."""
    T = sym_embed(S).data
    a, b, c, d = T[0, 0, 0], 3 * T[0, 0, 1], 3 * T[0, 1, 1], T[1, 1, 1]
    return (b * b * c * c - 4 * a * c ** 3 - 4 * b ** 3 * d
            - 27 * a * a * d * d + 18 * a * b * c * d)


def test_sym_rank_above_dimension_is_not_certified_exactly():
    """Sums of three real binary cubes mostly have real rank two, so with
    r > n neither a path nor a census may claim rank three."""
    st = parse_stratum("sym-rank:d=3;n=2;r=3;field=real")
    rng = SplitMix64(5)
    draws = [sample_sym_rank_r(2, 3, 3, rng=rng) for _ in range(40)]
    assert sum(_binary_cubic_discriminant(S) < 0 for S, _ in draws) == 38
    (Sa, da), (Sb, db) = draws[:2]
    path = connect(st, Sa, Sb, witness_a=da, witness_b=db, rng=SplitMix64(5))
    report = path_verify(path, K=16)
    assert report.passed
    assert not report.exact_certificate
    assert {s.note for s in report.samples} == {"unverifiable-exactly"}
    assert expected_component_count(st) is None
    assert census(st, 40, 5, path_samples=16).verdict == "inconclusive"


# --- low rank on (2, 2, 2) and general rank 2 --------------------------------


def test_rank2_path_on_333():
    rng = SplitMix64(210)
    a, _ = sample_rank_r((3, 3, 3), 2, REAL, rng)
    b, _ = sample_rank_r((3, 3, 3), 2, REAL, rng)
    path = connect(parse_stratum("rank:r=2;shape=3,3,3;field=real"), a, b,
                   rng=SplitMix64(5))
    assert_connects(path, a, b)


def test_rank2_path_complex():
    rng = SplitMix64(211)
    a, _ = sample_rank_r((3, 3, 3), 2, COMPLEX, rng)
    b, _ = sample_rank_r((3, 3, 3), 2, COMPLEX, rng)
    path = connect(parse_stratum("rank:r=2;shape=3,3,3;field=complex"), a, b,
                   rng=SplitMix64(6))
    assert_connects(path, a, b)


def test_rank3_real_222_routes_through_conjugate_pairs():
    rng = SplitMix64(212)
    a, _ = sample_rank_r((2, 2, 2), 3, REAL, rng)
    b, _ = sample_rank_r((2, 2, 2), 3, REAL, rng)
    if str(classify_brank3_222(a)) != str(classify_brank3_222(b)):
        with pytest.raises(DifferentComponents):
            connect(parse_stratum("rank:r=3;shape=2,2,2;field=real"), a, b)
    else:
        path = connect(parse_stratum("rank:r=3;shape=2,2,2;field=real"), a, b)
        assert_connects(path, a, b)


def test_rank_r_unsupported_shape():
    rng = SplitMix64(213)
    a, _ = sample_rank_r((3, 3, 3), 3, REAL, rng)
    b, _ = sample_rank_r((3, 3, 3), 3, REAL, rng)
    with pytest.raises(UnsupportedStratumError):
        connect(parse_stratum("rank:r=3;shape=3,3,3;field=real"), a, b)


# --- border rank 3 on (2, 2, 2) ----------------------------------------------


def _brank3_with_label(rng, label):
    while True:
        T = Hypermatrix(rng.normals((2, 2, 2)), REAL)
        if hyperdet222(T) < -1e-3 * T.norm() ** 4:
            try:
                if str(classify_brank3_222(T)) == label:
                    return T
            except Exception:
                continue


def test_brank3_same_label_path_keeps_hyperdet_negative():
    rng = SplitMix64(214)
    a = _brank3_with_label(rng, "sign-triple:+--")
    b = _brank3_with_label(rng, "sign-triple:+--")
    path = connect_brank3_222(a, b)
    report = assert_connects(path, a, b)
    assert report.label == "sign-triple:+--"
    for t in GRID:
        assert hyperdet222(path.eval(t)) < 0


def test_brank3_cross_label_refused():
    rng = SplitMix64(215)
    a = _brank3_with_label(rng, "sign-triple:+++")
    b = _brank3_with_label(rng, "sign-triple:-+-")
    with pytest.raises(DifferentComponents) as info:
        connect_brank3_222(a, b)
    assert not info.value.conjectural
    assert {str(info.value.label_a), str(info.value.label_b)} == \
        {"sign-triple:+++", "sign-triple:-+-"}


# --- multilinear rank --------------------------------------------------------


def test_mrank_slack_case_connects():
    rng = SplitMix64(216)
    a, _ = sample_fixed_mrank((3, 3, 3), (2, 2, 2), REAL, rng)
    b, _ = sample_fixed_mrank((3, 3, 3), (2, 2, 2), REAL, rng)
    path = connect_mrank(a, b, (2, 2, 2), rng=SplitMix64(7))
    report = assert_connects(path, a, b)
    for s in report.samples:
        assert tuple(s.ranks) == (2, 2, 2)


def test_mrank_saturated_same_sign_connects():
    rng = SplitMix64(217)
    st = parse_stratum("mrank:r=4,2,2;shape=4,2,2;field=real")
    from tensortopo.classifiers import classify
    a, _ = sample_fixed_mrank((4, 2, 2), (4, 2, 2), REAL, rng)
    want = str(classify(st, a))
    while True:
        b, _ = sample_fixed_mrank((4, 2, 2), (4, 2, 2), REAL, rng)
        if str(classify(st, b)) == want:
            break
    path = connect(st, a, b, rng=SplitMix64(8))
    report = assert_connects(path, a, b)
    assert report.label == want


def test_mrank_saturated_opposite_sign_refused():
    rng = SplitMix64(218)
    st = parse_stratum("mrank:r=4,2,2;shape=4,2,2;field=real")
    from tensortopo.classifiers import classify
    a, _ = sample_fixed_mrank((4, 2, 2), (4, 2, 2), REAL, rng)
    while True:
        b, _ = sample_fixed_mrank((4, 2, 2), (4, 2, 2), REAL, rng)
        if str(classify(st, b)) != str(classify(st, a)):
            break
    with pytest.raises(DifferentComponents) as info:
        connect(st, a, b, rng=SplitMix64(9))
    assert not info.value.conjectural


def test_mrank_roomy_saturated_mode_always_connects():
    """With n_1 > r_1 an orientation loop repairs any core sign mismatch."""
    rng = SplitMix64(219)
    st = parse_stratum("mrank:r=4,2,2;shape=5,2,2;field=real")
    for i in range(4):
        a, _ = sample_fixed_mrank((5, 2, 2), (4, 2, 2), REAL, rng)
        b, _ = sample_fixed_mrank((5, 2, 2), (4, 2, 2), REAL, rng)
        path = connect(st, a, b, rng=SplitMix64(20 + i))
        assert_connects(path, a, b)


def test_mrank_matrix_det_sign_components():
    rng = SplitMix64(220)
    st = parse_stratum("mrank:r=2,2;shape=2,2;field=real")
    plus = Hypermatrix(np.eye(2), REAL)
    minus = Hypermatrix(np.diag([1.0, -1.0]), REAL)
    other_plus, _ = sample_fixed_mrank((2, 2), (2, 2), REAL, rng)
    if np.linalg.det(other_plus.data) < 0:
        other_plus = Hypermatrix(other_plus.data[::-1], REAL)
    path = connect(st, plus, other_plus, rng=SplitMix64(10))
    assert_connects(path, plus, other_plus)
    with pytest.raises(DifferentComponents):
        connect(st, plus, minus, rng=SplitMix64(11))


def test_mrank_complex_connects_across_det_phase():
    rng = SplitMix64(221)
    st = parse_stratum("mrank:r=2,2,2;shape=2,2,2;field=complex")
    a, _ = sample_fixed_mrank((2, 2, 2), (2, 2, 2), COMPLEX, rng)
    b, _ = sample_fixed_mrank((2, 2, 2), (2, 2, 2), COMPLEX, rng)
    path = connect(st, a, b, rng=SplitMix64(12))
    assert_connects(path, a, b)


def test_mrank_mixed_case_is_conjectural_on_mismatch():
    rng = SplitMix64(222)
    st = parse_stratum("mrank:r=4,2,2;shape=4,3,3;field=real")
    outcomes = {"pass": 0, "diff": 0}
    for i in range(6):
        a, _ = sample_fixed_mrank((4, 3, 3), (4, 2, 2), REAL, rng)
        b, _ = sample_fixed_mrank((4, 3, 3), (4, 2, 2), REAL, rng)
        try:
            path = connect(st, a, b, rng=SplitMix64(30 + i))
            assert_connects(path, a, b)
            outcomes["pass"] += 1
        except DifferentComponents as exc:
            assert exc.conjectural
            outcomes["diff"] += 1
    assert outcomes["pass"] + outcomes["diff"] == 6


def test_mrank_validates_endpoints():
    from tensortopo import ToleranceError
    rng = SplitMix64(223)
    a, _ = sample_fixed_mrank((3, 3, 3), (2, 2, 2), REAL, rng)
    full, _ = sample_fixed_mrank((3, 3, 3), (3, 3, 3), REAL, rng)
    with pytest.raises(ToleranceError):
        connect_mrank(a, full, (2, 2, 2))


# --- symmetric multilinear rank ----------------------------------------------


def test_sym_mrank_matrix_signature_components():
    rng = SplitMix64(224)
    st = parse_stratum("sym-mrank:d=2;n=4;r=3;field=real")
    from tensortopo.classifiers import classify
    a = sample_sym_mrank(4, 2, 3, rng=rng)
    want = str(classify(st, a))
    while True:
        b = sample_sym_mrank(4, 2, 3, rng=rng)
        if str(classify(st, b)) == want:
            break
    path = connect(st, a, b, rng=SplitMix64(13))
    assert_connects(path, a, b)
    while True:
        c = sample_sym_mrank(4, 2, 3, rng=rng)
        if str(classify(st, c)) != want:
            break
    with pytest.raises(DifferentComponents):
        connect(st, a, c, rng=SplitMix64(14))


def test_sym_mrank_higher_order_connects():
    rng = SplitMix64(225)
    st = parse_stratum("sym-mrank:d=3;n=4;r=2;field=real")
    a = sample_sym_mrank(4, 3, 2, rng=rng)
    b = sample_sym_mrank(4, 3, 2, rng=rng)
    path = connect(st, a, b, rng=SplitMix64(15))
    assert_connects(path, a, b)


def test_sym_mrank_rank_one_delegates():
    st = parse_stratum("sym-mrank:d=3;n=4;r=1;field=real")
    a = sym_power(np.array([1.0, 0.5, -2.0, 0.1]), 3, 1.2)
    b = sym_power(np.array([-1.0, 0.7, 0.4, 2.0]), 3, -0.6)
    path = connect(st, a, b, rng=SplitMix64(16))
    assert path.stratum.kind == "sym-mrank"
    assert_connects(path, a, b)


# --- exact segment primitives ------------------------------------------------


def test_core_transform_keeps_det_sign():
    rng = SplitMix64(226)
    for _ in range(5):
        core0 = rng.normals((2, 2))
        core1 = rng.normals((2, 2))
        if np.linalg.det(core0) * np.linalg.det(core1) < 0:
            core1 = core1[::-1].copy()
        seg = TuckerCurve("core-transform", REAL,
                          gl_core_track(core0, core1, (2, 2), 0), (None, None))
        s0 = np.sign(np.linalg.det(core0))
        for t in GRID:
            assert np.sign(np.linalg.det(seg.core(t))) == s0
        assert np.allclose(seg.core(0.0), core0, atol=1e-10)
        assert np.allclose(seg.core(1.0), core1, atol=1e-10)


def test_core_transform_higher_order():
    rng = SplitMix64(227)
    while True:
        core0 = rng.normals((4, 2, 2))
        core1 = rng.normals((4, 2, 2))
        d0 = np.linalg.det(core0.reshape(4, 4))
        d1 = np.linalg.det(core1.reshape(4, 4))
        if abs(d0) > 1e-2 and abs(d1) > 1e-2:
            break
    if d0 * d1 < 0:
        core1 = core1[::-1].copy()
    seg = TuckerCurve("core-transform", REAL,
                      gl_core_track(core0, core1, (4, 2, 2), 0),
                      (None, None, None))
    s0 = np.sign(np.linalg.det(core0.reshape(4, 4)))
    for t in GRID:
        assert np.sign(np.linalg.det(seg.core(t).reshape(4, 4))) == s0
    assert np.allclose(seg.core(1.0), core1, atol=1e-9)


def test_sym_eigen_core_keeps_signature():
    rng = SplitMix64(228)

    def random_core(signs):
        Q, _ = np.linalg.qr(rng.normals((3, 3)))
        lam = np.array([s * (0.5 + rng.random()) for s in signs])
        M = (Q * lam) @ Q.T
        from tensortopo import sym_extract
        return sym_extract(Hypermatrix(M, REAL))

    for signs in ((1, 1, -1), (1, -1, -1), (1, 1, 1)):
        c0 = random_core(signs)
        c1 = random_core(signs)
        seg = TuckerCurve("sym-eigen-core", REAL, eigen_core_track(c0, c1),
                          None)
        want = sum(1 for s in signs if s > 0)
        for t in GRID:
            lam = np.linalg.eigvalsh(sym_embed(seg.core(t)).data)
            assert int(np.sum(lam > 0)) == want
        assert value_diff_norm(seg.core(0.0), c0) <= 1e-9
        assert value_diff_norm(seg.core(1.0), c1) <= 1e-9


# --- segment families --------------------------------------------------------

RANK_ONE_KINDS = {"factor-lerp", "detour-arc", "scalar-scale", "complex-phase"}


def _family_case(name):
    """(path, kinds its segments may have, kinds it must have)."""
    from tensortopo.classifiers import classify
    if name == "rank-one":
        rng = SplitMix64(240)
        a, _ = sample_rank_r((3, 4, 5), 1, REAL, rng)
        b = Hypermatrix(-sample_rank_r((3, 4, 5), 1, REAL, rng)[0].data, REAL)
        return connect_rank_one(a, b), RANK_ONE_KINDS, {"factor-lerp"}
    if name == "rank-one-complex":
        rng = SplitMix64(241)
        a, _ = sample_rank_r((3, 4, 5), 1, COMPLEX, rng)
        b, _ = sample_rank_r((3, 4, 5), 1, COMPLEX, rng)
        return connect_rank_one(a, b), RANK_ONE_KINDS, {"complex-phase"}
    if name == "rank-2":
        rng = SplitMix64(242)
        a, _ = sample_rank_r((3, 3, 3), 2, REAL, rng)
        b, _ = sample_rank_r((3, 3, 3), 2, REAL, rng)
        path = connect(parse_stratum("rank:r=2;shape=3,3,3;field=real"), a, b,
                       rng=SplitMix64(40))
        return path, {"term-sum"}, {"term-sum"}
    if name == "sym-rank":
        rng = SplitMix64(243)
        _, da = sample_sym_rank_r(4, 4, 2, signature=1, rng=rng)
        _, db = sample_sym_rank_r(4, 4, 2, signature=1, rng=rng)
        path = connect_sym_rank_r(da, db, rng=SplitMix64(41))
        return path, {"sym-term-sum"}, {"sym-term-sum"}
    if name == "mrank-flip-loop":
        rng = SplitMix64(302)
        a, _ = sample_fixed_mrank((5, 2, 2), (4, 2, 2), REAL, rng)
        b, _ = sample_fixed_mrank((5, 2, 2), (4, 2, 2), REAL, rng)
        path = connect(parse_stratum("mrank:r=4,2,2;shape=5,2,2;field=real"),
                       a, b, rng=SplitMix64(1))
        kinds = {"flip-loop", "core-transform", "frame-transport"}
        return path, kinds | {"core-lerp"}, kinds
    if name == "sym-mrank-order-2":
        rng = SplitMix64(244)
        st = parse_stratum("sym-mrank:d=2;n=4;r=3;field=real")
        a = sample_sym_mrank(4, 2, 3, rng=rng)
        while True:
            b = sample_sym_mrank(4, 2, 3, rng=rng)
            if str(classify(st, b)) == str(classify(st, a)):
                break
        kinds = {"sym-eigen-core", "sym-frame-transport"}
        return connect(st, a, b, rng=SplitMix64(42)), kinds, kinds
    rng = SplitMix64(245)
    a = _brank3_with_label(rng, "sign-triple:-+-")
    b = _brank3_with_label(rng, "sign-triple:-+-")
    return connect_brank3_222(a, b), {"conj-pair"}, {"conj-pair"}


@pytest.mark.parametrize("name", ["rank-one", "rank-one-complex", "rank-2",
                                  "sym-rank", "mrank-flip-loop",
                                  "sym-mrank-order-2", "brank3"])
def test_segment_families_keep_kinds_and_witnesses(name):
    path, allowed, required = _family_case(name)
    doc = path.to_json()
    kinds = [seg["kind"] for seg in doc["segments"]]
    assert set(kinds) <= allowed and required <= set(kinds), kinds
    dumps_canonical(doc)
    for seg in path.segments:
        for s in (0.0, 0.3, 1.0):
            witness = seg.witness(s)
            if seg.kind == "sym-term-sum":
                assert len(witness) == len(seg.terms)
            else:
                assert witness is None


# --- path mechanics ----------------------------------------------------------


def test_tensor_path_locate_and_joints():
    rng = SplitMix64(229)
    a, _ = sample_rank_r((3, 4, 5), 1, REAL, rng)
    b, _ = sample_rank_r((3, 4, 5), 1, REAL, rng)
    path = connect_rank_one(a, b)
    n = len(path.segments)
    assert path.joints() == [k / n for k in range(1, n)]
    with pytest.raises(ValueError):
        path.eval(1.5)
    with pytest.raises(ValueError):
        TensorPath([], parse_stratum("rank:r=1;shape=3,4,5;field=real"))


def test_path_to_json_shape():
    rng = SplitMix64(230)
    a, _ = sample_rank_r((2, 2, 2), 1, REAL, rng)
    b, _ = sample_rank_r((2, 2, 2), 1, REAL, rng)
    path = connect_rank_one(a, b)
    doc = path.to_json()
    assert doc["stratum"] == "rank:r=1;shape=2,2,2;field=real"
    assert len(doc["segments"]) == len(path.segments)
    assert all("kind" in seg for seg in doc["segments"])


def test_path_report_csv_rows():
    rng = SplitMix64(231)
    a, _ = sample_rank_r((2, 2, 2), 1, REAL, rng)
    b, _ = sample_rank_r((2, 2, 2), 1, REAL, rng)
    report = path_verify(connect_rank_one(a, b), K=8)
    header, rows = report.csv_rows()
    assert header == ["t", "ok", "mrank", "min_margin", "label"]
    assert all(len(row) == 5 for row in rows)
    assert rows[0][0] == 0.0 and rows[-1][0] == 1.0
    doc = report.to_json()
    assert set(doc) == {"stratum", "passed", "min_margin", "joint_defect",
                        "exact_certificate", "label", "samples"}


def test_chebyshev_grid_properties():
    g = chebyshev_grid(16)
    assert len(g) == 16
    assert all(0.0 < t < 1.0 for t in g)
    assert g == sorted(g)
    # symmetric about 1/2
    assert np.allclose([a + b for a, b in zip(g, reversed(g))], 1.0)


def test_value_diff_norm_both_kinds():
    rng = SplitMix64(232)
    A = Hypermatrix(rng.normals((2, 3)), REAL)
    B = Hypermatrix(A.data + 1e-3, REAL)
    assert value_diff_norm(A, A) == 0.0
    assert value_diff_norm(A, B) == pytest.approx(1e-3 * np.sqrt(6), rel=1e-6)
    S = sym_power(np.array([1.0, 2.0]), 3)
    T = sym_power(np.array([1.0, 2.0]), 3, 2.0)
    assert value_diff_norm(S, T) == pytest.approx(S.norm(), rel=1e-12)


def test_connect_rejects_unknown_symmetric_witness_rank():
    rng = SplitMix64(233)
    S, _ = sample_sym_rank_r(5, 3, 3, rng=rng)
    st = parse_stratum("sym-rank:d=3;n=5;r=3;field=real")
    with pytest.raises(UnsupportedStratumError):
        connect(st, S, S)


def test_connect_passes_witnesses_through():
    rng = SplitMix64(234)
    Sa, da = sample_sym_rank_r(5, 3, 3, rng=rng)
    Sb, db = sample_sym_rank_r(5, 3, 3, rng=rng)
    st = parse_stratum("sym-rank:d=3;n=5;r=3;field=real")
    path = connect(st, Sa, Sb, witness_a=da, witness_b=db, rng=SplitMix64(17))
    assert_connects(path, Sa, Sb)
