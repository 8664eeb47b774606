import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from tensortopo import (COMPLEX, REAL, DifferentComponents, Hypermatrix,
                        SplitMix64, SymTensor, TolerancePolicy, ToleranceError,
                        UnsupportedStratumError, census, connect,
                        connect_brank3_222, connect_mrank, connect_rank_one,
                        connect_sym_mrank, connect_sym_rank_one,
                        connect_sym_rank_r, expected_component_count,
                        hyperdet222, mrank, outer_product, parse_stratum,
                        path_verify, sample_fixed_mrank, sample_rank_r,
                        sample_sym_mrank, sample_sym_rank_r, sym_embed,
                        sym_power, sym_tucker_compress)
import tensortopo
from tensortopo.classifiers import ComponentLabel, classify, classify_brank3_222
from tensortopo.core import DEFAULT_TOL, RankOneFactors
from tensortopo.io import dumps_canonical
from tensortopo.kinds import Kind, kind_of
from tensortopo import paths as paths_module
from tensortopo.paths import (ConjPairSegment, TensorPath, TuckerCurve,
                              chebyshev_grid, eigen_core_track, gl_core_track,
                              value_diff_norm)
from tensortopo.rng import derive_seed

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


def test_brank3_grid_takes_one_hyperdet_and_one_pencil_svd(monkeypatch):
    """path_verify labels a border-rank-three grid from the signs member
    read, with one hyperdet222 call, and one batched pencil SVD beside the
    three batched flattening SVDs of mrank_stack."""
    rng = SplitMix64(216)
    a = _brank3_with_label(rng, "sign-triple:-+-")
    b = _brank3_with_label(rng, "sign-triple:-+-")
    path = connect_brank3_222(a, b)
    calls = {"hyperdet222": 0, "svd": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    hyperdet = counted("hyperdet222", hyperdet222)
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("tensortopo")
                and getattr(module, "hyperdet222", None) is hyperdet222):
            monkeypatch.setattr(module, "hyperdet222", hyperdet)
    monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    report = path_verify(path)
    assert report.passed and report.label == "sign-triple:-+-"
    assert len(report.samples) > 60
    assert calls == {"hyperdet222": 1, "svd": 4}


def test_brank3_cross_label_refused():
    rng = SplitMix64(215)
    a = _brank3_with_label(rng, "sign-triple:+++")
    b = _brank3_with_label(rng, "sign-triple:-+-")
    with pytest.raises(DifferentComponents) as info:
        connect_brank3_222(a, b)
    assert {str(info.value.label_a), str(info.value.label_b)} == \
        {"sign-triple:+++", "sign-triple:-+-"}


def test_brank3_band_census_is_consistent():
    """The census whose trial-29 to trial-32 path once dipped into the
    boundary band (Delta / ||A||^4 down to -5.5e-11) is consistent, and that
    path stays below -1e-10 at every one of 2001 points."""
    seed = 7282308498411798183
    st = parse_stratum("brank:r=3;shape=2,2,2;field=real")
    report = census(st, 200, seed)
    assert report.verdict == "consistent"
    assert report.within_attempts == report.within_passes == 76
    (a, _), (b, _) = kind_of(st).draws(
        st, [SplitMix64(derive_seed(seed, i)) for i in (29, 32)], DEFAULT_TOL)
    path = connect(st, a, b)
    values = path.values(np.linspace(0.0, 1.0, 2001))
    ratio = hyperdet222(values) / np.linalg.norm(values.reshape(-1, 8), axis=1) ** 4
    assert ratio.max() < -1e-10


def _conj_pair_mats(rng):
    """The [Re x_i | Im x_i] matrices of three random complex 2-vectors."""
    x = rng.normals((3, 2)) + 1j * rng.normals((3, 2))
    return tuple(np.column_stack([v.real, v.imag]) for v in x)


def _conj_pair_segments(seed, count):
    """ConjPairSegments between random conjugate pairs whose mode matrices
    have equal determinant signs at both ends."""
    rng = SplitMix64(seed)
    out = []
    for _ in range(count):
        m0, m1 = _conj_pair_mats(rng), _conj_pair_mats(rng)
        m1 = tuple(M1 if np.linalg.det(M0) * np.linalg.det(M1) > 0 else M1[:, ::-1]
                   for M0, M1 in zip(m0, m1))
        out.append(ConjPairSegment(m0, m1))
    return out


def test_conj_pair_closed_form_keeps_ends_signs_and_the_short_arc():
    """The closed form rebuilds both ends' mode matrices to 1e-12 relative,
    keeps each mode's determinant sign on a dense grid, and after the
    short-arc flips the V turns sum to at most pi/2 in size."""
    ss = np.linspace(0.0, 1.0, 2001)
    sums = []
    for seg in _conj_pair_segments(71, 200):
        ends = seg.mode_matrices([0.0, 1.0])
        for got, want in zip(ends, (seg.mats0, seg.mats1)):
            want = np.array(want)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        dets = np.linalg.det(seg.mode_matrices(ss))
        assert (np.sign(dets) == np.sign(np.linalg.det(np.array(seg.mats0)))).all()
        sums.append(seg.v_turns.sum())
    assert np.abs(sums).max() <= np.pi / 2
    # the raw turns of independent ends would sum past pi/2 about half the time
    assert np.abs(sums).max() > 1.0


def test_conj_pair_margin_identity():
    """Along conj-pair segments, Delta(A) / ||A||^4 is
    -1/4 prod rho_i^2 / (1 + cos(2 sum beta_i) prod sqrt(1 - rho_i^2))^2,
    read off each mode matrix's SVD M_i = U_i S_i R(beta_i)^T. It holds to
    1e-9 relative where |Delta| / ||A||^4 >= 1e-6; below that, the rounding
    of hyperdet222's cancelling terms (about eps ||A||^4) dominates, and it
    holds to 1e-14 absolute."""
    ss = np.linspace(0.0, 1.0, 41)
    for seg in _conj_pair_segments(72, 40):
        M = seg.mode_matrices(ss)
        values = seg.values(ss)
        _U, s, Vh = np.linalg.svd(M)
        V = np.swapaxes(Vh, -1, -2)
        V[np.linalg.det(V) < 0, :, 1] *= -1.0
        beta = np.arctan2(V[..., 1, 0], V[..., 0, 0])
        rho = 2.0 * s[..., 0] * s[..., 1] / (s[..., 0] ** 2 + s[..., 1] ** 2)
        identity = -0.25 * np.prod(rho ** 2, axis=1) / (
            1.0 + np.cos(2.0 * beta.sum(axis=1)) * np.prod(np.sqrt(1.0 - rho ** 2), axis=1)) ** 2
        ratio = hyperdet222(values) / np.linalg.norm(values.reshape(-1, 8), axis=1) ** 4
        assert np.abs(identity - ratio).max() <= 1e-14
        clear = np.abs(ratio) >= 1e-6
        assert (np.abs(identity - ratio)[clear] <= 1e-9 * np.abs(ratio[clear])).all()


def test_paths_run_without_scipy():
    """No path needs scipy: with every scipy import made to fail, a
    same-label pair of a border-rank-three stratum, of a saturated-square
    multilinear-rank stratum (a gl_core_track), of a real 2x2 matrix
    stratum and of an order-2 symmetric stratum (an eigen_core_track)
    each connects and passes path_verify."""
    code = """
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import tensortopo as tt
from tensortopo.kinds import kind_of

def same_label_pair(text, seed):
    st = tt.parse_stratum(text)
    kind, rng = kind_of(st), tt.SplitMix64(seed)
    a, _ = kind.draws(st, [rng], tt.DEFAULT_TOL)[0]
    while True:
        b, _ = kind.draws(st, [rng], tt.DEFAULT_TOL)[0]
        la, lb = kind.labels(st, st.stack([a, b]), [None] * 2, tt.DEFAULT_TOL)
        if la == lb:
            return st, a, b

for text in ["brank:r=3;shape=2,2,2;field=real", "mrank:r=4,2,2;shape=4,2,2;field=real",
             "mrank:r=2,2;shape=2,2;field=real", "sym-mrank:d=2;n=4;r=3;field=real"]:
    st, a, b = same_label_pair(text, 9)
    assert tt.path_verify(tt.connect(st, a, b, rng=tt.SplitMix64(10))).passed, text
"""
    root = os.path.dirname(os.path.dirname(tensortopo.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [root] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


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
    assert (str(info.value.label_a), str(info.value.label_b)) == (
        str(classify(st, a)), str(classify(st, b)))


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


def test_mrank_mixed_case_refuses_only_different_labels():
    """Both roomy modes of (4,2,2) in (4,3,3) have the even flip exponent
    2: every refusal is between two different labels, each a
    ComponentLabel, and every other pair connects."""
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
            assert isinstance(exc.label_a, ComponentLabel)
            assert isinstance(exc.label_b, ComponentLabel)
            assert exc.label_a != exc.label_b
            assert (exc.label_a, exc.label_b) == (classify(st, a), classify(st, b))
            outcomes["diff"] += 1
    assert outcomes["pass"] + outcomes["diff"] == 6
    assert outcomes["diff"] > 0


@pytest.mark.parametrize("K", [0, -3])
def test_path_verify_refuses_a_sample_count_below_one(K):
    """A grid of K < 1 samples would certify only the ends and joints."""
    rng = SplitMix64(224)
    a, _ = sample_rank_r((3, 3, 3), 1, REAL, rng)
    b, _ = sample_rank_r((3, 3, 3), 1, REAL, rng)
    path = connect(parse_stratum("rank:r=1;shape=3,3,3;field=real"), a, b)
    for verify in (lambda: path_verify(path, K),
                   lambda: paths_module.verify_paths([path], K)):
        with pytest.raises(ValueError) as info:
            verify()
        assert str(info.value) == f"K must be at least 1, got {K}"


def test_mrank_validates_endpoints():
    from tensortopo import ToleranceError
    rng = SplitMix64(223)
    a, _ = sample_fixed_mrank((3, 3, 3), (2, 2, 2), REAL, rng)
    full, _ = sample_fixed_mrank((3, 3, 3), (3, 3, 3), REAL, rng)
    with pytest.raises(ToleranceError):
        connect_mrank(a, full, (2, 2, 2))


# SHA-256 of the canonical connect + path_verify documents (or refusals) of
# four pairs per stratum drawn from SplitMix64(250), recorded when the loops
# were still chosen by elimination over GF(2): two strata with two square
# modes, one whose every rank is 1, and one whose mismatches no loop can mend.
# Three were re-pinned when the sign rule of classifiers.mrank_sign_mode
# settled their labels: the samples of the two odd-exponent strata are
# labelled single, and the refusals of (2,2,1) in (2,2,3) carry the record's
# labels.
MRANK_LOOP_DIGESTS = {
    # re-pinned with so_rotation_path a Givens product: the core track
    # rotates through it, and margins moved in the last bits
    "mrank:r=2,2,1;shape=3,2,2;field=real":
        "93c28df5779ae3e704ef1aeec7e1aedd3770633e3badb989e64766a3e842a88d",
    # re-pinned with so_rotation_path a Givens product, as above
    "mrank:r=3,3,1;shape=3,4,2;field=real":
        "a36c3ffea5a85c1e7e8e9454e34705f5d6a13c02ea7c692182d1c9e3da199711",
    "mrank:r=1,1,1;shape=2,3,2;field=real":
        "d9147d4f9d786dc61e879f3e0f55db28d500042e2eabc7b3a306a2e24ed776a9",
    # re-pinned with so_rotation_path a Givens product, as above
    "mrank:r=2,2,1;shape=2,2,3;field=real":
        "b870c5ed6a33092f5b3d597cbf1d680ae82ca46e8efc778d31a8164bba85c34b",
}


def _mrank_loop_outcomes(text):
    st = parse_stratum(text)
    rng = SplitMix64(250)
    outcomes = []
    for i in range(4):
        a, _ = kind_of(st).draws(st, [rng], TolerancePolicy())[0]
        b, _ = kind_of(st).draws(st, [rng], TolerancePolicy())[0]
        try:
            path = connect(st, a, b, rng=SplitMix64(i))
        except DifferentComponents as exc:
            outcomes.append({"refused": str(exc)})
            continue
        outcomes.append({"path": path.to_json(), "report": path_verify(path).to_json()})
    return outcomes


@pytest.mark.parametrize("text", sorted(MRANK_LOOP_DIGESTS))
def test_mrank_loop_documents_are_pinned(text):
    doc = dumps_canonical(_mrank_loop_outcomes(text))
    assert hashlib.sha256(doc.encode()).hexdigest() == MRANK_LOOP_DIGESTS[text]


def test_mrank_unmendable_mismatch_refusal_is_pinned():
    """Both square modes saturated, and the roomy mode's flip exponent (the
    other square rank, 2) is even: no loop mends the mismatch, and the
    refusal carries the record's two labels."""
    refusals = [o for o in _mrank_loop_outcomes("mrank:r=2,2,1;shape=2,2,3;field=real")
                if "refused" in o]
    assert refusals == [{
        "refused": f"endpoints carry different component labels: {a} vs {b} "
                   "(square flattening determinant signs differ)"}
        for a, b in (("sign:-", "sign:+"), ("sign:+", "sign:-"))]


@pytest.mark.parametrize("text", sorted(MRANK_LOOP_DIGESTS)
                         + ["mrank:r=4,2,2;shape=5,2,2;field=real",
                            "mrank:r=4,2,2;shape=4,3,3;field=real"])
def test_mrank_paths_take_at_most_one_flip_loop(text):
    loops = [sum(seg["kind"] == "flip-loop" for seg in o["path"]["segments"])
             for o in _mrank_loop_outcomes(text) if "path" in o]
    assert loops and max(loops) <= 1


@pytest.mark.parametrize("shape, ranks", [((3, 3, 3), (2, 2, 2)),
                                          ((5, 2, 2), (4, 2, 2)),
                                          ((3, 3, 2, 2), (2, 2, 2, 2))])
def test_mrank_endpoint_stage_reads_each_flattening_once(shape, ranks, monkeypatch):
    """The judge's batched rank read (d SVDs) and one Tucker compression of
    both endpoints on those ranks (d more) come before the first frame
    geodesic: 2d SVD calls, not a second rank read per endpoint."""
    rng = SplitMix64(251)
    a, _ = sample_fixed_mrank(shape, ranks, REAL, rng)
    b, _ = sample_fixed_mrank(shape, ranks, REAL, rng)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *args, **kw: calls.append(1) or svd(*args, **kw))
    before_geodesic = []
    geodesic = paths_module.GrassmannGeodesic

    def first_geodesic(*args):
        if not before_geodesic:
            before_geodesic.append(len(calls))
        return geodesic(*args)

    monkeypatch.setattr(paths_module, "GrassmannGeodesic", first_geodesic)
    connect_mrank(a, b, ranks, rng=SplitMix64(252))
    assert before_geodesic == [2 * len(shape)]


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


def test_sym_mrank_order_2_grid_takes_one_eigvalsh(monkeypatch):
    """path_verify labels a quadratic-form path's whole grid with one
    batched eigvalsh."""
    rng = SplitMix64(226)
    st = parse_stratum("sym-mrank:d=2;n=4;r=2;field=real")
    a = sample_sym_mrank(4, 2, 2, rng=rng)
    while True:
        b = sample_sym_mrank(4, 2, 2, rng=rng)
        if classify(st, b) == classify(st, a):
            break
    path = connect(st, a, b, rng=SplitMix64(17))
    label = str(classify(st, a))
    stacks = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda M: stacks.append(M.shape) or eigvalsh(M))
    report = path_verify(path, K=16)
    assert report.passed and report.label == label
    assert stacks == [(len(report.samples), 4, 4)]


def test_sym_mrank_higher_order_connects():
    rng = SplitMix64(225)
    st = parse_stratum("sym-mrank:d=3;n=4;r=2;field=real")
    a = sample_sym_mrank(4, 3, 2, rng=rng)
    b = sample_sym_mrank(4, 3, 2, rng=rng)
    path = connect(st, a, b, rng=SplitMix64(15))
    assert_connects(path, a, b)


def test_sym_mrank_endpoint_stage_takes_one_rank_read_and_one_frame_svd(monkeypatch):
    """The judge's rank read of both endpoints (one SVD without vectors)
    and one shared-frame compression of both on those ranks (one with)
    come before the frame geodesic."""
    rng = SplitMix64(227)
    a = sample_sym_mrank(4, 3, 2, rng=rng)
    b = sample_sym_mrank(4, 3, 2, rng=rng)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: calls.append(
        kw.get("compute_uv", True)) or svd(*args, **kw))
    before_geodesic = []
    geodesic = paths_module.GrassmannGeodesic

    def first_geodesic(*args):
        if not before_geodesic:
            before_geodesic.append(list(calls))
        return geodesic(*args)

    monkeypatch.setattr(paths_module, "GrassmannGeodesic", first_geodesic)
    connect(parse_stratum("sym-mrank:d=3;n=4;r=2;field=real"), a, b,
            rng=SplitMix64(18))
    assert before_geodesic == [[False, True]]


def test_sym_mrank_refuses_a_non_member_endpoint():
    rng = SplitMix64(228)
    a = sample_sym_mrank(4, 3, 2, rng=rng)
    wide = sample_sym_mrank(4, 3, 3, rng=rng)
    with pytest.raises(ToleranceError,
                       match="endpoints do not both have symmetric multilinear rank 2"):
        connect_sym_mrank(a, wide, 2)


def test_sym_mrank_rank_one_delegates():
    st = parse_stratum("sym-mrank:d=3;n=4;r=1;field=real")
    a = sym_power(np.array([1.0, 0.5, -2.0, 0.1]), 3, 1.2)
    b = sym_power(np.array([-1.0, 0.7, 0.4, 2.0]), 3, -0.6)
    path = connect(st, a, b, rng=SplitMix64(16))
    assert path.stratum.kind == "sym-mrank"
    assert assert_connects(path, a, b).stratum == str(st)


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


# SHA-256 of each family path's path_verify grid (its values stacked in t
# order) and of its canonical report, recorded when the grid was still
# evaluated one sample at a time, and of its canonical path document,
# recorded when tracks were still tagged tuples. The brank3 entry was
# recorded anew when the conjugate-pair segment became a closed form with
# the short-arc rule and its end factors came from the labelled-term pass.
# The grid and report of mrank-flip-loop and sym-mrank-order-2 were recorded
# anew when so_rotation_path became a Givens product, which their gl and
# eigen core tracks rotate through; their path documents did not move.
FAMILY_GRID_DIGESTS = {
    "rank-one": ("ff8b28cbd25b0aec755fa8ab25e70d6c9035ad3a65e704bda99085713de1dac5",
                 "48f90068cc9dce570c1039cc6c02765caaae80bd6c379c4b109288bb1c765921",
                 "4c918c85fd18ba6875fae507569aeb23d96571ef91895701207919ed883e37f7"),
    "rank-one-complex": ("20a1e6e3f92a5e93ee57dffe74c3031d686b60870d543ae08b3ba45b95371b06",
                         "6ec97c9899bcdcc2b93fadc22fb02647c98e6530e756b5f3ec208be8ef6bb3b1",
                         "c3f2e160b421d1e3bf5d908d8d8eba0c9dffde58410f301c319995966cd04cce"),
    "rank-2": ("677aac1e47859581f28d2a21127d1c763f06b68f821c167a9d476b0ad58c9a81",
               "4af61d309398d087b223973e8165d68c80e8122af1953d30d3f18713ec828fcc",
               "6a59e06d7f03c334cbc36fa5002547ca88ee9f6cc889c3aa21d1baaf1f6a87c7"),
    "sym-rank": ("55382d278e29dc5c47e79552fcbed4f07a7d33841363754ec1de9237b5f52d8d",
                 "f246775ddabcff5d391809ee3db0c8e41d976e142d710512099f2bc46e861930",
                 "ec4c0b203d43c93fe39ee0df8b4a0b4320cd5311958d8f6bdc13f7d9fd344096"),
    "mrank-flip-loop": ("e7171c4cfbf9faf36e7e4f74c62fea318fc1c4d785ff4ee657535b42a7da6a24",
                        "a5f3130cb9965dd4731389d887f65b11c03c8871c165ee1913282a17835c8539",
                        "54a37b26e944b9266e717e5b1d187b224a8d6f9ef378dc73bee5f407aed70cb7"),
    "sym-mrank-order-2": ("99999047ca97400749ed637dba3ede433e90dcbe7bedcdf4a6ab0b1f676a52c3",
                          "8c25752f01ba9d65a95d8f3de08cad772954ef24a34537295d2a9203a598f798",
                          "eda07b3e358a6a5b161f65684755b63a82aa0613800018f9e9d1bdd9ea4cfeb5"),
    "brank3": ("3a897cfbe50bb65f713d43a78c4afc05d0b917ae320a13822b348952e5b35a1b",
               "0c677604b5fbab205d04e1b5d6d7449a27c75eb8da5427d7fdf072bfbd333d14",
               "af17227523efc1f500bc3596afedd7f3f8fa820565b6a0a52d06f3e3f10c8a20"),
}


@pytest.mark.parametrize("name", sorted(FAMILY_GRID_DIGESTS))
def test_segment_family_grids_are_pinned(name):
    path, _allowed, _required = _family_case(name)
    ts = sorted(set([0.0, 1.0] + chebyshev_grid(64) + path.joints()))
    stack = path.values(ts)
    for t, row in zip(ts, stack):  # values([s]) is the one-point case
        one = path.eval(t)
        assert np.array_equal(row, one.packed if isinstance(one, SymTensor) else one.data)
    grid, report, document = FAMILY_GRID_DIGESTS[name]
    assert hashlib.sha256(np.ascontiguousarray(stack).tobytes()).hexdigest() == grid
    doc = dumps_canonical(path_verify(path).to_json())
    assert hashlib.sha256(doc.encode()).hexdigest() == report
    doc = dumps_canonical(path.to_json())
    assert hashlib.sha256(doc.encode()).hexdigest() == document


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


ENDPOINT_STRATA = ["rank:r=1;shape=3,4,5;field=real",
                   "rank:r=1;shape=3,4,5;field=complex",
                   "rank:r=2;shape=3,3,3;field=real",
                   "rank:r=2;shape=3,3,3;field=complex",
                   "brank:r=3;shape=2,2,2;field=real",
                   "sym-rank:d=4;n=3;r=1;field=real",
                   "sym-rank:d=4;n=3;r=1;field=complex",
                   "sym-rank:d=3;n=3;r=2;field=real",
                   "sym-rank:d=3;n=3;r=2;field=complex",
                   "mrank:r=2,2,2;shape=3,3,3;field=real",
                   "mrank:r=2,2,2;shape=3,3,3;field=complex",
                   "sym-mrank:d=3;n=3;r=2;field=real",
                   "sym-mrank:d=3;n=3;r=2;field=complex"]


@pytest.mark.parametrize("text", ENDPOINT_STRATA)
def test_connect_without_witnesses_matches_both_endpoints(text):
    st = parse_stratum(text)
    rng = SplitMix64(3)
    pending = {}
    pairs = 0
    while pairs < 4:
        value, _witness = kind_of(st).draws(st, [rng], TolerancePolicy())[0]
        try:
            label = str(classify(st, value))
        except UnsupportedStratumError:
            label = "unlabeled"
        if label not in pending:
            pending[label] = value
            continue
        a = pending.pop(label)
        # connect raises ToleranceError if an end misses; check it here too
        path = connect(st, a, value, rng=SplitMix64(pairs))
        for t, end in ((0.0, a), (1.0, value)):
            assert value_diff_norm(path.eval(t), end) <= 1e-10 * end.norm()
        pairs += 1


def test_connect_refuses_a_witness_that_misses_its_endpoint():
    rng = SplitMix64(235)
    st = parse_stratum("sym-rank:d=3;n=3;r=2;field=complex")
    Sa, _da = sample_sym_rank_r(3, 3, 2, field=COMPLEX, rng=rng)
    Sb, db = sample_sym_rank_r(3, 3, 2, field=COMPLEX, rng=rng)
    _Sc, dc = sample_sym_rank_r(3, 3, 2, field=COMPLEX, rng=rng)
    # dc is the decomposition of another tensor, so the path starts off Sa
    with pytest.raises(ToleranceError, match="misses its endpoint at t=0"):
        connect(st, Sa, Sb, witness_a=dc, witness_b=db, rng=SplitMix64(7))


TERM_SUM_PAIRS = {
    "rank:r=2;shape=3,3,3;field=real":
        lambda rng: sample_rank_r((3, 3, 3), 2, REAL, rng)[0],
    "sym-rank:d=4;n=4;r=2;field=real":
        lambda rng: sample_sym_rank_r(4, 4, 2, signature=1, rng=rng)[0],
}


@pytest.mark.parametrize("text", sorted(TERM_SUM_PAIRS))
def test_connect_hands_path_verify_its_report(text, monkeypatch):
    st = parse_stratum(text)
    rng = SplitMix64(237)
    a, b = TERM_SUM_PAIRS[text](rng), TERM_SUM_PAIRS[text](rng)
    path = connect(st, a, b, rng=SplitMix64(238))
    assert len(path.segments) == 1
    reads = []
    judge = Kind.judge
    monkeypatch.setattr(Kind, "judge",
                        lambda rule, stratum, stack, tol: reads.append(len(stack))
                        or judge(rule, stratum, stack, tol))
    report = path_verify(path)
    assert reads == []  # the connector's report, not a second certification
    fresh = path_verify(TensorPath(path.segments, path.stratum))
    assert report.passed
    assert (dumps_canonical(report.to_json())
            == dumps_canonical(fresh.to_json()))
    short = path_verify(path, K=16)
    assert len(short.samples) == 18  # 16 Chebyshev nodes and both ends
    assert reads == [66, 18]
