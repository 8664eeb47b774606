import functools

import numpy as np
import pytest

from tensortopo import (COMPLEX, DEFAULT_TOL, REAL, DegenerateError,
                        Hypermatrix, SplitMix64, SymRankDecomposition,
                        SymTensor, ToleranceError,
                        UnsupportedStratumError, connect,
                        expected_component_count, flatten, hyperdet222,
                        mode_multiply, parse_stratum, random_invertible,
                        sample_rank_r, sample_sym_rank_r, sym_extract,
                        sym_power)
from tensortopo.certify import (Kind222, brank3_conj_pair, classify_222,
                                conj_pair_factors)
from tensortopo.classifiers import (ComponentLabel, brank3_labels, classify,
                                    classify_brank3_222, det_sign_mrank,
                                    mrank_sign_mode, orientation_area,
                                    sign_label, sign_triple_label,
                                    square_mode, sym_matrix_signatures,
                                    sym_sign_rank1, sym_signature,
                                    sym_signs_rank1)
from tensortopo.kinds import kind_of

ALL_TRIPLES = {"sign-triple:+++", "sign-triple:+--",
               "sign-triple:-+-", "sign-triple:--+"}


def _conj_pair_example():
    a = np.zeros((2, 2, 2))
    a[0, 0, 0] = 1.0
    a[1, 1, 0] = 1.0
    a[0, 1, 1] = -1.0
    a[1, 0, 1] = 1.0
    return Hypermatrix(a, REAL)


def test_component_label_strings():
    assert str(ComponentLabel("single")) == "single"
    assert str(ComponentLabel("sign", "+")) == "sign:+"
    assert str(ComponentLabel("signature", 2)) == "signature:2"
    assert ComponentLabel("sign", "+").to_json() == {"kind": "sign", "value": "+"}
    assert ComponentLabel("single").to_json() == {"kind": "single", "value": None}


def test_sign_label():
    assert str(sign_label(3.5)) == "sign:+"
    assert str(sign_label(-0.1)) == "sign:-"


def test_sign_triple_label_product_is_positive():
    assert str(sign_triple_label(1.0, -2.0, -3.0)) == "sign-triple:+--"
    assert str(sign_triple_label(1.0, 1.0, 1.0)) == "sign-triple:+++"


def test_orientation_area():
    x = np.array([1.0 + 0j, 1j])
    assert orientation_area(x) == pytest.approx(1.0)
    assert orientation_area(np.conj(x)) == pytest.approx(-1.0)


def test_conj_pair_example_label():
    assert str(classify_brank3_222(_conj_pair_example())) == "sign-triple:--+"


def test_sign_triple_labels_cover_four_values():
    rng = SplitMix64(81)
    seen = set()
    for _ in range(300):
        T = Hypermatrix(rng.normals((2, 2, 2)), REAL)
        if hyperdet222(T) >= 0:
            continue
        try:
            seen.add(str(classify_brank3_222(T)))
        except ToleranceError:
            continue
        if seen == ALL_TRIPLES:
            break
    assert seen == ALL_TRIPLES


def test_classify_brank3_rejects_positive_hyperdet():
    diag = np.zeros((2, 2, 2))
    diag[0, 0, 0] = 1.0
    diag[1, 1, 1] = 1.0
    with pytest.raises(ToleranceError):
        classify_brank3_222(Hypermatrix(diag, REAL))


def test_hyperdet_relative_invariance():
    """Det scales by the product of squared determinants under the group."""
    rng = SplitMix64(82)
    for _ in range(25):
        T = Hypermatrix(rng.normals((2, 2, 2)), REAL)
        gs = [random_invertible(2, rng, REAL) for _ in range(3)]
        moved = Hypermatrix(mode_multiply(T.data, gs), REAL)
        factor = float(np.prod([np.linalg.det(g) ** 2 for g in gs]))
        assert hyperdet222(moved) == pytest.approx(factor * hyperdet222(T),
                                                   rel=1e-8)


def test_sign_triple_invariant_under_positive_group():
    rng = SplitMix64(83)
    done = 0
    while done < 25:
        T = Hypermatrix(rng.normals((2, 2, 2)), REAL)
        if hyperdet222(T) > -1e-3 * T.norm() ** 4:
            continue
        before = str(classify_brank3_222(T))
        gs = [random_invertible(2, rng, REAL, det_sign=1) for _ in range(3)]
        moved = Hypermatrix(mode_multiply(T.data, gs), REAL)
        assert str(classify_brank3_222(moved)) == before
        done += 1


def test_sym_sign_rank1():
    v = np.array([1.0, 2.0, -1.0])
    assert str(sym_sign_rank1(sym_power(v, 4, 2.0))) == "sign:+"
    assert str(sym_sign_rank1(sym_power(v, 4, -2.0))) == "sign:-"
    with pytest.raises(UnsupportedStratumError):
        sym_sign_rank1(sym_power(v, 3))


def test_sym_signs_rank1_label_a_stack_as_sym_sign_rank1_labels_each_row():
    """One diagonal gather labels a stack of even-order symmetric tensors
    as sym_sign_rank1 labels each one, a refused row with its message; the
    record of even-order symmetric multilinear rank one labels so too."""
    rng = SplitMix64(89)
    e1, e2 = np.eye(3)[0], np.eye(3)[1]
    tensors = [sym_power(rng.normals((3,)), 4, c) for c in (2.0, -0.5, 1e-3, -7.0)]
    tensors += [SymTensor(3, 4, REAL, sym_power(e1, 4).packed - sym_power(e2, 4).packed),
                SymTensor(3, 4, REAL, np.zeros_like(e1, shape=15))]
    packed = np.stack([S.packed for S in tensors])

    def alone(S):
        try:
            return sym_sign_rank1(S)
        except ToleranceError as exc:
            return exc

    st = parse_stratum("sym-mrank:d=4;n=3;r=1;field=real")
    for stacked in (sym_signs_rank1(packed, 3, 4),
                    kind_of(st).labels(st, packed, [None] * len(packed), DEFAULT_TOL)):
        got = [str(x) for x in stacked]
        assert got == [str(alone(S)) for S in tensors]
        assert got == ["sign:+", "sign:-", "sign:+", "sign:-"] + [
            "diagonal sum 0.000e+00 vanishes within tolerance; "
            "input is not in the rank-one stratum"] * 2
        assert all(isinstance(x, ToleranceError) for x in stacked[4:])


def test_sym_signature_from_decomposition():
    rng = SplitMix64(84)
    _, dec = sample_sym_rank_r(4, 4, 2, signature=1, rng=rng)
    assert str(sym_signature(dec)) == "signature:1"
    zero = SymRankDecomposition(4, (0.0, -1.0), dec.vectors, REAL)
    with pytest.raises(ToleranceError, match="zero term in decomposition"):
        sym_signature(zero)


def test_sym_matrix_signatures_label_or_refuse_each_form():
    """One eigvalsh labels a stack of quadratic forms; a form whose rank is
    not r, and the zero form, get their refusals. classify gives each
    member its label and refuses the two non-members through the judge."""
    st = parse_stratum("sym-mrank:d=2;n=3;r=2;field=real")
    forms = [np.diag([2.0, -1.0, 0.0]), np.diag([1.0, 3.0, 1e-20]),
             np.diag([-1.0, 0.0, 0.0]), np.zeros((3, 3))]
    packed = np.stack([sym_extract(Hypermatrix(M, REAL)).packed for M in forms])
    labels = sym_matrix_signatures(packed, 3, 2, DEFAULT_TOL)
    assert [str(label) for label in labels] == [
        "signature:1", "signature:2",
        "eigenvalue signature (0, 1) does not witness rank 2",
        "zero matrix has no signature"]
    for row, label in zip(packed, labels):
        form = SymTensor(3, 2, REAL, row)
        if isinstance(label, ToleranceError):
            with pytest.raises(ToleranceError, match="not a member of sym-mrank"):
                classify(st, form)
        else:
            assert classify(st, form) == label


def test_det_sign_mrank():
    rng = SplitMix64(85)
    M = random_invertible(3, rng, REAL, det_sign=-1)
    A = Hypermatrix(M, REAL)
    assert str(det_sign_mrank(A, 1)) == "sign:-"
    assert str(det_sign_mrank(A, 2)) == "sign:-"
    with pytest.raises(UnsupportedStratumError):
        det_sign_mrank(Hypermatrix(rng.normals((2, 3)), REAL), 1)
    with pytest.raises(ToleranceError):
        det_sign_mrank(Hypermatrix(np.diag([1.0, 1e-14]), REAL), 1)


# classifiers.mrank_sign_mode's answer and the predicted component count:
# the sign mode is a square mode (n_i = r_i = prod of the other ranks) whose
# roomy modes (n_j > r_j) all have an even flip exponent
SIGN_MODE_CASES = [
    # no saturated square mode: connected
    ("mrank:r=2,2,2;shape=3,3,3;field=real", None, 1),
    # the square mode itself has ambient room
    ("mrank:r=4,2,2;shape=5,2,2;field=real", None, 1),
    ("mrank:r=2,2;shape=3,3;field=real", None, 1),
    # saturated square: no roomy mode
    ("mrank:r=4,2,2;shape=4,2,2;field=real", 1, 2),
    ("mrank:r=2,2;shape=2,2;field=real", 1, 2),
    # roomy modes, every flip exponent even
    ("mrank:r=4,2,2;shape=4,3,2;field=real", 1, 2),
    ("mrank:r=4,2,2;shape=4,3,3;field=real", 1, 2),
    ("mrank:r=2,4,2;shape=3,4,2;field=real", 2, 2),
    ("mrank:r=2,2,1;shape=2,2,3;field=real", 1, 2),
    # some roomy mode with an odd flip exponent: an orientation loop there
    # joins the two signs
    ("mrank:r=6,2,3;shape=6,3,3;field=real", None, 1),
    ("mrank:r=2,2,1;shape=3,2,2;field=real", None, 1),
    ("mrank:r=3,3,1;shape=3,4,2;field=real", None, 1),
    # over C every stratum is connected
    ("mrank:r=4,2,2;shape=4,3,2;field=complex", None, 1),
]


@pytest.mark.parametrize("text,mode,count", SIGN_MODE_CASES)
def test_mrank_sign_mode(text, mode, count):
    st = parse_stratum(text)
    assert mrank_sign_mode(st) == mode
    assert expected_component_count(st) == count


def _compressed_sign(A, ranks, mode, reflected=None):
    """The sign of det of A's mode-``mode`` flattening (1-based) once each
    roomy mode is compressed onto an orthonormal frame of its column space,
    read by hand: the frame of 0-based mode ``reflected`` is turned by
    diag(-1, 1, ...)."""
    mats = []
    for j, (n, r) in enumerate(zip(A.shape, ranks)):
        if n == r:
            mats.append(None)
            continue
        F = np.linalg.svd(flatten(A, j + 1))[0][:, :r]
        if j == reflected:
            F = F * np.array([-1.0] + [1.0] * (r - 1))
        mats.append(F.T)
    core = Hypermatrix(mode_multiply(A.data, mats), REAL)
    return "+" if np.linalg.det(flatten(core, mode)) > 0 else "-"


@pytest.mark.parametrize("text,reflected,flips", [
    # flip exponents 2 and 2: no reflection changes the sign
    ("mrank:r=4,2,2;shape=4,3,3;field=real", 1, False),
    ("mrank:r=4,2,2;shape=4,3,3;field=real", 2, False),
    # flip exponent 3 at mode 2, the one roomy mode: the reflection there
    # flips the sign, so the sign labels nothing
    ("mrank:r=6,2,3;shape=6,3,3;field=real", 1, True),
])
def test_frame_reflection_flips_the_sign_only_at_odd_exponents(text, reflected, flips):
    st = parse_stratum(text)
    draws = kind_of(st).draws(st, [SplitMix64(89 + k) for k in range(6)], DEFAULT_TOL)
    for A, _w in draws:
        sign = _compressed_sign(A, st.rank, 1)
        assert (_compressed_sign(A, st.rank, 1, reflected) != sign) is flips
        assert str(classify(st, A)) == ("single" if mrank_sign_mode(st) is None
                                        else f"sign:{sign}")


def test_two_square_modes_give_one_label():
    """(2,2,1) in (2,2,3) has two saturated square modes; after the roomy
    third mode is compressed, their flattenings are one 2x2 matrix and its
    transpose, so either one's sign is the label."""
    st = parse_stratum("mrank:r=2,2,1;shape=2,2,3;field=real")
    draws = kind_of(st).draws(st, [SplitMix64(95 + k) for k in range(8)], DEFAULT_TOL)
    labels = set()
    for A, _w in draws:
        first, second = (_compressed_sign(A, st.rank, mode) for mode in (1, 2))
        assert first == second
        assert str(classify(st, A)) == f"sign:{first}"
        labels.add(first)
    assert labels == {"+", "-"}


def test_square_mode_is_one_based():
    assert square_mode(parse_stratum("mrank:r=4,2,2;shape=4,2,2;field=real")) == 1
    assert square_mode(parse_stratum("mrank:r=2,2;shape=2,2;field=real")) == 1
    assert square_mode(parse_stratum("mrank:r=2,2,2;shape=3,3,3;field=real")) is None


def test_classify_complex_is_single():
    rng = SplitMix64(86)
    T, _ = sample_rank_r((2, 2, 2), 2, COMPLEX, rng)
    label = classify(parse_stratum("rank:r=2;shape=2,2,2;field=complex"), T)
    assert str(label) == "single"


def test_classify_dispatch():
    rng = SplitMix64(87)

    T, _ = sample_rank_r((3, 4, 5), 1, REAL, rng)
    assert str(classify(parse_stratum("rank:r=1;shape=3,4,5;field=real"), T)) \
        == "single"

    label = classify(parse_stratum("brank:r=3;shape=2,2,2;field=real"),
                     _conj_pair_example())
    assert str(label) == "sign-triple:--+"

    S, dec = sample_sym_rank_r(4, 4, 2, signature=0, rng=rng)
    st = parse_stratum("sym-rank:d=4;n=4;r=2;field=real")
    assert str(classify(st, dec)) == "signature:0"
    assert str(classify(st, S)) == "signature:0"

    odd, _ = sample_sym_rank_r(4, 3, 2, rng=rng)
    assert str(classify(parse_stratum("sym-rank:d=3;n=4;r=2;field=real"), odd)) \
        == "single"


def test_classify_unsupported_cases():
    rng = SplitMix64(88)
    T, _ = sample_rank_r((3, 3, 3), 2, REAL, rng)
    with pytest.raises(UnsupportedStratumError):
        classify(parse_stratum("rank:r=2;shape=3,3,3;field=real"), T)
    # complex rank above the generic rank has no invariant, shown on a member
    above = parse_stratum("rank:r=3;shape=2,2,2;field=complex")
    (A, _w), = kind_of(above).draws(above, [rng], DEFAULT_TOL)
    with pytest.raises(UnsupportedStratumError):
        classify(above, A)


def test_classify_refuses_non_members():
    """A value the record's judge refuses gets ToleranceError, never a
    label: the zero and a rank-one tensor are not of multilinear rank
    (2, 2, 2), and a complex rank-one tensor is not of rank two."""
    rng = SplitMix64(90)
    st = parse_stratum("mrank:r=2,2,2;shape=3,3,3;field=real")
    one, _ = sample_rank_r((3, 3, 3), 1, REAL, rng)
    for value, ranks in ((Hypermatrix(np.zeros((3, 3, 3)), REAL), (0, 0, 0)),
                         (one, (1, 1, 1))):
        with pytest.raises(ToleranceError) as info:
            classify(st, value)
        assert str(info.value) == f"not a member of {st}: flattening ranks {ranks}"
    st = parse_stratum("rank:r=2;shape=3,3,3;field=complex")
    one, _ = sample_rank_r((3, 3, 3), 1, COMPLEX, rng)
    with pytest.raises(ToleranceError, match=f"not a member of {st}: flattening "
                       r"ranks \(1, 1, 1\)"):
        classify(st, one)


@pytest.mark.parametrize("text, value, given", [
    ("rank:r=1;shape=3,4,5;field=real", Hypermatrix(np.ones((2, 2, 2)), REAL),
     "a real Hypermatrix of shape (2, 2, 2)"),
    ("mrank:r=4,2,2;shape=4,3,3;field=real", Hypermatrix(np.ones((3, 3, 3)), REAL),
     "a real Hypermatrix of shape (3, 3, 3)"),
    ("rank:r=1;shape=2,2,2;field=real", Hypermatrix(np.ones((2, 2, 2)), COMPLEX),
     "a complex Hypermatrix of shape (2, 2, 2)"),
    ("sym-rank:d=4;n=3;r=1;field=real", sym_power(np.ones(2), 4),
     "a real SymTensor of dim 2 and order 4"),
    ("sym-mrank:d=2;n=3;r=1;field=real", Hypermatrix(np.eye(3), REAL),
     "a real Hypermatrix of shape (3, 3)"),
])
def test_classify_and_connect_refuse_a_value_of_another_form(text, value, given):
    """A value of another shape, dimension, order or field than the
    stratum's is a ValueError naming both forms, before any label or path."""
    st = parse_stratum(text)
    want = (f"a real Hypermatrix of shape {st.shape}" if st.dim is None
            else f"a real SymTensor of dim {st.dim} and order {st.order}")
    message = f"{st} takes {want}, not {given}"
    with pytest.raises(ValueError) as info:
        classify(st, value)
    assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        connect(st, value, value)
    assert str(info.value) == message


def _label_via_conj_pair(A):
    """The sign triple read off the complex rank-two decomposition of
    brank3_conj_pair: the reference the closed form must agree with."""
    if classify_222(A).kind is not Kind222.BORDER_RANK3:
        raise ToleranceError("not border-rank3")
    areas = [orientation_area(x) for x in brank3_conj_pair(A).factors]
    if min(abs(w) for w in areas) < 1e-6:
        raise ToleranceError("orientation area below gap_min")
    return sign_triple_label(areas[0] * areas[1], areas[0] * areas[2],
                             areas[1] * areas[2])


def _outcome(classifier, A):
    try:
        return str(classifier(A))
    except (ToleranceError, DegenerateError):
        return "raises"


@functools.lru_cache(maxsize=1)
def _closed_form_inputs():
    """Gaussian draws, samples along brank3 paths, and conjugate pairs whose
    factors approach real ones, so that Delta / ||A||^4 falls through the
    1e-10 band of classify_222."""
    rng = SplitMix64(90)
    inputs = [Hypermatrix(rng.normals((2, 2, 2)), REAL) for _ in range(5000)]
    st = parse_stratum("brank:r=3;shape=2,2,2;field=real")
    groups = {}
    for _ in range(48):
        A, _terms = sample_rank_r((2, 2, 2), 3, REAL, rng)
        groups.setdefault(str(classify_brank3_222(A)), []).append(A)
    for members in groups.values():
        for a, b in zip(members, members[1:]):
            path = connect(st, a, b)
            inputs += [path.eval(t) for t in np.linspace(0.0, 1.0, 57)]
    for k in range(2500):
        shrink = 10.0 ** (-7.0 * k / 2500)
        x, y, z = (rng.normals((2,)) + 1j * shrink * rng.normals((2,))
                   for _mode in range(3))
        T = complex(rng.normal(), rng.normal()) * np.multiply.outer(
            np.multiply.outer(x, y), z)
        inputs.append(Hypermatrix(2.0 * np.real(T), REAL))
    return inputs


def test_closed_form_sign_triple_agrees_with_the_conj_pair_route():
    inputs = _closed_form_inputs()
    assert len(inputs) >= 10_000
    outcomes = [(_outcome(_label_via_conj_pair, A),
                 _outcome(classify_brank3_222, A)) for A in inputs]
    differ = [i for i, (ref, got) in enumerate(outcomes) if ref != got]
    assert differ == []
    labels = [got for _ref, got in outcomes if got != "raises"]
    assert set(labels) == ALL_TRIPLES
    assert 1000 <= len(labels) <= len(inputs) - 1000


def _verdict(classifier, A):
    try:
        return str(classifier(A))
    except (ToleranceError, DegenerateError) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_stacked_labels_agree_with_the_per_sample_route():
    """brank3_labels labels a whole stack with one conjugate-pair pass; each
    tensor gets the label, or the refusal with its message, that
    classify_brank3_222 gives it alone."""
    inputs = _closed_form_inputs()
    assert len(inputs) >= 10_000
    stacked = brank3_labels(np.stack([A.data for A in inputs]))
    got = [str(out) if isinstance(out, ComponentLabel)
           else f"{type(out).__name__}: {out}" for out in stacked]
    want = [_verdict(classify_brank3_222, A) for A in inputs]
    assert [i for i, (g, w) in enumerate(zip(got, want)) if g != w] == []
    assert ALL_TRIPLES <= set(got)
    # inputs on the band's either side and inside it
    assert any(w.startswith("ToleranceError: classification is rank2") for w in want)
    assert any(w.startswith("ToleranceError: classification is boundary") for w in want)


def test_band_read_off_the_hyperdeterminant_matches_classify_222():
    """classify_brank3_222 tests the border-rank-three band on the
    hyperdeterminant alone; it refuses exactly the inputs classify_222 does
    not call border-rank3, and words each refusal with classify_222's kind."""
    one = Hypermatrix(np.multiply.outer(np.multiply.outer([1.0, 2.0], [3.0, -1.0]),
                                        [0.5, 1.0]), REAL)
    zero = Hypermatrix(np.zeros((2, 2, 2)), REAL)
    for A in _closed_form_inputs() + [one, zero]:
        kind = classify_222(A).kind
        try:
            got = str(classify_brank3_222(A))
        except (ToleranceError, DegenerateError) as exc:
            got = str(exc)
        if kind is Kind222.BORDER_RANK3:
            assert not got.startswith("classification is")
        else:
            assert got == (f"classification is {kind.value}, not border-rank3; "
                           "the sign-triple label does not apply")


def _area_reference(A: Hypermatrix) -> str | None:
    """The orientation-area rule for one tensor, written out as a loop over
    the modes of its conj_pair_factors: its refusal message, or None."""
    areas = [orientation_area(v) for v in conj_pair_factors(A)]
    if areas[0] < 0:
        areas = [-w for w in areas]
    for mode, w in enumerate(areas, start=1):
        if abs(w) < 1e-6:
            return (f"mode-{mode} orientation area {w:.3e} is below gap_min; "
                    "too close to the stratum boundary to classify")
    return None


def test_near_boundary_rows_get_the_one_tensor_messages():
    """Conjugate pairs with one factor turning real, labelled past the band
    test as path certification labels its members, cross the separation
    and area thresholds. In one stack each gets the label or the refusal,
    message for message, that it gets alone; a pencil refusal is the one
    conj_pair_factors raises on it, and an area refusal the one the
    per-tensor loop over modes words."""
    rng = SplitMix64(62)
    inputs = []
    for k in range(900):
        mode, shrink = k % 3, 10.0 ** (-3.0 - 5.0 * (k // 3) / 300)
        x, y, z = (rng.normals((2,)) + 1j * (shrink if m == mode else 1.0)
                   * rng.normals((2,)) for m in range(3))
        T = complex(rng.normal(), rng.normal()) * np.multiply.outer(
            np.multiply.outer(x, y), z)
        inputs.append(Hypermatrix(2.0 * np.real(T), REAL))
    below = np.full(len(inputs), -1)
    stacked = brank3_labels(np.stack([A.data for A in inputs]), DEFAULT_TOL, below)
    alone = [brank3_labels(A.data[None], DEFAULT_TOL, below[:1])[0] for A in inputs]
    assert [str(out) for out in stacked] == [str(out) for out in alone]
    messages = [(A, str(out)) for A, out in zip(inputs, stacked)
                if isinstance(out, ToleranceError)]
    for A, message in messages:
        if message.startswith("mode-"):
            assert message == _area_reference(A)
        else:
            with pytest.raises(ToleranceError) as refusal:
                conj_pair_factors(A)
            assert message == str(refusal.value)
    kinds = {message.split(" ")[0] for _A, message in messages}
    assert {"mode-1", "mode-2", "mode-3", "slice"} <= kinds
    assert ALL_TRIPLES <= {str(out) for out in stacked}
