import numpy as np
import pytest

import tensortopo.certify as certify_module
import tensortopo.classifiers as classifiers_module
import tensortopo.cli as cli_module
import tensortopo.core as core_module
import tensortopo.kinds as kinds_module
import tensortopo.paths as paths_module
from tensortopo import (COMPLEX, REAL, DegenerateError, Hypermatrix,
                        SplitMix64, ToleranceError, connect, parse_stratum,
                        path_verify, random_orthogonal, sample_rank_r,
                        sample_sym_rank_r)
from tensortopo.certify import is_rank_one
from tensortopo.classifiers import (_sym_rank2_witness, _sym_rank2_witnesses,
                                    classify, det_sign_mrank, square_mode,
                                    sym_signature)
from tensortopo.core import (DEFAULT_TOL, SymRankDecomposition, SymTensor,
                             mode_multiply, mrank_stack, sym_embed_stack,
                             sym_mrank_stack, sym_packed_length,
                             sym_power_stack)
from tensortopo.kinds import kind_of
from tensortopo.paths import (TensorPath, TermSumCurve, chebyshev_grid, const,
                              lerp)
from tensortopo.sampling import field_normals


def _near_rank_one(rng, shape, field, ratio):
    """Q1 (x) Q2 (x) Q3 applied to e1 (x) e1 (x) e1 + ratio e2 (x) e2 (x) e2:
    every flattening has singular values 1 and ``ratio``."""
    core = np.zeros(shape, dtype=np.complex128 if field == COMPLEX else np.float64)
    core[(0,) * len(shape)] = 1.0
    core[(1,) * len(shape)] = ratio
    frames = [random_orthogonal(n, rng, field) for n in shape]
    return Hypermatrix(mode_multiply(core, frames), field)


def test_rank_one_rule_is_the_rank_read():
    """r = 1 reads the flattening ranks alone, and agrees with is_rank_one
    where sigma_2 / sigma_1 straddles each mode's threshold size * eps_rel
    (20, 15 and 12 times 1e-10 on shape 3, 4, 5), and on the zero tensor."""
    rng = SplitMix64(301)
    for field in (REAL, COMPLEX):
        st = parse_stratum(f"rank:r=1;shape=3,4,5;field={field}")
        values = [Hypermatrix(np.zeros((3, 4, 5)), field)]
        values += [_near_rank_one(rng, (3, 4, 5), field, ratio)
                   for ratio in np.geomspace(5e-10, 5e-9, 60)]
        stack = np.stack([A.data for A in values])
        ranks, _margins = mrank_stack(stack)
        rule = kind_of(st).member(st, stack, ranks, DEFAULT_TOL)[0].tolist()
        assert rule == [is_rank_one(A)[0] for A in values]
        assert rule[0] is False and True in rule[1:] and False in rule[1:]


def _count_calls(monkeypatch, name, home=certify_module, note=None):
    """Count calls of ``home``'s ``name`` under every module name it could
    be called by, the kind records' included; each call records ``note()``."""
    calls = []
    fn = getattr(home, name)

    def wrapper(*args, **kwargs):
        calls.append(name if note is None else note())
        return fn(*args, **kwargs)

    for module in (certify_module, classifiers_module, cli_module, core_module,
                   kinds_module, paths_module):
        if getattr(module, name, None) is fn:
            monkeypatch.setattr(module, name, wrapper)
    return calls


def _fresh(stratum, a, b):
    """connect's path without the report it carries, so path_verify
    certifies its grid."""
    path = connect(stratum, a, b, rng=SplitMix64(302))
    return TensorPath(path.segments, path.stratum)


def test_path_verify_certifies_a_rank_two_grid_in_one_call(monkeypatch):
    st = parse_stratum("rank:r=2;shape=3,3,3;field=real")
    rng = SplitMix64(303)
    path = _fresh(st, sample_rank_r((3, 3, 3), 2, REAL, rng)[0],
                  sample_rank_r((3, 3, 3), 2, REAL, rng)[0])
    grids = []
    stack = kinds_module.rank2_certify
    monkeypatch.setattr(kinds_module, "rank2_certify",
                        lambda values, ranks, tol: grids.append(len(values))
                        or stack(values, ranks, tol))
    calls = _count_calls(monkeypatch, "rank2_decompose")
    report = path_verify(path)
    assert report.passed
    assert grids == [len(report.samples)]
    assert calls == []


def test_path_verify_reads_a_rank_one_grid_without_is_rank_one(monkeypatch):
    st = parse_stratum("rank:r=1;shape=3,4,5;field=real")
    rng = SplitMix64(304)
    path = _fresh(st, sample_rank_r((3, 4, 5), 1, REAL, rng)[0],
                  sample_rank_r((3, 4, 5), 1, REAL, rng)[0])
    calls = _count_calls(monkeypatch, "is_rank_one")
    report = path_verify(path)
    assert report.passed
    assert calls == []


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_symmetric_read_is_the_full_tensor_read(field):
    """One SVD of the mode-1 flattening reads a packed stack, ranks and
    margins bit for bit as mrank_stack reads the full tensors: Gaussian
    rows, the zero row, rank-one and rank-two rows, and rank-one rows plus
    a second power whose weight straddles every threshold."""
    rng = SplitMix64(307)
    n = 3
    for d in (2, 3, 4):
        powers = sym_power_stack(field_normals(rng, (8, n), field), d, 1.0, field)
        weights = np.geomspace(1e-13, 1e-5, 9)[:, None]
        packed = np.concatenate([
            field_normals(rng, (4, sym_packed_length(n, d)), field),
            np.zeros_like(powers[:1]), powers[:2], powers[2:4] + powers[4:6],
            powers[6] + weights * powers[7]])
        want = mrank_stack(sym_embed_stack(packed, n, d))
        got = sym_mrank_stack(packed, n, d)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert {tuple(rk) for rk in got[0].tolist()} >= {
            (0,) * d, (1,) * d, (2,) * d, (3,) * d}


def test_path_verify_reads_a_symmetric_grid_with_one_svd(monkeypatch):
    st = parse_stratum("sym-rank:d=4;n=4;r=2;field=real")
    rng = SplitMix64(308)
    path = _fresh(st, sample_sym_rank_r(4, 4, 2, signature=1, rng=rng)[0],
                  sample_sym_rank_r(4, 4, 2, signature=1, rng=rng)[0])
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda a, *args, **kwargs: calls.append(a.shape)
                        or svd(a, *args, **kwargs))
    report = path_verify(path)
    assert report.passed
    assert calls == [(len(report.samples), 4, 64)]


@pytest.mark.parametrize("text", ["mrank:r=4,2,2;shape=4,2,2;field=real",
                                  "mrank:r=2,2,2;shape=3,3,3;field=real"])
def test_mrank_paths_read_their_grids_as_stacks(text, monkeypatch):
    """connect's core pre-filter and path_verify make no numerical_rank or
    det_sign_mrank call per sample (the midpoint draws of sample_full_core
    may), and the path is evaluated twice: connect reads both ends with one
    TensorPath.values([0.0, 1.0]) call, path_verify its grid with one more,
    and TensorPath.eval never runs; the grid's labels are still
    det_sign_mrank's."""
    st = parse_stratum(text)
    rng = SplitMix64(305)
    a, _ = kind_of(st).draws(st, [rng], DEFAULT_TOL)[0]
    b, _ = kind_of(st).draws(st, [rng], DEFAULT_TOL)[0]
    while classify(st, b) != classify(st, a):
        b, _ = kind_of(st).draws(st, [rng], DEFAULT_TOL)[0]
    drawing = []
    draw = paths_module.sample_full_core

    def midpoint(*args):
        drawing.append(True)
        try:
            return draw(*args)
        finally:
            drawing.pop()

    monkeypatch.setattr(paths_module, "sample_full_core", midpoint)
    ranks = _count_calls(monkeypatch, "numerical_rank", core_module,
                         note=lambda: bool(drawing))
    dets = _count_calls(monkeypatch, "det_sign_mrank", classifiers_module)
    grids, evals = [], []
    values, one = TensorPath.values, TensorPath.eval
    monkeypatch.setattr(TensorPath, "values",
                        lambda path, ts: grids.append(list(ts)) or values(path, ts))
    monkeypatch.setattr(TensorPath, "eval",
                        lambda path, t: evals.append(t) or one(path, t))
    path = connect(st, a, b, rng=SplitMix64(306))
    report = path_verify(path)
    assert report.passed
    assert [inside for inside in ranks if not inside] == []
    assert dets == []
    assert evals == []
    assert grids == [[0.0, 1.0], [s.t for s in report.samples]]
    monkeypatch.undo()
    mode = square_mode(st)
    want = ["single" if mode is None else str(det_sign_mrank(path.eval(s.t), mode))
            for s in report.samples]
    assert [s.label for s in report.samples] == want


def _signature_reference(coefficients, vectors, d):
    """sym_signature's rule for one decomposition, written out term by
    term: its label text, or its refusal's message."""
    for lam, v in zip(coefficients, vectors):
        nv = float(np.linalg.norm(v))
        if not (nv > 0.0 and abs(lam) * nv ** d > 0.0):
            return "zero term in decomposition; signature undefined"
    return f"signature:{sum(1 for lam in coefficients if lam > 0)}"


def _texts(labels):
    return [str(label) for label in labels]


def test_symmetric_labels_read_term_sum_grids_and_draws_as_arrays(monkeypatch):
    """SymRank.labels gives the signature of every sample of a term-sum
    grid from the (K, r) coefficients of its witnesses, and of every census
    draw from its decomposition, as per-row sym_signature and the
    term-by-term rule give it, with no sym_signature call; path_verify
    makes none either."""
    st = parse_stratum("sym-rank:d=4;n=4;r=2;field=real")
    kind = kind_of(st)
    draws = kind.draws(st, [SplitMix64(309 + i) for i in range(40)], DEFAULT_TOL)
    values = [value for value, _d in draws]
    decompositions = [D for _v, D in draws]
    a, b = [value for value, D in draws if D.signature() == 1][:2]
    path = TensorPath(connect(st, a, b, rng=SplitMix64(310)).segments, st)
    ts = [0.0, 1.0] + chebyshev_grid(64)
    witnesses = path.witnesses(ts)
    assert witnesses.shape == (len(ts), 2)
    (seg,) = path.segments
    tracks = [track.at(np.array(ts)) for _sign, track in seg.terms]
    # the per-sample decompositions the grid's witnesses replace
    grid = [SymRankDecomposition(
        4, tuple(sign * float(np.linalg.norm(W[k])) ** 4 for (sign, _t), W in zip(seg.terms, tracks)),
        tuple(W[k] / np.linalg.norm(W[k]) for W in tracks), REAL) for k in range(len(ts))]
    for label_of in (lambda D: str(sym_signature(D)),
                     lambda D: _signature_reference(D.coefficients, D.vectors, 4)):
        want_grid = [label_of(D) for D in grid]
        want_draws = [label_of(D) for D in decompositions]
        assert len(set(want_draws)) == 3
        calls = _count_calls(monkeypatch, "sym_signature", classifiers_module)
        assert _texts(kind.labels(st, path.values(ts), witnesses, DEFAULT_TOL)) == want_grid
        assert _texts(kind.labels(st, st.stack(values), decompositions,
                                  DEFAULT_TOL)) == want_draws
        report = path_verify(TensorPath(path.segments, st))
        assert report.passed and report.label == "signature:1"
        assert calls == []
        monkeypatch.undo()


def test_a_zero_term_is_refused():
    """A term whose vector vanishes has no sign: the witness of a term-sum
    sample where a track passes through 0 refuses the sample's label, and
    so does a decomposition with a zero coefficient or with the NaN vector
    that dividing a zero vector by its norm leaves."""
    st = parse_stratum("sym-rank:d=4;n=2;r=3;field=real")
    e1, e2 = np.eye(2)
    w = np.array([0.6, 0.8])
    through_zero = [TermSumCurve("sym-term-sum", REAL, terms, order=4) for terms in (
        ((1.0, lerp(e1, 0.0 * e1)), (1.0, const(e2)), (-1.0, const(w))),
        ((1.0, lerp(0.0 * e1, -e1)), (1.0, const(e2)), (-1.0, const(w))))]
    path = TensorPath(through_zero, st)
    report = path_verify(path)
    (middle,) = [s for s in report.samples if s.t == 0.5]
    assert not middle.ok and not report.passed
    assert middle.note == "zero term in decomposition; signature undefined"
    assert {s.label for s in report.samples if s.t != 0.5} == {"signature:2"}
    nan = np.full(2, np.nan)
    for D in (SymRankDecomposition(4, (1.0, 0.0), (e1, nan), REAL),
              SymRankDecomposition(4, (1.0, 0.0), (e1, e2), REAL)):
        with pytest.raises(ToleranceError, match="zero term in decomposition"):
            sym_signature(D)


@pytest.mark.parametrize("text", ["rank:r=2;shape=3,3,3;field=real",
                                  "rank:r=3;shape=2,2,2;field=complex"])
def test_rank_strata_without_an_invariant_label_none(text):
    """Rank two over R and complex rank above the dimension count have no
    invariant: their labels are None."""
    st = parse_stratum(text)
    kind = kind_of(st)
    values = [value for value, _w in kind.draws(
        st, [SplitMix64(311 + i) for i in range(5)], DEFAULT_TOL)]
    assert kind.labels(st, st.stack(values), [None] * 5, DEFAULT_TOL) == [None] * 5


def _witness_bytes(witness):
    if isinstance(witness, Exception):
        return type(witness).__name__, str(witness)
    return ([np.asarray(lam).tobytes() for lam in witness.coefficients],
            [v.tobytes() for v in witness.vectors])


def _sym_rank2_inputs(rng, n, d, count):
    """Symmetric rank-two sums, with the second vector nearly the first
    from count // 2 on, which the decomposition refuses at many steps."""
    out = []
    for k in range(count):
        v1, w = rng.normals((n,)), rng.normals((n,))
        eps = 1.0 if k < count // 2 else 10.0 ** (-8.0 + 7.0 * rng.random())
        lam = rng.normals((2,)) * 10.0 ** (3.0 * rng.normals((2,)))
        out.append(SymTensor(n, d, REAL, sym_power_stack(
            np.stack([v1, v1 + eps * w]), d, lam[:, None], REAL).sum(axis=0)))
    return out


@pytest.mark.parametrize("n,d", [(4, 3), (4, 4), (2, 3)])
def test_stacked_symmetric_witnesses_are_the_one_tensor_ones(n, d):
    """_sym_rank2_witnesses gives every tensor of a stack the decomposition,
    bit for bit, or the refusal, message for message, that
    _sym_rank2_witness gives it alone (the collinearity refusal included,
    which n = 2 shows); connect decomposes two bare ends in one such call
    and raises A's refusal before B's."""
    rng = SplitMix64(312 + d)
    st = parse_stratum(f"sym-rank:d={d};n={n};r=2;field=real")
    tensors = _sym_rank2_inputs(rng, n, d, 300)
    stacked = _sym_rank2_witnesses(st.stack(tensors), n, d, REAL, DEFAULT_TOL)
    alone = []
    for S in tensors:
        try:
            alone.append(_sym_rank2_witness(S, DEFAULT_TOL))
        except (ToleranceError, DegenerateError) as exc:
            alone.append(exc)
    assert [_witness_bytes(w) for w in stacked] == [_witness_bytes(w) for w in alone]
    refused = [(S, w) for S, w in zip(tensors, alone) if isinstance(w, Exception)]
    fine = [S for S, w in zip(tensors, alone) if not isinstance(w, Exception)]
    assert len(refused) >= 2 and fine
    if n == 2:
        assert any("collinear" in str(w) for _S, w in refused)
    for a, (b, why_b) in ((refused[0][0], refused[1]), (fine[0], refused[1])):
        why = refused[0][1] if a is refused[0][0] else why_b
        with pytest.raises(type(why)) as caught:
            connect(st, a, b)
        assert str(caught.value) == str(why)


def _spied(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda data, *args: calls.append(len(data)) or fn(data, *args))
    return calls


def test_connect_decomposes_both_bare_ends_in_one_call(monkeypatch):
    """Rank two, symmetric rank two and border rank three: connect with no
    witnesses makes one stacked decomposition call for its two ends, and
    handed A's witness one call for B alone."""
    cases = [("rank:r=2;shape=3,3,3;field=real", paths_module, "rank2_decompositions"),
             ("sym-rank:d=4;n=4;r=2;field=real", kinds_module, "_sym_rank2_witnesses"),
             ("sym-rank:d=3;n=4;r=2;field=real", kinds_module, "_sym_rank2_witnesses"),
             ("brank:r=3;shape=2,2,2;field=real", paths_module, "brank3_labelled_terms")]
    for text, module, name in cases:
        st = parse_stratum(text)
        kind = kind_of(st)
        rng = SplitMix64(313)
        a, wa = kind.draws(st, [rng], DEFAULT_TOL)[0]
        labels = [None, 0]
        while labels[0] != labels[1]:
            b, _wb = kind.draws(st, [rng], DEFAULT_TOL)[0]
            labels = kind.labels(st, st.stack([a, b]), [None] * 2, DEFAULT_TOL)
        if wa is None:
            (wa,) = kind.witnesses(st, st.stack([a]), DEFAULT_TOL)
        calls = _spied(monkeypatch, module, name)
        assert path_verify(connect(st, a, b, rng=SplitMix64(314))).passed
        if wa is None:  # rank two: connect takes no witness
            assert calls == [2], text
        else:
            assert path_verify(connect(st, a, b, witness_a=wa,
                                       rng=SplitMix64(314))).passed
            assert calls == [2, 1], text
        monkeypatch.undo()
