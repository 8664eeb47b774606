import numpy as np
import pytest

import tensortopo.certify as certify_module
import tensortopo.classifiers as classifiers_module
import tensortopo.cli as cli_module
import tensortopo.core as core_module
import tensortopo.kinds as kinds_module
import tensortopo.paths as paths_module
from tensortopo import (COMPLEX, REAL, Hypermatrix, SplitMix64, connect,
                        parse_stratum, path_verify, random_orthogonal,
                        sample_rank_r, sample_sym_rank_r)
from tensortopo.certify import is_rank_one
from tensortopo.classifiers import classify, det_sign_mrank, square_mode
from tensortopo.core import (DEFAULT_TOL, mode_multiply, mrank_stack,
                             sym_embed_stack, sym_mrank_stack,
                             sym_packed_length, sym_power_stack)
from tensortopo.kinds import kind_of
from tensortopo.paths import TensorPath
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
    may), and TensorPath.eval runs only in connect's endpoint check; the
    grid's labels are still det_sign_mrank's."""
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
    evals = []
    one = TensorPath.eval
    monkeypatch.setattr(TensorPath, "eval",
                        lambda path, t: evals.append(t) or one(path, t))
    path = connect(st, a, b, rng=SplitMix64(306))
    report = path_verify(path)
    assert report.passed
    assert [inside for inside in ranks if not inside] == []
    assert dets == []
    assert evals == [0.0, 1.0]
    monkeypatch.undo()
    mode = square_mode(st)
    want = ["single" if mode is None else str(det_sign_mrank(path.eval(s.t), mode))
            for s in report.samples]
    assert [s.label for s in report.samples] == want
