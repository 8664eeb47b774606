import hashlib
import sys

import numpy as np
import pytest

from tensortopo import (DEFAULT_TOL, REAL, Hypermatrix, OrientationLoop,
                        SplitMix64, census, classify, derive_seed,
                        expected_component_count, identifiability_experiment,
                        mode_multiply, pairwise_connect_experiment,
                        parse_stratum, strip_runtime, tucker_compress)
from tensortopo import kinds as kinds_module
from tensortopo import lab as lab_module
from tensortopo.certify import brank3_conj_pair, brank3_conj_pairs
from tensortopo.classifiers import brank3_labels
from tensortopo.errors import (DegenerateError, RetryExhausted, ToleranceError,
                               UnsupportedStratumError)
from tensortopo.io import dumps_canonical
from tensortopo.core import flattening_det_signs, mode_multiply_stack
from tensortopo.kinds import clear_members, kind_of
from tensortopo.paths import TensorPath, chebyshev_grid, path_verify
from tensortopo.sampling import sample_sym_core

CENSUS_KEYS = {"stratum", "seed", "trials", "labels",
               "cross_label_connections", "verdict", "runtime_ms"}
SIGN_TRIPLES = {"sign-triple:+++", "sign-triple:+--", "sign-triple:-+-",
                "sign-triple:--+"}


@pytest.mark.parametrize("text,count", [
    ("rank:r=2;shape=3,3,3;field=complex", 1),
    ("rank:r=3;shape=2,2,2;field=complex", None),
    ("sym-rank:d=4;n=4;r=3;field=complex", 1),
    ("rank:r=1;shape=3,4,5;field=real", 1),
    ("rank:r=2;shape=3,3,3;field=real", None),
    ("brank:r=3;shape=2,2,2;field=real", 4),
    ("brank:r=2;shape=3,3,3;field=real", None),
    ("brank:r=3;shape=2,2,2;field=complex", None),
    ("rank:r=3;shape=2,2,2;field=real", None),
    ("sym-rank:d=3;n=4;r=2;field=real", 1),
    ("sym-rank:d=4;n=4;r=2;field=real", 3),
    ("sym-rank:d=4;n=3;r=1;field=real", 2),
    ("sym-rank:d=3;n=2;r=3;field=real", None),
    ("mrank:r=2,2,2;shape=3,3,3;field=real", 1),
    ("mrank:r=4,2,2;shape=5,2,2;field=real", 1),
    ("mrank:r=4,2,2;shape=4,2,2;field=real", 2),
    ("mrank:r=2,2;shape=2,2;field=real", 2),
    ("rank:r=3;shape=3,3,3;field=real", None),
    ("sym-mrank:d=2;n=4;r=3;field=real", 4),
    ("sym-mrank:d=4;n=3;r=1;field=real", 2),
    ("sym-mrank:d=3;n=4;r=2;field=real", 1),
])
def test_expected_component_count(text, count):
    assert expected_component_count(parse_stratum(text)) == count


def test_census_brank3_consistent():
    st = parse_stratum("brank:r=3;shape=2,2,2;field=real")
    report = census(st, 24, seed=5, path_samples=16)
    assert report.verdict == "consistent"
    assert len(report.label_counts) == 4
    assert {lab for lab, _ in report.label_counts} == {
        "sign-triple:+++", "sign-triple:+--",
        "sign-triple:-+-", "sign-triple:--+"}
    assert report.cross_label_connections == 0
    assert sum(cnt for _, cnt in report.label_counts) + report.rejected == 24
    assert report.within_passes == report.within_attempts > 0
    assert report.cross_attempts == 6


def test_census_rank3_222_labels_sign_triples():
    """Rank three on real 2x2x2 is labelled like border rank three; with no
    predicted count the verdict is inconclusive, never inconsistent."""
    st = parse_stratum("rank:r=3;shape=2,2,2;field=real")
    report = census(st, 40, 3, path_samples=16)
    assert {lab for lab, _ in report.label_counts} == SIGN_TRIPLES
    assert report.verdict == "inconclusive"
    assert report.cross_label_connections == 0
    assert report.within_passes == report.within_attempts > 0


@pytest.mark.parametrize("text", [
    "rank:r=1;shape=2,2,3;field=real",
    "rank:r=3;shape=2,2,2;field=real",
    "brank:r=3;shape=2,2,2;field=real",
    "mrank:r=2,2;shape=2,2;field=real",
    "sym-rank:d=4;n=3;r=2;field=real",
    "sym-mrank:d=2;n=3;r=2;field=real",
    "mrank:r=2,2,2;shape=3,3,3;field=complex",
    "mrank:r=4,2,2;shape=5,2,2;field=real",
    "sym-mrank:d=4;n=3;r=1;field=real",
    "rank:r=2;shape=3,3,3;field=real",
    "mrank:r=4,2,2;shape=4,3,3;field=real",
    "sym-rank:d=4;n=3;r=1;field=real",
])
def test_census_labels_agree_with_classify(text):
    """One stratum per kind record: the census does not refute its own
    prediction, and each trial's label is what classify gives its value
    (none where classify finds no invariant)."""
    st = parse_stratum(text)
    report = census(st, 12, seed=21, path_samples=16)
    assert report.verdict != "inconsistent"
    for row in report.diagnostics:
        assert not row.rejected
        value, _witness = kind_of(st).draws(st, [SplitMix64(row.seed)],
                                            DEFAULT_TOL)[0]
        try:
            want = str(classify(st, value))
        except UnsupportedStratumError:
            want = None
        assert row.label == want


def test_census_labels_its_draws_in_one_call(monkeypatch):
    """A border-rank-three census labels all its draws with one
    brank3_labels call, on the stack of every draw."""
    stacks = []

    def counted(fn):
        def wrapper(data, *args):
            stacks.append(len(data))
            return fn(data, *args)
        return wrapper

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("tensortopo")
                and getattr(module, "brank3_labels", None) is brank3_labels):
            monkeypatch.setattr(module, "brank3_labels", counted(brank3_labels))
    # no paths: what is left of the census is its draws and their labels
    monkeypatch.setattr(lab_module, "_connected", lambda *args: "retry-exhausted")
    report = census(parse_stratum("brank:r=3;shape=2,2,2;field=real"), 10,
                    seed=5, path_samples=8)
    assert sum(cnt for _, cnt in report.label_counts) == 10
    assert stacks == [10]


def _counted_everywhere(monkeypatch, name: str) -> list:
    """Wrap the package function ``name`` in every module that holds it;
    the list gets the length of each call's first argument."""
    calls = []
    fn = getattr(sys.modules["tensortopo.certify"], name, None) or getattr(
        sys.modules["tensortopo.core"], name)

    def wrapper(data, *args, **kwargs):
        calls.append(len(data))
        return fn(data, *args, **kwargs)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("tensortopo")
                and getattr(module, name, None) is fn):
            monkeypatch.setattr(module, name, wrapper)
    return calls


def _judged(monkeypatch) -> list:
    """The stack length of every Kind.judge call."""
    calls = []
    judge = kinds_module.Kind.judge

    def wrapper(self, stratum, stack, tol):
        calls.append(len(stack))
        return judge(self, stratum, stack, tol)

    monkeypatch.setattr(kinds_module.Kind, "judge", wrapper)
    return calls


@pytest.mark.parametrize("text,trials,seed,judges,hyperdets", [
    # about one candidate in ten passes the screen; 8 per stream a round
    ("brank:r=3;shape=2,2,2;field=real", 200, 12345, 10, 20),
    ("mrank:r=4,2,2;shape=4,2,2;field=real", 300, 7, 1, 0),
    ("rank:r=1;shape=3,4,5;field=complex", 300, 7, 1, 0),
])
def test_census_draws_its_trials_in_lockstep_rounds(monkeypatch, text, trials,
                                                     seed, judges, hyperdets):
    """A census judges all the candidates of a redraw round with one
    Kind.judge call (and screens them with one hyperdet222 call) instead
    of one call per trial."""
    judged = _judged(monkeypatch)
    dets = _counted_everywhere(monkeypatch, "hyperdet222")
    monkeypatch.setattr(lab_module, "_connected", lambda *args: "retry-exhausted")
    report = census(parse_stratum(text), trials, seed)
    assert report.rejected == 0
    assert 1 <= len(judged) <= judges
    if judges == 1:
        assert judged == [trials]
    assert len(dets) <= hyperdets


def test_census_rejects_every_trial_whose_screen_never_passes(monkeypatch):
    screened = []

    def never(self, stratum, stack, tol):
        screened.append(len(stack))
        return [False] * len(stack)

    monkeypatch.setattr(kinds_module.BorderRank3, "screen", never)
    report = census(parse_stratum("brank:r=3;shape=2,2,2;field=real"), 5, seed=3)
    assert report.rejected == 5 and report.label_counts == []
    assert {row.note for row in report.diagnostics} == {
        "could not certify a sample of rank:r=3;shape=2,2,2;field=real "
        "after 1000 redraws"}
    # 1001 candidates per stream, 8 per stream and round
    assert sum(screened) == 5 * 1001
    assert screened == [40] * 125 + [5]


def test_pairwise_draws_both_ends_of_every_pair_in_one_call(monkeypatch):
    """All 2N endpoints come from one Kind.draws call; a pair whose first
    or second end failed is sampler-failed with that end's error."""
    calls = []
    record = kind_of(parse_stratum("rank:r=1;shape=3,4,5;field=real"))
    real = type(record).draws

    def failing(self, stratum, rngs, tol):
        calls.append(len(rngs))
        out = real(self, stratum, rngs, tol)
        out[1] = RetryExhausted("second end of pair 0")
        out[2] = RetryExhausted("first end of pair 1")
        return out

    monkeypatch.setattr(type(record), "draws", failing)
    report = pairwise_connect_experiment(
        parse_stratum("rank:r=1;shape=3,4,5;field=real"), 3, 8, seed=4)
    assert calls == [6]
    assert report.passes == 1
    assert report.failures == [
        {"pair": 0, "status": "sampler-failed", "note": "second end of pair 0"},
        {"pair": 1, "status": "sampler-failed", "note": "first end of pair 1"}]


def test_identifiability_draws_its_trials_in_one_call(monkeypatch):
    calls = []
    real = lab_module.rank_r_draws
    monkeypatch.setattr(lab_module, "rank_r_draws",
                        lambda shape, r, field, rngs, *args, **kwargs:
                        calls.append(len(rngs))
                        or real(shape, r, field, rngs, *args, **kwargs))
    report = identifiability_experiment((3, 3, 3), 12, seed=5)
    assert calls == [12]
    assert report.unique == 12


def test_identifiability_decomposes_its_draws_in_one_call(monkeypatch):
    """All draws go to one stacked rank2_decompositions call; no draw is
    counted alone."""
    calls = []
    real = lab_module.rank2_decompositions
    monkeypatch.setattr(lab_module, "rank2_decompositions",
                        lambda data, *args: calls.append(len(data)) or real(data, *args))
    monkeypatch.setattr(lab_module, "count_rank2_decompositions", None)
    report = identifiability_experiment((3, 3, 3), 12, seed=5)
    assert calls == [12]
    assert (report.unique, report.degenerate, report.orderings) == (12, 0, [2])


def test_pairwise_reads_each_path_end_once(monkeypatch):
    """connect measures each end's miss and records the larger one;
    pairwise_connect_experiment reports it without evaluating the path
    again: one TensorPath.values([0.0, 1.0]) call per connected pair, no
    TensorPath.eval call, and otherwise only each path's verification
    grid."""
    calls, evals = [], []
    values, evaluate = TensorPath.values, TensorPath.eval
    monkeypatch.setattr(TensorPath, "values",
                        lambda path, ts: calls.append(list(ts)) or values(path, ts))
    monkeypatch.setattr(TensorPath, "eval",
                        lambda path, t: evals.append(t) or evaluate(path, t))
    report = pairwise_connect_experiment(
        parse_stratum("rank:r=1;shape=3,4,5;field=real"), 3, 8, seed=4)
    assert report.passes == 3
    assert evals == []
    assert calls[:3] == [[0.0, 1.0]] * 3
    assert [len(ts) >= 8 + 2 for ts in calls[3:]] == [True] * 3
    assert 0.0 <= report.worst_endpoint_defect <= 1e-10


@pytest.mark.parametrize("text,trials,seed", [
    ("brank:r=3;shape=2,2,2;field=real", 60, 11),
    ("mrank:r=4,2,2;shape=4,2,2;field=real", 40, 12),
    ("rank:r=1;shape=3,4,5;field=complex", 25, 13),
    ("rank:r=2;shape=3,3,3;field=real", 25, 14),
])
def test_census_paths_verify_together_as_alone(monkeypatch, text, trials, seed):
    """A census verifies all its paths with one verify_paths call; each
    path's report has the bytes path_verify gives that path alone."""
    built = []
    verify_paths = lab_module.verify_paths

    def recording(paths, K, tol):
        built.append(list(paths))
        return verify_paths(paths, K, tol)

    monkeypatch.setattr(lab_module, "verify_paths", recording)
    census(parse_stratum(text), trials, seed)
    assert len(built) == 1 and len(built[0]) >= 10
    paths = built[0]
    together = verify_paths([TensorPath(p.segments, p.stratum) for p in paths])
    alone = [path_verify(TensorPath(p.segments, p.stratum)) for p in paths]
    assert ([dumps_canonical(r.to_json()) for r in together]
            == [dumps_canonical(r.to_json()) for r in alone])


def test_census_decomposes_each_representative_once(monkeypatch):
    """A border-rank-three census computes the labelled conjugate-pair
    witness of each representative at most once, all in one stacked call,
    and hands them to the connector, which then labels and decomposes no
    endpoint itself."""
    stacked, single = [], []
    pairs_of = kinds_module.brank3_labelled_terms

    def counted(data, tol):
        stacked.append([A.tobytes() for A in data])
        return pairs_of(data, tol)

    monkeypatch.setattr(kinds_module, "brank3_labelled_terms", counted)
    monkeypatch.setattr(sys.modules["tensortopo.paths"], "brank3_labelled_terms",
                        lambda data, tol: single.append(data) or pairs_of(data, tol))
    report = census(parse_stratum("brank:r=3;shape=2,2,2;field=real"), 120, seed=21)
    assert report.within_attempts >= 40 and single == []
    (rows,) = stacked
    assert len(rows) == len(set(rows))
    # every representative of a chain is an end of a within-label path
    assert report.within_attempts + len(report.label_counts) <= len(rows)
    assert len(rows) <= 20 * len(report.label_counts)


def test_stacked_witnesses_are_the_one_tensor_witnesses():
    """brank3_conj_pairs gives every tensor of a stack the term, bit for bit,
    or the refusal, message for message, that brank3_conj_pair gives it
    alone, on draws and on conjugate pairs whose factors turn real."""
    rng = SplitMix64(22)
    st = parse_stratum("brank:r=3;shape=2,2,2;field=real")
    inputs = [value.data for value, _w in kind_of(st).draws(
        st, [SplitMix64(derive_seed(22, i)) for i in range(400)], DEFAULT_TOL)]
    for k in range(400):
        shrink = 10.0 ** (-7.0 * k / 400)
        x, y, z = (rng.normals((2,)) + 1j * shrink * rng.normals((2,))
                   for _mode in range(3))
        T = complex(rng.normal(), rng.normal()) * np.multiply.outer(
            np.multiply.outer(x, y), z)
        inputs.append(2.0 * np.real(T))

    def encoded(term):
        if isinstance(term, Exception):
            return type(term).__name__, str(term)
        return complex(term.scalar), b"".join(f.tobytes() for f in term.factors)

    want = []
    for A in inputs:
        try:
            want.append(encoded(brank3_conj_pair(Hypermatrix(A, REAL))))
        except (ToleranceError, DegenerateError) as exc:
            want.append(encoded(exc))
    assert [encoded(t) for t in brank3_conj_pairs(np.stack(inputs))] == want
    refusals = {w[1].split(" ")[0] for w in want if isinstance(w[0], str)}
    assert len(refusals) >= 2 and 400 <= sum(
        not isinstance(w[0], str) for w in want) < len(want)


def test_census_json_schema():
    st = parse_stratum("rank:r=1;shape=2,2,3;field=real")
    report = census(st, 8, seed=6, path_samples=8)
    doc = report.to_json()
    assert set(doc) == CENSUS_KEYS
    assert doc["stratum"] == "rank:r=1;shape=2,2,3;field=real"
    assert doc["trials"] == 8 and doc["seed"] == 6
    for entry in doc["labels"]:
        assert set(entry) == {"label", "count"}
    assert report.verdict == "consistent"


def test_census_without_prediction_is_inconclusive():
    st = parse_stratum("rank:r=3;shape=2,2,2;field=complex")
    report = census(st, 8, seed=7, path_samples=12)
    assert report.verdict == "inconclusive"
    assert report.cross_label_connections == 0


def test_pairwise_experiment_sym_rank():
    st = parse_stratum("sym-rank:d=3;n=4;r=2;field=real")
    report = pairwise_connect_experiment(st, 6, 16, seed=9)
    assert report.passes == 6
    assert report.different_components == 0
    assert report.failures == []
    assert report.worst_margin >= 1e-8
    assert report.worst_endpoint_defect <= 1e-10
    doc = report.to_json()
    assert set(doc) == {"stratum", "seed", "trials", "samples", "passes",
                        "different_components", "worst_margin",
                        "worst_endpoint_defect", "failures", "runtime_ms"}


# sha256 of the canonical pairwise report (runtime_ms stripped) and of
# twenty midpoint cores drawn from SplitMix64(5): the symmetric core checks
# above order 2, in the connector's pre-filter, its midpoint draws and
# path_verify's rank read
SYM_MRANK_ORDER_3_PINS = {
    "complex": ("47744b2f05fa24faf4f4ee7b77aa583f26c87593b117040af864fb8d64496cbd",
                "a99b5dbc933cea574c38cb20e4a66129e6425c770e916957576c9777d1644dfd"),
    "real": ("85d1d9406fd82f71ebce7f3476a0ccaf3139bb31821e939debad85d0a390823a",
             "8d2511a129cf0ed31c2dfe2c02a565640f0efdfcc8feed4a94e83d65a25bd485"),
}


@pytest.mark.parametrize("field", sorted(SYM_MRANK_ORDER_3_PINS))
def test_sym_mrank_order_three_reports_are_pinned(field):
    report_pin, cores_pin = SYM_MRANK_ORDER_3_PINS[field]
    st = parse_stratum(f"sym-mrank:d=3;n=4;r=2;field={field}")
    report = pairwise_connect_experiment(st, 8, 16, seed=4)
    assert report.passes == 8
    doc = dumps_canonical(strip_runtime(report.to_json()))
    assert hashlib.sha256(doc.encode()).hexdigest() == report_pin
    rng = SplitMix64(5)
    cores = np.stack([sample_sym_core(2, 3, field, None, rng, DEFAULT_TOL).packed
                      for _ in range(20)])
    assert hashlib.sha256(cores.tobytes()).hexdigest() == cores_pin


def test_pairwise_rank2_222_real_passes_every_pair():
    # pairs 1 and 51 failed path_verify while the connector accepted a
    # segment by its flattening ranks alone: classify_222 rejects some of
    # its samples, and the connector now applies that rule too
    st = parse_stratum("rank:r=2;shape=2,2,2;field=real")
    report = pairwise_connect_experiment(st, 60, 64, seed=7)
    assert report.passes == 60, report.failures


def test_pairwise_experiment_counts_splits():
    st = parse_stratum("sym-rank:d=4;n=4;r=1;field=real")
    report = pairwise_connect_experiment(st, 10, 12, seed=10)
    assert report.passes + report.different_components == 10
    # random sign pairs: both outcomes appear at this sample size
    assert report.different_components > 0
    for row in report.failures:
        assert row["status"].startswith("different-components")


def test_identifiability_rank2():
    report = identifiability_experiment((3, 3, 3), 10, seed=11)
    assert report.unique == 10
    assert report.degenerate == 0
    assert report.orderings == [2]
    doc = report.to_json()
    assert doc["shape"] == [3, 3, 3] and doc["field"] == REAL


def _loop_transport(text, seed):
    """Per roomy mode m of a drawn member A = core x frames: whether every
    sample of the orientation loop that carries mode m's frame around
    (core fixed) is a clear member; whether the loop's holonomy flips the
    determinant sign of the core's mode-1 flattening; and the set of the
    record's labels on the loop's samples."""
    st = parse_stratum(text)
    (A, _w), = kind_of(st).draws(st, [SplitMix64(seed)], DEFAULT_TOL)
    rep = tucker_compress(A, st.rank)
    frames = [point.frame for point in rep.frames]
    core = rep.core.data
    grid = np.array([0.0, 1.0] + chebyshev_grid(16))
    cores = np.broadcast_to(core, grid.shape + core.shape)
    out = {}
    for m, (n, r) in enumerate(zip(st.shape, st.rank)):
        if n == r:
            continue
        loop = OrientationLoop(rep.frames[m])
        mats = list(frames)
        mats[m] = loop.frame(grid)
        stack = mode_multiply_stack(cores, mats)
        moved = mode_multiply(core, [loop.holonomy if k == m else None
                                     for k in range(len(st.rank))])
        (before,), (after,) = flattening_det_signs(np.stack([core, moved]), [1])
        labels = kind_of(st).labels(st, stack, [None] * len(grid), DEFAULT_TOL)
        out[m + 1] = (all(clear_members(st, stack, DEFAULT_TOL.gap_min, DEFAULT_TOL)),
                      before != after, {str(label) for label in labels})
    return A, st, out


def test_monodromy_even_exponent_no_flip():
    """Both roomy modes of (4,2,2) in (4,3,3) have flip exponent 2: a loop
    at either leaves the core's sign alone, and the record's sign label
    stays A's all the way round."""
    A, st, modes = _loop_transport("mrank:r=4,2,2;shape=4,3,3;field=real", 12)
    assert modes == {m: (True, False, {str(classify(st, A))}) for m in (2, 3)}
    assert str(classify(st, A)).startswith("sign:")


def test_monodromy_odd_exponent_flips_in_stratum():
    """Mode 2 of (6,2,3) in (6,3,3), its one roomy mode, has flip exponent
    3: its loop stays in the stratum and flips the core's sign, which is
    why the record labels every member single."""
    _A, _st, modes = _loop_transport("mrank:r=6,2,3;shape=6,3,3;field=real", 13)
    assert modes == {2: (True, True, {"single"})}


SQUARE_BESIDE_ROOMY = {"mrank:r=4,2,2;shape=4,3,2;field=real": 2,
                 "mrank:r=4,2,2;shape=4,3,3;field=real": 2,
                 "mrank:r=2,4,2;shape=3,4,2;field=real": 2,
                 "mrank:r=6,2,3;shape=6,3,3;field=real": 1}


@pytest.mark.parametrize("text", sorted(SQUARE_BESIDE_ROOMY))
def test_square_mode_with_roomy_modes_censuses_are_consistent(text):
    """Where a saturated square mode sits beside roomy ones, the sign rule
    predicts 2 components when every roomy flip exponent is even and 1
    otherwise; 30 trials from seed 1 find exactly that many labels, join
    every within-label pair and no cross-label one."""
    report = census(parse_stratum(text), 30, 1)
    assert report.verdict == "consistent"
    assert len(report.label_counts) == SQUARE_BESIDE_ROOMY[text]
    assert report.within_passes == report.within_attempts > 0
    assert report.cross_label_connections == 0


def test_pairwise_refuses_exactly_the_pairs_with_different_labels():
    st = parse_stratum("mrank:r=4,2,2;shape=4,3,2;field=real")
    N, seed = 10, 14
    report = pairwise_connect_experiment(st, N, 12, seed)
    ends = kind_of(st).draws(st, [SplitMix64(derive_seed(seed, j))
                                  for j in range(2 * N)], DEFAULT_TOL)
    labels = [classify(st, A) for A, _w in ends]
    differ = [i for i in range(N) if labels[2 * i] != labels[2 * i + 1]]
    assert differ and len(differ) < N
    assert [row["pair"] for row in report.failures] == differ
    assert {row["status"] for row in report.failures} == {"different-components"}
    assert report.passes == N - len(differ)


def test_counts_below_one_are_refused():
    st = parse_stratum("mrank:r=2,2;shape=2,2;field=real")
    for call, message in (
            (lambda: census(st, -5, 1), "N must be at least 1, got -5"),
            (lambda: census(st, 0, 1), "N must be at least 1, got 0"),
            (lambda: census(st, 4, 1, path_samples=0),
             "path_samples must be at least 1, got 0"),
            (lambda: pairwise_connect_experiment(st, 0, 12, 1),
             "N must be at least 1, got 0"),
            (lambda: pairwise_connect_experiment(st, 4, -1, 1),
             "K must be at least 1, got -1"),
            (lambda: identifiability_experiment((3, 3, 3), -2, 1),
             "N must be at least 1, got -2")):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


def test_strip_runtime_recurses():
    doc = {"runtime_ms": 5, "a": [{"runtime_ms": 7, "b": 1}, 2],
           "c": {"d": {"runtime_ms": 9}, "e": "runtime_ms"}}
    assert strip_runtime(doc) == {"a": [{"b": 1}, 2],
                                  "c": {"d": {}, "e": "runtime_ms"}}
