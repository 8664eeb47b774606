"""Fixed-seed benchmark of tensortopo.

    python3 bench/run.py --workload brank3-rank --seed 1 --seconds 50 --trace 0

A run repeats whole rounds of one workload (see workloads.py) until about
``--seconds`` have passed and every pair stream has at least MIN_PAIRS
latencies in. Each round draws its inputs from the seed (the parts marked
fixed in workloads.py draw the same inputs every round), times the
program's calls, then checks every output against the oracles in
oracles.py, outside the timed part.

--trace 0 reports the end-to-end metrics. --trace 1 runs every round twice
on the same inputs, untraced and then with spans installed around the
package's public functions (tracing.py), and reports per-layer metrics per
traced round plus the tracing overhead.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. The same object, with per-round detail, is written to
bench/results/.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PAIRS = 100          # per stream: at least ten latencies beyond p90
PROBES = 5               # set-up probes per run; their median is setup_s
HARD_STOP_S = 120.0      # start no round after this, whatever else holds
OFF_GRID = tuple((j + 0.381966) / 8 for j in range(8))
ENDPOINT_TOL = 1e-10


def load_package():
    sys.path.insert(0, str(HERE.parent / "src"))
    try:
        import tensortopo
    except ImportError as exc:
        print(f"cannot import tensortopo from {HERE.parent / 'src'}: {exc}",
              file=sys.stderr)
        sys.exit(2)
    return tensortopo


def setup_seconds(workload: str) -> float:
    times = []
    for _ in range(PROBES):
        out = subprocess.run([sys.executable, str(HERE / "probe.py"), workload],
                             capture_output=True, text=True, timeout=120,
                             check=True)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


# ---------------------------------------------------------------------------
# inputs


class Tally:
    """attempted / failed operations, and whether any output the program
    reported as good contradicts an oracle."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes: list[str] = []

    def fail(self, note: str, count: int = 1, wrong: bool = False) -> None:
        if count <= 0:
            return
        self.failed += count
        self.wrong += count if wrong else 0
        if len(self.notes) < 20:
            self.notes.append(note)

    def counts(self) -> tuple:
        return self.attempted, self.failed, self.wrong

    def add(self, counts: tuple) -> None:
        self.attempted += counts[0]
        self.failed += counts[1]
        self.wrong += counts[2]


class Oracle:
    """Oracle labels of sampler draws, kept by (stratum, seed): a draw is a
    function of its seed, so a fixed input is labelled once per run."""

    def __init__(self):
        self._memo: dict = {}

    def label(self, tt, text: str, seed: int):
        """The oracle label of the draw from SplitMix64(seed); None when the
        oracles cannot decide; raises ValueError when the draw is off its
        stratum."""
        key = (text, seed)
        if key not in self._memo:
            stratum = tt.parse_stratum(text)
            value = workloads.draw(tt, stratum, tt.SplitMix64(seed))
            try:
                got = ("label", oracles.member_label(workloads.ORACLES[text],
                                                     workloads.dense(value)))
            except oracles.Ambiguous:
                got = ("label", None)
            except ValueError as exc:
                got = ("off", str(exc))
            self._memo[key] = got
        kind, got = self._memo[key]
        if kind == "off":
            raise ValueError(got)
        return got


def round_seeds(tt, seed: int, index: int) -> dict:
    """Round seed of the seeded parts (False) and of the fixed parts (True)."""
    return {False: tt.derive_seed(seed, index),
            True: tt.derive_seed(*workloads.FIXED_ROUND)}


def draw_stream(tt, k: int, text: str, count: int, round_seed: int,
                tally: Tally) -> list:
    """Stream k of a round: (a, b, oracle label, connect seed) pairs.
    Endpoints are paired only when their oracle labels agree, so every pair
    is expected to connect. A sampler that gives up counts as one failed
    operation; a draw the oracles put outside its stratum counts as a
    failed and wrong one, and is not used."""
    stratum = tt.parse_stratum(text)
    oracle = workloads.ORACLES[text]
    rng = tt.SplitMix64(tt.derive_seed(round_seed, 100 + k))
    pending: dict = {}
    pairs = []
    while len(pairs) < count:
        try:
            value = workloads.draw(tt, stratum, rng)
        except tt.TensorTopoError as exc:
            tally.attempted += 1
            tally.fail(f"drawing an endpoint on {text}: {exc}")
            continue
        try:
            label = oracles.member_label(oracle, workloads.dense(value))
        except oracles.Ambiguous:
            continue
        except ValueError as exc:
            tally.attempted += 1
            tally.fail(f"drawing an endpoint on {text}: {exc}", wrong=True)
            continue
        if label in pending:
            seed = tt.derive_seed(round_seed, 1000 * (k + 1) + len(pairs))
            pairs.append((pending.pop(label), value, label, seed))
        else:
            pending[label] = value
    return pairs


def make_inputs(tt, spec: dict, seeds: dict, tally: Tally, fixed: dict) -> list:
    """Per stream: (stratum, oracle spec, pairs). A fixed stream is drawn
    once per run and kept in ``fixed``, with the operations its drawing
    counted, which are counted again in every round."""
    streams = []
    for k, (text, count, is_fixed) in enumerate(spec["streams"]):
        if is_fixed and k in fixed:
            pairs, counts = fixed[k]
            tally.add(counts)
        else:
            before = tally.counts()
            pairs = draw_stream(tt, k, text, count, seeds[is_fixed], tally)
            if is_fixed:
                fixed[k] = (pairs, tuple(x - y for x, y in
                                         zip(tally.counts(), before)))
        streams.append((tt.parse_stratum(text), workloads.ORACLES[text], pairs))
    return streams


def interleave(streams: list) -> list:
    """(stream, pair) indices with the streams dealt in turn, so that every
    stream's latencies are spread over the whole round."""
    order = [((i + 0.5) / len(pairs), k, i)
             for k, (_st, _oracle, pairs) in enumerate(streams)
             for i in range(len(pairs))]
    return [(k, i) for _f, k, i in sorted(order)]


# ---------------------------------------------------------------------------
# one round: timed calls, then checks


def run_round(tt, spec: dict, streams: list, seeds: dict) -> dict:
    """The round's censuses, with its pairs dealt between them, then the
    identifiability experiment."""
    clock = time.perf_counter
    order = interleave(streams)
    n_census = len(spec["censuses"])
    chunks = [order[len(order) * j // n_census:len(order) * (j + 1) // n_census]
              for j in range(n_census)]
    censuses = []
    census_s = 0.0
    pairs = []
    for j, (text, trials, _expected, is_fixed) in enumerate(spec["censuses"]):
        stratum = tt.parse_stratum(text)
        t0 = clock()
        report = tt.census(stratum, trials, tt.derive_seed(seeds[is_fixed], j))
        census_s += clock() - t0
        censuses.append(report)
        for k, i in chunks[j]:
            st = streams[k][0]
            a, b, label, seed = streams[k][2][i]
            t0 = clock()
            try:
                path = tt.connect(st, a, b, rng=tt.SplitMix64(seed))
                outcome = tt.path_verify(path)
            except (tt.TensorTopoError, ValueError) as exc:
                path, outcome = None, exc
            pairs.append((k, a, b, label, path, outcome, clock() - t0))

    ident, ident_s = None, 0.0
    if spec["identifiability"]:
        shape, n = spec["identifiability"]
        t0 = clock()
        ident = tt.identifiability_experiment(shape, n,
                                              tt.derive_seed(seeds[False], 50))
        ident_s = clock() - t0
    pair_s = sum(p[-1] for p in pairs)
    return {"censuses": censuses, "census_s": census_s, "pairs": pairs,
            "ident": ident, "ident_s": ident_s,
            "wall_s": census_s + pair_s + ident_s}


def traced_round(tt, spec: dict, streams: list, seeds: dict,
                 aggregates: list) -> dict:
    """run_round with spans installed; appends the round's span aggregate."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = run_round(tt, spec, streams, seeds)
    finally:
        tracer.uninstall()
    aggregates.append(tracing.aggregate(tracer))
    return result


def _relative_gap(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.linalg.norm(x - y) / max(np.linalg.norm(y), 1e-300))


def check_census(tt, census: tuple, report, oracle: Oracle,
                 tally: Tally) -> None:
    """Charge each failure to the trial or path behind it; the census itself
    is charged once only when its verdict or label count is wrong and no
    trial or path explains it."""
    text, trials, expected, _fixed = census
    tally.attempted += trials + report.within_attempts + report.cross_attempts
    before = tally.failed
    failed_paths = report.within_attempts - report.within_passes
    tally.fail(f"census {text}: {failed_paths} within-label paths failed",
               count=failed_paths)
    if report.cross_label_connections:
        tally.fail(f"census {text}: a cross-label path verified",
                   count=report.cross_label_connections, wrong=True)
    forward: dict = {}
    backward: dict = {}
    for row in report.diagnostics:
        if row.rejected:
            tally.fail(f"census {text}: trial {row.index} rejected: {row.note}")
            continue
        try:
            label = oracle.label(tt, text, row.seed)
        except ValueError as exc:
            tally.fail(f"census {text}: trial {row.index}: {exc}", wrong=True)
            continue
        if label is None:
            continue
        if forward.setdefault(row.label, label) != label \
                or backward.setdefault(label, row.label) != row.label:
            tally.fail(f"census {text}: trial {row.index} label {row.label} "
                       f"splits oracle label {label}", wrong=True)
    if tally.failed == before and (
            report.verdict != "consistent" or report.trials != trials
            or len(report.label_counts) != expected):
        tally.fail(f"census {text}: verdict {report.verdict}, "
                   f"{len(report.label_counts)} labels, want {expected}",
                   wrong=report.verdict == "consistent")


def check_pair(pair: tuple, oracle: dict, tally: Tally) -> None:
    _k, a, b, label, path, outcome, _s = pair
    tally.attempted += 1
    if path is None:
        tally.fail(f"connect raised {type(outcome).__name__}: {outcome}")
        return
    if not outcome.passed:
        tally.fail(f"path_verify failed on {outcome.stratum}")
        return
    for t, end in ((0.0, a), (1.0, b)):
        gap = _relative_gap(workloads.dense(path.eval(t)), workloads.dense(end))
        if gap > ENDPOINT_TOL:
            tally.fail(f"path misses its endpoint at t={t} by {gap:.2e}",
                       wrong=True)
            return
    for t in OFF_GRID:
        try:
            got = oracles.member_label(oracle, workloads.dense(path.eval(t)))
        except oracles.Ambiguous as exc:   # too near a boundary to decide
            tally.fail(f"{outcome.stratum} at t={t:.4f}: {exc}")
            return
        except ValueError as exc:          # off the stratum
            tally.fail(f"{outcome.stratum} at t={t:.4f}: {exc}", wrong=True)
            return
        if got != label:
            tally.fail(f"{outcome.stratum} at t={t:.4f}: label {got}, "
                       f"endpoints {label}", wrong=True)
            return


def check_identifiability(spec: dict, report, tally: Tally) -> None:
    _shape, n = spec["identifiability"]
    tally.attempted += n
    if report.unique != n:
        tally.fail(f"identifiability: {report.unique}/{n} draws unique",
                   count=n - report.unique)
    elif report.orderings != [2]:
        tally.fail(f"identifiability: orderings {report.orderings}, want [2]",
                   count=n, wrong=True)


def check_round(tt, spec: dict, streams: list, result: dict,
                oracle: Oracle, tally: Tally) -> None:
    for census, report in zip(spec["censuses"], result["censuses"]):
        check_census(tt, census, report, oracle, tally)
    for pair in result["pairs"]:
        check_pair(pair, streams[pair[0]][1], tally)
    if result["ident"] is not None:
        check_identifiability(spec, result["ident"], tally)


# ---------------------------------------------------------------------------
# metrics


def _geomean(values: list) -> float:
    return float(np.exp(np.mean(np.log(values))))


def end_to_end(rounds: list, setup_s: float) -> dict:
    """Time metrics over the whole run. The latency quantiles are taken per
    pair stream and joined by their geometric mean, so every stratum weighs
    the same, however many pairs it has and whatever they cost."""
    streams = [[1000.0 * s for r in rounds for s in r["pair_s"][k]]
               for k in range(len(rounds[0]["pair_s"]))]
    ms = [x for stream in streams for x in stream]
    trials = sum(r["census_trials"] for r in rounds)
    values = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
        "census_trials_per_s": (trials / sum(r["census_s"] for r in rounds),
                                "trials/s"),
        "paths_per_s": (len(ms) / (sum(ms) / 1000.0), "paths/s"),
        "path_ms_p50": (_geomean([np.percentile(x, 50) for x in streams]), "ms"),
        "path_ms_p90": (_geomean([np.percentile(x, 90) for x in streams]), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MiB"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()}


# per-layer metric: (name, unit, span names it needs, value from the table)
def _layer_specs():
    def calls(span):
        return lambda t, n, x: t[span]["calls"] / n

    def secs(span):
        return lambda t, n, x: t[span]["s"] / n

    def self_secs(span):
        return lambda t, n, x: t[span]["self_s"] / n

    def per_sample(span):
        return lambda t, n, x: t[span]["in_paths"] / x["samples"]

    return (
        ("lab.census.s", "s", ["lab.census"], secs("lab.census")),
        ("lab.census.self_s", "s", ["lab.census"], self_secs("lab.census")),
        ("sampling.draws", "count", ["sampling.draw"], calls("sampling.draw")),
        ("sampling.draw_ms", "ms", ["sampling.draw"],
         lambda t, n, x: 1000.0 * t["sampling.draw"]["s"]
         / max(t["sampling.draw"]["calls"], 1)),
        ("sampling.attempts_per_draw", "attempts/draw",
         ["sampling.draw", "core.mrank"],
         lambda t, n, x: x["sampler_mrank"] / max(t["sampling.draw"]["calls"], 1)),
        ("classifiers.classify.calls", "count", ["classifiers.classify"],
         calls("classifiers.classify")),
        ("classifiers.classify.s", "s", ["classifiers.classify"],
         secs("classifiers.classify")),
        ("classifiers.classify_brank3_222.calls", "count",
         ["classifiers.classify_brank3_222"],
         calls("classifiers.classify_brank3_222")),
        ("classifiers.classify_brank3_222.s", "s",
         ["classifiers.classify_brank3_222"],
         secs("classifiers.classify_brank3_222")),
        ("certify.classify_222.calls", "count", ["certify.classify_222"],
         calls("certify.classify_222")),
        ("certify.classify_222.per_sample", "calls/sample",
         ["certify.classify_222", "paths.path_verify"],
         per_sample("certify.classify_222")),
        ("certify.rank2_decompose.calls", "count", ["certify.rank2_decompose"],
         calls("certify.rank2_decompose")),
        ("certify.rank2_decompose.s", "s", ["certify.rank2_decompose"],
         secs("certify.rank2_decompose")),
        ("certify.rank2_decompose.per_sample", "calls/sample",
         ["certify.rank2_decompose", "paths.path_verify"],
         per_sample("certify.rank2_decompose")),
        ("certify.is_rank_one.calls", "count", ["certify.is_rank_one"],
         calls("certify.is_rank_one")),
        ("certify.is_rank_one.s", "s", ["certify.is_rank_one"],
         secs("certify.is_rank_one")),
        ("core.mrank.calls", "count", ["core.mrank"], calls("core.mrank")),
        ("core.mrank.s", "s", ["core.mrank"], secs("core.mrank")),
        ("core.mrank.per_sample", "calls/sample",
         ["core.mrank", "paths.path_verify"], per_sample("core.mrank")),
        ("core.numerical_rank.calls", "count", ["core.numerical_rank"],
         calls("core.numerical_rank")),
        ("core.svd_per_sample", "svd/sample", ["paths.path_verify"],
         lambda t, n, x: x["svd_in_paths"] / x["samples"]),
        ("core.sym_power.s", "s", ["core.sym_power"], secs("core.sym_power")),
        ("geometry.frame.calls", "count", ["geometry.frame"],
         calls("geometry.frame")),
        ("geometry.frame.s", "s", ["geometry.frame"], secs("geometry.frame")),
        ("geometry.interpolator.s", "s", ["geometry.interpolator"],
         secs("geometry.interpolator")),
        ("paths.connect.s", "s", ["paths.connect"], secs("paths.connect")),
        ("paths.connect.self_s", "s", ["paths.connect"],
         self_secs("paths.connect")),
        ("paths.path_verify.s", "s", ["paths.path_verify"],
         secs("paths.path_verify")),
        ("paths.path_verify.self_s", "s", ["paths.path_verify"],
         self_secs("paths.path_verify")),
        ("paths.verify_samples", "count", ["paths.path_verify"],
         lambda t, n, x: x["samples"] / n),
        ("paths.verify_samples_per_s", "samples/s", ["paths.path_verify"],
         lambda t, n, x: x["samples"] / t["paths.path_verify"]["s"]),
        ("paths.eval.calls", "count", ["paths.eval"], calls("paths.eval")),
        ("paths.eval.s", "s", ["paths.eval"], secs("paths.eval")),
        ("paths.segments_per_path", "segments/path", ["paths.connect"],
         lambda t, n, x: t["paths.connect"]["value"] / t["paths.connect"]["returned"]),
    )


def per_layer(aggregates: list, overheads: list) -> tuple[dict, list]:
    """Per-layer metrics per traced round; names whose wrapped functions are
    all missing from the package are returned as absent, not measured."""
    n = len(aggregates)
    table: dict = {}
    extra = {"sampler_mrank": 0, "svd_in_paths": 0}
    for agg in aggregates:
        for name, row in agg["table"].items():
            total = table.setdefault(name, dict.fromkeys(row, 0))
            for key, value in row.items():
                total[key] += value
        extra["sampler_mrank"] += agg["sampler_mrank"]
        extra["svd_in_paths"] += agg["svd_in_paths"]
    missing = set(aggregates[0]["absent"])
    sources: dict = {}
    for module, attr, span in tracing.FUNCTIONS + tracing.FACTORIES:
        sources.setdefault(span, []).append(f"{module}.{attr}")
    gone = {span for span, srcs in sources.items() if set(srcs) <= missing}
    zero = {"calls": 0, "returned": 0, "in_paths": 0, "s": 0.0, "self_s": 0.0,
            "value": 0}
    for span in sources:
        table.setdefault(span, dict(zero))
    extra["samples"] = table["paths.path_verify"]["value"]
    metrics = {}
    absent = []
    for name, unit, needs, value in _layer_specs():
        if gone & set(needs):
            absent.append(name)
            continue
        metrics[name] = {"value": float(value(table, n, extra)), "unit": unit}
    metrics["trace.overhead_pct"] = {"value": float(statistics.median(overheads)),
                                     "unit": "%"}
    return metrics, absent


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tt = load_package()
    spec = workloads.WORKLOADS[args.workload]
    setup_s = None if args.trace else setup_seconds(args.workload)
    workloads.warm_up(tt, args.workload)

    tally = Tally()
    oracle = Oracle()
    fixed: dict = {}
    rounds: list[dict] = []
    aggregates: list[dict] = []
    overheads: list[float] = []
    n_streams = len(spec["streams"])
    start = time.perf_counter()
    index = 0
    while True:
        began = time.perf_counter()
        seeds = round_seeds(tt, args.seed, index)
        streams = make_inputs(tt, spec, seeds, tally, fixed)
        if args.trace and index % 2:
            # odd rounds trace first, so a drift in machine speed does not
            # bias the overhead one way
            traced = traced_round(tt, spec, streams, seeds, aggregates)
            result = run_round(tt, spec, streams, seeds)
        else:
            result = run_round(tt, spec, streams, seeds)
            if args.trace:
                traced = traced_round(tt, spec, streams, seeds, aggregates)
        check_round(tt, spec, streams, result, oracle, tally)
        if args.trace:
            check_round(tt, spec, streams, traced, oracle, tally)
            overheads.append(100.0 * (traced["wall_s"] / result["wall_s"] - 1.0))
        pair_s = [[] for _ in range(n_streams)]
        for p in result["pairs"]:
            if p[4] is not None:
                pair_s[p[0]].append(p[-1])
        rounds.append({"seeds": [seeds[False], seeds[True]],
                       "wall_s": result["wall_s"],
                       "census_s": result["census_s"],
                       "census_trials": sum(c.trials for c in result["censuses"]),
                       "pair_s": pair_s, "ident_s": result["ident_s"]})
        index += 1
        now = time.perf_counter()
        elapsed, last = now - start, now - began
        if elapsed + last > HARD_STOP_S:
            break
        enough = args.trace or all(
            sum(len(r["pair_s"][k]) for r in rounds) >= MIN_PAIRS
            for k in range(n_streams))
        if enough and elapsed + 0.5 * last >= args.seconds:
            break

    if args.trace:
        metrics, absent = per_layer(aggregates, overheads)
    else:
        metrics, absent = end_to_end(rounds, setup_s), []
    result = {"correct": tally.wrong == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    detail = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, rounds=rounds, notes=tally.notes,
                  absent=absent, setup_s=setup_s,
                  numpy=np.__version__, python=sys.version.split()[0])
    if args.trace:
        detail["layers"] = [agg["table"] for agg in aggregates]
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    for note in tally.notes:
        print(f"check failed: {note}", file=sys.stderr)
    if absent:
        print(f"absent layer metrics: {', '.join(absent)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
