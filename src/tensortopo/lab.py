"""Monte Carlo experiments over rank strata.

Censuses count component labels and try connector paths within and across
label groups; pairwise experiments measure connector success rates; the
identifiability experiment counts rank-two decompositions. A census can
refute a predicted component count, never prove it; where a count is
derived rather than quoted from the paper (the real multilinear-rank rule
of classifiers.mrank_sign_mode), the census is the check on it. Per-trial
seeds are derived from the master seed by index, so reports are
byte-reproducible. Census and pairwise experiments connect all their pairs
with one paths.connect_many call, in lockstep rounds, and verify all their
paths with one verify_paths call.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .certify import (DecompositionCount, count_rank2_decompositions, hyperdet222,
                      rank2_decompositions)
from .classifiers import classify_brank3_222
from .core import (COMPLEX, DEFAULT_TOL, Hypermatrix, REAL, TolerancePolicy,
                   mode_multiply)
from .errors import (DegenerateError, DifferentComponents, RetryExhausted,
                     TensorTopoError, ToleranceError, UnsupportedStratumError)
from .io import dumps_canonical
from .kinds import kind_of
from .paths import PATH_SAMPLES, TensorPath, connect_many, verify_paths
from .rng import SplitMix64, derive_seed
from .sampling import random_invertible, rank_r_draws, sample_rank_r
from .stratum import StratumDescriptor, format_stratum, parse_stratum

_REP_BUDGET = 20  # representatives per label group for path attempts


def _runtime_ms(t0: float) -> int:
    return int(round((time.perf_counter() - t0) * 1000))


def _count(name: str, value: int) -> int:
    """``value``, or the ValueError that refuses a count below 1."""
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")
    return value


def expected_component_count(stratum: StratumDescriptor) -> int | None:
    """Predicted number of connected components, None where no prediction
    is available (exploratory or unsupported strata)."""
    try:
        return kind_of(stratum).components(stratum)
    except UnsupportedStratumError:
        return None


# the status of a refused pair, by its error's type; any other is "error"
_REFUSALS = {DifferentComponents: "different-components",
             RetryExhausted: "retry-exhausted"}


def _verified(built: list, K: int, tol) -> list:
    """(status, path, report) per outcome of connect_many: every path is
    verified in one verify_paths call, and passes or gets verify-fail; a
    refusal gets its status from _REFUSALS."""
    reports = iter(verify_paths([p for p in built if isinstance(p, TensorPath)],
                                K, tol))
    out = []
    for path in built:
        if isinstance(path, TensorPath):
            report = next(reports)
            out.append(("pass" if report.passed else "verify-fail", path, report))
        else:
            out.append((_REFUSALS.get(type(path), "error"), None, None))
    return out


@dataclass
class CensusTrial:
    index: int
    seed: int
    label: str | None
    rejected: bool
    note: str = ""


@dataclass
class CensusReport:
    stratum: str
    trials: int
    seed: int
    label_counts: list
    cross_label_connections: int
    verdict: str
    runtime_ms: int
    within_attempts: int
    within_passes: int
    cross_attempts: int
    rejected: int
    expected_labels: int | None
    diagnostics: list = dataclass_field(default_factory=list)

    def to_json(self) -> dict:
        return {"stratum": self.stratum, "seed": self.seed,
                "trials": self.trials,
                "labels": [{"label": lab, "count": cnt}
                           for lab, cnt in self.label_counts],
                "cross_label_connections": self.cross_label_connections,
                "verdict": self.verdict, "runtime_ms": self.runtime_ms}


def census(stratum: StratumDescriptor, N: int, seed: int,
           path_samples: int | None = None,
           tol: TolerancePolicy = DEFAULT_TOL) -> CensusReport:
    """Sample N points, label them with one call of the stratum's record,
    and attack the grouping with paths.

    Within each label group up to 20 representatives are chained by
    connector paths (these must all pass); across groups the first
    representatives of each label pair are attacked (these must all fail).
    Every pair is connected first, all in one connect_many call, with the
    witnesses the draws lack computed once per representative in one call
    of the record (a refused witness is left to the connector, which
    raises the refusal itself); then all built paths are verified with one
    verify_paths call. The verdict can refute the expected component
    count, never prove it. N and path_samples (None for the default of 64)
    below 1 raise ValueError.
    """
    t0 = time.perf_counter()
    _count("N", N)
    K = _count("path_samples", PATH_SAMPLES if path_samples is None else path_samples)
    kind = kind_of(stratum)

    # every trial from its own stream, all drawn in lockstep by one call
    rngs = [SplitMix64(derive_seed(seed, i)) for i in range(N)]
    diagnostics, drawn = [], []
    for i, (rng, draw) in enumerate(zip(rngs, kind.draws(stratum, rngs, tol))):
        if isinstance(draw, TensorTopoError):
            diagnostics.append(CensusTrial(i, rng.seed, None, True, str(draw)))
            continue
        diagnostics.append(CensusTrial(i, rng.seed, None, False))
        drawn.append((diagnostics[-1],) + tuple(draw))
    # the draws are members, judged so by the sampler: one labels call
    labels = kind.labels(stratum, stratum.stack([v for _r, v, _w in drawn]),
                         [w for _r, _v, w in drawn], tol) if drawn else []
    groups: dict[str, list] = {}
    for (row, value, witness), label in zip(drawn, labels):
        if isinstance(label, Exception):
            row.rejected, row.note = True, str(label)
            continue
        row.label = None if label is None else str(label)
        groups.setdefault(row.label or "unlabeled", []).append(
            (row.index, value, witness))
    rejected = sum(1 for row in diagnostics if row.rejected)
    label_counts = sorted((lab, len(members)) for lab, members in groups.items())

    # (within a label?, rep, rep): each group's chain in label order, then
    # the first representatives of every two labels
    ordered = sorted(groups)
    pairs = []
    for lab in ordered:
        reps = groups[lab][:_REP_BUDGET]
        pairs += [(True, a, b) for a, b in zip(reps, reps[1:])]
    pairs += [(False, groups[lab][0], groups[other][0])
              for i, lab in enumerate(ordered) for other in ordered[i + 1:]]
    # the witnesses the draws lack, each representative's once, in one call
    bare = {index: value for _within, *reps in pairs
            for index, value, witness in reps if witness is None}
    witnesses = dict(zip(bare, kind.witnesses(
        stratum, stratum.stack(list(bare.values())), tol))) if bare else {}
    built = connect_many(
        stratum, [(va, vb, witnesses.get(ia, wa), witnesses.get(ib, wb))
                  for _within, (ia, va, wa), (ib, vb, wb) in pairs],
        [SplitMix64(derive_seed(seed, N + pair_index))
         for pair_index in range(len(pairs))], tol)
    within_attempts = within_passes = 0
    cross_attempts = cross_success = 0
    contradiction = False
    for (within, _a, _b), (status, _path, _report) in zip(
            pairs, _verified(built, K, tol)):
        if within:
            within_attempts += 1
            within_passes += status == "pass"
            contradiction |= status == "different-components"
        else:
            cross_attempts += 1
            cross_success += status == "pass"

    expected = expected_component_count(stratum)
    if cross_success > 0 or contradiction:
        verdict = "inconsistent"
    elif expected is not None and len(label_counts) > expected:
        verdict = "inconsistent"
    elif expected is None:
        verdict = "inconclusive"
    elif (len(label_counts) == expected and within_attempts > 0
          and within_passes == within_attempts):
        verdict = "consistent"
    else:
        verdict = "inconclusive"

    return CensusReport(format_stratum(stratum), N, seed, label_counts,
                        cross_success, verdict, _runtime_ms(t0),
                        within_attempts, within_passes, cross_attempts,
                        rejected, expected, diagnostics)


@dataclass
class PairwiseReport:
    stratum: str
    trials: int
    samples: int
    seed: int
    passes: int
    different_components: int
    worst_margin: float
    worst_endpoint_defect: float
    failures: list
    runtime_ms: int

    def to_json(self) -> dict:
        return {"stratum": self.stratum, "seed": self.seed,
                "trials": self.trials, "samples": self.samples,
                "passes": self.passes,
                "different_components": self.different_components,
                "worst_margin": self.worst_margin,
                "worst_endpoint_defect": self.worst_endpoint_defect,
                "failures": self.failures, "runtime_ms": self.runtime_ms}


def pairwise_connect_experiment(stratum: StratumDescriptor, N: int, K: int,
                                seed: int, tol: TolerancePolicy = DEFAULT_TOL
                                ) -> PairwiseReport:
    """N independent endpoint pairs, connector plus K-sample verification.
    N or K below 1 raises ValueError (K in verify_paths)."""
    t0 = time.perf_counter()
    _count("N", N)
    kind = kind_of(stratum)

    # both ends of every pair, from streams 2i and 2i + 1, in one call
    ends = kind.draws(stratum, [SplitMix64(derive_seed(seed, j))
                                for j in range(2 * N)], tol)

    # every pair connected first, in lockstep, then all its paths verified
    # in one call
    drawn = [i for i in range(N) if not any(
        isinstance(end, TensorTopoError) for end in ends[2 * i:2 * i + 2])]
    built = connect_many(
        stratum, [(a, b, wa, wb) for (a, wa), (b, wb)
                  in (ends[2 * i:2 * i + 2] for i in drawn)],
        [SplitMix64(derive_seed(seed, 2 * N + i)) for i in drawn], tol)
    verified = dict(zip(drawn, _verified(built, K, tol)))

    def one(i: int) -> dict:
        if i not in verified:
            failed = [end for end in ends[2 * i:2 * i + 2]
                      if isinstance(end, TensorTopoError)]
            return {"pair": i, "status": "sampler-failed", "note": str(failed[0])}
        status, path, report = verified[i]
        row = {"pair": i, "status": status}
        if report is not None:
            row["min_margin"] = report.min_margin
            row["endpoint_defect"] = path.endpoint_defect
        return row

    rows = [one(i) for i in range(N)]
    passes = sum(1 for row in rows if row["status"] == "pass")
    differents = sum(1 for row in rows if row["status"] == "different-components")
    margins = [row["min_margin"] for row in rows if row["status"] == "pass"]
    defects = [row.get("endpoint_defect", 0.0) for row in rows
               if "endpoint_defect" in row]
    failures = [row for row in rows if row["status"] != "pass"]
    return PairwiseReport(format_stratum(stratum), N, K, seed, passes,
                          differents, float(min(margins)) if margins else 0.0,
                          float(max(defects)) if defects else 0.0,
                          failures, _runtime_ms(t0))


@dataclass
class IdentifiabilityReport:
    shape: tuple
    field: str
    trials: int
    seed: int
    unique: int
    degenerate: int
    orderings: list
    runtime_ms: int

    def to_json(self) -> dict:
        return {"shape": list(self.shape), "field": self.field,
                "seed": self.seed, "trials": self.trials,
                "unique": self.unique, "degenerate": self.degenerate,
                "orderings": self.orderings, "runtime_ms": self.runtime_ms}


def identifiability_experiment(shape: tuple[int, ...], N: int, seed: int,
                               field: str = REAL,
                               tol: TolerancePolicy = DEFAULT_TOL
                               ) -> IdentifiabilityReport:
    """Decomposition counting on N random rank-two tensors.

    Expected: every draw is unique up to permutation, with exactly two
    orderings (the 2! relabelings of the two terms).

    All draws are decomposed with one rank2_decompositions call, each
    getting count_rank2_decompositions' verdict: unique where it has its
    two terms. A ValueError refuses a whole stack where it would refuse one
    tensor (a failed solve, a frame check), and then each tensor is counted
    alone. N below 1 raises ValueError."""
    t0 = time.perf_counter()
    _count("N", N)

    draws = rank_r_draws(tuple(shape), 2, field,
                         [SplitMix64(derive_seed(seed, i)) for i in range(N)], tol,
                         witnesses=False)
    for drawn in draws:
        if isinstance(drawn, Exception):
            raise drawn
    values = [value for value, _w in draws]
    try:
        found = rank2_decompositions(np.stack([A.data for A in values]), tol) if values else []
        unique = sum(not isinstance(terms, Exception) for terms in found)
    except ValueError:
        unique = sum(count_rank2_decompositions(A, tol)[0]
                     is DecompositionCount.UNIQUE_UP_TO_PERMUTATION for A in values)
    # a unique two-term decomposition has its two orderings
    orderings = [2] if unique else []
    return IdentifiabilityReport(tuple(shape), field, N, seed, unique,
                                 N - unique, orderings, _runtime_ms(t0))


# ---------------------------------------------------------------------------
# acceptance suite runner


def strip_runtime(obj):
    """Recursively drop runtime_ms keys so reports compare byte-identically."""
    if isinstance(obj, dict):
        return {k: strip_runtime(v) for k, v in obj.items() if k != "runtime_ms"}
    if isinstance(obj, list):
        return [strip_runtime(v) for v in obj]
    return obj


def _conj_pair_anchor() -> Hypermatrix:
    data = np.zeros((2, 2, 2))
    data[0, 0, 0] = 1.0
    data[1, 1, 0] = 1.0
    data[0, 1, 1] = -1.0
    data[1, 0, 1] = 1.0
    return Hypermatrix(data, REAL)


def _diagonal_unit_222() -> Hypermatrix:
    data = np.zeros((2, 2, 2))
    data[0, 0, 0] = 1.0
    data[1, 1, 1] = 1.0
    return Hypermatrix(data, REAL)


def _hyperdet_invariance(seed: int, trials: int) -> dict:
    rng = SplitMix64(seed)
    worst = 0.0
    for _ in range(trials):
        A = Hypermatrix(rng.normals((2, 2, 2)), REAL)
        gs = [random_invertible(2, rng, REAL) for _ in range(3)]
        B = Hypermatrix(mode_multiply(A.data, gs), REAL)
        scale = math.prod(float(np.linalg.det(g)) ** 2 for g in gs)
        expected = scale * hyperdet222(A)
        err = abs(hyperdet222(B) - expected) / max(abs(expected), 1.0)
        worst = max(worst, err)
    return {"trials": trials, "worst_relative_error": worst,
            "passed": worst <= 1e-8}


def _sign_triple_invariance(seed: int, trials: int,
                            tol: TolerancePolicy) -> dict:
    rng = SplitMix64(seed)
    changes = 0
    done = 0
    while done < trials:
        A, _terms = sample_rank_r((2, 2, 2), 3, REAL, rng, tol)
        before = classify_brank3_222(A, tol)
        gs = [random_invertible(2, rng, REAL, det_sign=+1) for _ in range(3)]
        B = Hypermatrix(mode_multiply(A.data, gs), REAL)
        try:
            after = classify_brank3_222(B, tol)
        except (ToleranceError, DegenerateError):
            continue
        if after != before:
            changes += 1
        done += 1
    return {"trials": trials, "label_changes": changes, "passed": changes == 0}


def run_verify_suite(seed: int = 0, quick: bool = False,
                     tol: TolerancePolicy = DEFAULT_TOL) -> dict:
    """Machine-readable acceptance run; runtime fields are stripped so two
    runs with one seed emit identical bytes."""
    criteria = []
    endpoint_defects = []

    def scaled(full: int, small: int) -> int:
        return small if quick else full

    def add(cid, name, passed, detail):
        criteria.append({"id": cid, "name": name, "passed": bool(passed),
                         "detail": strip_runtime(detail)})

    # 1: four components of the (2,2,2) border-rank-3 stratum
    st = parse_stratum("brank:r=3;shape=2,2,2;field=real")
    rep = census(st, scaled(1000, 120), derive_seed(seed, 1), tol=tol)
    need_within = scaled(50, 10)
    add(1, "border-rank-3 census on (2,2,2)",
        len(rep.label_counts) == 4 and rep.cross_label_connections == 0
        and rep.within_passes >= need_within
        and rep.within_passes == rep.within_attempts
        and rep.verdict == "consistent",
        {"report": rep.to_json(), "within_attempts": rep.within_attempts,
         "within_passes": rep.within_passes, "required_within": need_within})

    # 2: hyperdeterminant reference values
    det_b = hyperdet222(_conj_pair_anchor())
    det_diag = hyperdet222(_diagonal_unit_222())
    rng2 = SplitMix64(derive_seed(seed, 2))
    A1, _w = sample_rank_r((2, 2, 2), 1, REAL, rng2, tol)
    det_rank1 = hyperdet222(A1)
    add(2, "hyperdeterminant reference values",
        det_b == -4.0 and det_diag == 1.0 and abs(det_rank1) <= 1e-12,
        {"det_conjugate_pair_example": det_b, "det_diagonal_unit": det_diag,
         "det_rank_one": det_rank1})

    # 3: r+1 signature components, symmetric d=4 n=4 r=2
    st = parse_stratum("sym-rank:d=4;n=4;r=2;field=real")
    rep = census(st, scaled(300, 60), derive_seed(seed, 3), tol=tol)
    add(3, "symmetric even-order census (d=4, n=4, r=2)",
        len(rep.label_counts) == 3 and rep.within_passes == rep.within_attempts
        and rep.within_attempts > 0 and rep.verdict == "consistent",
        {"report": rep.to_json(), "within_attempts": rep.within_attempts,
         "within_passes": rep.within_passes})

    # 4: odd-order symmetric connectivity (d=3, n=4, r=2)
    st = parse_stratum("sym-rank:d=3;n=4;r=2;field=real")
    rep = pairwise_connect_experiment(st, scaled(100, 20), 64,
                                      derive_seed(seed, 4), tol)
    endpoint_defects.append(rep.worst_endpoint_defect)
    add(4, "odd-order symmetric pairwise connectivity",
        rep.passes == rep.trials and rep.worst_margin >= 1e-8,
        {"report": rep.to_json()})

    # 5: rank-one connectivity, real and complex, shape (3,4,5)
    detail5 = {}
    ok5 = True
    for sub, fld in ((51, REAL), (52, COMPLEX)):
        st = parse_stratum(f"rank:r=1;shape=3,4,5;field={fld}")
        rep = pairwise_connect_experiment(st, scaled(100, 20), 64,
                                          derive_seed(seed, sub), tol)
        endpoint_defects.append(rep.worst_endpoint_defect)
        detail5[fld] = rep.to_json()
        ok5 = ok5 and rep.passes == rep.trials
    add(5, "rank-one pairwise connectivity on (3,4,5)", ok5, detail5)

    # 6: multilinear-rank trichotomy
    detail6 = {}
    st = parse_stratum("mrank:r=2,2,2;shape=3,3,3;field=real")
    rep = pairwise_connect_experiment(st, scaled(100, 20), 64,
                                      derive_seed(seed, 61), tol)
    endpoint_defects.append(rep.worst_endpoint_defect)
    ok6 = rep.passes == rep.trials
    detail6["a_slack"] = rep.to_json()
    st = parse_stratum("mrank:r=4,2,2;shape=4,2,2;field=real")
    repb = census(st, scaled(500, 100), derive_seed(seed, 62), tol=tol)
    ok6 = ok6 and len(repb.label_counts) == 2 and repb.cross_label_connections == 0 \
        and repb.verdict == "consistent"
    detail6["b_saturated_square"] = repb.to_json()
    st = parse_stratum("mrank:r=4,2,2;shape=5,2,2;field=real")
    rep = pairwise_connect_experiment(st, scaled(100, 20), 64,
                                      derive_seed(seed, 63), tol)
    endpoint_defects.append(rep.worst_endpoint_defect)
    ok6 = ok6 and rep.passes == rep.trials
    detail6["c_mixed_roomy"] = rep.to_json()
    st = parse_stratum("mrank:r=2,2,2;shape=2,2,2;field=complex")
    rep = pairwise_connect_experiment(st, scaled(100, 20), 64,
                                      derive_seed(seed, 64), tol)
    endpoint_defects.append(rep.worst_endpoint_defect)
    ok6 = ok6 and rep.passes == rep.trials
    detail6["d_complex_saturated"] = rep.to_json()
    add(6, "multilinear-rank trichotomy", ok6, detail6)

    # 7: matrix case, det-sign components over the reals, one over C
    st = parse_stratum("mrank:r=2,2;shape=2,2;field=real")
    rep_r = census(st, scaled(200, 60), derive_seed(seed, 7), tol=tol)
    st = parse_stratum("mrank:r=2,2;shape=2,2;field=complex")
    rep_c = census(st, scaled(200, 60), derive_seed(seed, 71), tol=tol)
    add(7, "matrix determinant-sign components",
        len(rep_r.label_counts) == 2 and rep_r.verdict == "consistent"
        and len(rep_c.label_counts) == 1 and rep_c.verdict == "consistent",
        {"real": rep_r.to_json(), "complex": rep_c.to_json()})

    # 8: rank-two identifiability on (3,3,3)
    rep = identifiability_experiment((3, 3, 3), scaled(100, 20),
                                     derive_seed(seed, 8), REAL, tol)
    add(8, "rank-two identifiability on (3,3,3)",
        rep.unique == rep.trials and rep.orderings == [2],
        {"report": rep.to_json()})

    # 9: invariance and endpoint fidelity
    inv_det = _hyperdet_invariance(derive_seed(seed, 91), scaled(200, 50))
    inv_label = _sign_triple_invariance(derive_seed(seed, 92),
                                        scaled(200, 50), tol)
    worst_defect = max(endpoint_defects) if endpoint_defects else 0.0
    add(9, "invariance and endpoint fidelity",
        inv_det["passed"] and inv_label["passed"] and worst_defect <= 1e-10,
        {"hyperdeterminant": inv_det, "sign_triple": inv_label,
         "worst_endpoint_defect": worst_defect})

    # 10: determinism of repeated runs with one seed
    st = parse_stratum("mrank:r=2,2;shape=2,2;field=real")
    first = census(st, 40, derive_seed(seed, 10), tol=tol)
    second = census(st, 40, derive_seed(seed, 10), tol=tol)
    bytes_a = dumps_canonical(strip_runtime(first.to_json()))
    bytes_b = dumps_canonical(strip_runtime(second.to_json()))
    add(10, "byte-deterministic reports", bytes_a == bytes_b,
        {"identical": bytes_a == bytes_b})

    return {"suite": "acceptance", "seed": seed, "quick": quick,
            "passed": all(c["passed"] for c in criteria),
            "criteria": criteria}
