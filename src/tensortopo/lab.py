"""Monte Carlo experiments over rank strata.

Censuses count component labels and try connector paths within and across
label groups; pairwise experiments measure connector success rates; the
identifiability experiment counts rank-two decompositions; the monodromy
probe gathers orientation-transport evidence in the one genuinely open
parameter regime. Per-trial seeds are derived from the master seed by index,
so reports are byte-reproducible.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .certify import DecompositionCount, count_rank2_decompositions, hyperdet222
from .classifiers import classify, classify_brank3_222
from .core import (COMPLEX, DEFAULT_TOL, Hypermatrix, REAL, TolerancePolicy,
                   mode_multiply, mrank)
from .errors import (DegenerateError, DifferentComponents, RetryExhausted,
                     TensorTopoError, ToleranceError, UnsupportedStratumError)
from .geometry import GrassmannPoint, OrientationLoop
from .io import dumps_canonical
from .kinds import kind_of
from .paths import (_random_full_core, chebyshev_grid, connect, path_verify,
                    value_diff_norm)
from .rng import SplitMix64, derive_seed
from .sampling import random_invertible, sample_rank_r
from .stratum import StratumDescriptor, format_stratum, parse_stratum

_REP_BUDGET = 20  # representatives per label group for path attempts


def _runtime_ms(t0: float) -> int:
    return int(round((time.perf_counter() - t0) * 1000))


def expected_component_count(stratum: StratumDescriptor) -> int | None:
    """Predicted number of connected components, None where no prediction
    is available (exploratory or unsupported strata)."""
    try:
        return kind_of(stratum).components(stratum)
    except UnsupportedStratumError:
        return None


def _connect_and_verify(stratum, a, b, wa, wb, rng, K, tol):
    """(status, path, report); status is one of pass / verify-fail /
    different-components / different-components-conjectural /
    retry-exhausted / error."""
    try:
        path = connect(stratum, a, b, witness_a=wa, witness_b=wb,
                       tol=tol, rng=rng)
    except DifferentComponents as exc:
        status = ("different-components-conjectural" if exc.conjectural
                  else "different-components")
        return status, None, None
    except RetryExhausted:
        return "retry-exhausted", None, None
    except (ToleranceError, DegenerateError, UnsupportedStratumError, ValueError):
        return "error", None, None
    report = path_verify(path, K, tol)
    return ("pass" if report.passed else "verify-fail"), path, report


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
    """Sample N points, classify them, and attack the grouping with paths.

    Within each label group up to 20 representatives are chained by
    connector paths (these must all pass); across groups the first
    representatives of each label pair are attacked (these must all fail).
    The verdict can refute the expected component count, never prove it.
    """
    t0 = time.perf_counter()
    kind = kind_of(stratum)
    K = path_samples if path_samples else tol.path_samples_default

    def trial(i: int):
        trial_seed = derive_seed(seed, i)
        rng = SplitMix64(trial_seed)
        try:
            value, witness = kind.draw(stratum, rng, tol)
        except TensorTopoError as exc:
            return CensusTrial(i, trial_seed, None, True, str(exc)), None, None
        try:
            label = str(classify(stratum, value if witness is None else witness,
                                 tol))
        except UnsupportedStratumError:
            label = None
        except (ToleranceError, DegenerateError) as exc:
            return CensusTrial(i, trial_seed, None, True, str(exc)), None, None
        return CensusTrial(i, trial_seed, label, False, ""), value, witness

    outcomes = [trial(i) for i in range(N)]
    diagnostics = [row for row, _v, _w in outcomes]
    rejected = sum(1 for row in diagnostics if row.rejected)
    groups: dict[str, list] = {}
    for row, value, witness in outcomes:
        if row.rejected:
            continue
        key = row.label if row.label is not None else "unlabeled"
        groups.setdefault(key, []).append((row.index, value, witness))
    label_counts = sorted((lab, len(members)) for lab, members in groups.items())

    within_attempts = within_passes = 0
    cross_attempts = cross_success = 0
    contradiction = False
    pair_index = 0
    for lab in sorted(groups):
        reps = groups[lab][:min(N, _REP_BUDGET)]
        for (_, a, wa), (_, b, wb) in zip(reps, reps[1:]):
            rng = SplitMix64(derive_seed(seed, N + pair_index))
            pair_index += 1
            status, _path, _report = _connect_and_verify(
                stratum, a, b, wa, wb, rng, K, tol)
            within_attempts += 1
            if status == "pass":
                within_passes += 1
            elif status == "different-components":
                contradiction = True
    ordered = sorted(groups)
    for i in range(len(ordered)):
        for j in range(i + 1, len(ordered)):
            a = groups[ordered[i]][0]
            b = groups[ordered[j]][0]
            rng = SplitMix64(derive_seed(seed, N + pair_index))
            pair_index += 1
            status, _path, _report = _connect_and_verify(
                stratum, a[1], b[1], a[2], b[2], rng, K, tol)
            cross_attempts += 1
            if status == "pass":
                cross_success += 1

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
    """N independent endpoint pairs, connector plus K-sample verification."""
    t0 = time.perf_counter()
    kind = kind_of(stratum)

    def one(i: int) -> dict:
        try:
            a, wa = kind.draw(stratum, SplitMix64(derive_seed(seed, 2 * i)), tol)
            b, wb = kind.draw(stratum, SplitMix64(derive_seed(seed, 2 * i + 1)),
                              tol)
        except TensorTopoError as exc:
            return {"pair": i, "status": "sampler-failed", "note": str(exc)}
        rng = SplitMix64(derive_seed(seed, 2 * N + i))
        status, path, report = _connect_and_verify(stratum, a, b, wa, wb,
                                                   rng, K, tol)
        row = {"pair": i, "status": status}
        if report is not None:
            row["min_margin"] = report.min_margin
            defect = max(
                value_diff_norm(path.eval(0.0), a) / max(a.norm(), 1e-300),
                value_diff_norm(path.eval(1.0), b) / max(b.norm(), 1e-300))
            row["endpoint_defect"] = defect
        return row

    rows = [one(i) for i in range(N)]
    passes = sum(1 for row in rows if row["status"] == "pass")
    differents = sum(1 for row in rows
                     if row["status"].startswith("different-components"))
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
    orderings (the 2! relabelings of the two terms)."""
    t0 = time.perf_counter()

    def one(i: int):
        rng = SplitMix64(derive_seed(seed, i))
        A, _terms = sample_rank_r(shape, 2, field, rng, tol)
        verdict, orderings = count_rank2_decompositions(A, tol)
        return verdict, len(orderings)

    rows = [one(i) for i in range(N)]
    unique = sum(1 for verdict, _n in rows
                 if verdict is DecompositionCount.UNIQUE_UP_TO_PERMUTATION)
    degenerate = N - unique
    orderings = sorted({n for verdict, n in rows
                        if verdict is DecompositionCount.UNIQUE_UP_TO_PERMUTATION})
    return IdentifiabilityReport(tuple(shape), field, N, seed, unique,
                                 degenerate, orderings, _runtime_ms(t0))


@dataclass
class MonodromyReport:
    r: tuple
    n: tuple
    seed: int
    modes: list
    flip_observed: bool
    runtime_ms: int
    note: str = "EVIDENCE ONLY: orientation transport cannot decide the component count"

    def to_json(self) -> dict:
        return {"r": list(self.r), "n": list(self.n), "seed": self.seed,
                "modes": self.modes, "flip_observed": self.flip_observed,
                "note": self.note, "runtime_ms": self.runtime_ms}


def monodromy_probe(r: tuple[int, ...], n: tuple[int, ...], seed: int,
                    samples: int | None = None,
                    tol: TolerancePolicy = DEFAULT_TOL) -> MonodromyReport:
    """Orientation-reversing frame loops in the mixed-saturation case.

    Requires r_1 = prod(r_2..r_d) = n_1 with ambient room in some later
    mode (the fully saturated case has a classifier and is refused). For
    each roomy mode, a closed loop returning the frame with a reflection is
    transported; the report records whether the square flattening's
    determinant sign flipped while staying in-stratum throughout.
    """
    r = tuple(int(x) for x in r)
    n = tuple(int(x) for x in n)
    if len(r) != len(n) or len(r) < 2:
        raise ValueError("need matching r and n tuples with at least 2 modes")
    if any(x > m for x, m in zip(r, n)):
        raise ValueError("each rank must fit inside its ambient dimension")
    if r[0] != math.prod(r[1:]) or n[0] != r[0]:
        raise ValueError(
            "probe needs r_1 = prod of the other ranks = n_1 (square case)")
    roomy = [m for m in range(1, len(r)) if n[m] > r[m]]
    if not roomy:
        raise ValueError(
            "fully saturated parameters have a determinant-sign classifier; "
            "the probe is for the mixed case only")
    t0 = time.perf_counter()
    rng = SplitMix64(seed)
    d = len(r)
    K = samples if samples else tol.path_samples_default

    core = _random_full_core(r, REAL, [], (), rng, tol)
    frames = []
    for mode in range(d):
        G = rng.normals((n[mode], r[mode]))
        Q, _ = np.linalg.qr(G)
        frames.append(Q)

    sign_before = float(np.linalg.slogdet(core.reshape(r[0], -1))[0])
    grid = sorted(set([0.0, 1.0] + chebyshev_grid(K)))
    modes_report = []
    flip_observed = False
    for m in roomy:
        loop = OrientationLoop(GrassmannPoint(frames[m], REAL))
        exponent = math.prod(rk for k, rk in enumerate(r) if k not in (0, m))
        in_stratum = True
        for t in grid:
            mats = list(frames)
            mats[m] = loop.frame(t)
            A = Hypermatrix(mode_multiply(core, mats), REAL)
            try:
                mr = mrank(A, tol)
            except ToleranceError:
                in_stratum = False
                break
            if tuple(mr.ranks) != r or min(mr.margins) < tol.gap_min:
                in_stratum = False
                break
        h = np.eye(r[m])
        h[0, 0] = -1.0
        moved = mode_multiply(core, [h if k == m else None for k in range(d)])
        sign_after = float(np.linalg.slogdet(moved.reshape(r[0], -1))[0])
        flipped = bool(sign_before != sign_after)
        flip_observed = flip_observed or (flipped and in_stratum)
        modes_report.append({"mode": m + 1, "exponent": exponent,
                             "parity": "odd" if exponent % 2 else "even",
                             "sign_before": sign_before,
                             "sign_after": sign_after,
                             "flipped": flipped,
                             "in_stratum": in_stratum})
    return MonodromyReport(r, n, seed, modes_report, flip_observed,
                           _runtime_ms(t0))


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
