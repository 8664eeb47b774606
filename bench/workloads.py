"""The workloads: strata, sizes, oracle specs and input drawing.

Stratum strings are tensortopo's own descriptor syntax. Every input is drawn
with the package's exported samplers from a seed the benchmark derives, so
one seed always gives the same inputs. The package is passed in as ``tt``
so that the set-up probe can time its import.
"""

from __future__ import annotations

import oracles

BRANK3 = "brank:r=3;shape=2,2,2;field=real"
MRANK_SQUARE = "mrank:r=4,2,2;shape=4,2,2;field=real"
MRANK_MIXED = "mrank:r=4,2,2;shape=5,2,2;field=real"
MRANK_SLACK = "mrank:r=2,2,2;shape=3,3,3;field=real"
SYM_QUARTIC = "sym-rank:d=4;n=4;r=2;field=real"
SYM_CUBIC = "sym-rank:d=3;n=4;r=2;field=real"
RANK1_COMPLEX = "rank:r=1;shape=3,4,5;field=complex"
RANK1_REAL = "rank:r=1;shape=3,4,5;field=real"
RANK2_REAL = "rank:r=2;shape=3,3,3;field=real"

# One round of a workload: censuses (stratum, trials, predicted label count,
# fixed), pair streams (stratum, same-label pairs, fixed), and an optional
# identifiability experiment (shape, trials). A run repeats whole rounds.
# A part marked fixed draws from FIXED_ROUND instead of the round's own seed,
# so it has the same inputs in every round of every run.
#
# Each workload joins the strata of two layers that cost about the same, so
# that a run is long enough to average out the machine's speed swings:
# brank3-rank puts the paper's border-rank example beside rank certification
# (both lean on certify), mrank-sym puts multilinear-rank frames beside
# symmetric term curves (both lean on geometry and core).
#
# The brank3 census and stream are fixed. Two faults of the program fail
# their operations now and then (the rank-3 sampler gives up after 100
# redraws, about once in 15000 draws, and path_verify rejects exact paths
# whose hyperdeterminant dips into its boundary band), so seeded inputs would
# fail a different share of operations on each seed. The fixed census is one
# where the second fault shows: one within-label path fails every round.
FIXED_ROUND = (110, 1)
WORKLOADS = {
    "brank3-rank": {
        "censuses": ((BRANK3, 200, 4, True), (RANK1_COMPLEX, 300, 1, False)),
        "streams": ((BRANK3, 34, True), (RANK1_REAL, 34, False),
                    (RANK2_REAL, 34, False)),
        "identifiability": ((3, 3, 3), 20),
    },
    "mrank-sym": {
        "censuses": ((MRANK_SQUARE, 300, 2, False), (SYM_QUARTIC, 300, 3, False)),
        "streams": ((MRANK_SQUARE, 20, False), (MRANK_MIXED, 20, False),
                    (MRANK_SLACK, 20, False), (SYM_QUARTIC, 20, False),
                    (SYM_CUBIC, 20, False)),
        "identifiability": None,
    },
}

# What the oracles check on each stratum; see oracles.member_label.
ORACLES = {
    BRANK3: {"kind": "brank3-222", "flattening_ranks": (2, 2, 2)},
    MRANK_SQUARE: {"kind": "mrank", "r": (4, 2, 2), "det_sign_mode": 0},
    MRANK_MIXED: {"kind": "mrank", "r": (4, 2, 2)},
    MRANK_SLACK: {"kind": "mrank", "r": (2, 2, 2)},
    SYM_QUARTIC: {"kind": "sym-even", "flattening_ranks": (2, 2, 2, 2), "r": 2},
    SYM_CUBIC: {"kind": "sym-cubic-rank2", "flattening_ranks": (2, 2, 2)},
    RANK1_COMPLEX: {"kind": "flattening", "flattening_ranks": (1, 1, 1)},
    RANK1_REAL: {"kind": "flattening", "flattening_ranks": (1, 1, 1)},
    RANK2_REAL: {"kind": "rank2-tucker", "flattening_ranks": (2, 2, 2)},
}


def strata(workload: str) -> list[str]:
    spec = WORKLOADS[workload]
    return [c[0] for c in spec["censuses"]] + [s[0] for s in spec["streams"]]


def draw(tt, stratum, rng):
    """One value of the stratum, drawn the way ``census`` draws its trials."""
    if stratum.kind in ("rank", "brank"):
        return tt.sample_rank_r(stratum.shape, stratum.rank, stratum.field, rng)[0]
    if stratum.kind == "mrank":
        return tt.sample_fixed_mrank(stratum.shape, stratum.rank, stratum.field,
                                     rng)[0]
    if stratum.kind == "sym-rank":
        return tt.sample_sym_rank_r(stratum.dim, stratum.order, stratum.rank,
                                    field=stratum.field, rng=rng)[0]
    raise ValueError(f"no input drawing for {stratum.kind!r}")


def dense(value):
    """Plain array of a dense or packed symmetric tensor."""
    if hasattr(value, "packed"):
        return oracles.dense_symmetric(value.dim, value.order, value.packed)
    return value.data


def warm_up(tt, workload: str) -> None:
    """One connect + path_verify call: a path from a fixed draw of the first
    stream's stratum to itself."""
    stratum = tt.parse_stratum(WORKLOADS[workload]["streams"][0][0])
    a = draw(tt, stratum, tt.SplitMix64(0))
    report = tt.path_verify(tt.connect(stratum, a, a, rng=tt.SplitMix64(0)))
    if not report.passed:
        raise RuntimeError(f"warm-up path on {workload} did not verify")
