"""Report digests of the experiment drivers, one stratum per sampler path.

Each digest covers a canonical report without its runtime, and for a
census every trial's seed, label, rejection and note. They were recorded
while every trial was drawn from its own stream one candidate at a time,
so any change to how draws are made must keep these bytes.
"""

import hashlib

import numpy as np
import pytest

from tensortopo import (COMPLEX, DEFAULT_TOL, REAL, SplitMix64, census,
                        identifiability_experiment, pairwise_connect_experiment,
                        parse_stratum, strip_runtime)
from tensortopo import sampling
from tensortopo.io import dumps_canonical
from tensortopo.sampling import sample_full_core, sample_sym_core


def _digest(document) -> str:
    return hashlib.sha256(dumps_canonical(document).encode()).hexdigest()


def _census_document(report) -> dict:
    return {"report": strip_runtime(report.to_json()),
            "within": [report.within_attempts, report.within_passes],
            "cross_attempts": report.cross_attempts,
            "rejected": report.rejected,
            "trials": [[row.index, row.seed, row.label, row.rejected, row.note]
                       for row in report.diagnostics]}


# (stratum, trials, seed): digest
CENSUS_PINS = {
    ("brank:r=3;shape=2,2,2;field=real", 200, 12345):
        "924332731109f2f48dfbcb76b0dea44731ed00d5a7e8fad525c69b8588fa30e6",
    ("rank:r=1;shape=3,4,5;field=complex", 120, 7):
        "7b57b2cb589911f7fb2b7848c2433f1642a4b5441385b39f46fb9612329db0e2",
    ("rank:r=2;shape=3,3,3;field=real", 40, 7):
        "b5f5a39f3059852e77931d2bc0b5580eba959af8d00b73c8090c5e746de35f29",
    ("mrank:r=4,2,2;shape=4,2,2;field=real", 60, 7):
        "59fde9d58187e4c44fba13eb5cb53cf6547517b786912ed95270a3cd225ac1ea",
    ("mrank:r=2,2,1;shape=3,2,2;field=complex", 40, 7):
        "42548e940c5f9d4e7544a1f0beecaba9edb21e3ccc6845ce64c477a62d33b4a3",
    ("sym-rank:d=4;n=4;r=2;field=real", 60, 7):
        "64cb143aa577e8369d1866623dc08d62415a29c9023e783975df014e3d9b8b04",
    ("sym-rank:d=3;n=4;r=2;field=real", 40, 7):
        "80d0713089d2b4d0b87854b3c1529a094aa04d2b578082ead0d6efb92fe445ae",
    ("sym-rank:d=3;n=3;r=2;field=complex", 40, 7):
        "d1355f9a50f6463b858e31c959d429fe06cf6a9088dbfd82aa1d6206ba00d4b0",
    ("sym-mrank:d=2;n=4;r=3;field=real", 60, 7):
        "a97d49fd4aae81cd18cae839743c2912906f33ec821dc4a947dcf4a970eec779",
    ("sym-mrank:d=3;n=4;r=2;field=real", 40, 7):
        "884e8ac67d05d3bcf3debdbf24fbef12b4e9bf49945f2cc1479d3489b26a3ded",
    # complex strata with a rank-one mode, whose frames have one column
    ("mrank:r=1,2,2;shape=2,3,3;field=complex", 40, 7):
        "6a75a1a1a545880f6f98f2a6af2b80f9173957181e80998044b2d30919d34062",
    ("mrank:r=3,3,1;shape=4,3,2;field=complex", 40, 7):
        "70135135093096f45ce25e26f0f6d99a6a7b0882b3b22968a369b9892c4449aa",
}


@pytest.mark.parametrize("case", sorted(CENSUS_PINS), ids=lambda case: case[0])
def test_census_reports_are_pinned(case):
    text, trials, seed = case
    report = census(parse_stratum(text), trials, seed, path_samples=16)
    assert _digest(_census_document(report)) == CENSUS_PINS[case]


@pytest.mark.parametrize("case", [
    ("brank:r=3;shape=2,2,2;field=real", 200, 12345),  # one stream a round
    ("sym-rank:d=4;n=4;r=2;field=real", 60, 7),        # ten, each signed
], ids=lambda case: case[0])
def test_census_rounds_draw_bounded_blocks(case, monkeypatch):
    """However many trials a census has, a round draws at most _BLOCK
    Gaussians; the streams that do not fit draw in the next rounds, and
    the report keeps its bytes."""
    blocks = []
    block = sampling.normal_block

    def bounded(rngs, count):
        blocks.append(len(rngs) * count)
        return block(rngs, count)

    monkeypatch.setattr(sampling, "_BLOCK", 100)
    monkeypatch.setattr(sampling, "normal_block", bounded)
    text, trials, seed = case
    report = census(parse_stratum(text), trials, seed, path_samples=16)
    assert _digest(_census_document(report)) == CENSUS_PINS[case]
    assert len(blocks) >= trials // 10
    assert max(blocks) <= max(100, 8 * 21)


PAIRWISE_PINS = {
    # re-pinned when so_rotation_path became a Givens product: the gl core
    # tracks of these paths rotate through it, and their margins moved in
    # the last bits while every pass count held
    "mrank:r=4,2,2;shape=4,2,2;field=real":
        "764c37fbbbcf366a0b7d97b84be5905ba3ff18c8e7b0c5c1587225f49450107b",
    "sym-rank:d=4;n=4;r=2;field=real":
        "d76da105ebae1d2896778ab4de85283e83e5cd957ccdfb8007fc0a3e6ed804c2",
    # recorded once every mode product was one batched matmul; the
    # per-row tensordot loop gave these paths other last bits
    "mrank:r=2,2,1;shape=3,2,2;field=complex":
        "e633eae2a21b07bd59c509a1202b56c8d72450be5e630f2604d7bec91a02366d",
    "mrank:r=1,2,2;shape=2,3,3;field=complex":
        "496fe28e8093b594a31dba506a13ad880842d836ba0600932029038ae2e447d4",
    "mrank:r=3,3,1;shape=4,3,2;field=complex":
        "97f6c38336ed5937382bdd5d062136a5249b8e306034b82df4e8f7919cca2f90",
}


@pytest.mark.parametrize("text", sorted(PAIRWISE_PINS))
def test_pairwise_reports_are_pinned(text):
    report = pairwise_connect_experiment(parse_stratum(text), 12, 16, 7)
    assert _digest(strip_runtime(report.to_json())) == PAIRWISE_PINS[text]


def test_identifiability_report_is_pinned():
    report = identifiability_experiment((3, 3, 3), 20, 7)
    assert _digest(strip_runtime(report.to_json())) == (
        "594f72f377b2f59b7dca27e19f00a28557341ac397ddd9ebd6034da96f21c614")


# the multilinear-rank connectors' midpoint core draws: 20 draws from
# SplitMix64(8), then the generator's state
CORE_DRAW_PINS = {
    "full-signed": (
        lambda rng: sample_full_core((4, 2, 2), REAL, [0], (-1,), rng, DEFAULT_TOL),
        "6f98a2269b3f62d6d3610e32969c1b2c6870d520dd804170ffea6dc0a673b878"),
    "full-complex": (
        lambda rng: sample_full_core((2, 2, 1), COMPLEX, [], (), rng, DEFAULT_TOL),
        "839fc19b6733f35fa17711b3df217154e34137234728962c3e20a553caf92342"),
    "sym-signature": (
        lambda rng: sample_sym_core(3, 2, REAL, 1, rng, DEFAULT_TOL).packed,
        "44d32ba431ebdb22f4192bc378ed4a776d14e886f7d5de43109e30bd061a92fc"),
}


@pytest.mark.parametrize("name", sorted(CORE_DRAW_PINS))
def test_connector_core_draws_are_pinned(name):
    draw, expected = CORE_DRAW_PINS[name]
    rng = SplitMix64(8)
    digest = hashlib.sha256()
    for _ in range(20):
        digest.update(np.ascontiguousarray(draw(rng)).tobytes())
    digest.update(rng._state.to_bytes(8, "little"))
    assert digest.hexdigest() == expected
