import numpy as np
import pytest

from tensortopo import (DEFAULT_TOL, REAL, SplitMix64, census, classify,
                        expected_component_count, identifiability_experiment,
                        monodromy_probe, pairwise_connect_experiment,
                        parse_stratum, strip_runtime)
from tensortopo.kinds import kind_of

CENSUS_KEYS = {"stratum", "seed", "trials", "labels",
               "cross_label_connections", "verdict", "runtime_ms"}
SIGN_TRIPLES = {"sign-triple:+++", "sign-triple:+--", "sign-triple:-+-",
                "sign-triple:--+"}


@pytest.mark.parametrize("text,count", [
    ("rank:r=2;shape=3,3,3;field=complex", 1),
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
    ("mrank:r=4,2,2;shape=4,3,3;field=real", None),
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
])
def test_census_labels_agree_with_classify(text):
    """One stratum per kind record: the census does not refute its own
    prediction, and each trial's label is what classify gives its value."""
    st = parse_stratum(text)
    report = census(st, 12, seed=21, path_samples=16)
    assert report.verdict != "inconsistent"
    for row in report.diagnostics:
        assert not row.rejected
        value, _witness = kind_of(st).draw(st, SplitMix64(row.seed), DEFAULT_TOL)
        assert row.label == str(classify(st, value))


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
    st = parse_stratum("mrank:r=4,2,2;shape=4,3,3;field=real")
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


def test_monodromy_even_exponent_no_flip():
    report = monodromy_probe((4, 2, 2), (4, 3, 3), seed=12, samples=16)
    assert not report.flip_observed
    assert {row["mode"] for row in report.modes} == {2, 3}
    for row in report.modes:
        assert row["parity"] == "even"
        assert not row["flipped"]
        assert row["in_stratum"]
    assert "EVIDENCE ONLY" in report.note


def test_monodromy_odd_exponent_flips_in_stratum():
    report = monodromy_probe((6, 2, 3), (6, 3, 3), seed=13, samples=16)
    assert report.flip_observed
    row = report.modes[0]
    assert row["mode"] == 2 and row["parity"] == "odd"
    assert row["flipped"] and row["in_stratum"]
    doc = report.to_json()
    assert set(doc) == {"r", "n", "seed", "modes", "flip_observed", "note",
                        "runtime_ms"}


@pytest.mark.parametrize("r,n", [
    ((4, 2, 2), (4, 2, 2)),   # fully saturated: classifier territory
    ((4, 2, 2), (3, 3, 3)),   # rank exceeds ambient dimension
    ((3, 2, 2), (3, 3, 3)),   # r_1 != prod of the rest
    ((4,), (4,)),             # too few modes
])
def test_monodromy_rejects_bad_parameters(r, n):
    with pytest.raises(ValueError):
        monodromy_probe(r, n, seed=14)


def test_strip_runtime_recurses():
    doc = {"runtime_ms": 5, "a": [{"runtime_ms": 7, "b": 1}, 2],
           "c": {"d": {"runtime_ms": 9}, "e": "runtime_ms"}}
    assert strip_runtime(doc) == {"a": [{"b": 1}, 2],
                                  "c": {"d": {}, "e": "runtime_ms"}}
