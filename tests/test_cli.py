import json

import numpy as np
import pytest

from tensortopo import REAL, Hypermatrix, SplitMix64, sample_rank_r, save_tensor
from tensortopo.classifiers import classify_brank3_222
from tensortopo.cli import main


def _write(tmp_path, name, value):
    p = str(tmp_path / name)
    save_tensor(p, value)
    return p


def _brank3(rng, label=None):
    from tensortopo import hyperdet222
    while True:
        T = Hypermatrix(rng.normals((2, 2, 2)), REAL)
        if hyperdet222(T) >= -1e-3 * T.norm() ** 4:
            continue
        got = str(classify_brank3_222(T))
        if label is None or got == label:
            return T, got


def test_rank_command_rank_one(tmp_path, capsys):
    rng = SplitMix64(401)
    A, _ = sample_rank_r((3, 4, 2), 1, REAL, rng)
    assert main(["rank", _write(tmp_path, "a.json", A)]) == 0
    out = capsys.readouterr().out
    assert "mrank: 1,1,1" in out
    assert "rank: 1" in out


def test_rank_command_222_classification(tmp_path, capsys):
    rng = SplitMix64(402)
    T, _ = _brank3(rng)
    assert main(["rank", _write(tmp_path, "t.json", T)]) == 0
    out = capsys.readouterr().out
    assert "classification: border-rank3" in out


def test_classify_command_stdout_and_out_file(tmp_path, capsys):
    rng = SplitMix64(403)
    T, label = _brank3(rng)
    f = _write(tmp_path, "t.json", T)
    assert main(["classify", f, "--stratum",
                 "brank:r=3;shape=2,2,2;field=real"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert f"{doc['kind']}:{doc['value']}" == label
    out = tmp_path / "label.json"
    assert main(["classify", f, "--stratum", "brank:r=3;shape=2,2,2;field=real",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == doc


def test_connect_same_component_exit_zero(tmp_path, capsys):
    rng = SplitMix64(404)
    a, _ = sample_rank_r((3, 3, 3), 1, REAL, rng)
    b, _ = sample_rank_r((3, 3, 3), 1, REAL, rng)
    fa, fb = _write(tmp_path, "a.json", a), _write(tmp_path, "b.json", b)
    dump = tmp_path / "path.csv"
    out = tmp_path / "path.json"
    code = main(["connect", fa, fb, "--stratum", "rank:r=1;shape=3,3,3;field=real",
                 "--samples", "12", "--dump", str(dump), "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out.startswith("pass:")
    rows = dump.read_text().splitlines()
    assert rows[0] == "t,ok,mrank,min_margin,label"
    # K interior samples plus endpoints plus segment joints
    assert len(rows) >= 12 + 2 + 1
    assert all(len(r.split(",")) == 5 for r in rows[1:])
    doc = json.loads(out.read_text())
    assert set(doc) == {"path", "verification"}
    assert doc["verification"]["passed"] is True


def test_connect_different_components_exit_two(tmp_path, capsys):
    rng = SplitMix64(405)
    a, la = _brank3(rng)
    b, _ = _brank3(rng, label={"sign-triple:+++": "sign-triple:+--"}.get(
        la, "sign-triple:+++"))
    fa, fb = _write(tmp_path, "a.json", a), _write(tmp_path, "b.json", b)
    code = main(["connect", fa, fb, "--stratum",
                 "brank:r=3;shape=2,2,2;field=real"])
    assert code == 2
    assert capsys.readouterr().out.startswith("different components:")


def test_census_command_json(tmp_path, capsys):
    code = main(["census", "--stratum", "rank:r=1;shape=2,3;field=real",
                 "--trials", "6", "--seed", "3"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"stratum", "seed", "trials", "labels",
                        "cross_label_connections", "verdict", "runtime_ms"}
    assert doc["verdict"] == "consistent"
    assert doc["seed"] == 3


def test_census_is_seed_deterministic(capsys):
    def run():
        assert main(["census", "--stratum", "rank:r=1;shape=2,2;field=real",
                     "--trials", "5", "--seed", "9"]) == 0
        doc = json.loads(capsys.readouterr().out)
        doc.pop("runtime_ms")
        return doc
    assert run() == run()


def test_census_refuses_a_trial_count_below_one(capsys):
    assert main(["census", "--stratum", "mrank:r=2,2;shape=2,2;field=real",
                 "--trials", "-5", "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "N must be at least 1, got -5" in captured.err


def test_connect_refuses_a_sample_count_below_one(tmp_path, capsys):
    rng = SplitMix64(406)
    a, _ = sample_rank_r((3, 3, 3), 1, REAL, rng)
    b, _ = sample_rank_r((3, 3, 3), 1, REAL, rng)
    fa, fb = _write(tmp_path, "a.json", a), _write(tmp_path, "b.json", b)
    assert main(["connect", fa, fb, "--stratum", "rank:r=1;shape=3,3,3;field=real",
                 "--samples", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "K must be at least 1, got 0" in captured.err


def test_seed_env_fallback_and_flag_priority(capsys, monkeypatch):
    monkeypatch.setenv("TTK_SEED", "9")
    assert main(["census", "--stratum", "rank:r=1;shape=2,2;field=real",
                 "--trials", "4"]) == 0
    env_doc = json.loads(capsys.readouterr().out)
    assert env_doc["seed"] == 9
    assert main(["census", "--stratum", "rank:r=1;shape=2,2;field=real",
                 "--trials", "4", "--seed", "11"]) == 0
    flag_doc = json.loads(capsys.readouterr().out)
    assert flag_doc["seed"] == 11


def test_bad_seed_env_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("TTK_SEED", "not-a-number")
    assert main(["census", "--stratum", "rank:r=1;shape=2,2;field=real",
                 "--trials", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ttk: TTK_SEED must be an integer")


def test_bad_stratum_text_exit_one(tmp_path, capsys):
    rng = SplitMix64(406)
    A, _ = sample_rank_r((2, 2), 1, REAL, rng)
    f = _write(tmp_path, "a.json", A)
    assert main(["classify", f, "--stratum", "nope:r=1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ttk: stratum descriptor error at position 0")
    assert "Traceback" not in err


def test_missing_file_exit_one(capsys):
    assert main(["rank", "/does/not/exist.json"]) == 1
    err = capsys.readouterr().err
    assert "ttk:" in err and "/does/not/exist.json" in err


def test_malformed_tensor_file_exit_one(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{ this is not json")
    assert main(["rank", str(p)]) == 1
    assert "malformed tensor file" in capsys.readouterr().err


def test_unsupported_stratum_exit_one(tmp_path, capsys):
    rng = SplitMix64(407)
    a, _ = sample_rank_r((3, 3, 3), 3, REAL, rng)
    b, _ = sample_rank_r((3, 3, 3), 3, REAL, rng)
    fa, fb = _write(tmp_path, "a.json", a), _write(tmp_path, "b.json", b)
    assert main(["connect", fa, fb, "--stratum",
                 "rank:r=3;shape=3,3,3;field=real"]) == 1
    assert "ttk:" in capsys.readouterr().err


def test_classify_refuses_a_non_member_exit_one(tmp_path, capsys):
    A, _ = sample_rank_r((3, 3, 3), 1, REAL, SplitMix64(408))
    f = _write(tmp_path, "a.json", A)
    stratum = "mrank:r=2,2,2;shape=3,3,3;field=real"
    assert main(["classify", f, "--stratum", stratum]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"ttk: not a member of {stratum}: flattening ranks (1, 1, 1)")
    assert "Traceback" not in err


def test_classify_and_connect_refuse_another_shape_exit_one(tmp_path, capsys):
    A, _ = sample_rank_r((2, 2, 2), 1, REAL, SplitMix64(409))
    f = _write(tmp_path, "a.json", A)
    stratum = "rank:r=1;shape=3,4,5;field=real"
    for argv in (["classify", f], ["connect", f, f]):
        assert main(argv + ["--stratum", stratum]) == 1
        assert capsys.readouterr().err == (
            f"ttk: {stratum} takes a real Hypermatrix of shape (3, 4, 5), "
            "not a real Hypermatrix of shape (2, 2, 2)\n")


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["census", "--stratum", "rank:r=1;shape=2,2;field=real"]) == 1
    err = capsys.readouterr().err
    assert "usage:" in err
