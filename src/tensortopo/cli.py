"""Command-line front end.

Exit codes encode outcomes rather than crashes: 0 success, 2 endpoints in
different components, 3 a verification or consistency failure, 1 anything
malformed. Diagnostics go to stderr as plain messages, never stack traces.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .certify import classify_222, is_rank_one, rank2_decompose
from .classifiers import classify
from .core import DEFAULT_TOL, SymTensor, TolerancePolicy, mrank, sym_embed
from .errors import (DegenerateError, DifferentComponents, RetryExhausted,
                     TensorTopoError, ToleranceError)
from .io import atomic_write_text, dumps_canonical, load_tensor, write_csv
from .lab import census, run_verify_suite, strip_runtime
from .paths import connect, path_verify
from .rng import SplitMix64
from .stratum import parse_stratum

_PROG = "ttk"


class _Parser(argparse.ArgumentParser):
    # exit 1 on malformed usage so exit 2 stays reserved for the
    # different-components outcome
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{_PROG}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("TTK_SEED")
    if env is None:
        return 0
    try:
        return int(env, 0)
    except ValueError:
        raise ValueError(f"TTK_SEED must be an integer, got {env!r}")


def _policy(args) -> TolerancePolicy:
    if getattr(args, "tol", None) is None:
        return DEFAULT_TOL
    return TolerancePolicy(eps_rel=args.tol)


def _emit(text: str, out: str | None) -> None:
    if out:
        atomic_write_text(out, text + "\n")
    else:
        print(text)


def _cmd_rank(args) -> int:
    tol = _policy(args)
    value = load_tensor(args.file)
    A = sym_embed(value) if isinstance(value, SymTensor) else value
    mr = mrank(A, tol)
    print(f"mrank: {','.join(str(r) for r in mr.ranks)}")
    print(f"margins: {','.join(format(m, '.3e') for m in mr.margins)}")
    ok, _w = is_rank_one(A, tol)
    if ok:
        print("rank: 1 (every flattening has rank one)")
        return 0
    if A.shape == (2, 2, 2) and A.field == "real":
        cls = classify_222(A, tol)
        print(f"classification: {cls.kind.value} (hyperdet {cls.hyperdet:.6e})")
        return 0
    try:
        rank2_decompose(A, tol)
    except (ToleranceError, DegenerateError, ValueError):
        print("rank: no certificate (certified ranks: 1, 2, and 2x2x2 kinds)")
    else:
        print("rank: 2 (certified by decomposition)")
    return 0


def _cmd_classify(args) -> int:
    stratum = parse_stratum(args.stratum)
    value = load_tensor(args.file)
    label = classify(stratum, value, _policy(args))
    _emit(dumps_canonical(label.to_json()), args.out)
    return 0


def _cmd_connect(args) -> int:
    tol = _policy(args)
    stratum = parse_stratum(args.stratum)
    a = load_tensor(args.file_a)
    b = load_tensor(args.file_b)
    rng = SplitMix64(_resolve_seed(args.seed))
    try:
        path = connect(stratum, a, b, tol=tol, rng=rng)
    except DifferentComponents as exc:
        print(f"different components: {exc.label_a} vs {exc.label_b}")
        return 2
    except RetryExhausted as exc:
        print(f"connection failed: {exc}", file=sys.stderr)
        return 3
    report = path_verify(path, args.samples, tol)
    if args.out:
        payload = {"path": path.to_json(), "verification": report.to_json()}
        atomic_write_text(args.out, dumps_canonical(payload) + "\n")
    if args.dump:
        header, rows = report.csv_rows()
        write_csv(args.dump, header, rows)
    status = "pass" if report.passed else "fail"
    print(f"{status}: segments={len(path.segments)} samples={len(report.samples)} "
          f"min_margin={report.min_margin:.3e} joint_defect={report.joint_defect:.3e}")
    return 0 if report.passed else 3


def _cmd_census(args) -> int:
    stratum = parse_stratum(args.stratum)
    report = census(stratum, args.trials, _resolve_seed(args.seed),
                    tol=_policy(args))
    _emit(dumps_canonical(report.to_json()), args.out)
    return 0 if report.verdict != "inconsistent" else 3


def _cmd_verify_suite(args) -> int:
    summary = run_verify_suite(_resolve_seed(args.seed), quick=args.quick,
                               tol=_policy(args))
    _emit(dumps_canonical(strip_runtime(summary)), args.out)
    return 0 if summary["passed"] else 3


def _build_parser() -> _Parser:
    parser = _Parser(prog=_PROG,
                     description="rank strata: certify, classify, connect, census")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--tol", type=float, default=None,
                       help="relative rank tolerance (default 1e-10)")
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="master seed; TTK_SEED is the fallback")
        p.add_argument("--out", default=None, help="write output to this file")

    p = sub.add_parser("rank", help="multilinear rank and rank certificates")
    p.add_argument("file")
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(fn=_cmd_rank)

    p = sub.add_parser("classify", help="connected-component label")
    p.add_argument("file")
    p.add_argument("--stratum", required=True)
    common(p, seed=False)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("connect", help="build and verify an in-stratum path")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--stratum", required=True)
    p.add_argument("--samples", type=int, default=None,
                   help="verification grid size (default 64)")
    p.add_argument("--dump", default=None, help="write per-sample CSV here")
    common(p)
    p.set_defaults(fn=_cmd_connect)

    p = sub.add_parser("census", help="label census with path cross-checks")
    p.add_argument("--stratum", required=True)
    p.add_argument("--trials", type=int, required=True)
    common(p)
    p.set_defaults(fn=_cmd_census)

    p = sub.add_parser("verify-suite", help="run the acceptance experiments")
    p.add_argument("--quick", action="store_true",
                   help="smaller trial counts, same checks")
    common(p)
    p.set_defaults(fn=_cmd_verify_suite)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except json.JSONDecodeError as exc:
        print(f"{_PROG}: malformed tensor file: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"{_PROG}: {exc.strerror}: {exc.filename}", file=sys.stderr)
        return 1
    except RetryExhausted as exc:
        print(f"{_PROG}: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, TensorTopoError) as exc:
        print(f"{_PROG}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
