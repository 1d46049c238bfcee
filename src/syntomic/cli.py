"""Command line front end.

Subcommands:
  zp       certified weight-graded cohomology table for the p-adic base ring
  certify  build, re-verify, and sample a vanishing certificate for Z/p^n
  ktable   even K-group vanishing table for Z/p^n

Exit codes: 0 when everything demanded was certified/verified, 1 on usage or
input errors, 2 when a result is indeterminate or a certificate fails.
Outputs are byte-stable for a fixed seed: no timestamps, sorted keys, and
all randomness drawn from the given seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import ktheory, verifier, zpn
from .linalg import CERTIFIED

# zp_cohomology is not called here; perfbench's tracing test checks that
# cli.zp_cohomology is restored after tracing, so the name stays for it
from .zp import WeightRow, syntomic_basis_table, zp_cohomology  # noqa: F401

OUTPUT_DIR_ENV = "SYNTOMIC_OUTPUT_DIR"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract here is 1
    def error(self, message: str):  # noqa: D401
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="syntomic", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    zp_cmd = sub.add_parser("zp", help="base ring cohomology table")
    zp_cmd.add_argument("--p", type=int, required=True, help="prime")
    zp_cmd.add_argument(
        "--weights",
        default="0..16",
        help="inclusive weight range a..b, or a single weight",
    )
    zp_cmd.add_argument("--format", choices=("json", "csv", "md"), default="md")
    zp_cmd.add_argument("--output", default=None, help="output file (else stdout)")

    cert_cmd = sub.add_parser("certify", help="vanishing certificate for Z/p^n")
    cert_cmd.add_argument("--p", type=int, required=True, help="prime")
    cert_cmd.add_argument("--n", type=int, required=True, help="power of p")
    cert_cmd.add_argument("--samples", type=int, default=100)
    cert_cmd.add_argument("--seed", type=int, default=0)
    cert_cmd.add_argument(
        "--output", default=None, help="certificate path (default vanishing_p{p}_n{n}.json)"
    )

    kt_cmd = sub.add_parser("ktable", help="even K-group table for Z/p^n")
    kt_cmd.add_argument("--p", type=int, required=True, help="prime")
    kt_cmd.add_argument("--n", type=int, required=True, help="power of p")
    kt_cmd.add_argument("--imax", type=int, required=True, help="largest weight i")
    kt_cmd.add_argument("--format", choices=("json", "csv", "md"), default="md")
    kt_cmd.add_argument("--output", default=None, help="output file (else stdout)")
    return parser


def _parse_weights(spec: str) -> tuple[int, int]:
    try:
        if ".." in spec:
            a, b = spec.split("..", 1)
            lo, hi = int(a), int(b)
        else:
            lo = hi = int(spec)
    except ValueError as exc:
        raise UsageError(f"bad weight range {spec!r}") from exc
    if lo < 0 or hi < lo:
        raise UsageError(f"bad weight range {spec!r}")
    return lo, hi


def _resolve_output(path: str | None) -> str | None:
    if path is None:
        return None
    if os.path.isabs(path):
        return path
    return os.path.join(os.environ.get(OUTPUT_DIR_ENV, "."), path)


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _zp_rows_json(p: int, rows: tuple[WeightRow, ...]) -> str:
    doc = {
        "p": p,
        "rows": [
            {
                "weight": r.weight,
                "status": r.status,
                "h": [r.h0, r.h1, r.h2],
                "generators": list(r.generators),
            }
            for r in rows
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _zp_rows_csv(rows: tuple[WeightRow, ...]) -> str:
    out = ["weight,h0,h1,h2,status,generators"]
    for r in rows:
        gens = ";".join(r.generators)
        out.append(f"{r.weight},{r.h0},{r.h1},{r.h2},{r.status},{gens}")
    return "\n".join(out) + "\n"


def _zp_rows_md(p: int, rows: tuple[WeightRow, ...]) -> str:
    lines = [
        f"# Mod {p} syntomic cohomology of the {p}-adic integers",
        "",
        "| weight | h0 | h1 | h2 | generators | status |",
        "|--------|----|----|----|------------|--------|",
    ]
    for r in rows:
        gens = ", ".join(r.generators) if r.generators else "-"
        lines.append(
            f"| {r.weight} | {r.h0} | {r.h1} | {r.h2} | {gens} | {r.status} |"
        )
    lines.append("")
    return "\n".join(lines)


def cmd_zp(args) -> int:
    lo, hi = _parse_weights(args.weights)
    try:
        rows = syntomic_basis_table(args.p, hi, lo)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.format == "json":
        text = _zp_rows_json(args.p, rows)
    elif args.format == "csv":
        text = _zp_rows_csv(rows)
    else:
        text = _zp_rows_md(args.p, rows)
    _emit(text, _resolve_output(args.output))
    return 0 if all(r.status == CERTIFIED for r in rows) else 2


def cmd_certify(args) -> int:
    if args.samples < 1:
        raise UsageError("--samples must be at least 1")
    try:
        cert = zpn.certify_vanishing(args.p, args.n)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    data = cert.to_dict()
    report = verifier.verify_certificate(data)
    sample = verifier.sample_certificate(data, samples=args.samples, seed=args.seed)
    doc = dict(data)
    doc["reverified"] = report.ok
    doc["sampling"] = {
        "passes": sample.passes,
        "total": sample.total,
        "seed": args.seed,
        "cross_checked": sample.cross_checked,
    }
    path = args.output or f"vanishing_p{args.p}_n{args.n}.json"
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", _resolve_output(path))
    ok = cert.verified and report.ok and sample.ok
    summary = (
        f"p={args.p} n={args.n} steps={len(cert.steps)} "
        f"verified={cert.verified} reverified={report.ok} "
        f"samples={sample.passes}/{sample.total}\n"
    )
    sys.stdout.write(summary)
    return 0 if ok else 2


def cmd_ktable(args) -> int:
    try:
        table = ktheory.k_even_table(args.p, args.n, args.imax)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.format == "json":
        text = ktheory.table_to_json(table)
    elif args.format == "csv":
        text = ktheory.table_to_csv(table)
    else:
        text = ktheory.table_to_markdown(table)
    _emit(text, _resolve_output(args.output))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "zp":
            return cmd_zp(args)
        if args.command == "certify":
            return cmd_certify(args)
        if args.command == "ktable":
            return cmd_ktable(args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
