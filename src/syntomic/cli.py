"""Command line front end.

Subcommands:
  zp       certified weight-graded cohomology table for the p-adic base ring
  certify  build, re-verify, and sample a vanishing certificate for Z/p^n
  ktable   even K-group vanishing table for Z/p^n

Exit codes: 0 when everything demanded was certified/verified, 1 on usage or
input errors, 2 when a result is indeterminate, a certificate fails or an
internal cross-check fails.  Any ValueError, whether from bad input or from a
result too large to write, exits 1 with one ``error:`` line on stderr.
Outputs are byte-stable for a fixed seed: no timestamps, sorted keys, and
all randomness drawn from the given seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import sys

from . import ktheory, verifier, zpn
from .linalg import CERTIFIED, CohomologyReport
from .zp import zp_cohomology

OUTPUT_DIR_ENV = "SYNTOMIC_OUTPUT_DIR"


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract here is 1
    def error(self, message: str):  # noqa: D401
        raise ValueError(message)


def build_parser() -> _Parser:
    # the help width is read once per build: left unset, argparse makes a
    # formatter, which asks for the terminal size, on every add_argument
    fmt = functools.partial(
        argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2
    )
    parser = _Parser(prog="syntomic", description=__doc__, formatter_class=fmt)
    # dest only names the subcommand in argparse's error messages
    sub = parser.add_subparsers(dest="command", required=True)

    zp_cmd = sub.add_parser(
        "zp", help="base ring cohomology table", formatter_class=fmt
    )
    zp_cmd.add_argument("--p", type=int, required=True, help="prime")
    zp_cmd.add_argument(
        "--weights",
        default="0..16",
        help="inclusive weight range a..b, or a single weight",
    )
    zp_cmd.add_argument("--format", choices=_ZP_WRITERS, default="md")
    zp_cmd.add_argument("--output", default=None, help="output file (else stdout)")
    zp_cmd.set_defaults(run=cmd_zp)

    cert_cmd = sub.add_parser(
        "certify", help="vanishing certificate for Z/p^n", formatter_class=fmt
    )
    cert_cmd.add_argument("--p", type=int, required=True, help="prime")
    cert_cmd.add_argument("--n", type=int, required=True, help="power of p")
    cert_cmd.add_argument("--samples", type=int, default=100)
    cert_cmd.add_argument("--seed", type=int, default=0)
    cert_cmd.add_argument(
        "--output", default=None,
        help="certificate path (default vanishing_p{p}_n{n}.json)",
    )
    cert_cmd.set_defaults(run=cmd_certify)

    kt_cmd = sub.add_parser(
        "ktable", help="even K-group table for Z/p^n", formatter_class=fmt
    )
    kt_cmd.add_argument("--p", type=int, required=True, help="prime")
    kt_cmd.add_argument("--n", type=int, required=True, help="power of p")
    kt_cmd.add_argument("--imax", type=int, required=True, help="largest weight i")
    kt_cmd.add_argument("--format", choices=_KTABLE_WRITERS, default="md")
    kt_cmd.add_argument("--output", default=None, help="output file (else stdout)")
    kt_cmd.set_defaults(run=cmd_ktable)
    return parser


def _parse_weights(spec: str) -> tuple[int, int]:
    try:
        if ".." in spec:
            a, b = spec.split("..", 1)
            lo, hi = int(a), int(b)
        else:
            lo = hi = int(spec)
    except ValueError as exc:
        raise ValueError(f"bad weight range {spec!r}") from exc
    if lo < 0 or hi < lo:
        raise ValueError(f"bad weight range {spec!r}")
    return lo, hi


def _emit(text: str, path: str | None) -> None:
    """Write text to stdout, or to path under $SYNTOMIC_OUTPUT_DIR (an
    absolute path is taken as it is)."""
    if path is None:
        sys.stdout.write(text)
        return
    path = os.path.join(os.environ.get(OUTPUT_DIR_ENV, "."), path)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc


def _zp_rows_json(p: int, rows: list[CohomologyReport]) -> str:
    doc = {
        "p": p,
        "rows": [
            {
                "weight": r.weight,
                "status": r.status,
                "h": [r.h0, r.h1, r.h2],
                "generators": [c.name for c in r.generators],
            }
            for r in rows
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _zp_rows_csv(p: int, rows: list[CohomologyReport]) -> str:
    out = ["weight,h0,h1,h2,status,generators"]
    for r in rows:
        gens = ";".join(c.name for c in r.generators)
        out.append(f"{r.weight},{r.h0},{r.h1},{r.h2},{r.status},{gens}")
    return "\n".join(out) + "\n"


def _zp_rows_md(p: int, rows: list[CohomologyReport]) -> str:
    lines = [
        f"# Mod {p} syntomic cohomology of the {p}-adic integers",
        "",
        "| weight | h0 | h1 | h2 | generators | status |",
        "|--------|----|----|----|------------|--------|",
    ]
    for r in rows:
        gens = ", ".join(c.name for c in r.generators) if r.generators else "-"
        lines.append(
            f"| {r.weight} | {r.h0} | {r.h1} | {r.h2} | {gens} | {r.status} |"
        )
    lines.append("")
    return "\n".join(lines)


_ZP_WRITERS = {"json": _zp_rows_json, "csv": _zp_rows_csv, "md": _zp_rows_md}


def cmd_zp(args) -> int:
    lo, hi = _parse_weights(args.weights)
    rows = [zp_cohomology(args.p, i) for i in range(lo, hi + 1)]
    _emit(_ZP_WRITERS[args.format](args.p, rows), args.output)
    return 0 if all(r.status == CERTIFIED for r in rows) else 2


def cmd_certify(args) -> int:
    if args.samples < 1:
        raise ValueError("--samples must be at least 1")
    cert = zpn.certify_vanishing(args.p, args.n)
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
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", path)
    ok = cert.verified and report.ok and sample.ok
    summary = (
        f"p={args.p} n={args.n} steps={len(cert.steps)} "
        f"verified={cert.verified} reverified={report.ok} "
        f"samples={sample.passes}/{sample.total}\n"
    )
    sys.stdout.write(summary)
    return 0 if ok else 2


# writer names, looked up in ktheory at each call, so that the call goes
# through the module attribute (a rebinding there, a tracer's say, is seen)
_KTABLE_WRITERS = {
    "json": "table_to_json", "csv": "table_to_csv", "md": "table_to_markdown"
}


def cmd_ktable(args) -> int:
    table = ktheory.k_even_table(args.p, args.n, args.imax)
    _emit(getattr(ktheory, _KTABLE_WRITERS[args.format])(table), args.output)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except ArithmeticError as exc:  # an internal cross-check failed
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
