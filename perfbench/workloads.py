"""The benchmark's workloads: lists of items, each one call into syntomic
together with the independent check of what it produced.

CLI items call ``syntomic.cli.main(argv)`` in-process with stdout and stderr
captured; each writes its file through ``--output`` into the directory named
by SYNTOMIC_OUTPUT_DIR, which the runner points at a temporary directory.
API items call the public functions.  Every call looks its target up on the
module at call time, so the tracer's rebinding is seen.  The workload seed
reaches the program only as ``certify --seed`` or ``sample_certificate(seed=)``,
which acceptance-grid calls with a sequence of seeds that starts from it.

Why each workload exists (the full record, with the layer metric each
end-to-end metric should follow, is in baseline.json):

- zp-large: single large weights.  Nearly all time is linalg: tail
  materialization, re-keying and negation in square_cohomology, and
  elimination.  The weight pairs (p=2: 150, 300; p=3: 300, 600) give the
  growth exponent in i, and p=2, i=300 and p=3, i=600 are the Baseline cases.
- zpn-large: certify and ktable at large n.  Time goes to the verifier's
  sampling and to the O(i_max p^(n-2)) rows of k_even_table and h2_basis;
  linalg is never called.  The n pairs give the growth in p^(n-2).
- acceptance-grid: the acceptance computations through the public API.
  Many tiny squares, so fixed per-call cost dominates; the verifier takes
  its dense cross-check path, which zpn-large never reaches, and it is the
  only workload that calls verify_truncation.
"""

from __future__ import annotations

import contextlib
import io
import itertools
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterator

import checks
import syntomic
from syntomic import cli


@dataclass(frozen=True)
class Item:
    name: str
    run: Callable[[], Any]
    # (result of run, output directory, stored digests) -> problems
    check: Callable[[Any, Path, dict], list[str]]
    output: str | None = None  # file the item writes into the output directory
    digested: bool = False  # output is seed-independent and has a stored sha256


@dataclass(frozen=True)
class CliOutcome:
    code: int
    stdout: str
    stderr: str


def run_cli(argv: list[str]) -> CliOutcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliOutcome(code, out.getvalue(), err.getvalue())


def _cli_item(argv: list[str], output: str, check, digested: bool) -> Item:
    argv = [*map(str, argv), "--output", output]

    def full_check(outcome: CliOutcome, outdir: Path, digests: dict) -> list[str]:
        if outcome.code != 0:
            return [f"{output}: exit code {outcome.code}: {outcome.stderr.strip()}"]
        path = outdir / output
        if not path.is_file():
            return [f"{output}: no output file"]
        data = path.read_bytes()
        problems = check(outcome, data)
        if digested:
            problems += checks.digest(output, data, digests)
        return problems

    return Item(output, partial(run_cli, argv), full_check, output, digested)


def zp_item(p: int, lo: int, hi: int, fmt: str) -> Item:
    weights = str(lo) if lo == hi else f"{lo}..{hi}"
    output = f"zp-p{p}-w{weights.replace('..', '-')}.{fmt}"

    def check(outcome, data):
        return checks.zp_output(data.decode(), fmt, p, lo, hi)

    argv = ["zp", "--p", p, "--weights", weights, "--format", fmt]
    return _cli_item(argv, output, check, digested=True)


def ktable_item(p: int, n: int, imax: int, fmt: str) -> Item:
    output = f"ktable-p{p}-n{n}-i{imax}.{fmt}"

    def check(outcome, data):
        return checks.ktable_output(data.decode(), fmt, p, n, imax)

    argv = ["ktable", "--p", p, "--n", n, "--imax", imax, "--format", fmt]
    return _cli_item(argv, output, check, digested=True)


def certify_item(p: int, n: int, samples: int, seed: int) -> Item:
    output = f"certify-p{p}-n{n}.json"

    def check(outcome, data):
        return checks.certify_output(outcome.stdout, data.decode(), p, n, samples, seed)

    argv = ["certify", "--p", p, "--n", n, "--samples", samples, "--seed", seed]
    return _cli_item(argv, output, check, digested=False)


# the ROADMAP Baseline cases: traced runs split these squares into stages
BASELINE_ITEMS = {"p2_i300": "zp-p2-w300.json", "p3_i600": "zp-p3-w600.md"}


def zp_large(seed: int) -> list[Item]:
    return [
        zp_item(2, 150, 150, "md"),
        zp_item(2, 300, 300, "json"),
        zp_item(3, 300, 300, "csv"),
        zp_item(3, 600, 600, "md"),
        zp_item(7, 600, 600, "json"),
    ]


# One sample's cost is heavy-tailed in the seed, and more so as n grows: at
# p=2, n=20 a hundred samples can cost twice as much under one seed as under
# another.  So certify samples many times at moderate n, and a run's time
# does not hinge on the seed it drew.
ZPN_SAMPLES = 2000


def zpn_large(seed: int) -> list[Item]:
    return [
        certify_item(2, 8, ZPN_SAMPLES, seed),
        certify_item(2, 10, ZPN_SAMPLES, seed),
        certify_item(3, 8, ZPN_SAMPLES, seed),
        ktable_item(2, 12, 4000, "json"),
        ktable_item(2, 14, 4000, "json"),
        ktable_item(3, 9, 2000, "csv"),
    ]


def _zp_dims(p: int, i: int, extra: int):
    rep = syntomic.zp_cohomology(p, i, extra=extra)
    return (rep.status, rep.dims, len(rep.generators))


def _mod_v1_dims(p: int, i: int):
    rep = syntomic.mod_v1_cohomology(p, i)
    return (rep.status, rep.dims, len(rep.generators))


def _truncation(p: int, i: int) -> bool:
    sq = syntomic.build_zp_square(p, i, extra=2)
    return syntomic.verify_truncation(sq, syntomic.zp.standard_cutoffs(p, i)).ok


def _certificate(p: int, n: int, seeds: Iterator[int]):
    cert = syntomic.certify_vanishing(p, n)
    data = cert.to_dict()
    report = syntomic.verify_certificate(data)
    sample = syntomic.sample_certificate(data, samples=100, seed=next(seeds))
    return (cert.verified, report.ok, sample.passes, sample.total)


def _ktable(p: int, n: int, imax: int):
    table = syntomic.k_even_table(p, n, imax)
    return ([r.i for r in table.rows], {r.i for r in table.rows if r.nonzero})


def _equals(result, _outdir, _digests, *, want, label) -> list[str]:
    return [] if result == want else [f"{label}: got {result}, want {want}"]


def _api_item(label: str, run, want) -> Item:
    return Item(label, run, partial(_equals, want=want, label=label))


def acceptance_grid(seed: int) -> list[Item]:
    # each certificate call samples with the next seed of this sequence: a
    # hundred samples' cost depends on the seed by up to a fifth, so one seed
    # for the whole run would set the slowest item's time
    seeds = itertools.count(seed * 1_000_000)
    items = []
    for p in (2, 3, 5, 7, 11, 13):
        for i in range(3 * p + 1):
            dims = checks.closed_form_dims(p, i)
            for extra in (0, 1, 2):
                items.append(_api_item(
                    f"zp_cohomology p={p} i={i} extra={extra}",
                    partial(_zp_dims, p, i, extra),
                    ("CERTIFIED", dims, sum(dims)),
                ))
            dims = checks.mod_v1_dims(p, i)
            items.append(_api_item(
                f"mod_v1_cohomology p={p} i={i}",
                partial(_mod_v1_dims, p, i),
                ("CERTIFIED", dims, sum(dims)),
            ))
            items.append(_api_item(
                f"verify_truncation p={p} i={i}", partial(_truncation, p, i), True
            ))
    for p in (2, 3, 5):
        for n in range(2, 7):
            items.append(_api_item(
                f"certificate p={p} n={n}",
                partial(_certificate, p, n, seeds),
                (True, True, 100, 100),
            ))
        for n in (2, 3, 4):
            imax = 2 * (p - 1) * p ** (n - 2)
            items.append(_api_item(
                f"k_even_table p={p} n={n}",
                partial(_ktable, p, n, imax),
                (list(range(imax + 1)), checks.bott_nonzero_set(p, n, imax)),
            ))
    return items


WORKLOADS: dict[str, Callable[[int], list[Item]]] = {
    "zp-large": zp_large,
    "zpn-large": zpn_large,
    "acceptance-grid": acceptance_grid,
}


def smoke(seed: int) -> list[Item]:
    """Small items of every kind, for the benchmark's own tests."""
    return [
        zp_item(3, 0, 9, "md"),
        zp_item(2, 0, 6, "csv"),
        certify_item(2, 4, 20, seed),
        ktable_item(3, 3, 12, "json"),
        ktable_item(2, 4, 8, "md"),
    ]
