"""Benchmark of the syntomic certifier, end to end and layer by layer.

Run from the root of a checkout (single process, single thread):

    python3 perfbench/run.py --workload zp-large --seed 0 --seconds 35 --trace 0

Workloads are defined in workloads.py.  A run repeats passes over the
workload's items until the next pass would overrun --seconds, checks every
result with checks.py (which shares no code with syntomic), and prints each
metric by name with its unit, then one JSON line:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of untraced passes: set-up time
(fresh interpreters importing the package and building the CLI parser),
pass wall time, the slowest item and peak RSS.  Pass and item times are
given at the host's full speed: a shared host runs at about 0.6 of it for
spells of a tenth of a second to minutes, so the reference loop is timed
every 25 ms while items run and each item's time is scaled by the mean
speed it saw (see `HostSpeed`).  The times as measured are printed too.

--trace 1 alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (see tracing.py), the Baseline split of
the large squares and the tracing overhead; traced and untraced outputs must
match byte for byte.

Outputs go to a temporary directory inside the checkout through
SYNTOMIC_OUTPUT_DIR and --output; it is removed afterwards, and a run that
leaves any other file behind fails.  A failed check makes the run exit 1.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from array import array
from dataclasses import dataclass
from pathlib import Path

import checks
from tracing import Tracer, growth_exponent

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUTPUT_DIR_ENV = "SYNTOMIC_OUTPUT_DIR"

# a fresh interpreter up to an imported package and a built parser; the
# median of about SETUP_RUNS runs spread over the run, after one uncounted
# run that writes the bytecode cache
SETUP_RUNS = 15
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from syntomic import cli; cli.build_parser()"
)


# the reference loop's time at full speed, timed between the program's own
# work (Python 3.11 on a 2-vCPU Intel Xeon VM); it fixes only the unit of the
# scaled times.  The loop is timed every PROBE_EVERY_S while an item runs.
REFERENCE_S = 0.00076
REFERENCE_N = 5000
PROBE_EVERY_S = 0.025


def reference_time() -> float:
    """Seconds for fixed work of the kind the certifier's inner loops do:
    dict updates keyed by small ints."""
    start = time.perf_counter()
    acc: dict[int, int] = {}
    for i in range(REFERENCE_N):
        k = i % 1009
        acc[k] = acc.get(k, 0) + i * 3
    return time.perf_counter() - start


class HostSpeed:
    """Samples how fast the host runs pure Python while items run.

    A shared host switches between full speed and about 0.6 of it every
    tenth of a second to every few seconds, so a single item can run partly
    at each.  While installed (``with speed:``), a timer interrupts the
    program every PROBE_EVERY_S and times the reference loop; ``scaled``
    turns an item's time, less the probes inside it, into its time at
    full speed, using the mean speed of those probes (of the latest probe
    for an item too short to hold one)."""

    def __init__(self) -> None:
        self.factors = array("d")  # REFERENCE_S over each probe's time
        self.spent = 0.0  # seconds inside probes

    def probe(self, *_signal) -> None:
        start = time.perf_counter()
        self.factors.append(REFERENCE_S / reference_time())
        self.spent += time.perf_counter() - start

    def mark(self) -> tuple[int, float]:
        return len(self.factors), self.spent

    def scaled(self, elapsed: float, mark: tuple[int, float]) -> tuple[float, float]:
        """(elapsed less the probes since mark, the same at full speed)."""
        count, spent = mark
        elapsed -= self.spent - spent
        factors = self.factors[count:] or self.factors[-1:]
        return elapsed, elapsed * statistics.fmean(factors)

    def __enter__(self) -> "HostSpeed":
        if not self.factors:
            self.probe()
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


@dataclass
class Pass:
    item_times: array  # seconds per item, in item order
    scaled_times: array  # the same at full speed; as measured if not sampled
    problems: dict[str, list[str]]  # failed item name -> problems
    item_layers: dict[str, dict]  # traced passes: item name -> stat deltas


def setup_time() -> float:
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC)],
        cwd=ROOT, check=True, stdin=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def run_pass(
    items, outdir: Path, digests: dict, tracer=None, speed: HostSpeed | None = None
) -> tuple[Pass, dict]:
    """Run and check every item once, sampling the host's speed if given
    one.  Also returns what each item produced, {name: (result, output
    bytes)}, which the caller drops once compared so that it does not count
    in the peak memory of later passes."""
    done = []
    times, scaled = array("d"), array("d")
    item_layers = {}
    with speed or contextlib.nullcontext():
        for item in items:
            before = tracer.snapshot() if tracer else None
            mark = speed.mark() if speed else None
            t0 = time.perf_counter()
            try:
                result, error = item.run(), None
            except Exception as exc:  # a crashing item is a failed item
                result, error = None, f"{item.name}: raised {exc!r}"
                traceback.print_exc(file=sys.stderr)
            elapsed = time.perf_counter() - t0
            if speed:
                elapsed, at_full_speed = speed.scaled(elapsed, mark)
            times.append(elapsed)
            scaled.append(at_full_speed if speed else elapsed)
            if tracer:
                after = tracer.snapshot()
                item_layers[item.name] = {
                    k: tuple(a - b for a, b in zip(after[k], before[k])) for k in after
                }
            done.append((item, result, error))
    problems, observed = {}, {}
    for item, result, error in done:
        found = [error] if error else item.check(result, outdir, digests)
        if found:
            problems[item.name] = found
        path = outdir / item.output if item.output else None
        observed[item.name] = (result, path.read_bytes() if path and path.is_file() else None)
    return Pass(times, scaled, problems, item_layers), observed


def repeat(seconds: float, body) -> list:
    """Call body(0), body(1), ... until the next call would end after
    `seconds`; at least once."""
    start = time.perf_counter()
    out = []
    while True:
        t0 = time.perf_counter()
        out.append(body(len(out)))
        gc.collect()
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            return out


def tree(root: Path, skip: Path) -> set[str]:
    """Files under root, outside bytecode caches and the run's own directory."""
    files = set()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [
            d for d in dirnames
            if d not in ("__pycache__", ".git") and Path(dirpath, d) != skip
        ]
        files.update(os.path.relpath(os.path.join(dirpath, f), root) for f in filenames)
    return files


def pass_times(times: list[array]) -> tuple[float, float]:
    """(median pass time, slowest item by its median), from each pass's
    item times."""
    return (
        statistics.median(sum(t) for t in times),
        max(statistics.median(t) for t in zip(*times)),
    )


def end_to_end(passes: list[Pass], setup: list[float]) -> dict[str, tuple[float, str]]:
    wall, max_item = pass_times([p.scaled_times for p in passes])
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "max_item_s": (max_item, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def layer_metrics(stats, traced: Pass, baseline_items) -> dict[str, tuple[float, str]]:
    def ratio(a, b):
        return a / b if b else 0.0

    mat, elim = stats["linalg.materialize"], stats["linalg.certified_eliminate"]
    sq, sample = stats["linalg.square_cohomology"], stats["verifier.sample_certificate"]
    kt = stats["ktheory.k_even_table"]
    linalg_self = sum(s.self_time for k, s in stats.items() if k.startswith("linalg."))
    m = {
        "linalg.materialize.s": (mat.total, "s"),
        "linalg.materialize.tail_entries": (mat.counts["tail_entries"], "count"),
        "linalg.square_cohomology.calls": (sq.calls, "count"),
        "linalg.square_cohomology.self_s": (sq.self_time, "s"),
        "linalg.square_cohomology.growth_exp": (
            growth_exponent(sq.records, group=lambda k: k[0], size=lambda k: k[1]), "1"
        ),
        "linalg.certified_eliminate.s": (elim.total, "s"),
        "linalg.certified_eliminate.columns": (elim.counts["columns"], "count"),
        "linalg.certified_eliminate.entries_in": (elim.counts["entries_in"], "count"),
        "linalg.certified_eliminate.pivots": (elim.counts["pivots"], "count"),
        "linalg.certified_eliminate.certified_ratio": (
            ratio(elim.counts["certified"], elim.calls), "1"
        ),
        "linalg.verify_truncation.s": (stats["linalg.verify_truncation"].total, "s"),
        "linalg.self_s": (linalg_self, "s"),
        "linalg.self_share": (linalg_self / sum(traced.item_times), "1"),
        "zp.build_zp_square.s": (stats["zp.build_zp_square"].total, "s"),
        "zp.zp_cohomology.self_s": (stats["zp.zp_cohomology"].self_time, "s"),
        "zp.named_basis.calls": (stats["zp.named_basis"].calls, "count"),
        "zp.named_basis.s": (stats["zp.named_basis"].total, "s"),
        "zpn.certify_vanishing.s": (stats["zpn.certify_vanishing"].total, "s"),
        "zpn.certify_vanishing.steps": (
            stats["zpn.certify_vanishing"].counts["steps"], "count"
        ),
        "verifier.sample_certificate.s": (sample.total, "s"),
        "verifier.sample_certificate.per_sample_ms": (
            ratio(sample.total * 1e3, sample.counts["samples"]), "ms"
        ),
        "verifier.sample_certificate.pass_ratio": (
            ratio(sample.counts["passes"], sample.counts["samples"]), "1"
        ),
        "verifier.sample_certificate.growth_exp": (
            growth_exponent(
                sample.records, group=lambda k: k[0], size=lambda k: k[0] ** (k[1] - 2)
            ),
            "1",
        ),
        "verifier.verify_certificate.calls": (
            stats["verifier.verify_certificate"].calls, "count"
        ),
        "ktheory.k_even_table.self_s": (kt.self_time, "s"),
        "ktheory.k_even_table.rows": (kt.counts["rows"], "count"),
        "ktheory.k_even_table.growth_exp": (
            growth_exponent(
                kt.records, group=lambda k: (k[0], k[2]), size=lambda k: k[0] ** (k[1] - 2)
            ),
            "1",
        ),
        "ktheory.h2_basis.self_s": (stats["ktheory.h2_basis"].self_time, "s"),
        "ktheory.serialize.s": (stats["ktheory.serialize"].total, "s"),
        "cli.main.self_s": (stats["cli.main"].self_time, "s"),
    }
    # the Baseline split of one square: total = materialize + self + eliminate
    for case, item in baseline_items.items():
        d = traced.item_layers.get(item)
        for metric, stat, col in (
            (f"linalg.square_cohomology.{case}_s", "linalg.square_cohomology", 1),
            (f"linalg.materialize.{case}_s", "linalg.materialize", 1),
            (f"linalg.square_cohomology.{case}_self_s", "linalg.square_cohomology", 2),
            (f"linalg.certified_eliminate.{case}_s", "linalg.certified_eliminate", 1),
        ):
            m[metric] = (d[stat][col] if d else 0.0, "s")
    return m


def medians(dicts: list[dict[str, tuple[float, str]]]) -> dict[str, tuple[float, str]]:
    return {
        k: (statistics.median(d[k][0] for d in dicts), unit)
        for k, (_, unit) in dicts[0].items()
    }


def compare(untraced: dict, traced: dict) -> dict[str, list[str]]:
    """Items whose traced result or output bytes differ from the untraced ones."""
    return {
        name: [f"{name}: tracing changed the output"]
        for name, seen in untraced.items()
        if traced.get(name) != seen
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "syntomic" / "__init__.py").is_file():
        print(f"error: no syntomic package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    items = workloads.WORKLOADS[args.workload](args.seed)
    digests = checks.load_digests()
    outdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    files_before = tree(ROOT, outdir)
    os.environ[OUTPUT_DIR_ENV] = str(outdir)
    try:
        if args.trace:
            def traced_pass():
                with Tracer() as tracer:
                    return run_pass(items, outdir, digests, tracer), tracer

            def cycle(k):
                # alternate which side runs first, so neither always runs cold
                if k % 2:
                    (traced, traced_seen), tracer = traced_pass()
                    plain, plain_seen = run_pass(items, outdir, digests)
                else:
                    plain, plain_seen = run_pass(items, outdir, digests)
                    (traced, traced_seen), tracer = traced_pass()
                traced.problems.update(compare(plain_seen, traced_seen))
                layers = layer_metrics(tracer.stats, traced, workloads.BASELINE_ITEMS)
                return plain, traced, layers

            cycles = repeat(args.seconds, cycle)
            passes = [p for c in cycles for p in c[:2]]
            metrics = medians([c[2] for c in cycles])
            metrics["trace.overhead_ratio"] = (
                pass_times([c[1].item_times for c in cycles])[0]
                / pass_times([c[0].item_times for c in cycles])[0],
                "1",
            )
        else:
            setup_time()  # writes the bytecode cache
            setup, start, speed = [], time.perf_counter(), HostSpeed()

            def measured_pass(k):
                # spread the set-up runs over the whole run, so that they meet
                # the host's fast and slow spells alike
                due = SETUP_RUNS * (time.perf_counter() - start) / args.seconds
                while len(setup) < max(1, due):
                    setup.append(setup_time())
                return run_pass(items, outdir, digests, speed=speed)[0]

            passes = repeat(args.seconds, measured_pass)
            metrics = end_to_end(passes, setup)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    problems = [msg for p in passes for found in p.problems.values() for msg in found]
    failed = sum(len(p.problems) for p in passes)
    attempted = sum(len(p.item_times) for p in passes) + 1
    left_behind = sorted(tree(ROOT, outdir) ^ files_before)
    if left_behind:
        failed += 1
        problems.append(f"the run changed files in the checkout: {left_behind[:5]}")

    for msg in problems[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    print(
        f"# {args.workload} seed={args.seed} trace={args.trace}: {len(passes)} passes, "
        f"{sum(len(p.item_times) for p in passes)} item samples, {failed} failed"
    )
    for name, (value, unit) in metrics.items():
        print(f"{name:52s} {value:14.6f} {unit}")
    if not args.trace:
        wall, max_item = pass_times([p.item_times for p in passes])
        print(f"# as measured, before scaling: wall_s {wall:.6f} s, max_item_s {max_item:.6f} s")
    if args.trace:
        for case in workloads.BASELINE_ITEMS:
            total = metrics[f"linalg.square_cohomology.{case}_s"][0]
            if total:
                print(
                    f"# Baseline {case}: square_cohomology {total:.3f} s = materialize "
                    f"{metrics[f'linalg.materialize.{case}_s'][0]:.3f} + re-key/negate "
                    f"{metrics[f'linalg.square_cohomology.{case}_self_s'][0]:.3f} + eliminate "
                    f"{metrics[f'linalg.certified_eliminate.{case}_s'][0]:.3f}"
                )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
