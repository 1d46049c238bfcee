"""Per-layer tracing by rebinding the public functions of syntomic.

A Tracer replaces each listed function with a timing wrapper under every
name that refers to it in a loaded syntomic module (``zp.square_cohomology``,
``cli.zp_cohomology``, ``ktheory.verify_certificate`` and so on), so calls
made through any import are seen.  ``restore`` puts the originals back.
Nothing inside the program changes: the wrappers pass arguments and results
through untouched.

Spans are aggregated as they close rather than stored one by one, because
some functions run hundreds of thousands of times in a pass: each stat keeps
its call count, total time and self time (total minus the time of traced
callees), plus counters that a per-function hook derives from arguments
and results.  A few functions also keep one (key, seconds) record per call,
from which growth exponents are fitted.

The arith module is not wrapped: its functions are too small and too hot to
time without distorting the run.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    counts: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    records: list[tuple[Any, float]] = field(default_factory=list)


@dataclass(frozen=True)
class Layer:
    """One traced function: its module, name, stat name and hooks."""

    module: str
    function: str
    stat: str
    count: Callable[[dict, tuple, Any], None] | None = None
    key: Callable[[tuple], Any] | None = None


def _materialize(c, args, result):
    c["tail_entries"] += len(result) - len(args[0].terms)


def _eliminate(c, args, result):
    columns = args[0]
    c["columns"] += len(columns)
    c["entries_in"] += sum(len(col) for col in columns.values())
    c["pivots"] += result.rank
    c["certified"] += result.status == "CERTIFIED"


def _certify(c, args, result):
    c["steps"] += len(result.steps)


def _sample(c, args, result):
    c["passes"] += result.passes
    c["samples"] += result.total


def _ktable(c, args, result):
    c["rows"] += len(result.rows)


def _cert_key(args):
    return (int(args[0]["p"]), int(args[0]["n"]))


PACKAGE = "syntomic"

LAYERS = (
    Layer("linalg", "materialize", "linalg.materialize", _materialize),
    Layer("linalg", "certified_eliminate", "linalg.certified_eliminate", _eliminate),
    Layer(
        "linalg", "square_cohomology", "linalg.square_cohomology",
        key=lambda args: (args[0].p, args[0].weight),
    ),
    Layer("linalg", "verify_truncation", "linalg.verify_truncation"),
    Layer("zp", "build_zp_square", "zp.build_zp_square"),
    Layer("zp", "zp_cohomology", "zp.zp_cohomology"),
    Layer("zp", "named_basis", "zp.named_basis"),
    Layer("zpn", "certify_vanishing", "zpn.certify_vanishing", _certify),
    Layer("verifier", "verify_certificate", "verifier.verify_certificate"),
    Layer(
        "verifier", "sample_certificate", "verifier.sample_certificate",
        _sample, key=_cert_key,
    ),
    Layer(
        "ktheory", "k_even_table", "ktheory.k_even_table",
        _ktable, key=lambda args: (args[0], args[1], args[2]),
    ),
    Layer("ktheory", "h2_basis", "ktheory.h2_basis"),
    Layer("ktheory", "table_to_json", "ktheory.serialize"),
    Layer("ktheory", "table_to_csv", "ktheory.serialize"),
    Layer("ktheory", "table_to_markdown", "ktheory.serialize"),
    Layer("cli", "main", "cli.main"),
)


class Tracer:
    """Install with ``with Tracer() as tracer:``; read ``tracer.stats``."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {layer.stat: Stat() for layer in LAYERS}
        self._stack: list[float] = []  # child time of each open span
        self._bound: list[tuple[Any, str, Any]] = []

    def _wrap(self, fn, layer: Layer):
        stat = self.stats[layer.stat]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - child
            if layer.count is not None:
                layer.count(stat.counts, args, result)
            if layer.key is not None:
                stat.records.append((layer.key(args), elapsed))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for layer in LAYERS:
            original = getattr(sys.modules[f"{PACKAGE}.{layer.module}"], layer.function)
            wrapper = self._wrap(original, layer)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._bound.append((module, attr, original))

    def restore(self) -> None:
        while self._bound:
            module, attr, original = self._bound.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def snapshot(self) -> dict[str, tuple[int, float, float]]:
        return {k: (s.calls, s.total, s.self_time) for k, s in self.stats.items()}


def growth_exponent(
    records: list[tuple[Any, float]],
    group: Callable[[Any], Any],
    size: Callable[[Any], float],
) -> float:
    """Median over groups of the log-log slope of time against size.

    Calls are grouped (for example by p), times are averaged per size, and
    a least-squares line is fitted through log(time) against log(size) in
    every group with at least two sizes.  0.0 when no group has two sizes.
    """
    by_group: dict[Any, dict[float, list[float]]] = defaultdict(lambda: defaultdict(list))
    for key, seconds in records:
        s = size(key)
        if s > 0 and seconds > 0:
            by_group[group(key)][s].append(seconds)
    slopes = []
    for sizes in by_group.values():
        if len(sizes) < 2:
            continue
        xs = [math.log(s) for s in sizes]
        ys = [math.log(statistics.fmean(t)) for t in sizes.values()]
        mx, my = statistics.fmean(xs), statistics.fmean(ys)
        sxx = sum((x - mx) ** 2 for x in xs)
        slopes.append(sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx)
    return statistics.median(slopes) if slopes else 0.0
