"""Tests of the benchmark itself, on the small items of workloads.smoke:
its checks catch tampered output, tracing and host-speed sampling leave
every output unchanged, and the workload seed reaches certify."""

import json
import signal
from array import array
from dataclasses import replace

import pytest

import checks
import run
import workloads
from tracing import Tracer, growth_exponent

from syntomic import cli, ktheory, linalg, verifier, zp


@pytest.fixture
def outdir(tmp_path, monkeypatch):
    monkeypatch.setenv(run.OUTPUT_DIR_ENV, str(tmp_path))
    return tmp_path


def _smoke_item(name, seed=0):
    return next(item for item in workloads.smoke(seed) if item.name == name)


@pytest.mark.parametrize(
    "name, old, new",
    [
        ("zp-p3-w0-9.md", "| 3 | 0 | 2 | 1 |", "| 3 | 0 | 3 | 1 |"),  # wrong h1
        ("zp-p2-w0-6.csv", "2,1,3,1,CERTIFIED", "2,1,3,1,INDETERMINATE"),
        ("zp-p3-w0-9.md", "gamma_1", "gamma_9"),  # dims intact: only the digest sees it
        ("ktable-p3-n3-i12.json", '"nonzero": false', '"nonzero": true'),
        ("ktable-p2-n4-i8.md", "| 5 | 0 |", "| 5 | nonzero |"),
    ],
)
def test_tampered_output_row_is_a_failure(outdir, name, old, new):
    item = _smoke_item(name)
    digests = checks.load_digests()

    def run_and_tamper():
        outcome = item.run()
        path = outdir / name
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))
        return outcome

    assert run.run_pass([item], outdir, digests)[0].problems == {}
    tampered, _ = run.run_pass([replace(item, run=run_and_tamper)], outdir, digests)
    assert list(tampered.problems) == [name]


def test_failing_exit_code_and_crash_are_failures(outdir):
    item = _smoke_item("zp-p2-w0-6.csv")

    def crash():
        raise ArithmeticError("internal cross-check failed")

    for bad in (lambda: workloads.CliOutcome(2, "", ""), crash):
        result, _ = run.run_pass([replace(item, run=bad)], outdir, checks.load_digests())
        assert list(result.problems) == [item.name]


def test_tracing_keeps_stdout_and_files_byte_identical(outdir):
    items = workloads.smoke(5)
    digests = checks.load_digests()
    plain, plain_seen = run.run_pass(items, outdir, digests)
    with Tracer() as tracer:
        assert hasattr(zp.square_cohomology, "__wrapped__")
        traced, traced_seen = run.run_pass(items, outdir, digests, tracer)
    assert plain.problems == traced.problems == {}
    assert run.compare(plain_seen, traced_seen) == {}
    assert all(out is not None for _, out in traced_seen.values())
    assert tracer.stats["cli.main"].calls == len(items)
    assert tracer.stats["linalg.square_cohomology"].calls == 17
    # every rebinding is undone
    for module, name in (
        (zp, "square_cohomology"), (cli, "zp_cohomology"), (ktheory, "verify_certificate"),
        (verifier, "verify_certificate"), (cli, "main"),
    ):
        assert not hasattr(getattr(module, name), "__wrapped__")


def test_compare_reports_changed_bytes(outdir):
    items = workloads.smoke(0)[:1]
    _, plain = run.run_pass(items, outdir, {})
    _, other = run.run_pass(items, outdir, {})
    name = items[0].name
    assert run.compare(plain, other) == {}
    result, data = other[name]
    other[name] = (result, data + b"\n")
    assert list(run.compare(plain, other)) == [name]


def test_seed_reaches_certify(outdir):
    item = _smoke_item("certify-p2-n4.json", seed=7)
    assert run.run_pass([item], outdir, {})[0].problems == {}
    doc = json.loads((outdir / item.output).read_text())
    assert doc["sampling"]["seed"] == 7
    # the same output checked against another seed is a failure
    assert "seed" in " ".join(_smoke_item(item.name, seed=8).check(
        workloads.run_cli(item.run.args[0]), outdir, {}
    ))
    certify = [i for i in workloads.zpn_large(7) if i.name.startswith("certify-")]
    assert certify and all(i.run.args[0][-4:-2] == ["--seed", "7"] for i in certify)


def test_metric_names_match_benchmark_json(outdir):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    items = workloads.smoke(0)
    with Tracer() as tracer:
        traced, _ = run.run_pass(items, outdir, checks.load_digests(), tracer)
    layers = run.layer_metrics(tracer.stats, traced, workloads.BASELINE_ITEMS)
    assert [m["name"] for m in spec["per_layer"]] == [*layers, "trace.overhead_ratio"]
    e2e = run.end_to_end([traced], [0.1])
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}
    assert all(units[k] == unit for k, (_, unit) in {**layers, **e2e}.items())


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "zp-large", "--seconds", "1"]) == 2


def test_growth_exponent_fits_each_group():
    # time grows like size^2 at p=2 and like size at p=3; the median slope is 1.5
    records = [
        ((p, size), 1e-6 * size ** (4 - p)) for p in (2, 3) for size in (50, 100, 400)
    ]
    records.append(((5, 100), 0.5))  # a group with one size has no slope
    assert growth_exponent(records, group=lambda k: k[0], size=lambda k: k[1]) == pytest.approx(1.5)
    assert growth_exponent([], group=lambda k: k, size=lambda k: k) == 0.0


def test_digest_failure_names_the_observed_sha256():
    seen = checks.sha256(b"table\n")
    assert checks.digest("t.md", b"table\n", {"t.md": seen}) == []
    for stored in ({"t.md": "0" * 64}, {}):
        (problem,) = checks.digest("t.md", b"table\n", stored)
        assert seen in problem


def test_end_to_end_times_are_medians_at_the_reference_speed():
    raw = array("d", [9.0, 9.0])
    passes = [
        run.Pass(raw, array("d", [1.0, 5.0]), {}, {}),
        run.Pass(raw, array("d", [2.0, 3.0]), {}, {}),
        run.Pass(raw, array("d", [4.0, 4.0]), {}, {}),
    ]
    metrics = run.end_to_end(passes, [0.3, 0.1, 0.2])
    assert metrics["wall_s"][0] == 6.0
    assert metrics["max_item_s"][0] == 4.0
    assert metrics["setup_s"][0] == 0.2


def test_host_speed_scales_by_the_probes_inside_an_item():
    speed = run.HostSpeed()
    speed.factors.append(0.25)
    mark = speed.mark()
    assert speed.scaled(2.0, mark) == (2.0, 0.5)  # no probe inside: the latest
    speed.factors.extend([0.5, 1.0])
    speed.spent += 0.5
    assert speed.scaled(2.0, mark) == (1.5, 1.125)  # probes excluded, mean speed


def test_sampled_pass_keeps_its_outputs(outdir):
    items = workloads.smoke(0)[:2]
    digests = checks.load_digests()
    plain, plain_seen = run.run_pass(items, outdir, digests)
    sampled, sampled_seen = run.run_pass(items, outdir, digests, speed=run.HostSpeed())
    assert plain.problems == sampled.problems == {}
    assert run.compare(plain_seen, sampled_seen) == {}
    assert all(s > 0 for s in sampled.scaled_times)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
