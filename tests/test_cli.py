import hashlib
import json
import sys
import time

import pytest

from conftest import Series, square_map, with_map_entry
from syntomic import zp
from syntomic.cli import main
from syntomic.linalg import UNKNOWN_ENTRY
from syntomic.verifier import VerifierReport
from syntomic.zp import zp_cohomology


def test_usage_errors_exit_one(capsys):
    assert main(["zp", "--p", "4", "--weights", "0..2"]) == 1
    assert main(["zp", "--p", "3", "--weights", "5..2"]) == 1
    assert main(["zp", "--p", "3", "--weights", "abc"]) == 1
    assert main(["zp", "--p", "3", "--bogus"]) == 1
    assert main(["zp", "--p", "3", "--format", "xml"]) == 1
    assert main(["zp", "--p", "abc"]) == 1
    assert main(["certify", "--p", "3"]) == 1
    assert main(["certify", "--p", "3", "--n", "1"]) == 1
    assert main(["ktable", "--p", "4", "--n", "3", "--imax", "5"]) == 1
    assert main(["ktable", "--p", "3", "--n", "1", "--imax", "5"]) == 1
    assert main(["ktable", "--p", "3", "--n", "3", "--imax", "-1"]) == 1
    assert main(["nonsense"]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 12
    # n <= 0 is refused by the same n >= 2 check as n = 1
    assert main(["certify", "--p", "3", "--n", "0"]) == 1
    assert capsys.readouterr().err == "error: need n >= 2\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["zp", "--weights", "0..3"],
        ["certify", "--n", "3", "--samples", "2"],
        ["ktable", "--n", "3", "--imax", "5"],
    ],
    ids=["zp", "certify", "ktable"],
)
def test_a_61_bit_prime_runs_at_once(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    assert main(argv[:1] + ["--p", str(2**61 - 1)] + argv[1:]) == 0
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["zp", "--weights", "1"],
        ["certify", "--n", "2", "--samples", "1"],
        ["ktable", "--n", "2", "--imax", "1"],
    ],
    ids=["zp", "certify", "ktable"],
)
def test_a_prime_past_the_primality_limit_exits_one(
    argv, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    p = 2**64 + 13  # prime, but past where primality is decided exactly
    assert main(argv[:1] + ["--p", str(p)] + argv[1:]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: p={p} is at or above the primality limit 2^64\n"
    assert list(tmp_path.iterdir()) == []  # nothing written


def test_zp_markdown_to_stdout(capsys):
    assert main(["zp", "--p", "3", "--weights", "0..4"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# Mod 3 syntomic cohomology")
    assert "| 0 | 1 | 1 | 0 |" in out
    assert "CERTIFIED" in out


def test_zp_single_weight_csv(capsys):
    assert main(["zp", "--p", "2", "--weights", "3", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "weight,h0,h1,h2,status,generators"
    assert len(lines) == 2
    assert lines[1].startswith("3,1,3,1,CERTIFIED,")


def test_zp_json_rows_are_the_reports(capsys):
    assert main(["zp", "--p", "3", "--weights", "0..9", "--format", "json"]) == 0
    out = capsys.readouterr().out
    rows = json.loads(out)["rows"]
    assert [r["weight"] for r in rows] == list(range(10))
    for row in rows:
        rep = zp_cohomology(3, row["weight"])
        assert row["h"] == list(rep.dims)
        assert row["status"] == rep.status
        assert row["generators"] == [c.name for c in rep.generators]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "82c88600f86ecfb2fc56bf2d3f292e00a2fb6c2612c633a30c47ba027e433a7f"
    )


def _zp_rows(fmt: str, text: str) -> dict:
    """weight -> (status, dims, generators) from one zp output file."""
    if fmt == "json":
        rows = json.loads(text)["rows"]
        return {r["weight"]: (r["status"], r["h"], r["generators"]) for r in rows}
    out = {}
    if fmt == "csv":
        for line in text.splitlines()[1:]:
            w, h0, h1, h2, status, gens = line.split(",", 5)
            out[int(w)] = (status, [h0, h1, h2], gens.split(";") if gens else [])
    else:
        for line in text.splitlines()[4:]:
            if line:
                w, h0, h1, h2, gens, status = (
                    c.strip() for c in line.strip("|").split("|")
                )
                out[int(w)] = (
                    status, [h0, h1, h2], [] if gens == "-" else gens.split(", ")
                )
    return out


@pytest.mark.parametrize("fmt", ["json", "csv", "md"])
def test_zp_indeterminate_weight_exits_two_with_its_row(
    fmt, tmp_path, monkeypatch, capsys
):
    # an unknown leading term of nabla_bot at BL 1 leaves d1 no certain pivot
    # on BR row 1 in weight 3; weights 2 and 4 are built as usual
    honest = zp.build_zp_square

    def blocked(p, i, extra=0):
        sq = honest(p, i, extra)
        if (p, i) != (2, 3):
            return sq
        col = square_map(sq, "nabla_bot")[1]
        lead = ((col.terms[0][0], UNKNOWN_ENTRY),) + col.terms[1:]
        return with_map_entry(sq, "nabla_bot", 1, Series(lead, col.tail_from))

    monkeypatch.setattr(zp, "build_zp_square", blocked)
    assert zp_cohomology(2, 3).d1.blocking == (("BL", 1), ("BR", 1))
    monkeypatch.setenv("SYNTOMIC_OUTPUT_DIR", str(tmp_path))
    argv = ["zp", "--p", "2", "--weights", "2..4", "--format", fmt]
    assert main(argv + ["--output", "f"]) == 2
    assert capsys.readouterr().out == ""
    rows = _zp_rows(fmt, (tmp_path / "f").read_text())
    assert sorted(rows) == [2, 3, 4]
    status, dims, gens = rows[3]
    assert status == "INDETERMINATE"
    assert not any(str(h).isdigit() for h in dims) and gens == []
    for w in (2, 4):
        rep = zp_cohomology(2, w)
        assert rows[w][0] == "CERTIFIED"
        assert [int(h) for h in rows[w][1]] == list(rep.dims)
        assert rows[w][2] == [c.name for c in rep.generators]


def test_output_dir_env_joins_relative_paths(tmp_path, monkeypatch):
    monkeypatch.setenv("SYNTOMIC_OUTPUT_DIR", str(tmp_path))
    code = main(
        ["zp", "--p", "3", "--weights", "0..2", "--format", "json",
         "--output", "rows.json"]
    )
    assert code == 0
    doc = json.loads((tmp_path / "rows.json").read_text())
    assert doc["p"] == 3 and len(doc["rows"]) == 3
    absolute = tmp_path / "elsewhere.json"
    assert main(
        ["zp", "--p", "3", "--weights", "0..1", "--format", "json",
         "--output", str(absolute)]
    ) == 0
    assert absolute.exists()


def test_unwritable_output_is_a_clean_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SYNTOMIC_OUTPUT_DIR", str(tmp_path / "missing"))
    code = main(["ktable", "--p", "2", "--n", "2", "--imax", "2",
                 "--output", "x.json"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: cannot write")


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit"
)
@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--n", "240", "--samples", "1"],
        ["ktable", "--n", "240", "--imax", "3", "--format", "json"],
    ],
    ids=["certify", "ktable"],
)
def test_unwritable_result_exits_one(argv, tmp_path, monkeypatch, capsys):
    # at n=240 a 61-bit p gives integers past the default 4300-digit limit
    # of int-to-str conversion, so json serialization raises ValueError
    monkeypatch.chdir(tmp_path)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code = main(argv[:1] + ["--p", str(2**61 - 1)] + argv[1:])
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []  # nothing written


def test_certify_default_path_and_summary(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(["certify", "--p", "2", "--n", "3", "--samples", "10",
                 "--seed", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert out == "p=2 n=3 steps=1 verified=True reverified=True samples=10/10\n"
    doc = json.loads((tmp_path / "vanishing_p2_n3.json").read_text())
    assert doc["reverified"] is True
    assert doc["sampling"] == {
        "passes": 10, "total": 10, "seed": 4, "cross_checked": True,
    }


def test_certify_failing_samples_exit_two(
    seventh_peel_fails, tmp_path, monkeypatch, capsys
):
    # one failed peel goes through the sampler's own count to the exit code
    monkeypatch.chdir(tmp_path)
    assert main(["certify", "--p", "2", "--n", "4", "--samples", "10"]) == 2
    assert capsys.readouterr().out.endswith(" samples=9/10\n")
    assert seventh_peel_fails == [True] * 10
    doc = json.loads((tmp_path / "vanishing_p2_n4.json").read_text())
    assert doc["sampling"]["passes"] == 9 and doc["sampling"]["total"] == 10


def test_certify_passes_every_sample_far_above_the_benchmark_n(
    tmp_path, monkeypatch, capsys
):
    # n = 60 gives a truncation bound of 60 * 2^58; the exit code must still
    # say that every sample passed
    monkeypatch.chdir(tmp_path)
    assert main(["certify", "--p", "2", "--n", "60", "--samples", "20"]) == 0
    assert capsys.readouterr().out.endswith(" samples=20/20\n")


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_certify_rejects_samples_below_one(samples, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["certify", "--p", "2", "--n", "3", "--samples", samples]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: --samples must be at least 1\n"
    assert list(tmp_path.iterdir()) == []  # nothing written


def test_ktable_csv_golden(capsys):
    assert main(["ktable", "--p", "3", "--n", "3", "--imax", "10",
                 "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "i,nonzero"
    flags = [line.split(",")[1] for line in lines[1:]]
    assert flags == ["1", "0", "1", "0", "1", "0", "1", "0", "0", "0", "0"]


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["--p", "2", "--n", "7", "--imax", "40", "--format", "json"],
            "1e59d8c761bbf635404556d2b7518d1d3c42b21bfdb2b2e6432f85ea588e8d9e",
        ),
        (
            ["--p", "3", "--n", "5", "--imax", "60", "--format", "md"],
            "30d0669bb44dadf688d170039b145db982fd381cadb76d6f23dfded7d6411f8e",
        ),
    ],
    ids=["p2-n7-json", "p3-n5-md"],
)
def test_ktable_notes_golden(argv, digest, capsys):
    # the Bott tower reaches v1^31 and v1^26 here: multi-digit exponents
    assert main(["ktable"] + argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


ZP_HELP_AT_80_COLUMNS = """\
usage: syntomic zp [-h] --p P [--weights WEIGHTS] [--format {json,csv,md}]
                   [--output OUTPUT]

options:
  -h, --help            show this help message and exit
  --p P                 prime
  --weights WEIGHTS     inclusive weight range a..b, or a single weight
  --format {json,csv,md}
  --output OUTPUT       output file (else stdout)
"""


def test_zp_help_is_pinned_and_wraps_at_the_terminal_width(monkeypatch, capsys):
    # argparse wraps help two columns short of COLUMNS, read once per build
    def help_at(columns):
        monkeypatch.setenv("COLUMNS", str(columns))
        with pytest.raises(SystemExit) as stop:
            main(["zp", "--help"])
        assert stop.value.code == 0
        return capsys.readouterr().out

    assert help_at(80) == ZP_HELP_AT_80_COLUMNS
    widest = max(len(line) for line in ZP_HELP_AT_80_COLUMNS.splitlines())
    narrow = help_at(50)
    assert max(len(line) for line in narrow.splitlines()) <= 48 < widest
    assert narrow.count("\n") > ZP_HELP_AT_80_COLUMNS.count("\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["zp", "--p", "5", "--weights", "0..12", "--format", "json"],
        ["certify", "--p", "3", "--n", "3", "--samples", "25", "--seed", "7"],
        ["ktable", "--p", "2", "--n", "4", "--imax", "8", "--format", "json"],
    ],
    ids=["zp", "certify", "ktable"],
)
def test_outputs_are_byte_deterministic(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SYNTOMIC_OUTPUT_DIR", str(tmp_path))
    assert main(argv + ["--output", "first.out"]) == 0
    assert main(argv + ["--output", "second.out"]) == 0
    capsys.readouterr()
    first = (tmp_path / "first.out").read_bytes()
    assert first == (tmp_path / "second.out").read_bytes()
    assert first  # nonempty


@pytest.mark.parametrize(
    "target, fake, argv, message",
    [
        (
            "syntomic.zp.named_basis",
            lambda p, i: (),
            ["zp", "--p", "3", "--weights", "0..2"],
            "named basis does not match the certified witnesses in weight 0: "
            "missing BL 0, TL 0; extra none; 0 named for dims (1, 1, 0)",
        ),
        (
            "syntomic.verifier._dense_membership",
            lambda p, n, units: None,
            ["certify", "--p", "2", "--n", "3", "--samples", "5"],
            "greedy and dense membership disagree on a sample",
        ),
        (
            "syntomic.ktheory.h2_name",
            lambda p, w: None,
            ["ktable", "--p", "2", "--n", "3", "--imax", "4"],
            "expected one H^2 class in weight 2",
        ),
        (
            "syntomic.ktheory.verify_certificate",
            lambda data: VerifierReport(ok=False, checks=(), errors=("forced",)),
            ["ktable", "--p", "3", "--n", "3", "--imax", "5"],
            "certificate failed re-verification: ('forced',)",
        ),
    ],
    ids=["zp", "certify", "ktable", "ktable-reverify"],
)
def test_failed_cross_check_exits_two(
    target, fake, argv, message, tmp_path, monkeypatch, capsys
):
    # a broken internal cross-check is a failed result, not a traceback
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(target, fake)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []  # nothing written
