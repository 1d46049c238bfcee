import json

import pytest

from syntomic.cli import main
from syntomic.verifier import SampleReport


def test_usage_errors_exit_one(capsys):
    assert main(["zp", "--p", "4", "--weights", "0..2"]) == 1
    assert main(["zp", "--p", "3", "--weights", "5..2"]) == 1
    assert main(["zp", "--p", "3", "--weights", "abc"]) == 1
    assert main(["zp", "--p", "3", "--bogus"]) == 1
    assert main(["certify", "--p", "3"]) == 1
    assert main(["certify", "--p", "3", "--n", "1"]) == 1
    assert main(["nonsense"]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 7


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


def test_certify_failing_samples_exit_two(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(
        "syntomic.cli.verifier.sample_certificate",
        lambda data, samples, seed: SampleReport(
            passes=samples - 1, total=samples, cross_checked=False
        ),
    )
    assert main(["certify", "--p", "2", "--n", "2", "--samples", "10"]) == 2
    assert "samples=9/10" in capsys.readouterr().out


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
