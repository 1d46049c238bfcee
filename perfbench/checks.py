"""Correctness checks for the benchmark's outputs.

This module deliberately imports nothing from syntomic.  Every expected
value is re-derived here from the closed forms the certifier claims, and
every CLI output is parsed from its bytes, so a defect in the program
cannot also hide in its check.  Each check returns a list of problems; an
empty list means the output is correct.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

DIGESTS_PATH = Path(__file__).with_name("digests.json")


def closed_form_dims(p: int, i: int) -> tuple[int, int, int]:
    """(h0, h1, h2) of the weight-i cohomology of the p-adic integers."""
    h0 = int(i % (p - 1) == 0)
    h2 = int(i >= p and (i - 1) % (p - 1) == 0)
    return (h0, h0 + int(i >= 1) + h2, h2)


def mod_v1_dims(p: int, i: int) -> tuple[int, int, int]:
    """(h0, h1, h2) of the weight-i cohomology reduced modulo v1."""
    if i == 0:
        return (1, 1, 0)
    if i <= p - 1:
        return (0, 1, 0)
    if i == p:
        return (0, 1, 1)
    return (0, 0, 0)


def bott_nonzero_set(p: int, n: int, imax: int) -> set[int]:
    """Weights i <= imax with K_(2i)(Z/p^n) nonzero: 0 and the Bott tower."""
    tower = {(k + 1) * (p - 1) for k in range(min(p ** (n - 2), imax + 1))}
    return {0} | {i for i in tower if i <= imax}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def digest(name: str, data: bytes, digests: dict[str, str]) -> list[str]:
    """The output's sha256 equals the one stored for it in digests.json.

    A deliberate change of output is recorded by editing digests.json by
    hand, from the sha256 that the failure message names."""
    want, seen = digests.get(name), sha256(data)
    if want is None:
        return [f"{name}: no stored digest (sha256 {seen})"]
    if seen != want:
        return [f"{name}: sha256 {seen} differs from the stored {want}"]
    return []


# --------------------------------------------------------------- zp tables


def _zp_rows(text: str, fmt: str) -> list[tuple[str, str, str, str, str, int]]:
    """(weight, status, h0, h1, h2, generator count) per row, as text."""
    if fmt == "json":
        doc = json.loads(text)
        return [
            (str(r["weight"]), r["status"], *map(str, r["h"]), len(r["generators"]))
            for r in doc["rows"]
        ]
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if rows[0] != ["weight", "h0", "h1", "h2", "status", "generators"]:
            raise ValueError(f"unexpected csv header {rows[0]}")
        return [
            (w, status, h0, h1, h2, len(gens.split(";")) if gens else 0)
            for w, h0, h1, h2, status, gens in rows[1:]
        ]
    out = []
    for line in text.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 6 and cells[0].isdigit():
            w, h0, h1, h2, gens, status = cells
            out.append((w, status, h0, h1, h2, 0 if gens == "-" else len(gens.split(", "))))
    return out


def zp_output(text: str, fmt: str, p: int, lo: int, hi: int) -> list[str]:
    """Every weight lo..hi present, CERTIFIED and equal to the closed form."""
    try:
        rows = _zp_rows(text, fmt)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"zp p={p}: unparsable {fmt} output: {exc!r}"]
    problems = []
    weights = [r[0] for r in rows]
    if weights != [str(i) for i in range(lo, hi + 1)]:
        problems.append(f"zp p={p}: weights {weights[:5]}... are not {lo}..{hi}")
    for w, status, h0, h1, h2, ngens in rows:
        want = closed_form_dims(p, int(w))
        if status != "CERTIFIED":
            problems.append(f"zp p={p} i={w}: status {status}")
        elif (h0, h1, h2) != tuple(map(str, want)):
            problems.append(f"zp p={p} i={w}: dims {(h0, h1, h2)} != {want}")
        elif ngens != sum(want):
            problems.append(f"zp p={p} i={w}: {ngens} generators for dims {want}")
    return problems


# ---------------------------------------------------------------- K-tables


def _ktable_rows(text: str, fmt: str) -> list[tuple[int, bool]]:
    if fmt == "json":
        doc = json.loads(text)
        if not all(c["verified"] is True for c in doc["certificates"]):
            raise ValueError("unverified certificate in the table")
        return [(r["i"], r["nonzero"]) for r in doc["rows"]]
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if rows[0] != ["i", "nonzero"]:
            raise ValueError(f"unexpected csv header {rows[0]}")
        return [(int(i), {"1": True, "0": False}[nz]) for i, nz in rows[1:]]
    out = []
    for line in text.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 5 and cells[0].isdigit():
            out.append((int(cells[0]), {"nonzero": True, "0": False}[cells[1]]))
    return out


def ktable_output(text: str, fmt: str, p: int, n: int, imax: int) -> list[str]:
    """Rows 0..imax present, nonzero exactly on {0} and the Bott tower."""
    try:
        rows = _ktable_rows(text, fmt)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"ktable p={p} n={n}: unparsable {fmt} output: {exc!r}"]
    problems = []
    if [i for i, _ in rows] != list(range(imax + 1)):
        problems.append(f"ktable p={p} n={n}: rows are not 0..{imax}")
    diff = sorted({i for i, nz in rows if nz} ^ bott_nonzero_set(p, n, imax))
    if diff:
        problems.append(f"ktable p={p} n={n}: nonzero set differs at {diff[:5]}")
    return problems


# ----------------------------------------------------------- certificates


def certify_output(
    stdout: str, text: str, p: int, n: int, samples: int, seed: int
) -> list[str]:
    """Summary line and certificate JSON both report a full verification."""
    problems = []
    want = f"verified=True reverified=True samples={samples}/{samples}"
    if not stdout.startswith(f"p={p} n={n} ") or want not in stdout:
        problems.append(f"certify p={p} n={n}: summary {stdout.strip()!r}")
    try:
        doc = json.loads(text)
        sampling = doc["sampling"]
        if (doc["p"], doc["n"]) != (p, n):
            problems.append(f"certify p={p} n={n}: certificate for {doc['p'], doc['n']}")
        if doc["verified"] is not True or doc["reverified"] is not True:
            problems.append(f"certify p={p} n={n}: certificate not verified")
        if (sampling["passes"], sampling["total"]) != (samples, samples):
            problems.append(f"certify p={p} n={n}: sampled {sampling['passes']}/{sampling['total']}")
        if sampling["seed"] != seed:
            problems.append(f"certify p={p} n={n}: sampled with seed {sampling['seed']}, not {seed}")
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"certify p={p} n={n}: unparsable certificate: {exc!r}")
    return problems
