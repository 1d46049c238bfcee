"""The acceptance gate: one test per shipped criterion.

Each test appends a single PASS/FAIL line to the terminal summary before
asserting, so a full run always ends with eight human-readable verdicts.
All tolerances are exact; nothing here is statistical except the sampling
counts, which must be perfect scores.
"""

from conftest import (
    closed_form_dims,
    known_square_identity_holds,
    mod_v1_expected_dims,
)

from syntomic.arith import Monomial, mono_str
from syntomic.cli import main
from syntomic.ktheory import k_even_table, v1_nilpotence_order
from syntomic.linalg import CERTIFIED
from syntomic.verifier import sample_certificate, verify_certificate
from syntomic.zp import (
    build_zp_square,
    mod_v1_cohomology,
    mod_v1_square,
    zp_cohomology,
)
from syntomic.zpn import certify_vanishing

CERT_PRIMES = (2, 3, 5)
CERT_POWERS = (2, 3, 4, 5, 6)


def _verdict(rec, num: int, failures: list, detail: str) -> None:
    status = "PASS" if not failures else "FAIL"
    note = detail if not failures else f"{len(failures)} mismatches, first: {failures[0]}"
    rec(f"criterion {num}: {status} ({note})")
    assert not failures, f"criterion {num}: {failures[:5]}"


def test_criterion_1_base_ring_weight_tables(acceptance_record):
    failures = []
    checked = 0
    for p in (2, 3, 5, 7):
        for i in range(3 * p + 1):
            rep = zp_cohomology(p, i)
            dims = (rep.h0, rep.h1, rep.h2)
            if rep.status != CERTIFIED or dims != closed_form_dims(p, i):
                failures.append((p, i, rep.status, dims))
            checked += 1
    spot = {
        (3, 0): (1, 1, 0),
        (3, 2): (1, 2, 0),
        (3, 3): (0, 2, 1),
        (2, 2): (1, 3, 1),
    }
    for (p, i), want in spot.items():
        rep = zp_cohomology(p, i)
        if (rep.h0, rep.h1, rep.h2) != want:
            failures.append(("spot", p, i, want))
    _verdict(
        acceptance_record, 1, failures,
        f"{checked} weights certified equal to the closed form, 4 spot values",
    )


def test_criterion_2_mod_v1_weight_tables(acceptance_record):
    failures = []
    checked = 0
    for p in (2, 3, 5, 7):
        for i in range(3 * p + 1):
            rep = mod_v1_cohomology(p, i)
            dims = (rep.h0, rep.h1, rep.h2)
            if rep.status != CERTIFIED or dims != mod_v1_expected_dims(p, i):
                failures.append((p, i, rep.status, dims))
            checked += 1
    _verdict(
        acceptance_record, 2, failures,
        f"{checked} weights match the four-item pattern exactly",
    )


def test_criterion_3_vanishing_certificates(acceptance_record):
    # with every constant term nonzero the sampled verdict depends only on
    # p and n, so the dense cross-check (truncation bound <= 24) is the only
    # second route the samples take; every such cell must take it
    failures = []
    pairs = crossed = 0
    for p in CERT_PRIMES:
        for n in CERT_POWERS:
            cert = certify_vanishing(p, n)
            data = cert.to_dict()
            report = verify_certificate(data)
            sampled = sample_certificate(data, samples=100, seed=0)
            dense = n * (p ** (n - 1) - p ** (n - 2)) <= 24
            if not (cert.verified and report.ok and sampled.passes == 100
                    and sampled.total == 100 and sampled.cross_checked == dense):
                failures.append((p, n, cert.verified, report.errors,
                                 f"{sampled.passes}/{sampled.total}",
                                 f"cross_checked={sampled.cross_checked}"))
            pairs += 1
            crossed += sampled.cross_checked
    _verdict(
        acceptance_record, 3, failures,
        f"{pairs} certificates verified, re-verified, sampled 100/100, "
        f"{crossed} cross-checked by dense elimination",
    )


def test_criterion_4_k_group_vanishing_tables(acceptance_record):
    failures = []
    pairs = 0
    for p in CERT_PRIMES:
        for n in (2, 3, 4):
            i_max = 2 * (p - 1) * p ** (n - 2)
            table = k_even_table(p, n, i_max)
            nz = {r.i for r in table.rows if r.nonzero}
            want = {0} | {(k + 1) * (p - 1) for k in range(p ** (n - 2))}
            if nz != want:
                failures.append((p, n, sorted(nz ^ want)))
            pairs += 1
    _verdict(
        acceptance_record, 4, failures,
        f"{pairs} tables equal the Bott-tower nonzero set",
    )


def test_criterion_5_torsion_tower_order(acceptance_record):
    # The tower is read off certified Z_p squares: each Bott-step weight
    # w = p + k(p-1) <= (p-1) p^(n-2) + 1 must certify h2 = 1, and the
    # K-table's positive nonzero rows must be exactly the rows i = w-1, each
    # naming that weight's certified H^2 generator.  The cell p=5, n=6
    # (625 weights up to 2501) is left out: a Z_p weight range costs
    # quadratic time, 15 s for that cell alone, until the Bott shift of
    # ROADMAP item 6 lands.
    failures = []
    cells = 0
    for p in CERT_PRIMES:
        for n in CERT_POWERS:
            size = p ** (n - 2)
            if size > 125:
                continue
            top = (p - 1) * size + 1
            want = {}
            for w in range(p, top + 1, p - 1):
                rep = zp_cohomology(p, w)
                if rep.status == CERTIFIED and rep.h2 == 1:
                    (name,) = [c.name for c in rep.generators if c.degree == 2]
                    want[w - 1] = f"weight {w} H^2 class {name}"
            table = k_even_table(p, n, top + p - 2)  # one Bott step past the cut
            rows = {r.i: r.note for r in table.rows if r.nonzero and r.i}
            if len(want) != size or rows != want:
                diff = sorted(rows.items() ^ want.items())
                failures.append((p, n, len(want), diff))
            cells += 1
    _verdict(
        acceptance_record, 5, failures,
        f"{cells} towers of exactly p^(n-2) certified H^2 weights, "
        "each the K-table's named row",
    )


def test_criterion_6_nilpotence_orders(acceptance_record):
    failures = []
    pairs = 0
    for p in (2, 3, 5, 7):
        for n in range(1, 7):
            rep = v1_nilpotence_order(p, n)
            want = (p**n - 1) // (p - 1)
            divides = (p - 1) * rep.order == p**n - 1
            floor_ok = n < 2 or rep.order - 1 >= p ** (n - 2)
            if not (rep.order == want and divides and floor_ok):
                failures.append((p, n, rep))
            pairs += 1
    _verdict(
        acceptance_record, 6, failures,
        f"{pairs} orders equal the repunit with both degree checks",
    )


def test_criterion_7_property_suites(acceptance_record):
    failures = []
    # Euler characteristic and window-size stability per certified square
    for p in (2, 3, 5, 7):
        for i in range(3 * p + 1):
            base = zp_cohomology(p, i)
            chi = base.h0 - base.h1 + base.h2
            if base.status != CERTIFIED or chi != (0 if i == 0 else -1):
                failures.append(("chi", p, i, chi))
            for extra in (1, 2):
                wide = zp_cohomology(p, i, extra=extra)
                if (wide.h0, wide.h1, wide.h2) != (base.h0, base.h1, base.h2):
                    failures.append(("stability", p, i, extra))
            # composite differentials agree wherever both are fully known
            if not known_square_identity_holds(build_zp_square(p, i)):
                failures.append(("square", p, i))
            if i <= 2 * p + 1 and not known_square_identity_holds(
                mod_v1_square(p, i)
            ):
                failures.append(("square-mod-v1", p, i))
    # the certificate's target is the certified del class of its weight:
    # del v1^k with k = p^(n-2), the class that dies in Z/p^n
    for p in CERT_PRIMES:
        for n in CERT_POWERS:
            cert = certify_vanishing(p, n)
            rep = zp_cohomology(p, cert.weight)
            target = mono_str(
                Monomial(z_pow=cert.target_z_pow, twist=cert.weight)
            )
            hits = [c for c in rep.generators if c.rep == target]
            k = p ** (n - 2)
            want = "v1*del" if k == 1 else f"v1^{k}*del"
            if rep.status != CERTIFIED or len(hits) != 1:
                failures.append(("bott", p, n, rep.status, len(hits)))
            elif (hits[0].degree, hits[0].name) != (1, want):
                failures.append(("bott", p, n, hits[0].degree, hits[0].name))
    _verdict(
        acceptance_record, 7, failures,
        "chi and stability, known-parts identity, targets are certified del classes",
    )


def test_criterion_8_cli_byte_determinism(
    acceptance_record, tmp_path, monkeypatch, capsys
):
    monkeypatch.setenv("SYNTOMIC_OUTPUT_DIR", str(tmp_path))
    commands = [
        ["zp", "--p", "3", "--weights", "0..9", "--format", "json"],
        ["certify", "--p", "2", "--n", "4", "--samples", "50", "--seed", "11"],
        ["ktable", "--p", "3", "--n", "2", "--imax", "6", "--format", "json"],
    ]
    failures = []
    for argv in commands:
        runs = []
        for tag in ("a", "b"):
            name = f"{argv[0]}_{tag}.out"
            code = main(argv + ["--output", name])
            out = capsys.readouterr().out
            runs.append((code, out, (tmp_path / name).read_bytes()))
        if runs[0] != runs[1] or runs[0][0] != 0 or not runs[0][2]:
            failures.append((argv[0], runs[0][0]))
    _verdict(
        acceptance_record, 8, failures,
        "3 commands, two runs each, byte-identical files and stdout",
    )
