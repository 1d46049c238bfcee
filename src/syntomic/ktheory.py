"""Even K-group vanishing tables for the truncated rings Z/p^n.

The even K-groups of Z/p^n (p odd or p = 2 alike, in the p-complete range
tracked here) are controlled by weight-graded H^2: K_(2i) is nonzero exactly
for i = 0 and for the Bott-multiple weights i = (k+1)(p-1) with
k < p^(n-2).  The positive rows are spanned by the del lambda1 Bott tower;
the zero rows rest on the machine-verified vanishing certificate for the
top Bott power.  Two external inputs enter and are tagged per row; nothing
else is assumed.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .verifier import verify_certificate
from .zp import NamedClass, named_basis
from .zpn import VanishingCertificate, certify_vanishing

HLS_SURJECTIVITY = "HLS_SURJECTIVITY"
HLS_CRYSTALLINITY = "HLS_CRYSTALLINITY"
LIU_WANG_H2 = "LIU_WANG_H2"

# row reasons: inside the sharp nonvanishing range, or past the torsion tower
SHARP_RANGE = "SHARP_RANGE"
BEYOND_TORSION = "BEYOND_TORSION"


@dataclass(frozen=True)
class AxiomTag:
    ident: str
    statement: str
    used: bool


_AXIOM_STATEMENTS = {
    HLS_SURJECTIVITY: (
        "For n >= 2 the comparison map from the p-adic base ring theory onto "
        "the mod p^n theory is surjective on weight-graded H^2, so classes "
        "killed upstairs vanish downstairs. External input, not reproved here."
    ),
    HLS_CRYSTALLINITY: (
        "The weight-graded theory of Z/p^n depends only on its derived mod "
        "p^n reduction, transporting the nonvanishing of the del lambda1 "
        "Bott tower. External input, not reproved here."
    ),
    LIU_WANG_H2: (
        "Weight-graded mod p H^2 of the p-adic base ring is free of rank one "
        "over the Bott polynomial ring on del lambda1. Used only as a "
        "cross-check against the engine's own certified H^2 table."
    ),
}


def axiom_catalog(used: set[str]) -> tuple[AxiomTag, ...]:
    return tuple(
        AxiomTag(ident=k, statement=v, used=k in used)
        for k, v in sorted(_AXIOM_STATEMENTS.items())
    )


def _as_cert_dict(certificate) -> dict:
    if isinstance(certificate, VanishingCertificate):
        return certificate.to_dict()
    if isinstance(certificate, dict):
        return certificate
    raise TypeError("certificate must be a VanishingCertificate or its dict form")


def _require_verified(p: int, n: int, certificate) -> dict:
    data = _as_cert_dict(certificate)
    if data.get("p") != p or data.get("n") != n:
        raise ValueError("certificate is for different (p, n)")
    if data.get("verified") is not True:
        raise ValueError("certificate is not verified by its producer")
    report = verify_certificate(data)
    if not report:
        raise ValueError(f"certificate failed re-verification: {report.errors}")
    return data


@dataclass(frozen=True)
class H2Tower:
    """Basis classes of positive-weight H^2 together with the external
    inputs their span and cut rely on.  Iterates and indexes as the class
    tuple so callers can treat it as the basis list."""

    classes: tuple[NamedClass, ...]
    axioms: tuple[AxiomTag, ...]

    def __len__(self) -> int:
        return len(self.classes)

    def __iter__(self):
        return iter(self.classes)

    def __getitem__(self, k):
        return self.classes[k]


def h2_basis(p: int, n: int, certificate=None) -> H2Tower:
    """The del lambda1 Bott tower spanning positive-weight H^2 for Z/p^n.

    One class per k in 0..p^(n-2)-1, in syntomic weight p + k(p-1).  The
    upper cut is exactly what the vanishing certificate kills, so a verified
    certificate for (p, n) is required (one is produced on demand).  The
    returned tags record the transport inputs: the upper bound rides the
    surjectivity axiom, the nonvanishing rides the crystallinity axiom.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if certificate is None:
        certificate = certify_vanishing(p, n)
    _require_verified(p, n, certificate)
    out = []
    for k in range(p ** (n - 2)):
        w = p + k * (p - 1)
        matches = [c for c in named_basis(p, w) if c.degree == 2]
        if len(matches) != 1:
            raise ArithmeticError(f"expected one H^2 class in weight {w}")
        out.append(matches[0])
    return H2Tower(
        classes=tuple(out),
        axioms=axiom_catalog({HLS_SURJECTIVITY, HLS_CRYSTALLINITY}),
    )


@dataclass(frozen=True)
class KTableRow:
    i: int
    nonzero: bool
    reason: str  # SHARP_RANGE or BEYOND_TORSION
    note: str
    axioms: tuple[str, ...]


@dataclass(frozen=True)
class KTable:
    p: int
    n: int
    i_max: int
    rows: tuple[KTableRow, ...]
    axioms: tuple[AxiomTag, ...]
    certificate: dict


def k_even_table(p: int, n: int, i_max: int, certificate=None) -> KTable:
    """Vanishing pattern of K_(2i)(Z/p^n) for 0 <= i <= i_max.

    Nonzero exactly at i = 0 and at the Bott-multiple weights permitted by
    the H^2 tower; the pattern is cross-checked against the tower's weight
    list and the computation aborts on any mismatch.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if i_max < 0:
        raise ValueError("need i_max >= 0")
    if certificate is None:
        certificate = certify_vanishing(p, n)
    tower = h2_basis(p, n, certificate)  # re-verifies the certificate
    cert = _as_cert_dict(certificate)
    sharp = (p - 1) * p ** (n - 2)
    bott_weights = {(k + 1) * (p - 1) for k in range(p ** (n - 2))}
    tower_weights = {p + k * (p - 1) for k in range(p ** (n - 2))}
    used: set[str] = set()
    rows = []
    for i in range(i_max + 1):
        nz = i == 0 or (i % (p - 1) == 0 and 1 <= i <= sharp)
        if i >= 1:
            alt = i in bott_weights
            if alt != nz:
                raise ArithmeticError(f"vanishing predicates disagree at i={i}")
            cls = (i + 1) in tower_weights
            if cls != nz:
                raise ArithmeticError(f"H^2 tower disagrees at i={i}")
        if i == 0:
            rows.append(
                KTableRow(
                    i=0,
                    nonzero=True,
                    reason=SHARP_RANGE,
                    note="K_0 of a nonzero ring is nonzero",
                    axioms=(),
                )
            )
        elif nz:
            k = i // (p - 1) - 1
            used.add(HLS_CRYSTALLINITY)
            rows.append(
                KTableRow(
                    i=i,
                    nonzero=True,
                    reason=SHARP_RANGE,
                    note=f"weight {i + 1} H^2 class {tower[k].name}",
                    axioms=(HLS_CRYSTALLINITY,),
                )
            )
        else:
            used.add(HLS_SURJECTIVITY)
            rows.append(
                KTableRow(
                    i=i,
                    nonzero=False,
                    reason=BEYOND_TORSION,
                    note="certified vanishing: weight outside the Bott tower",
                    axioms=(HLS_SURJECTIVITY,),
                )
            )
    return KTable(
        p=p,
        n=n,
        i_max=i_max,
        rows=tuple(rows),
        axioms=axiom_catalog(used),
        certificate={
            "p": cert["p"],
            "n": cert["n"],
            "weight": cert["weight"],
            "truncation": cert["truncation"],
            "steps": len(cert["steps"]),
            "termination": cert["termination"],
            "verified": cert["verified"],
        },
    )


@dataclass(frozen=True)
class NilpotenceReport:
    p: int
    n: int
    order: int
    divisibility_ok: bool
    torsion_floor_ok: bool | None
    homotopy_ring_valid: bool

    @property
    def ok(self) -> bool:
        return self.divisibility_ok and self.torsion_floor_ok is not False

    def __bool__(self) -> bool:
        return self.ok


def v1_nilpotence_order(p: int, n: int) -> NilpotenceReport:
    """Least Bott power killed in the mod p theory of Z/p^n: the repunit
    (p^n - 1)/(p - 1).  Checked by exact division; for n >= 2 the order must
    exceed the surviving tower length p^(n-2).  Only for p >= 5 does the
    statement transfer verbatim to the homotopy ring (at small primes the
    named element is not defined there)."""
    if n < 1:
        raise ValueError("need n >= 1")
    order = (p**n - 1) // (p - 1)
    div_ok = (p - 1) * order == p**n - 1
    floor_ok = (order - 1 >= p ** (n - 2)) if n >= 2 else None
    return NilpotenceReport(
        p=p,
        n=n,
        order=order,
        divisibility_ok=div_ok,
        torsion_floor_ok=floor_ok,
        homotopy_ring_valid=p >= 5,
    )


@dataclass(frozen=True)
class BoundComparison:
    p: int
    n: int
    prior_vanishing_from: int
    sharp_last_nonzero: int

    # both thresholds in the same normal form: K_(2i) = 0 for i > value
    @property
    def prior_zero_above(self) -> int:
        return self.prior_vanishing_from - 1

    @property
    def sharp_zero_above(self) -> int:
        return self.sharp_last_nonzero

    @property
    def improvement(self) -> int:
        return self.prior_zero_above - self.sharp_zero_above


def bound_comparison(p: int, n: int) -> BoundComparison:
    """Sharp vanishing threshold versus the prior general-purpose bound.

    The prior bound kills K_(2i) once i - 1 >= (p/(p-1))^2 (p^n - 1); the
    sharp table kills everything past i = (p-1) p^(n-2).  Exact rational
    arithmetic, no floats."""
    threshold = Fraction(p, p - 1) ** 2 * (p**n - 1)
    prior = math.ceil(threshold + 1)
    sharp = (p - 1) * p ** (n - 2)
    return BoundComparison(
        p=p, n=n, prior_vanishing_from=prior, sharp_last_nonzero=sharp
    )


def table_to_json(table: KTable) -> str:
    doc = {
        "p": table.p,
        "n": table.n,
        "i_max": table.i_max,
        "rows": [
            {
                "i": r.i,
                "nonzero": r.nonzero,
                "reason": r.reason,
                "note": r.note,
                "axioms": list(r.axioms),
            }
            for r in table.rows
        ],
        "axioms": [
            {"id": a.ident, "statement": a.statement, "used": a.used}
            for a in table.axioms
        ],
        "certificates": [table.certificate],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def table_to_csv(table: KTable) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["i", "nonzero"])
    for r in table.rows:
        writer.writerow([r.i, int(r.nonzero)])
    return buf.getvalue()


def table_to_markdown(table: KTable) -> str:
    lines = [
        f"# Even K-groups of Z/{table.p}^{table.n}",
        "",
        f"K_(2i) for 0 <= i <= {table.i_max}; certificate: "
        f"{table.certificate['steps']} steps, verified={table.certificate['verified']}.",
        "",
        "| i | K_(2i) | reason | detail | axioms |",
        "|---|--------|--------|--------|--------|",
    ]
    for r in table.rows:
        mark = "nonzero" if r.nonzero else "0"
        ax = ", ".join(r.axioms) if r.axioms else "-"
        lines.append(f"| {r.i} | {mark} | {r.reason} | {r.note} | {ax} |")
    lines.append("")
    return "\n".join(lines)
