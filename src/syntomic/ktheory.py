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

import json
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .arith import require_prime
from .verifier import verify_certificate
from .zp import NamedClass, h2_name, named_basis
from .zpn import bott_tower_size, certify_vanishing

HLS_SURJECTIVITY = "HLS_SURJECTIVITY"
HLS_CRYSTALLINITY = "HLS_CRYSTALLINITY"
LIU_WANG_H2 = "LIU_WANG_H2"

# row reasons: inside the sharp nonvanishing range, or past the torsion tower
SHARP_RANGE = "SHARP_RANGE"
BEYOND_TORSION = "BEYOND_TORSION"


class AxiomTag(NamedTuple):
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


def _require_verified(p: int, n: int) -> dict:
    """The dict form of the certificate for (p, n), produced here and
    re-verified; a rejected certificate is a failed internal check."""
    data = certify_vanishing(p, n).to_dict()
    report = verify_certificate(data)
    if not report:
        raise ArithmeticError(
            f"certificate failed re-verification: {report.errors}"
        )
    return data


class H2Tower(NamedTuple):
    """Basis classes of positive-weight H^2 together with the external
    inputs their span and cut rely on; the basis list is .classes."""

    classes: tuple[NamedClass, ...]
    axioms: tuple[AxiomTag, ...]


def _h2_class(p: int, w: int) -> NamedClass:
    """The one named H^2 class in weight w, or fail loudly."""
    matches = [c for c in named_basis(p, w) if c.degree == 2]
    if len(matches) != 1:
        raise ArithmeticError(f"expected one H^2 class in weight {w}")
    return matches[0]


def h2_basis(p: int, n: int) -> H2Tower:
    """The del lambda1 Bott tower spanning positive-weight H^2 for Z/p^n.

    One class per k in 0..p^(n-2)-1, in syntomic weight p + k(p-1).  The
    upper cut is exactly what the vanishing certificate kills, so the
    certificate for (p, n) is produced and must pass re-verification.  The
    returned tags record the transport inputs: the upper bound rides the
    surjectivity axiom, the nonvanishing rides the crystallinity axiom.
    The tower is built class by class, so (p, n) with p^(n-2) above
    MAX_BOTT_TOWER (4096) raise ValueError before any work is done.
    """
    size = bott_tower_size(p, n)
    _require_verified(p, n)
    return H2Tower(
        classes=tuple(_h2_class(p, p + k * (p - 1)) for k in range(size)),
        axioms=axiom_catalog({HLS_SURJECTIVITY, HLS_CRYSTALLINITY}),
    )


class KTableRow(NamedTuple):
    i: int
    nonzero: bool
    reason: str  # SHARP_RANGE or BEYOND_TORSION
    note: str
    axioms: tuple[str, ...]


class KTable(NamedTuple):
    p: int
    n: int
    i_max: int
    rows: tuple[KTableRow, ...]
    axioms: tuple[AxiomTag, ...]
    certificate: dict


def k_even_table(p: int, n: int, i_max: int) -> KTable:
    """Vanishing pattern of K_(2i)(Z/p^n) for 0 <= i <= i_max.

    Nonzero exactly at the multiples of p - 1 up to the weight of the
    re-verified vanishing certificate, (p-1) p^(n-2); each positive nonzero
    row names its H^2 class through h2_name, in constant time per row, and
    aborts if there is none.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if i_max < 0:
        raise ValueError("need i_max >= 0")
    cert = _require_verified(p, n)
    # rows are built positionally, (i, nonzero, reason, note, axioms): with
    # keywords a NamedTuple costs about twice as much
    vanishing = "certified vanishing: weight outside the Bott tower"
    rows = [KTableRow(0, True, SHARP_RANGE, "K_0 of a nonzero ring is nonzero", ())]
    for i in range(1, i_max + 1):
        if i % (p - 1) == 0 and i <= cert["weight"]:
            name = h2_name(p, i + 1)
            if name is None:
                raise ArithmeticError(f"expected one H^2 class in weight {i + 1}")
            note = f"weight {i + 1} H^2 class {name}"
            rows.append(KTableRow(i, True, SHARP_RANGE, note, (HLS_CRYSTALLINITY,)))
        else:
            rows.append(
                KTableRow(i, False, BEYOND_TORSION, vanishing, (HLS_SURJECTIVITY,))
            )
    return KTable(
        p=p,
        n=n,
        i_max=i_max,
        rows=tuple(rows),
        axioms=axiom_catalog({a for r in rows for a in r.axioms}),
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


class NilpotenceReport(NamedTuple):
    p: int
    n: int
    order: int
    homotopy_ring_valid: bool


def v1_nilpotence_order(p: int, n: int) -> NilpotenceReport:
    """Least Bott power killed in the mod p theory of Z/p^n: the repunit
    (p^n - 1)/(p - 1).  Only for p >= 5 does the statement transfer verbatim
    to the homotopy ring (at small primes the named element is not defined
    there)."""
    require_prime(p)
    if n < 1:
        raise ValueError("n must be >= 1")
    return NilpotenceReport(
        p=p, n=n, order=(p**n - 1) // (p - 1), homotopy_ring_valid=p >= 5
    )


class BoundComparison(NamedTuple):
    p: int
    n: int
    prior_vanishing_from: int
    sharp_last_nonzero: int

    @property
    def improvement(self) -> int:
        return self.prior_vanishing_from - 1 - self.sharp_last_nonzero


def bound_comparison(p: int, n: int) -> BoundComparison:
    """Sharp vanishing threshold versus the prior general-purpose bound.

    The prior bound kills K_(2i) once i - 1 >= (p/(p-1))^2 (p^n - 1); the
    sharp table kills everything past i = (p-1) p^(n-2).  Integer
    arithmetic: the ceiling is a floor division of the negated numerator."""
    require_prime(p)
    if n < 2:
        raise ValueError("need n >= 2")
    prior = -(-p * p * (p**n - 1) // (p - 1) ** 2) + 1
    sharp = (p - 1) * p ** (n - 2)
    return BoundComparison(
        p=p, n=n, prior_vanishing_from=prior, sharp_last_nonzero=sharp
    )


# one JSON row at the depth json.dumps(indent=2) gives it, keys in sorted order
_ROW = (
    '    {\n      "axioms": %s,\n      "i": %d,\n      "nonzero": %s,\n'
    '      "note": %s,\n      "reason": %s\n    }'
)


def table_to_json(table: KTable) -> str:
    """The table as json.dumps(doc, indent=2, sort_keys=True) + newline.

    The head goes through json.dumps; the rows, its last key, are filled
    into one template each, strings encoded as json.dumps encodes them.
    """
    head = json.dumps(
        {
            "p": table.p,
            "n": table.n,
            "i_max": table.i_max,
            "axioms": [
                {"id": a.ident, "statement": a.statement, "used": a.used}
                for a in table.axioms
            ],
            "certificates": [table.certificate],
        },
        indent=2,
        sort_keys=True,
    )
    enc = encode_basestring_ascii
    axioms: dict[tuple[str, ...], str] = {}  # each distinct tuple rendered once
    rows = []
    for r in table.rows:
        ax = axioms.get(r.axioms)
        if ax is None:
            items = ",\n".join("        " + enc(a) for a in r.axioms)
            ax = axioms[r.axioms] = f"[\n{items}\n      ]" if items else "[]"
        flag = "true" if r.nonzero else "false"
        rows.append(_ROW % (ax, r.i, flag, enc(r.note), enc(r.reason)))
    body = "[\n%s\n  ]" % ",\n".join(rows) if rows else "[]"
    # "rows" sorts after every head key, so it closes the object
    return f'{head[:-2]},\n  "rows": {body}\n}}\n'


def table_to_csv(table: KTable) -> str:
    return "i,nonzero\n" + "".join(f"{r.i},{int(r.nonzero)}\n" for r in table.rows)


def table_to_markdown(table: KTable) -> str:
    cert = table.certificate
    lines = [
        f"# Even K-groups of Z/{table.p}^{table.n}",
        "",
        f"K_(2i) for 0 <= i <= {table.i_max}; certificate: "
        f"{cert['steps']} steps, verified={cert['verified']}.",
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
