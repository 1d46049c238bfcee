"""Vanishing tables, the Bott tower, nilpotence orders, bound comparisons."""

import json
from dataclasses import replace
from fractions import Fraction
from math import ceil

import pytest
from conftest import reference_table_json

from syntomic.ktheory import (
    BEYOND_TORSION,
    HLS_CRYSTALLINITY,
    HLS_SURJECTIVITY,
    LIU_WANG_H2,
    SHARP_RANGE,
    KTable,
    KTableRow,
    axiom_catalog,
    bound_comparison,
    h2_basis,
    k_even_table,
    table_to_csv,
    table_to_json,
    table_to_markdown,
    v1_nilpotence_order,
)
from syntomic.linalg import CERTIFIED
from syntomic.verifier import verify_certificate
from syntomic.zp import h2_name, named_basis, zp_cohomology
from syntomic.zpn import certify_vanishing


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_nonzero_set_matches_bott_tower(p, n):
    i_max = 2 * (p - 1) * p ** (n - 2)
    table = k_even_table(p, n, i_max)
    assert len(table.rows) == i_max + 1
    assert [r.i for r in table.rows] == list(range(i_max + 1))
    nz = {r.i for r in table.rows if r.nonzero}
    expected = {0} | {(k + 1) * (p - 1) for k in range(p ** (n - 2))}
    assert nz == expected


def test_row_reasons_and_axiom_tags():
    table = k_even_table(3, 3, 12)
    assert table.rows[0].reason == SHARP_RANGE
    assert table.rows[0].note == "K_0 of a nonzero ring is nonzero"
    assert table.rows[0].axioms == ()
    assert table.rows[2].nonzero
    assert table.rows[2].reason == SHARP_RANGE
    assert table.rows[2].axioms == (HLS_CRYSTALLINITY,)
    assert "H^2 class" in table.rows[2].note
    assert not table.rows[1].nonzero
    assert table.rows[1].reason == BEYOND_TORSION
    assert table.rows[1].axioms == (HLS_SURJECTIVITY,)
    assert "certified vanishing" in table.rows[1].note
    for r in table.rows:
        assert r.reason == (SHARP_RANGE if r.nonzero else BEYOND_TORSION)
    idents = [a.ident for a in table.axioms]
    assert idents == sorted([HLS_CRYSTALLINITY, HLS_SURJECTIVITY, LIU_WANG_H2])
    by_id = {a.ident: a for a in table.axioms}
    assert by_id[HLS_CRYSTALLINITY].used and by_id[HLS_SURJECTIVITY].used
    assert not by_id[LIU_WANG_H2].used  # cross-check input, never load bearing
    assert all(a.statement for a in table.axioms)


def test_axiom_catalog_respects_used_set():
    cat = axiom_catalog({HLS_SURJECTIVITY})
    assert [a.used for a in cat] == [False, True, False]


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2)])
def test_h2_tower_sizes_and_weights(p, n):
    tower = h2_basis(p, n)
    assert len(tower) == p ** (n - 2)
    assert [c.weight for c in tower] == [p + k * (p - 1) for k in range(len(tower))]
    assert all(c.degree == 2 for c in tower)
    used = {a.ident for a in tower.axioms if a.used}
    assert used == {HLS_CRYSTALLINITY, HLS_SURJECTIVITY}


def test_h2_tower_names_for_three_cubed():
    names = [c.name for c in h2_basis(3, 3)]
    assert names == ["del*lambda1", "v1*del*lambda1", "v1^2*del*lambda1"]


def test_tower_requires_n_at_least_two():
    with pytest.raises(ValueError):
        h2_basis(3, 1)
    with pytest.raises(ValueError):
        k_even_table(3, 1, 5)
    with pytest.raises(ValueError):
        k_even_table(3, 2, -1)


@pytest.mark.parametrize("p,n", [(2, 15), (3, 10), (2, 10**9)])
def test_oversized_tower_is_refused_before_any_work(p, n, monkeypatch):
    def no_certificate(*args):
        raise AssertionError("certified before the size check")

    monkeypatch.setattr("syntomic.ktheory.certify_vanishing", no_certificate)
    with pytest.raises(ValueError, match="exceeds the Bott tower limit 4096"):
        h2_basis(p, n)


def test_rejected_certificate_is_a_failed_check(monkeypatch):
    honest = certify_vanishing(3, 3)
    step = honest.steps[0]
    element = replace(step.element, e_pow=step.element.e_pow + 1)
    tampered = replace(
        honest, steps=(replace(step, element=element),) + honest.steps[1:]
    )
    monkeypatch.setattr(
        "syntomic.ktheory.certify_vanishing", lambda p, n: tampered
    )
    with pytest.raises(ArithmeticError, match="re-verification"):
        k_even_table(3, 3, 5)
    with pytest.raises(ArithmeticError, match="re-verification"):
        h2_basis(3, 3)


def test_k_even_table_verifies_its_certificate_once(monkeypatch):
    calls = []

    def counting(data):
        calls.append(data)
        return verify_certificate(data)

    monkeypatch.setattr("syntomic.ktheory.verify_certificate", counting)
    k_even_table(3, 3, 10)
    assert len(calls) == 1


def test_k_even_table_names_only_its_own_rows(monkeypatch):
    # a row names its one H^2 class directly: no named basis is built, and
    # the table's cost follows i_max, not the p^(n-2) classes of the tower
    basis_calls, name_calls = [], []

    def counting_basis(p, w):
        basis_calls.append(w)
        return named_basis(p, w)

    def counting_name(p, w):
        name_calls.append(w)
        return h2_name(p, w)

    # every binding of named_basis in the package, as a tracer would see it
    monkeypatch.setattr("syntomic.zp.named_basis", counting_basis)
    monkeypatch.setattr("syntomic.ktheory.named_basis", counting_basis)
    monkeypatch.setattr("syntomic.ktheory.h2_name", counting_name)
    table = k_even_table(2, 12, 5)
    assert [r.nonzero for r in table.rows] == [True] * 6
    assert basis_calls == []
    assert name_calls == [2, 3, 4, 5, 6]  # once per nonzero row i > 0


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_h2_name_exactly_where_h2_is_certified(p):
    # named_basis takes its degree-2 name from h2_name, so the independent
    # witness is the certified elimination of the weight-w square
    for w in range(10 * p):
        rep = zp_cohomology(p, w)
        assert rep.status == CERTIFIED, (p, w)
        assert (h2_name(p, w) is not None) == (rep.h2 == 1), (p, w)


@pytest.mark.parametrize(
    "p, w, name",
    [
        (2, 2, "del*lambda1"),
        (2, 3, "v1*del*lambda1"),
        (2, 4, "v1^2*del*lambda1"),
        (2, 12, "v1^10*del*lambda1"),
        (3, 3, "del*lambda1"),
        (3, 25, "v1^11*del*lambda1"),
        (5, 9, "v1*del*lambda1"),
        (7, 7 + 6 * 123, "v1^123*del*lambda1"),
        (3, 4, None),
        (5, 4, None),
        (7, 1, None),
    ],
)
def test_h2_name_literals(p, w, name):
    assert h2_name(p, w) == name


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_row_notes_name_the_named_basis_class(p, n):
    # the expected name is spelled out from kap = (w-p)/(p-1), not read from
    # h2_name or named_basis, which the table itself goes through
    i_max = 2 * (p - 1) * p ** (n - 2) + p
    rows = [r for r in k_even_table(p, n, i_max).rows if r.nonzero and r.i > 0]
    assert len(rows) == p ** (n - 2)
    for r in rows:
        w = r.i + 1
        kap, rest = divmod(w - p, p - 1)
        assert kap >= 0 and rest == 0, (p, w)
        v1 = "" if kap == 0 else "v1*" if kap == 1 else f"v1^{kap}*"
        assert r.note == f"weight {w} H^2 class {v1}del*lambda1"
        if w < 10 * p:
            assert zp_cohomology(p, w).h2 == 1, (p, w)


NILPOTENCE_ORDERS = {
    2: [1, 3, 7, 15, 31, 63],
    3: [1, 4, 13, 40, 121, 364],
    5: [1, 6, 31, 156, 781, 3906],
    7: [1, 8, 57, 400, 2801, 19608],
}


@pytest.mark.parametrize("p", sorted(NILPOTENCE_ORDERS))
def test_nilpotence_orders_are_repunits(p):
    for n in range(1, 7):
        report = v1_nilpotence_order(p, n)
        assert report.order == NILPOTENCE_ORDERS[p][n - 1]
        assert (p - 1) * report.order == p**n - 1
        if n >= 2:
            assert report.order - 1 >= p ** (n - 2)
        assert report.homotopy_ring_valid == (p >= 5)


def test_nilpotence_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        v1_nilpotence_order(2, 0)


@pytest.mark.parametrize("p", [4, 1, 0, -3])
def test_nilpotence_rejects_non_prime_p(p):
    with pytest.raises(ValueError, match="not prime"):
        v1_nilpotence_order(p, 2)


@pytest.mark.parametrize(
    "p,n,message",
    [(4, 2, "not prime"), (1, 2, "not prime"), (0, 3, "not prime"),
     (3, 1, "n >= 2"), (3, 0, "n >= 2")],
)
def test_bound_comparison_rejects_bad_input(p, n, message):
    with pytest.raises(ValueError, match=message):
        bound_comparison(p, n)


@pytest.mark.parametrize(
    "p,n,prior,sharp",
    [(2, 2, 13, 1), (3, 2, 19, 2), (5, 2, 39, 4)],
)
def test_bound_comparison_values(p, n, prior, sharp):
    cmpd = bound_comparison(p, n)
    assert cmpd.prior_vanishing_from == prior
    assert cmpd.sharp_last_nonzero == sharp
    assert cmpd.improvement == prior - 1 - sharp


def test_sharp_bound_always_improves():
    for p in (2, 3, 5, 7, 11, 13):
        for n in range(2, 7):
            cmpd = bound_comparison(p, n)
            assert cmpd.sharp_last_nonzero < cmpd.prior_vanishing_from - 1
            assert cmpd.improvement > 0


@pytest.mark.parametrize(
    "p", [p for p in range(2, 300) if all(p % d for d in range(2, p))]
)
def test_prior_bound_is_the_rational_ceiling(p):
    # the prior bound as stated: the least i with i - 1 >= (p/(p-1))^2 (p^n - 1)
    for n in range(2, 61):
        expected = ceil(Fraction(p, p - 1) ** 2 * (p**n - 1) + 1)
        assert bound_comparison(p, n).prior_vanishing_from == expected, n


def test_json_serialization_round_trips():
    table = k_even_table(3, 3, 6)
    text = table_to_json(table)
    assert text.endswith("\n")
    doc = json.loads(text)
    assert doc["p"] == 3 and doc["n"] == 3 and doc["i_max"] == 6
    assert [r["i"] for r in doc["rows"]] == list(range(7))
    assert [r["nonzero"] for r in doc["rows"]] == [
        True, False, True, False, True, False, True,
    ]
    assert len(doc["certificates"]) == 1
    assert doc["certificates"][0]["verified"] is True
    assert all(r["reason"] in (SHARP_RANGE, BEYOND_TORSION) for r in doc["rows"])
    assert {a["id"] for a in doc["axioms"]} == {
        HLS_CRYSTALLINITY, HLS_SURJECTIVITY, LIU_WANG_H2,
    }
    assert text == table_to_json(k_even_table(3, 3, 6))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_json_bytes_match_json_dumps(p, n):
    cut = (p - 1) * p ** (n - 2)
    for i_max in sorted({0, 1, cut - 1, cut, cut + 1, 2 * cut + p}):
        table = k_even_table(p, n, i_max)
        assert table_to_json(table) == reference_table_json(table), i_max


HAND_BUILT = KTable(
    p=3,
    n=2,
    i_max=3,
    rows=(
        KTableRow(i=0, nonzero=True, reason=SHARP_RANGE, note="", axioms=()),
        KTableRow(
            i=1,
            nonzero=False,
            reason="quote \" and backslash \\",
            note='a "quoted" \\ note\non two lines',
            axioms=(HLS_SURJECTIVITY,),
        ),
        KTableRow(
            i=2,
            nonzero=True,
            reason=SHARP_RANGE,
            note="\u03bb\u2081 \U0001d53d_p \t\x7f\x00",
            axioms=(HLS_CRYSTALLINITY, "caf\u00e9"),
        ),
        KTableRow(i=3, nonzero=False, reason="", note="\\", axioms=()),
    ),
    axioms=axiom_catalog({HLS_SURJECTIVITY}),
    certificate={"p": 3, "n": 2, "weight": 2, "note": "\u00e9\n"},
)


@pytest.mark.parametrize(
    "table",
    [HAND_BUILT, replace(HAND_BUILT, rows=()), replace(HAND_BUILT, axioms=())],
    ids=["rows", "no-rows", "no-axioms"],
)
def test_json_bytes_match_json_dumps_on_hand_built_tables(table):
    # escapes, control characters and non-ASCII text in notes, reasons and
    # axiom ids; rows with 0, 1 and 2 axioms; an empty row list
    assert table_to_json(table) == reference_table_json(table)


def test_json_rows_carry_every_row_field():
    # the rows are written from a template: a new KTableRow field must show
    fields = set(KTableRow._fields)
    for table in (HAND_BUILT, k_even_table(3, 3, 6)):
        rows = json.loads(table_to_json(table))["rows"]
        assert rows and all(set(r) == fields for r in rows)


def test_csv_has_integer_flags():
    table = k_even_table(3, 3, 6)
    lines = table_to_csv(table).splitlines()
    assert lines[0] == "i,nonzero"
    assert lines[1] == "0,1"
    assert lines[2] == "1,0"
    assert lines[3] == "2,1"
    assert len(lines) == 8


def test_markdown_table_shape():
    text = table_to_markdown(k_even_table(2, 2, 3))
    assert text.startswith("# Even K-groups of Z/2^2")
    assert "| i | K_(2i) | reason | detail | axioms |" in text
    assert "| 0 | nonzero | SHARP_RANGE |" in text
    assert "| 2 | 0 | BEYOND_TORSION |" in text
