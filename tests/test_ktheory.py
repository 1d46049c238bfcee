"""Vanishing tables, the Bott tower, nilpotence orders, bound comparisons."""

import json

import pytest

from syntomic.ktheory import (
    BEYOND_TORSION,
    HLS_CRYSTALLINITY,
    HLS_SURJECTIVITY,
    LIU_WANG_H2,
    SHARP_RANGE,
    axiom_catalog,
    bound_comparison,
    h2_basis,
    k_even_table,
    table_to_csv,
    table_to_json,
    table_to_markdown,
    v1_nilpotence_order,
)
from syntomic.verifier import verify_certificate
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


def test_certificate_must_match_and_verify():
    wrong_pair = certify_vanishing(3, 4)
    with pytest.raises(ValueError, match="different"):
        k_even_table(3, 3, 5, certificate=wrong_pair)
    data = certify_vanishing(3, 3).to_dict()
    data["verified"] = False
    with pytest.raises(ValueError, match="not verified"):
        k_even_table(3, 3, 5, certificate=data)
    tampered = certify_vanishing(3, 3).to_dict()
    tampered["steps"][0]["element"]["e_pow"] += 1
    with pytest.raises(ValueError, match="re-verification"):
        h2_basis(3, 3, certificate=tampered)
    with pytest.raises(TypeError):
        k_even_table(3, 3, 5, certificate=42)


def test_k_even_table_verifies_its_certificate_once(monkeypatch):
    calls = []

    def counting(data):
        calls.append(data)
        return verify_certificate(data)

    monkeypatch.setattr("syntomic.ktheory.verify_certificate", counting)
    k_even_table(3, 3, 10)
    assert len(calls) == 1
    k_even_table(3, 3, 10, certificate=certify_vanishing(3, 3))
    assert len(calls) == 2


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
        assert report.divisibility_ok
        if n == 1:
            assert report.torsion_floor_ok is None
        else:
            assert report.torsion_floor_ok is True
            assert report.order - 1 >= p ** (n - 2)
        assert report.homotopy_ring_valid == (p >= 5)
        assert bool(report)


def test_nilpotence_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        v1_nilpotence_order(2, 0)


@pytest.mark.parametrize(
    "p,n,prior,sharp",
    [(2, 2, 13, 1), (3, 2, 19, 2), (5, 2, 39, 4)],
)
def test_bound_comparison_values(p, n, prior, sharp):
    cmpd = bound_comparison(p, n)
    assert cmpd.prior_vanishing_from == prior
    assert cmpd.sharp_last_nonzero == sharp
    # same normal form for both: zero strictly above the stated index
    assert cmpd.prior_zero_above == prior - 1
    assert cmpd.sharp_zero_above == sharp
    assert cmpd.improvement == prior - 1 - sharp


def test_sharp_bound_always_improves():
    for p in (2, 3, 5, 7, 11, 13):
        for n in range(2, 7):
            cmpd = bound_comparison(p, n)
            assert cmpd.sharp_last_nonzero < cmpd.prior_vanishing_from - 1
            assert cmpd.improvement > 0


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
