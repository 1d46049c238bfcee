import hashlib
import random
import re

import pytest

from conftest import (
    Series,
    closed_form_dims,
    corner_degrees,
    graded,
    known,
    known_square_identity_holds,
    mod_v1_expected_dims,
    reference_square,
    sampled_dims,
    square_map,
    with_map_entry,
)
from syntomic import zp
from syntomic.arith import Monomial, f_degree
from syntomic.ktheory import (
    bound_comparison,
    h2_basis,
    k_even_table,
    v1_nilpotence_order,
)
from syntomic.linalg import (
    BL,
    BR,
    CERTIFIED,
    TL,
    TR,
    UNIT_ENTRY,
    WindowCutoffs,
    certified_eliminate,
    euler_characteristic,
    square_cohomology,
    verify_truncation,
)
from syntomic.zp import (
    build_zp_square,
    left_window,
    mod_v1_cohomology,
    mod_v1_named_basis,
    mod_v1_square,
    named_basis,
    right_window,
    standard_cutoffs,
    zp_cohomology,
)
from syntomic.zpn import certify_vanishing

PRIMES = (2, 3, 5, 7)


# ------------------------------------------------------------- windows


def test_windows():
    assert left_window(3, 7) == 3
    assert right_window(3, 7) == 3
    assert right_window(3, 6) == 2
    assert right_window(5, 0) == -1


def test_corner_sizes_weight_zero_and_bott_weight():
    sq = build_zp_square(5, 0)
    assert sq.corner_sizes() == (1, 0, 1, 0)
    assert euler_characteristic(sq) == 0
    sq = build_zp_square(5, 4)
    assert sq.corner_sizes() == (2, 0, 6, 3)
    assert euler_characteristic(sq) == -1


def test_builder_rejects_bad_input():
    with pytest.raises(ValueError):
        build_zp_square(4, 1)
    with pytest.raises(ValueError):
        build_zp_square(3, -1)
    with pytest.raises(ValueError):
        build_zp_square(3, 1, extra=-1)
    with pytest.raises(ValueError, match="weight must be >= 0"):
        mod_v1_square(3, -1)


def test_builder_matches_the_windowed_reference(monkeypatch):
    # every window the package builds, through build_zp_square (any margin)
    # and mod_v1_square, gives the square the windowed-sum reference builds
    builder, built = zp._square, []

    def recording(p, i, window):
        sq = builder(p, i, window)
        built.append(((p, i, window), sq, reference_square(p, i, window)))
        return sq

    monkeypatch.setattr(zp, "_square", recording)
    grid = [(p, i) for p in (2, 3, 5, 7, 11, 13) for i in range(8 * p)]
    for p, i in grid:
        for extra in range(4):
            build_zp_square(p, i, extra)
        mod_v1_square(p, i)
    for p, i in ((2, 150), (2, 300), (3, 300), (3, 600), (7, 600)):
        build_zp_square(p, i)
    assert len(built) == 5 * len(grid) + 5  # every call built one square
    for where, sq, ref in built:
        assert sq == ref, where


# ------------------------------------------------------------ dimensions


@pytest.mark.parametrize("p", PRIMES)
def test_certified_dims_match_closed_form(p):
    for i in range(3 * p + 1):
        rep = zp_cohomology(p, i)
        assert rep.status == CERTIFIED, (p, i)
        assert rep.dims == closed_form_dims(p, i), (p, i)


def test_spot_values():
    assert zp_cohomology(3, 0).dims == (1, 1, 0)
    assert zp_cohomology(3, 2).dims == (1, 2, 0)
    assert zp_cohomology(3, 3).dims == (0, 2, 1)
    assert zp_cohomology(2, 2).dims == (1, 3, 1)
    assert zp_cohomology(5, 5).dims == (0, 2, 1)
    assert zp_cohomology(7, 12).dims == (1, 2, 0)


@pytest.mark.parametrize("extra", [1, 2])
def test_dims_stable_under_extra_margin(extra):
    for p in PRIMES:
        for i in range(2 * p + 1):
            assert zp_cohomology(p, i, extra=extra).dims == zp_cohomology(p, i).dims


def test_euler_characteristic_matches_dims():
    for p in PRIMES:
        for i in range(3 * p + 1):
            rep = zp_cohomology(p, i)
            h0, h1, h2 = rep.dims
            assert h0 - h1 + h2 == rep.euler
            assert rep.euler == (0 if i == 0 else -1)


# ------------------------------------------------------------ generators


def test_named_basis_weight_zero():
    names = [c.name for c in named_basis(3, 0)]
    assert names == ["1", "del"]


def test_named_basis_bott_weight():
    cls = {c.name: c for c in named_basis(3, 2)}
    assert set(cls) == {"v1", "v1*del", "gamma_2"}
    assert cls["v1"].degree == 0 and cls["v1"].rep == "E^2*z*t^-2"
    assert cls["v1*del"].degree == 1 and cls["v1*del"].rep == "z^3*t^-2"
    assert cls["gamma_2"].degree == 1 and cls["gamma_2"].rep == "z^2*t^-2"


def test_named_basis_weight_p():
    cls = {c.name: c for c in named_basis(3, 3)}
    assert set(cls) == {"v1*gamma_1", "lambda1", "del*lambda1"}
    assert cls["lambda1"].degree == 1
    assert cls["lambda1"].rep == "E^2*Dz*t^-3"
    assert cls["del*lambda1"].degree == 2
    assert cls["del*lambda1"].rep == "z^2*Dz*t^-3"


def test_named_basis_deeper_tower():
    # weight p + (p-1): the next rung of the degree-2 tower
    cls = {c.name: c for c in named_basis(3, 5)}
    assert set(cls) == {"v1^2*gamma_1", "v1*lambda1", "v1*del*lambda1"}
    assert cls["v1*del*lambda1"].degree == 2
    assert cls["v1*del*lambda1"].rep == "z^5*Dz*t^-5"


@pytest.mark.parametrize("p", PRIMES)
def test_generator_counts_match_certified_dims(p):
    for i in range(3 * p + 1):
        rep = zp_cohomology(p, i)
        by_deg = [sum(1 for c in rep.generators if c.degree == d) for d in (0, 1, 2)]
        assert tuple(by_deg) == rep.dims


@pytest.mark.parametrize(
    "p, i",
    [(1, 0), (4, 3), (3, -2)],
    ids=["p=1", "composite", "negative-weight"],
)
def test_named_basis_rejects_bad_input(p, i):
    msg = "weight must be >= 0" if i < 0 else f"p={p} is not prime"
    with pytest.raises(ValueError, match=f"^{msg}$"):
        named_basis(p, i)


@pytest.mark.parametrize("extra", [0, 2])
def test_generator_matching_runs_at_every_margin(extra, monkeypatch):
    # weight 4 at p = 3 names del v1^2, whose witness is the kernel column
    # (BL, 6); a report that loses it must be refused at any window margin
    def lose_del_column(sq):
        rep = square_cohomology(sq)
        kept = tuple(c for c in rep.d1.kernel_columns if c != (BL, 6))
        assert kept != rep.d1.kernel_columns
        return rep._replace(d1=rep.d1._replace(kernel_columns=kept))

    monkeypatch.setattr(zp, "square_cohomology", lose_del_column)
    message = (
        "named basis does not match the certified witnesses in weight 4: "
        "missing none; extra BL 6; 3 named for dims (1, 2, 0)"
    )
    with pytest.raises(ArithmeticError, match=f"^{re.escape(message)}$"):
        zp_cohomology(3, 4, extra=extra)


def _moved(basis, name, witness):
    """basis with the class called name put on another witness."""

    def moved(p, i):
        return tuple(
            c._replace(witness=witness) if c.name == name else c
            for c in basis(p, i)
        )

    return moved


@pytest.mark.parametrize("p, i", [(5, 9), (5, 13), (7, 19)])
def test_a_gamma_1_moved_up_one_degree_is_refused(p, i, monkeypatch):
    # v1^k gamma_1 with k > 1 sits on BL column 1 + pk; one column higher
    # is the name of no certified class
    k = (i - 1) // (p - 1)
    name = f"v1^{k}*gamma_1"
    named = [(c.name, c.witness) for c in named_basis(p, i)]
    assert (name, (BL, 1 + p * k)) in named
    monkeypatch.setattr(
        zp, "named_basis", _moved(named_basis, name, (BL, 2 + p * k))
    )
    with pytest.raises(
        ArithmeticError, match=f"missing BL {1 + p * k}; extra BL {2 + p * k};"
    ):
        zp_cohomology(p, i)


def test_an_h1_class_on_a_boundary_row_is_refused(monkeypatch):
    # BL column 10 at p = 5, weight 9 is a d1 cycle, but its row is a d0
    # pivot row: the class it spans is a boundary, not a generator
    rep = square_cohomology(build_zp_square(5, 9))
    assert (BL, 10) in rep.d1.kernel_columns
    assert (BL, 10) in {r for r, _ in rep.d0.pivots}
    monkeypatch.setattr(
        zp, "named_basis", _moved(named_basis, "v1^2*gamma_1", (BL, 10))
    )
    with pytest.raises(ArithmeticError, match="missing BL 11; extra BL 10;"):
        zp_cohomology(5, 9)


def test_a_mod_v1_class_moved_one_degree_is_refused(monkeypatch):
    assert [c.witness for c in mod_v1_named_basis(5, 4)] == [(BL, 4)]
    moved = _moved(mod_v1_named_basis, "gamma_4", (BL, 3))
    monkeypatch.setattr(zp, "mod_v1_named_basis", moved)
    with pytest.raises(ArithmeticError, match="missing BL 4; extra BL 3;"):
        mod_v1_cohomology(5, 4)


def test_a_duplicated_named_class_is_refused(monkeypatch):
    # the witness sets still agree, so only the count of names can object
    def repeated(p, i):
        names = named_basis(p, i)
        return names + names[:1]

    assert len(named_basis(3, 2)) == sum(zp_cohomology(3, 2).dims) == 3
    monkeypatch.setattr(zp, "named_basis", repeated)
    with pytest.raises(ArithmeticError, match="4 named for dims"):
        zp_cohomology(3, 2)


@pytest.mark.parametrize("p", PRIMES)
def test_generators_are_the_certified_witnesses_past_the_acceptance_grid(p):
    # each generator spans a certified class: an h0 witness is a d0 kernel
    # column, an h1 witness a d1 kernel column whose row no d0 pivot hits,
    # an h2 witness a BR row no d1 pivot hits; one per class, no two alike
    for i in range(20 * p):
        for rep in (zp_cohomology(p, i), mod_v1_cohomology(p, i)):
            assert rep.status == CERTIFIED, (p, i)
            boundary = {r for r, _ in rep.d0.pivots}
            hit = {r for r, _ in rep.d1.pivots}
            for c in rep.generators:
                corner, k = c.witness
                if corner == TL:
                    assert c.witness in rep.d0.kernel_columns, (p, i, c)
                elif corner == BR:
                    assert 1 <= k <= rep.corner_sizes[3], (p, i, c)
                    assert (BR, k) not in hit, (p, i, c)
                else:  # a TR or BL key is also the d0 row of its element
                    assert c.witness in rep.d1.kernel_columns, (p, i, c)
                    assert c.witness not in boundary, (p, i, c)
            witnesses = {c.witness for c in rep.generators}
            assert len(rep.generators) == len(witnesses) == sum(rep.dims)


# ----------------------------------------------------------- truncation


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("extra", [1, 2])
def test_truncation_stability(p, extra):
    for i in range(3 * p + 1):
        sq = build_zp_square(p, i, extra=extra)
        assert verify_truncation(sq, standard_cutoffs(p, i))


def test_lowered_cutoffs_fail():
    sq = build_zp_square(3, 3, extra=2)
    c = standard_cutoffs(3, 3)
    low = WindowCutoffs(tl=c.tl - 1, tr=c.tr - 1, bl=c.bl - 1, br=c.br - 1)
    chk = verify_truncation(sq, low)
    assert not chk
    assert chk.failing is not None


def test_truncation_check_pinpoints_bott_column():
    # one notch below the standard window the Bott-power column k = i/(p-1)
    # sits in the complement but maps inside the baseline: not dominated
    sq = build_zp_square(2, 2, extra=1)
    c = standard_cutoffs(2, 2)
    low = WindowCutoffs(tl=c.tl - 1, tr=c.tr, bl=c.bl, br=c.br)
    chk = verify_truncation(sq, low)
    assert not chk


@pytest.mark.parametrize("p", PRIMES)
def test_a_window_cut_by_one_is_refused_or_changes_nothing(p, monkeypatch):
    # one corner top one below the standard window either fails the witness
    # check or the in-span guard, or (the TR or BR top, below weight p) gives
    # the same report; it never gives different numbers
    for i in range(1, 20 * p):
        honest = zp_cohomology(p, i)
        c = standard_cutoffs(p, i)
        for corner in ("tl", "tr", "bl", "br"):
            cut = c._replace(**{corner: getattr(c, corner) - 1})
            with monkeypatch.context() as m:
                m.setattr(zp, "standard_cutoffs", lambda *_: cut)
                try:
                    rep = zp_cohomology(p, i)
                except ArithmeticError:
                    continue
            assert corner in ("tr", "br") and i <= p - 1, (i, corner)
            assert (rep.status, rep.dims, rep.generators) == (
                honest.status, honest.dims, honest.generators
            ), (i, corner)


def _unit_terms(*degrees):
    return tuple((d, known(1, 3)) for d in degrees)


# build_zp_square(3, 3, extra=2) against standard_cutoffs(3, 3) = (4, 3, 4, 3):
# beyond columns are TL 5, 6 (v_left leads 5, 6), TR 4, 5 (v_right leads
# 4, 5) and BL 5, 6; each case breaks one of their Series.  A case names its
# column by the corner's basis index k, as the test ids always have: TL k
# is (TL, k + 3), TR k is (TR, k + 2) and BL k is (BL, k)
_INDEX_TO_DEGREE = {"v_left": 3, "nabla_top": 3, "v_right": 2, "nabla_bot": 0}


@pytest.mark.parametrize(
    "field, k, series, failing, detail",
    [
        ("v_left", 2, Series(((5, known(2, 3)), (6, known(1, 3)))), (TL, 5),
         "beyond column lost its exact unit leading term"),
        ("v_left", 2, Series(), (TL, 5),
         "beyond column lost its exact unit leading term"),
        ("v_left", 2, Series(_unit_terms(4, 6)), (TL, 5),
         "beyond column leads inside the baseline window"),
        ("nabla_top", 2, Series(tail_from=3), (TL, 5),
         "vertical image enters the baseline window"),
        ("v_left", 2, Series(_unit_terms(6)), (TL,),
         "beyond leading degrees are not consecutive"),
        ("v_right", 2, Series(tail_from=4), (TR, 4),
         "beyond column lost its exact unit leading term"),
        ("v_right", 2, Series(((4, known(2, 3)),)), (TR, 4),
         "beyond column lost its exact unit leading term"),
        ("v_right", 2, Series(_unit_terms(3, 4)), (TR, 4),
         "beyond column leads inside the baseline window"),
        ("v_right", 3, Series(_unit_terms(4)), (TR,),
         "beyond leading degrees are not consecutive"),
        # maps beyond the extended window: harmless, but the leads now skip 4
        ("v_right", 2, Series(tail_from=6), (TR,),
         "beyond leading degrees are not consecutive"),
        ("nabla_bot", 5, Series(tail_from=3), (BL, 5),
         "image enters the baseline window"),
    ],
)
def test_truncation_failure_reasons(field, k, series, failing, detail):
    sq = build_zp_square(3, 3, extra=2)
    bad = with_map_entry(sq, field, k + _INDEX_TO_DEGREE[field], series)
    chk = verify_truncation(bad, standard_cutoffs(3, 3))
    assert (chk.ok, chk.failing, chk.detail) == (False, failing, detail)


@pytest.mark.parametrize("field", ["v_left", "v_right"])
def test_truncation_rejects_a_beyond_term_with_no_row(field):
    sq = build_zp_square(3, 3, extra=2)
    key = 2 + _INDEX_TO_DEGREE[field]  # the lowest beyond column: TL 5, TR 4
    lead = square_map(sq, field)[key].terms[0][0]
    column = Series(_unit_terms(lead, 9))  # no row has degree 9
    bad = with_map_entry(sq, field, key, column)
    with pytest.raises(ValueError, match="has no row"):
        verify_truncation(bad, standard_cutoffs(3, 3))


def test_a_leading_term_that_is_not_minimal_is_refused_where_it_is_read():
    # verify_truncation reads the lowest explicit term as the leading one; a
    # column with a tail at or below it is refused by the one column reader,
    # alike for both readers of a square (term order carries no meaning:
    # tests/test_linalg.py::test_term_order_carries_no_meaning)
    sq = build_zp_square(3, 3, extra=2)
    cases = [
        (
            Series(_unit_terms(5), tail_from=5),
            "term at ('BL', 5) is not below its tail",
        ),
    ]
    rows = [(BL, d) for d in range(7)]
    for series, message in cases:
        match = f"^{re.escape(message)}$"
        with pytest.raises(ValueError, match=match):
            certified_eliminate(graded({(TL, 5): {BL: series}}), rows, 3)
        bad = with_map_entry(sq, "v_left", 5, series)
        with pytest.raises(ValueError, match=match):
            square_cohomology(bad)
        with pytest.raises(ValueError, match=match):
            verify_truncation(bad, standard_cutoffs(3, 3))


@pytest.mark.parametrize(
    "field, key, series, message",
    [
        ("nabla_bot", 4, Series(((4, 7),), 5),
         "entry 7 at ('BR', 4) is neither a residue in 1..2 nor a symbol"),
        ("v_left", 6, Series(((6, True),)),
         "entry True at ('BL', 6) is neither a residue in 1..2 nor a symbol"),
    ],
    ids=["seven", "bool"],
)
def test_truncation_refuses_an_entry_that_square_cohomology_refuses(
    field, key, series, message
):
    sq = build_zp_square(3, 3, extra=2)
    bad = with_map_entry(sq, field, key, series)
    match = f"^{re.escape(message)}$"
    with pytest.raises(ValueError, match=match):
        square_cohomology(bad)
    with pytest.raises(ValueError, match=match):
        verify_truncation(bad, standard_cutoffs(3, 3))


def _malformed_squares(sq):
    """Every copy of sq with one column broken: one explicit entry replaced
    by 0, p, -1 or True, or a term put below the lowest row of its corner,
    where no row is."""
    lowest = {tag: min(corner_degrees(sq, tag), default=0) for tag in (TR, BL, BR)}
    for field, tag in (
        ("nabla_top", TR), ("v_left", BL), ("v_right", BR), ("nabla_bot", BR)
    ):
        for key, s in square_map(sq, field).items():
            broken = [Series(((lowest[tag] - 1, 1),) + s.terms, s.tail_from)]
            for j, (d, _) in enumerate(s.terms):
                for entry in (0, sq.p, -1, True):
                    terms = s.terms[:j] + ((d, entry),) + s.terms[j + 1:]
                    broken.append(Series(terms, s.tail_from))
            for series in broken:
                yield with_map_entry(sq, field, key, series)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_both_readers_of_a_square_refuse_a_malformed_column_alike(p):
    cases = 0
    for i in range(2 * p + 1):
        cutoffs = standard_cutoffs(p, i)
        for bad in _malformed_squares(build_zp_square(p, i, extra=2)):
            with pytest.raises(ValueError) as refused:
                square_cohomology(bad)
            message = str(refused.value)
            assert " at (" in message, message
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                verify_truncation(bad, cutoffs)
            cases += 1
    assert cases > 50 * p


# ------------------------------------------------------ known identities


def test_known_square_identity_on_grid():
    for p in PRIMES:
        for i in range(3 * p + 1):
            assert known_square_identity_holds(build_zp_square(p, i)), (p, i)
            assert known_square_identity_holds(build_zp_square(p, i, extra=2))
    for p in (2, 3, 5):
        for i in range(2 * p + 2):
            assert known_square_identity_holds(mod_v1_square(p, i)), (p, i)


def _unit_weakened(sq):
    """sq with every explicit residue of d0 and d1 replaced by UNIT_ENTRY."""

    def weak(columns):
        return {
            key: ({r: UNIT_ENTRY for r in terms}, tails)
            for key, (terms, tails) in columns.items()
        }

    return sq._replace(d0=weak(sq.d0), d1=weak(sq.d1))


def test_certification_reads_no_residue_value():
    # only zero against nonzero matters: a square whose residues are all
    # weakened to "some unit" gives the same report and witnesses, so no
    # wrong nonzero residue can change a certified claim (1428 squares,
    # 1.0-1.6 s on one core)
    squares = [
        build_zp_square(p, i, extra)
        for p in PRIMES
        for extra in range(4)
        for i in range((30 if extra == 0 else 8) * p)
    ] + [mod_v1_square(p, i) for p in PRIMES for i in range(30 * p)]
    assert len(squares) == 1428
    for sq in squares:
        rep = square_cohomology(sq)
        weak = _unit_weakened(sq)
        weak_rep = square_cohomology(weak)
        assert weak_rep == rep, (sq.p, sq.weight)
        assert zp._witnesses(weak, weak_rep) == zp._witnesses(sq, rep)


def test_exact_zero_columns():
    # bott column: vertical map and horizontal cancellation at k(p-1) = i
    sq = build_zp_square(3, 4)
    assert sq.d0[TL, 6] == ({}, {})
    assert sq.d1[BL, 0] == ({}, {})
    assert sq.d1[BL, 6] == ({}, {})
    # non-bott columns keep their exact leads and unknown tails
    assert sq.d0[TL, 4][1] == {TR: 4}
    assert sq.d1[BL, 2] == ({(BR, 2): 2}, {BR: 3})


def _leading_image(p, i, key):
    """The monomial where the image of the d1 column's basis element leads:
    nabla_bot(z^m) = m z^(m-1) nabla z, and the frobenius sends
    E^(i-1) z^a nabla z t^-i to a unit times z^(pa+p-1) nabla z."""
    a = zp._monomial(i, key).z_pow
    if key[0] == BL:
        return Monomial(z_pow=a - 1, nabla=True, twist=i)
    return Monomial(z_pow=p * a + p - 1, nabla=True, twist=i)


def test_each_unknown_remainder_starts_right_above_its_exact_terms():
    # the tail of every d1 column starts one filtration degree above the
    # leading image of its element, read off the basis monomial: a nabla_bot
    # column of BL degree m from m + 1, a v_right column from one above its
    # frobenius degree; a start beyond the last BR row leaves no tail
    grid = [(p, i) for p in (2, 3, 5, 7, 11, 13) for i in range(8 * p)]
    squares = [build_zp_square(p, i, extra) for p, i in grid for extra in range(4)]
    squares += [mod_v1_square(p, i) for p, i in grid]
    tails = 0
    for sq in squares:
        top = max((d for _, d in sq.br), default=0)
        for key, (terms, tail) in sq.d1.items():
            if terms == {} and tail == {}:
                continue  # an exact-zero column: d(1), or a permanent cycle
            start = f_degree(_leading_image(sq.p, sq.weight, key), sq.p, 1) + 1
            want = {BR: start} if start <= top else {}
            assert tail == want, (sq.p, sq.weight, key)
            tails += bool(tail)
    assert tails > 10000


def test_in_span_partners():
    sq = build_zp_square(3, 4)
    # p | m with m = 3, 6 in the window; m = 6 is the exact-zero bott column
    assert sq.bl_in_span == {(BL, 3): (TL, 5)}
    sq = build_zp_square(2, 2)
    assert sq.bl_in_span == {(BL, 2): (TL, 3)}


# --------------------------------------------------------------- mod v1


@pytest.mark.parametrize("p", PRIMES)
def test_mod_v1_dims(p):
    for i in range(3 * p + 1):
        rep = mod_v1_cohomology(p, i)
        assert rep.status == CERTIFIED, (p, i)
        assert rep.dims == mod_v1_expected_dims(p, i), (p, i)


def test_mod_v1_square_shapes():
    sq = mod_v1_square(5, 4)  # weight p-1 keeps two top-right classes
    assert sq.corner_sizes() == (1, 2, 5, 5)
    assert sq.bl_in_span == {(BL, 4): (TL, 4)}
    sq = mod_v1_square(5, 5)
    assert sq.corner_sizes() == (1, 1, 5, 5)
    assert sq.bl_in_span == {}
    sq = mod_v1_square(5, 2)  # below the bott weight: the plain square
    assert sq.corner_sizes() == build_zp_square(5, 2).corner_sizes()


@pytest.mark.parametrize("p", PRIMES)
def test_mod_v1_vertical_is_cut_at_the_top_right_window(p):
    # the vertical image of E^i is a tail from degree i; the top-right window
    # reaches i + 1 at weight p-1 and i above it, so the tail is always kept
    for i in range(p - 1, 3 * p + 1):
        sq = mod_v1_square(p, i)
        assert square_map(sq, "nabla_top") == {i: Series(tail_from=i)}, (p, i)
        assert max(corner_degrees(sq, TR)) == i + (i == p - 1)


def test_mod_v1_generator_names():
    assert [c.name for c in mod_v1_named_basis(5, 4)] == ["gamma_4"]
    assert [c.name for c in mod_v1_named_basis(5, 5)] == ["lambda1", "del*lambda1"]
    assert mod_v1_named_basis(5, 6) == ()
    assert [c.name for c in mod_v1_named_basis(2, 1)] == ["gamma_1"]


# ----------------------------------------------------------- Bott shift
#
# Multiplication by v1 raises the weight by p - 1 and every filtration
# degree by p: on keys it is the one map sigma(t, d) = (t, d + p), and the
# weight-i square is sigma of the weight i - (p - 1) square plus the mod v1
# square.  Over p <= 7 and p <= i < 20p the two tests take about 0.1 s and
# 0.5 s on one core.

SHIFT_GRID = [(p, i) for p in PRIMES for i in range(p, 20 * p)]


def _sigma(key, p):
    return (key[0], key[1] + p)


def _keys(sq):
    return set(sq.d0) | set(sq.d1) | set(sq.br)


def test_the_bott_shift_carries_each_square_into_the_next_bott_weight():
    for p, i in SHIFT_GRID:
        sq, up = build_zp_square(p, i), build_zp_square(p, i + p - 1)
        upper = up.d0 | up.d1
        # (BL, 0) is d(1) = 0; its image (BL, p) is a nonzero column
        bottom = (BL, 0)
        for c, (terms, tails) in (sq.d0 | sq.d1).items():
            if c == bottom:
                continue
            assert upper[_sigma(c, p)] == (
                {_sigma(r, p): e for r, e in terms.items()},
                {t: start + p for t, start in tails.items()},
            ), (p, i, c)
        assert {_sigma(b, p): _sigma(t, p) for b, t in sq.bl_in_span.items()} == {
            b: t for b, t in up.bl_in_span.items() if b != _sigma(bottom, p)
        }, (p, i)
        shifted = {_sigma(c, p) for c in _keys(sq)}
        reduced = _keys(mod_v1_square(p, i + p - 1))
        assert shifted.isdisjoint(reduced), (p, i)
        assert _keys(up) == shifted | reduced, (p, i)


def _shift_parts(rep):
    """The pivots and kernel columns of d0 and d1 and the witnesses of a
    report, as sets."""
    elims = (rep.d0, rep.d1)
    return {
        "pivots": {(n, r, c) for n, e in enumerate(elims) for r, c in e.pivots},
        "kernel": {(n, c) for n, e in enumerate(elims) for c in e.kernel_columns},
        "witnesses": {c.witness for c in rep.generators},
    }


def test_the_bott_shift_splits_the_certified_classes():
    for p, i in SHIFT_GRID:
        rep, low = zp_cohomology(p, i), zp_cohomology(p, i - (p - 1))
        reduced = mod_v1_cohomology(p, i)
        assert rep.dims == tuple(a + b for a, b in zip(low.dims, reduced.dims))
        full, below, rest = (_shift_parts(r) for r in (rep, low, reduced))
        shifted = {
            "pivots": {(n, _sigma(r, p), _sigma(c, p)) for n, r, c in below["pivots"]},
            "kernel": {(n, _sigma(c, p)) for n, c in below["kernel"]},
            "witnesses": {_sigma(c, p) for c in below["witnesses"]},
        }
        for part in full:
            assert shifted[part].isdisjoint(rest[part]), (p, i, part)
            assert full[part] == shifted[part] | rest[part], (p, i, part)


# -------------------------------------------------------- report reprs


# the sha256 of every repr below, one per line: 306 zp reports, 102 mod v1
# reports, 612 truncation checks (half of them on windows cut by one, which
# fail) and 41 K-table rows; a change of representation must keep each repr
REPORT_REPRS_SHA256 = "b0d976922927a5f7142124771c5b078ace4f33775fae7046615eec4a2fe6907a"


def test_report_reprs_are_pinned():
    digest = hashlib.sha256()
    for p in PRIMES:
        for i in range(6 * p):
            c = standard_cutoffs(p, i)
            low = WindowCutoffs(tl=c.tl - 1, tr=c.tr - 1, bl=c.bl - 1, br=c.br - 1)
            reports = [zp_cohomology(p, i, extra) for extra in range(3)]
            reports.append(mod_v1_cohomology(p, i))
            reports += [
                verify_truncation(build_zp_square(p, i, extra), cut)
                for extra in range(3)
                for cut in (c, low)
            ]
            for r in reports:
                digest.update(repr(r).encode() + b"\n")
    for row in k_even_table(3, 4, 40).rows:
        digest.update(repr(row).encode() + b"\n")
    assert digest.hexdigest() == REPORT_REPRS_SHA256


# the sha256 of the repr of each record a command builds once, one per line:
# 15 vanishing certificates with their steps and monomials, a K-table with
# its axiom tags and certificate dict, an H^2 tower, 32 nilpotence and bound
# reports and two squares; a change of representation must keep each repr
RECORD_REPRS_SHA256 = "d2d43ef588fe148d68d4fe295da0d51e594345354e4830a2f141421046494aea"


def test_record_reprs_are_pinned():
    records = [certify_vanishing(p, n) for p in (2, 3, 5) for n in range(2, 7)]
    records += [k_even_table(3, 4, 40), h2_basis(3, 3)]
    records += [
        report(p, n)
        for report in (v1_nilpotence_order, bound_comparison)
        for p in PRIMES
        for n in range(2, 6)
    ]
    records += [build_zp_square(3, 4), mod_v1_square(3, 2)]
    digest = hashlib.sha256()
    for r in records:
        digest.update(repr(r).encode() + b"\n")
    assert digest.hexdigest() == RECORD_REPRS_SHA256


# ------------------------------------------------------------- sampling


SAMPLE_GRID = (
    [(2, i) for i in range(7)]
    + [(3, i) for i in range(10)]
    + [(5, 4), (5, 5), (5, 6), (5, 10)]
    + [(7, 6), (7, 7), (7, 8)]
)


@pytest.mark.parametrize("p,i", SAMPLE_GRID)
def test_certified_dims_are_instantiation_invariant(p, i):
    """100 random instantiations recomputed with plain F_p elimination."""
    sq = build_zp_square(p, i)
    rep = square_cohomology(sq)
    assert rep.status == CERTIFIED
    rng = random.Random(1000 * p + i)
    for _ in range(100):
        assert sampled_dims(sq, rng) == rep.dims


@pytest.mark.parametrize("p,i", [(3, 2), (3, 4), (2, 3), (5, 6)])
def test_extra_margin_squares_sample_consistently(p, i):
    sq = build_zp_square(p, i, extra=1)
    rep = square_cohomology(sq)
    assert rep.status == CERTIFIED
    rng = random.Random(17)
    for _ in range(50):
        assert sampled_dims(sq, rng) == rep.dims


@pytest.mark.parametrize("p", (2, 3, 5))
def test_mod_v1_squares_sample_consistently(p):
    for i in (p - 1, p, p + 1, 2 * p - 1):
        sq = mod_v1_square(p, i)
        rep = square_cohomology(sq)
        assert rep.status == CERTIFIED
        rng = random.Random(31 * p + i)
        for _ in range(100):
            assert sampled_dims(sq, rng) == rep.dims, (p, i)
