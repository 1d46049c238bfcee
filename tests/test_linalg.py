import copy
import itertools
import random
import re
from dataclasses import replace

import pytest

from conftest import (
    Series,
    fp_rank,
    graded,
    is_known_zero,
    known,
    materialized_column,
    reference_eliminate,
    reference_square_eliminations,
    scalar_add,
    scalar_div,
    scalar_mul,
    scalar_neg,
    series_window,
    with_map_entry,
)
from conftest import certainly_nonzero as reference_nonzero
from syntomic import linalg
from syntomic.linalg import (
    CERTIFIED,
    INDETERMINATE,
    UNIT_ENTRY,
    UNKNOWN_ENTRY,
    SquareComplex,
    _minus_multiple,
    _ratio,
    certainly_nonzero,
    certified_eliminate,
    materialize,
    square_cohomology,
    square_rows,
    verify_truncation,
)
from syntomic.ktheory import KTableRow
from syntomic.verifier import SampleReport, VerifierReport
from syntomic.zp import NamedClass, build_zp_square, mod_v1_square, standard_cutoffs

PRIMES = (2, 3, 5, 7)


# ---------------------------------------------------------------- scalars
#
# The four scalar operations are conftest's reference algebra; the engine
# combines entries through linalg._ratio and linalg._minus_multiple, checked
# against that algebra and against every instantiation below.


def test_known_arithmetic_is_exact():
    p = 7
    assert scalar_add(known(3, p), known(5, p), p) == known(1, p)
    assert scalar_mul(known(3, p), known(5, p), p) == known(1, p)
    assert scalar_neg(known(3, p), p) == known(4, p)
    assert scalar_div(known(6, p), known(2, p), p) == known(3, p)


def test_zero_is_identity_and_absorbing():
    p = 5
    u = UNIT_ENTRY
    x = UNKNOWN_ENTRY
    z = known(0, p)
    assert scalar_add(z, u, p) is u
    assert scalar_add(x, z, p) is x
    assert is_known_zero(scalar_mul(z, u, p))
    assert is_known_zero(scalar_mul(x, z, p))


def test_sums_with_symbols_forget_identity():
    p = 5
    u = UNIT_ENTRY
    s = scalar_add(u, known(1, p), p)
    assert s == UNKNOWN_ENTRY  # a unit plus one may vanish
    t = scalar_add(UNKNOWN_ENTRY, UNKNOWN_ENTRY, p)
    assert t == UNKNOWN_ENTRY


def test_products_of_nonzeros_stay_nonzero():
    p = 5
    u = UNIT_ENTRY
    assert scalar_mul(u, u, p) == UNIT_ENTRY
    assert scalar_mul(u, known(2, p), p) == UNIT_ENTRY
    assert scalar_mul(u, UNKNOWN_ENTRY, p) == UNKNOWN_ENTRY
    assert certainly_nonzero(u) and not certainly_nonzero(UNKNOWN_ENTRY)


def test_symbol_minus_the_same_shared_symbol_is_unknown():
    # symbols carry no identity, so even one shared object never cancels
    p = 5
    for sym in (UNIT_ENTRY, UNKNOWN_ENTRY):
        assert scalar_neg(sym, p) is sym
        assert scalar_add(sym, scalar_neg(sym, p), p) == UNKNOWN_ENTRY


def test_division_guards():
    p = 5
    with pytest.raises(ZeroDivisionError):
        scalar_div(known(1, p), UNKNOWN_ENTRY, p)
    with pytest.raises(ZeroDivisionError):
        scalar_div(known(1, p), known(0, p), p)
    assert scalar_div(UNIT_ENTRY, UNIT_ENTRY, p) == UNIT_ENTRY
    assert scalar_div(UNKNOWN_ENTRY, UNIT_ENTRY, p) == UNKNOWN_ENTRY
    assert is_known_zero(scalar_div(known(0, p), UNIT_ENTRY, p))


def _meanings(s, p):
    """The residues an entry may take: a known one itself, a unit every
    nonzero residue, an unknown every residue."""
    if s == UNIT_ENTRY:
        return range(1, p)
    if s == UNKNOWN_ENTRY:
        return range(p)
    return (s,)


def _sound(result, values, p):
    """A known result equals every instantiated value, and UNIT_ENTRY is
    returned only when every instantiated value is nonzero."""
    values = set(values)
    if result == UNIT_ENTRY:
        return 0 not in values
    if result == UNKNOWN_ENTRY:
        return True
    return type(result) is int and values == {result}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_scalar_ops_hold_on_every_instantiation(p):
    # each operand is instantiated on its own, as every symbol stands for an
    # independent value even when both operands are the same constant
    entries = [*range(p), UNIT_ENTRY, UNKNOWN_ENTRY]
    for a in entries:
        xs = _meanings(a, p)
        assert is_known_zero(a) == (set(xs) == {0}), a
        assert certainly_nonzero(a) == reference_nonzero(a) == (0 not in xs), a
        neg = scalar_neg(a, p)
        assert _sound(neg, [-x % p for x in xs], p), (a, neg)
        for b in entries:
            pairs = list(itertools.product(xs, _meanings(b, p)))
            add, mul = scalar_add(a, b, p), scalar_mul(a, b, p)
            assert _sound(add, [(x + y) % p for x, y in pairs], p), (a, b, add)
            assert _sound(mul, [x * y % p for x, y in pairs], p), (a, b, mul)
            if certainly_nonzero(b):
                div = scalar_div(a, b, p)
                quotients = [x * pow(y, -1, p) % p for x, y in pairs]
                assert _sound(div, quotients, p), (a, b, div)
            else:
                with pytest.raises(ZeroDivisionError):
                    scalar_div(a, b, p)
            if isinstance(a, int) and isinstance(b, int):
                # exact on two known entries
                assert (add, mul) == ((a + b) % p, a * b % p)
                assert neg == -a % p
                if b:
                    assert div == a * pow(b, -1, p) % p


@pytest.mark.parametrize("p", PRIMES)
def test_minus_multiple_of_a_ratio_is_the_reference_composition(p):
    # every (a, e, pval, b) with pval certainly nonzero: the engine's
    # a - (e / pval) * b equals the reference algebra's and holds on every
    # instantiation, each symbol drawn on its own
    entries = [*range(p), UNIT_ENTRY, UNKNOWN_ENTRY]
    for a, e, pval, b in itertools.product(entries, repeat=4):
        if not reference_nonzero(pval):
            continue
        got = _minus_multiple(a, _ratio(e, pval, p), b, p)
        coef = scalar_div(e, pval, p)
        want = scalar_add(a, scalar_neg(scalar_mul(coef, b, p), p), p)
        assert got == want, (a, e, pval, b, got, want)
        ratios = {
            y * pow(z, -1, p) % p
            for y in _meanings(e, p)
            for z in _meanings(pval, p)
        }
        products = {q * w % p for q in ratios for w in _meanings(b, p)}
        values = [(x - m) % p for x in _meanings(a, p) for m in products]
        assert _sound(got, values, p), (a, e, pval, b, got)


@pytest.mark.parametrize("p", PRIMES)
def test_ratio_refuses_a_divisor_that_may_vanish(p):
    for e in [*range(p), UNIT_ENTRY, UNKNOWN_ENTRY]:
        for pval in (0, UNKNOWN_ENTRY):
            with pytest.raises(ZeroDivisionError):
                _ratio(e, pval, p)


# ----------------------------------------------------------------- series


def test_series_validation():
    # a graded column is plain data: each malformed one is refused where a
    # column is read, with the same message by the eliminator and by both
    # readers of a square (nabla_bot[1] of build_zp_square(3, 3, extra=2) is
    # the column (BL, 1) of d1, over BR rows of degrees 1..5)
    p = 3
    cases = [
        (
            Series(terms=((1, known(0, p)),)),
            "entry 0 at ('BR', 1) is neither a residue in 1..2 nor a symbol",
        ),
        (
            Series(terms=((4, known(1, p)),), tail_from=4),
            "term at ('BR', 4) is not below its tail",
        ),
        (
            Series(terms=((1, known(1, p)), (9, known(1, p)))),
            "explicit term at ('BR', 9) has no row",
        ),
    ]
    sq = build_zp_square(p, 3, extra=2)
    for series, message in cases:
        match = f"^{re.escape(message)}$"
        columns = graded({"c": {"BR": series}})
        with pytest.raises(ValueError, match=match):
            certified_eliminate(columns, _rows(1, 2, 4, tag="BR"), p)
        bad = with_map_entry(sq, "nabla_bot", 1, series)
        with pytest.raises(ValueError, match=match):
            square_cohomology(bad)
        with pytest.raises(ValueError, match=match):
            verify_truncation(bad, standard_cutoffs(p, 3))


def _reversed_terms(columns, keys):
    """The columns with the terms dict of each listed key in reverse order."""
    return {
        c: (dict(reversed(terms.items())), tails) if c in keys else (terms, tails)
        for c, (terms, tails) in columns.items()
    }


def test_term_order_carries_no_meaning():
    # column (TL, 5) of build_zp_square(3, 3, extra=2) has v_left terms on BL
    # 5 and 6, and verify_truncation reads BL 5 as its leading term; with
    # that terms dict in descending order, and with every column of a grid
    # of squares reversed, eliminations, reports and verdicts are unchanged
    sq = build_zp_square(3, 3, extra=2)
    assert list(sq.d0[("TL", 5)][0]) == [("BL", 5), ("BL", 6)]
    cases = [(sq, {("TL", 5)})] + [
        (s, s.d0.keys() | s.d1.keys())
        for s in (build_zp_square(p, i, 2) for p in (2, 3, 5) for i in range(3 * p))
    ]
    for sq, keys in cases:
        flipped = replace(
            sq, d0=_reversed_terms(sq.d0, keys), d1=_reversed_terms(sq.d1, keys)
        )
        for columns, flipped_columns, rows in zip(
            (sq.d0, sq.d1), (flipped.d0, flipped.d1), square_rows(sq)
        ):
            assert certified_eliminate(flipped_columns, rows, sq.p) == (
                certified_eliminate(columns, rows, sq.p)
            )
        assert square_cohomology(flipped) == square_cohomology(sq)
        cutoffs = standard_cutoffs(sq.p, sq.weight)
        assert verify_truncation(flipped, cutoffs) == verify_truncation(sq, cutoffs)
        if keys == {("TL", 5)}:
            assert list(flipped.d0[("TL", 5)][0]) == [("BL", 6), ("BL", 5)]
            assert verify_truncation(flipped, cutoffs).ok


def test_the_eliminator_never_writes_into_the_callers_columns(monkeypatch):
    # build_zp_square(2, 3, extra=2) combines columns four times; two runs
    # and a truncation check must leave every column as it was given
    calls = []

    def counted(e, pval, p):
        calls.append(e)
        return _ratio(e, pval, p)

    monkeypatch.setattr(linalg, "_ratio", counted)
    sq = build_zp_square(2, 3, extra=2)
    before = copy.deepcopy((sq.d0, sq.d1))
    first = square_cohomology(sq)
    assert len(calls) == 4
    assert square_cohomology(sq) == first
    assert verify_truncation(sq, standard_cutoffs(2, 3)).ok
    assert (sq.d0, sq.d1) == before


def test_series_window_merges_and_cancels():
    p = 3
    s = series_window(p, [(2, known(1, p)), (2, known(2, p))])
    assert s.terms == ()  # 1 + 2 = 0 mod 3
    s = series_window(p, [(1, known(1, p)), (1, known(1, p))])
    assert s.terms == ((1, known(2, p)),)


def test_series_window_drops_beyond_top_and_clamps_tail():
    p = 3
    s = series_window(p, [(1, known(1, p)), (9, known(1, p))], tail_from=5, top=4)
    assert s.terms == ((1, known(1, p)),)
    assert s.tail_from is None  # tail starts beyond the window
    s = series_window(p, [(6, known(2, p))], tail_from=4, top=8)
    assert s.terms == ()  # explicit term swallowed by the tail
    assert s.tail_from == 4


def test_materialize_tail_rows_and_errors():
    p = 3
    s = series_window(p, [(1, known(2, p))], tail_from=3, top=6)
    col = materialize(s, [1, 2, 3, 5])
    assert col[1] == known(2, p)
    assert 2 not in col
    assert all(col[d] == UNKNOWN_ENTRY for d in (3, 5))  # every tail row
    with pytest.raises(ValueError):
        materialize(s, [2, 3])  # explicit term with no row


# ----------------------------------------------------------- elimination


def _col(*terms, tag="R", tail=None):
    """A graded column with one corner: explicit (degree, scalar) terms."""
    return {tag: Series(terms=tuple(terms), tail_from=tail)}


def _rows(*degrees, tag="R"):
    return [(tag, d) for d in degrees]


def test_unit_pivot_certifies_rank_one():
    res = certified_eliminate(graded({"c": _col((0, UNIT_ENTRY))}), _rows(0), 5)
    assert res.status == CERTIFIED and res.rank == 1
    assert res.total_columns - res.rank == 0 and bool(res)


def test_single_unknown_is_indeterminate():
    res = certified_eliminate(graded({"c": _col((0, UNKNOWN_ENTRY))}), _rows(0), 5)
    assert res.status == INDETERMINATE
    assert res.blocking == ("c", ("R", 0))
    assert not res


def test_bottom_row_example_weight_three():
    # p = 5, weight 3: bottom differential on 1, z, z^2, z^3 over two rows;
    # full rank with kernel spanned by the constants and by z^3
    p = 5
    top = 2
    cols = {}
    for m in range(4):
        series = (
            Series()
            if m == 0
            else series_window(p, [(m, known(m, p))], tail_from=m + 1, top=top)
        )
        cols[m] = {"R": series}
    res = certified_eliminate(graded(cols), _rows(1, 2), p)
    assert res.status == CERTIFIED
    assert res.rank == 2
    assert res.kernel_columns == (0, 3)


def test_unknown_interference_blocks_certification():
    p = 3
    cols = {
        0: _col((1, known(1, p)), (2, UNKNOWN_ENTRY)),
        1: _col((2, UNKNOWN_ENTRY)),
    }
    res = certified_eliminate(graded(cols), _rows(1, 2), p)
    assert res.status == INDETERMINATE
    assert res.rank == 1  # the known pivot still counts
    assert res.blocking == (1, ("R", 2))


def test_shared_unknown_object_does_not_cancel_across_columns():
    # both columns hold the very same UNKNOWN_ENTRY on row 2; subtracting the
    # pivot column must still leave an unknown there
    p = 3
    cols = {
        0: _col((1, known(1, p)), (2, UNKNOWN_ENTRY)),
        1: _col((1, known(1, p)), (2, UNKNOWN_ENTRY)),
    }
    res = certified_eliminate(graded(cols), _rows(1, 2), p)
    assert res.status == INDETERMINATE
    assert res.blocking == (1, ("R", 2))


def test_pivot_row_cancellation_is_exact():
    # both columns share a unit lead; the second must resolve to zero
    p = 3
    u = UNIT_ENTRY
    cols = {
        0: _col((1, u), (2, known(1, p))),
        1: _col((1, u), (2, known(1, p))),
    }
    res = certified_eliminate(graded(cols), _rows(1, 2), p)
    assert res.status == INDETERMINATE  # 1 - (u/u)*1 is not known to vanish
    cols = {
        0: _col((1, known(2, p)), (2, known(1, p))),
        1: _col((1, known(2, p)), (2, known(1, p))),
    }
    res = certified_eliminate(graded(cols), _rows(1, 2), p)
    assert res.status == CERTIFIED and res.rank == 1
    assert res.kernel_columns == (1,)


def test_in_span_columns_count_into_kernel():
    p = 3
    cols = {
        "a": _col((1, known(1, p))),
        "b": _col((1, known(2, p))),
    }
    res = certified_eliminate(graded(cols), _rows(1), p, in_span=["b"])
    assert res.status == CERTIFIED
    assert res.rank == 1 and res.total_columns == 2
    assert res.kernel_columns == ("b",)
    with pytest.raises(ValueError):
        certified_eliminate(graded(cols), _rows(1), p, in_span=["missing"])


def test_certified_rank_matches_dense_rank_on_known_matrices():
    # with fully known entries the engine must agree with plain elimination
    rng = random.Random(11)
    for p in (2, 3, 5):
        for _ in range(40):
            rows = rng.randrange(1, 6)
            ncols = rng.randrange(1, 6)
            cols = {
                c: _col(
                    *(
                        (r, known(v, p))
                        for r in range(rows)
                        if (v := rng.randrange(p))
                    )
                )
                for c in range(ncols)
            }
            res = certified_eliminate(graded(cols), _rows(*range(rows)), p)
            assert res.status == CERTIFIED
            dense = fp_rank(
                [dict(col["R"].terms) for col in cols.values()],
                p,
            )
            assert res.rank == dense
            assert res.total_columns - res.rank == ncols - dense


def test_row_order_is_respected():
    # the pivot choice scans rows in the order given, degree first
    p = 5
    cols = {
        0: {
            "TR": Series(terms=((2, known(1, p)),)),
            "BL": Series(terms=((1, known(1, p)),)),
        }
    }
    rows = [("BL", 1), ("TR", 2)]
    res = certified_eliminate(graded(cols), rows, p)
    assert res.pivots == ((("BL", 1), 0),)


@pytest.mark.parametrize(
    "entry, message",
    [
        (5, "entry 5 at ('R', 0) is neither a residue in 1..4 nor a symbol"),
        (-1, "entry -1 at ('R', 0) is neither a residue in 1..4 nor a symbol"),
        (6, "entry 6 at ('R', 0) is neither a residue in 1..4 nor a symbol"),
        (True, "entry True at ('R', 0) is neither a residue in 1..4 nor a symbol"),
        ("x", "entry 'x' at ('R', 0) is neither a residue in 1..4 nor a symbol"),
    ],
    ids=["p", "negative", "above-p", "bool", "string"],
)
def test_an_entry_that_is_no_nonzero_residue_nor_a_symbol_is_refused(
    entry, message
):
    # an unreduced 5 at p = 5 is zero: taken as a pivot it would certify a
    # rank the column does not have; in-span columns are checked as well
    match = f"^{re.escape(message)}$"
    with pytest.raises(ValueError, match=match):
        certified_eliminate(graded({"c": _col((0, entry))}), _rows(0), 5)
    cols = {"a": _col((0, 1)), "b": _col((0, entry))}
    with pytest.raises(ValueError, match=match):
        certified_eliminate(graded(cols), _rows(0), 5, in_span=["b"])


def test_explicit_term_with_no_row_is_rejected():
    p = 3
    with pytest.raises(ValueError, match="has no row"):
        certified_eliminate(graded({0: _col((3, known(1, p)))}), _rows(1, 2), p)
    with pytest.raises(ValueError, match="has no row"):
        cols = graded({0: _col((1, known(1, p)), tag="S")})  # another corner
        certified_eliminate(cols, _rows(1), p)


def test_tail_on_a_pivot_row_resolves_to_kernel():
    # column 1 is a bare tail whose only row becomes column 0's pivot row:
    # reduced there, it is exactly zero, so nothing is left to block
    p = 3
    cols = {0: _col((1, known(1, p))), 1: _col(tail=1)}
    res = certified_eliminate(graded(cols), _rows(1), p)
    assert res.status == CERTIFIED
    assert res.pivots == ((("R", 1), 0),)
    assert res.kernel_columns == (1,)


def test_tail_inherited_from_the_pivot_column_blocks_at_its_first_free_row():
    # column 1 has no tail of its own; reducing it against column 0 brings in
    # column 0's tail from degree 3, which no later row can pivot away
    p = 3
    cols = {
        0: _col((1, known(1, p)), tail=3),
        1: _col((1, known(2, p))),
    }
    res = certified_eliminate(graded(cols), _rows(1, 2, 3, 4), p)
    assert res.status == INDETERMINATE
    assert res.rank == 1
    assert res.blocking == (1, ("R", 3))


def _as_reference(cols, rows, p, span=()):
    """The engine's result, after checking every field against the reference
    eliminator on the same columns with their tails expanded."""
    res = certified_eliminate(graded(cols), rows, p, in_span=span)
    flat = {c: materialized_column(parts, rows, p) for c, parts in cols.items()}
    assert _fields(res) == _fields(reference_eliminate(flat, rows, p, span))
    return res


# A pivotless column is tested once, on its own terms and tails: a tail blocks
# when it starts at or below the highest free degree of its corner.  Row 4 is
# a pivot row above every free row, so the highest free degree is 3.


def test_a_tail_from_the_highest_free_degree_blocks():
    cols = {0: _col((1, 1)), 1: _col((4, 1)), "z": _col(tail=3)}
    res = _as_reference(cols, _rows(0, 1, 2, 3, 4), 5)
    assert res.status == INDETERMINATE and res.rank == 2
    assert res.blocking == ("z", ("R", 3))


def test_a_tail_from_above_the_highest_free_degree_joins_the_kernel():
    # the tail now meets only the pivot row 4, where it is reduced to zero
    cols = {0: _col((1, 1)), 1: _col((4, 1)), "z": _col(tail=4)}
    res = _as_reference(cols, _rows(0, 1, 2, 3, 4), 5)
    assert res.status == CERTIFIED and res.rank == 2
    assert res.kernel_columns == ("z",)


def test_the_blocking_row_is_the_first_free_row_in_the_order_given():
    # column z holds an unknown on the free row 1 and a tail from 5; row 5
    # is listed first, so z blocks there and not at its explicit term
    cols = {0: _col((2, 1)), "z": _col((1, UNKNOWN_ENTRY), tail=5)}
    res = _as_reference(cols, [("R", 5), ("R", 2), ("R", 1)], 5)
    assert res.pivots == ((("R", 2), 0),)
    assert res.blocking == ("z", ("R", 5))


def test_a_pivot_column_stays_listed_and_never_pivots_again():
    # column 0 keeps its unit on row 2 after pivoting on row 1; the pivot on
    # row 2 is column 1, which is not reduced against column 0
    cols = {0: _col((1, 1), (2, 1)), 1: _col((2, 1))}
    res = _as_reference(cols, _rows(1, 2), 5)
    assert res.pivots == ((("R", 1), 0), (("R", 2), 1))
    assert res.status == CERTIFIED and res.kernel_columns == ()


def test_a_pivot_column_reached_by_a_later_tail_prefix_is_not_combined(
    monkeypatch,
):
    # column 0's tail from 2 reaches the pivot row 2 of column 1 after column
    # 0 has pivoted; it leaves the tail list there without being reduced
    calls = []

    def counted(e, pval, p):
        calls.append(e)
        return _ratio(e, pval, p)

    monkeypatch.setattr(linalg, "_ratio", counted)
    cols = {0: _col((1, UNIT_ENTRY), tail=2), 1: _col((2, UNIT_ENTRY))}
    res = _as_reference(cols, _rows(1, 2, 3), 5)
    assert res.pivots == ((("R", 1), 0), (("R", 2), 1))
    assert calls == []


def test_a_lower_row_after_a_higher_one_reduces_only_the_tails_it_reaches():
    # rows 5, 3, 2 in that order, and two tail columns: a from 4, b from 2.
    # Row 5 reaches both; row 3 reaches only b, which absorbs column 1's term
    # on row 2.  Reduced at row 3 as well, a would take that term, pivot on
    # row 2 and leave b in the kernel.  Row 2 is free, so b blocks there
    cols = {
        0: _col((5, 1)),
        1: _col((2, 1), (3, 1)),
        "a": _col(tail=4),
        "b": _col(tail=2),
    }
    res = _as_reference(cols, _rows(5, 3, 2), 5)
    assert res.pivots == ((("R", 5), 0), (("R", 3), 1))
    assert res.kernel_columns == ("a",) and res.blocking == ("b", ("R", 2))


def test_a_square_that_is_not_a_complex_is_refused():
    # d1 o d0 sends the top-left element to a unit at BR 1, so the two ranks
    # overcount: h1 = (0 + 1) - 1 - 1 = -1
    p = 2
    sq = SquareComplex(
        p=p,
        weight=0,
        d0=graded({("TL", 0): {"TR": Series(), "BL": Series(((0, known(1, p)),))}}),
        d1=graded({("BL", 0): {"BR": Series(((1, known(1, p)),))}}),
        br=(("BR", 1),),
    )
    with pytest.raises(ArithmeticError, match="negative certified dimension"):
        square_cohomology(sq)


# ------------------------------------------------------ soundness oracle


def _oracle_case(rng, p):
    """Columns over two corners of degrees below 4: up to four columns of
    known, unit and unknown terms with tails, rows degree-sorted or (30%)
    shuffled.  A third of the cases with two or more columns make the last
    column in-span, a known combination of some of the others; the span
    relation is returned as {column: [(coefficient, other column), ...]}."""
    degrees = {t: sorted(rng.sample(range(4), rng.randint(1, 4))) for t in "AB"}
    rows = [(t, d) for t in degrees for d in degrees[t]]
    if rng.random() < 0.3:
        rng.shuffle(rows)
    else:
        rows.sort(key=lambda r: (r[1], r[0]))
    ncols = rng.randint(1, 4)
    cols = {}
    for c in range(ncols):
        parts = {}
        for t, degs in degrees.items():
            tail = None
            if rng.random() < 0.4:
                tail = rng.choice(degs + [degs[-1] + 1])
            terms = []
            for d in degs:
                x = rng.random()
                if (tail is not None and d >= tail) or x < 0.45:
                    continue
                if x < 0.7:
                    terms.append((d, known(rng.randrange(1, p), p)))
                else:
                    terms.append((d, UNIT_ENTRY if x < 0.88 else UNKNOWN_ENTRY))
            parts[t] = Series(terms=tuple(terms), tail_from=tail)
        cols[c] = parts
    span = {}
    if ncols > 1 and rng.random() < 0.35:
        last = ncols - 1
        others = rng.sample(range(last), rng.randint(1, last))
        span[last] = [(rng.randrange(1, p), o) for o in others]
        for t in degrees:
            pairs = [
                (d, scalar_mul(known(a, p), e, p))
                for a, o in span[last]
                for d, e in cols[o][t].terms
            ]
            tails = [cols[o][t].tail_from for _, o in span[last]]
            tail = min((s for s in tails if s is not None), default=None)
            cols[last][t] = series_window(p, pairs, tail_from=tail)
    return cols, rows, span


def _free_entries(cols, rows, span):
    """The symbolic entries of the columns outside the span, tail rows
    included: (column, row, is_unit) each."""
    out = []
    for c, parts in cols.items():
        if c in span:
            continue
        for t, s in parts.items():
            out += [
                (c, (t, d), e == UNIT_ENTRY)
                for d, e in s.terms
                if not isinstance(e, int)
            ]
            if s.tail_from is not None:
                out += [(c, r, False) for r in rows if r[0] == t and r[1] >= s.tail_from]
    return out


def _instantiations(free, p, rng):
    """Every assignment of the free entries for p <= 3 and at most eight of
    them, else 200 sampled ones; units range over nonzero values."""
    ranges = [range(1, p) if unit else range(p) for _, _, unit in free]
    if p <= 3 and len(free) <= 8:
        return itertools.product(*ranges)
    return ([rng.choice(r) for r in ranges] for _ in range(200))


def _instantiate(cols, span, free, values, p):
    """Plain {row: int} columns; in-span columns are their combinations."""
    inst = {
        c: {(t, d): e for t, s in parts.items() for d, e in s.terms
            if isinstance(e, int)}
        for c, parts in cols.items()
        if c not in span
    }
    for (c, r, _), v in zip(free, values):
        inst[c][r] = v
    for c, combo in span.items():
        acc = {}
        for a, other in combo:
            for r, v in inst[other].items():
                acc[r] = (acc.get(r, 0) + a * v) % p
        inst[c] = acc
    return inst


def _reduce_in_pivot_order(inst, pivots, p):
    """Plain columns reduced the way the pivots claim: at each pivot (r, c)
    in order, c's entry on r must be nonzero, and c then clears row r in
    every column that has not pivoted yet.  The pivot minor ends up
    lower-triangular with that nonzero diagonal, a witness of rank >=
    len(pivots) on this instantiation."""
    red = {c: dict(col) for c, col in inst.items()}
    done = set()
    for r, c in pivots:
        piv = red[c]
        assert piv.get(r, 0) % p, f"pivot {c!r} vanishes on {r!r}"
        done.add(c)
        inv = pow(piv[r], -1, p)
        for cc, col in red.items():
            f = col.get(r, 0) * inv % p
            if f and cc not in done:
                for rr, v in piv.items():
                    col[rr] = (col.get(rr, 0) - f * v) % p
    return red


@pytest.mark.parametrize("p, draws", [(2, 600), (3, 300), (5, 120), (7, 120)])
def test_elimination_claims_hold_on_every_instantiation(p, draws):
    # ground truth is dense F_p elimination of plain instantiations, which
    # shares nothing with the engine but the pivots it is asked to check
    rng = random.Random(100 + p)
    statuses = {CERTIFIED: 0, INDETERMINATE: 0}
    for _ in range(draws):
        cols, rows, span = _oracle_case(rng, p)
        res = certified_eliminate(graded(cols), rows, p, in_span=list(span))
        statuses[res.status] += 1
        pivot_cols = [c for _, c in res.pivots]
        pivot_rows = {r for r, _ in res.pivots}
        pivotless = sorted(c for c in cols if c not in span and c not in pivot_cols)
        assert res.rank == len(pivot_cols) == len(set(pivot_cols))
        assert res.total_columns == len(cols)
        if res.status == CERTIFIED:
            assert res.blocking is None
            assert res.kernel_columns == tuple(pivotless) + tuple(sorted(span))
            before_blocking = []
        else:
            c, r = res.blocking
            assert c in pivotless and r in rows and r not in pivot_rows
            before_blocking = rows[: rows.index(r)]
        kernel = [c for c in res.kernel_columns if c not in span]
        free = _free_entries(cols, rows, span)
        for values in _instantiations(free, p, rng):
            inst = _instantiate(cols, span, free, values, p)
            red = _reduce_in_pivot_order(
                {c: col for c, col in inst.items() if c not in span}, res.pivots, p
            )
            for c in kernel:
                assert not any(red[c].values()), (cols, rows, span, values)
            if res.status == CERTIFIED:
                assert fp_rank(inst.values(), p) == res.rank, (cols, rows, span)
            else:
                # the blocking row is the first one the reduced column may hold
                blocked = red[res.blocking[0]]
                assert not any(blocked.get(rr, 0) for rr in before_blocking)
    assert min(statuses.values()) > draws // 5


# ------------------------------------------------- differential reference


def _fields(res):
    return (res.status, res.rank, res.total_columns, res.pivots,
            res.kernel_columns, res.blocking)


@pytest.mark.parametrize("p", PRIMES)
def test_square_eliminations_match_the_reference(p):
    squares = [
        build_zp_square(p, i, extra) for i in range(3 * p + 1) for extra in (0, 1, 2)
    ] + [mod_v1_square(p, i) for i in range(2 * p + 2)]
    # all five large squares of the benchmark, with up to 1200 rows
    large = {2: (150, 300), 3: (300, 600), 7: (600,)}
    squares += [build_zp_square(p, i) for i in large.get(p, ())]
    for sq in squares:
        rep = square_cohomology(sq)
        ref0, ref1 = reference_square_eliminations(sq)
        assert _fields(rep.d0) == _fields(ref0), (sq.p, sq.weight)
        assert _fields(rep.d1) == _fields(ref1), (sq.p, sq.weight)


def _random_graded_matrix(
    rng, degree_bound=8, max_degrees=5, max_cols=8, sorted_share=0.5
):
    """Columns of one or two corners mixing known, unit and unknown terms,
    with tails, over a shuffled or a degree-sorted row order."""
    p = rng.choice((2, 3, 5))
    tags = ("A", "B")[: rng.randint(1, 2)]
    degrees = {
        t: sorted(rng.sample(range(degree_bound), rng.randint(1, max_degrees)))
        for t in tags
    }
    rows = [(t, d) for t in tags for d in degrees[t]]
    if rng.random() < 1 - sorted_share:
        rng.shuffle(rows)
    else:
        rows.sort(key=lambda r: (r[1], r[0]))
    cols = {}
    for c in range(rng.randint(1, max_cols)):
        parts = {}
        for t in tags:
            if rng.random() < 0.2:
                continue
            tail = None
            if rng.random() < 0.5:
                tail = rng.choice(degrees[t] + [degrees[t][-1] + 1])
            terms = []
            for d in degrees[t]:
                x = rng.random()
                if (tail is not None and d >= tail) or x < 0.4:
                    continue
                if x < 0.7:
                    terms.append((d, known(rng.randrange(1, p), p)))
                else:
                    terms.append((d, UNIT_ENTRY if x < 0.88 else UNKNOWN_ENTRY))
            parts[t] = Series(terms=tuple(terms), tail_from=tail)
        cols[c] = parts
    span = [c for c in cols if rng.random() < 0.15]
    return p, cols, rows, span


def test_random_graded_matrices_match_the_reference():
    rng = random.Random(2024)
    statuses = {CERTIFIED: 0, INDETERMINATE: 0}
    tailed_corners = {0: 0, 1: 0, 2: 0}
    for _ in range(2000):
        p, cols, rows, span = _random_graded_matrix(rng)
        res = certified_eliminate(graded(cols), rows, p, in_span=span)
        flat = {c: materialized_column(parts, rows, p) for c, parts in cols.items()}
        assert _fields(res) == _fields(reference_eliminate(flat, rows, p, span))
        statuses[res.status] += 1
        tails = {
            t for parts in cols.values() for t, s in parts.items()
            if s.tail_from is not None
        }
        tailed_corners[len(tails)] += 1
    # both outcomes, and tails in no, one and two corners, are well sampled
    assert min(statuses.values()) > 500 and min(tailed_corners.values()) > 200


def test_wide_random_graded_matrices_match_the_reference():
    # up to 40 columns over up to 32 rows: pivot columns carry many terms, so
    # reductions fill in new rows and merge tails, and the reduced columns
    # must be found again by the rows they now touch
    rng = random.Random(8)
    statuses = {CERTIFIED: 0, INDETERMINATE: 0}
    for _ in range(300):
        p, cols, rows, span = _random_graded_matrix(
            rng, degree_bound=24, max_degrees=16, max_cols=40, sorted_share=0.8
        )
        res = certified_eliminate(graded(cols), rows, p, in_span=span)
        flat = {c: materialized_column(parts, rows, p) for c, parts in cols.items()}
        assert _fields(res) == _fields(reference_eliminate(flat, rows, p, span))
        statuses[res.status] += 1
    assert min(statuses.values()) > 10


# --------------------------------------------------------- result records


def test_result_records_keep_their_shape():
    # the per-call result records are named tuples with the fields, defaults
    # and truth values they had as frozen dataclasses; no attribute can be set
    elim = linalg.EliminationResult(CERTIFIED, 0, 0, (), ())
    rep = linalg.CohomologyReport(
        3, 0, INDETERMINATE, None, None, None, 0, (1, 0, 1, 0), elim, elim
    )
    shapes = [
        (elim, "status rank total_columns pivots kernel_columns blocking"),
        (rep, "p weight status h0 h1 h2 euler corner_sizes d0 d1 generators"),
        (linalg.WindowCutoffs(1, 2, 3, 4), "tl tr bl br"),
        (linalg.TruncationCheck(False), "ok failing detail"),
        (NamedClass("1", 0, ("TL", 0)), "name weight witness"),
        (KTableRow(0, True, "", "", ()), "i nonzero reason note axioms"),
        (SampleReport(4, 5, False), "passes total cross_checked"),
        (VerifierReport(False, (), ()), "ok checks errors"),
    ]
    for record, fields in shapes:
        assert record._fields == tuple(fields.split()), fields
        for name in (record._fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
    defaults = {type(r).__name__: r._field_defaults for r, _ in shapes}
    assert {name: d for name, d in defaults.items() if d} == {
        "EliminationResult": {"blocking": None},
        "CohomologyReport": {"generators": ()},
        "TruncationCheck": {"failing": None, "detail": ""},
    }
    assert rep.dims == (None, None, None)
    # a status, ok flag or pass count decides the truth value, not the length
    assert elim and not elim._replace(status=INDETERMINATE)
    assert not rep and rep._replace(status=CERTIFIED)
    assert not linalg.TruncationCheck(False) and linalg.TruncationCheck(True)
    assert not SampleReport(4, 5, False) and SampleReport(5, 5, False).ok
    assert not VerifierReport(False, (), ()) and VerifierReport(True, (), ())
    cls = NamedClass("del*lambda1", 3, ("BR", 3))
    assert (cls.degree, cls.rep) == (2, "z^2*Dz*t^-3")
    assert cls == ("del*lambda1", 3, ("BR", 3))
