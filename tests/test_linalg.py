import random

import pytest

from conftest import (
    fp_rank,
    materialized_column,
    reference_eliminate,
    reference_square_eliminations,
)
from syntomic.linalg import (
    CERTIFIED,
    INDETERMINATE,
    KNOWN,
    UNIT,
    UNIT_ENTRY,
    UNKNOWN,
    UNKNOWN_ENTRY,
    Scalar,
    Series,
    certainly_nonzero,
    certified_eliminate,
    is_known_zero,
    known,
    materialize,
    scalar_add,
    scalar_div,
    scalar_mul,
    scalar_neg,
    series_window,
    square_cohomology,
)
from syntomic.zp import build_zp_square, mod_v1_square

PRIMES = (2, 3, 5, 7)


# ---------------------------------------------------------------- scalars


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
    assert s.kind == UNKNOWN  # a unit plus one may vanish
    t = scalar_add(UNKNOWN_ENTRY, UNKNOWN_ENTRY, p)
    assert t.kind == UNKNOWN


def test_products_of_nonzeros_stay_nonzero():
    p = 5
    u = UNIT_ENTRY
    assert scalar_mul(u, u, p).kind == UNIT
    assert scalar_mul(u, known(2, p), p).kind == UNIT
    assert scalar_mul(u, UNKNOWN_ENTRY, p).kind == UNKNOWN
    assert certainly_nonzero(u) and not certainly_nonzero(UNKNOWN_ENTRY)


def test_symbol_minus_the_same_shared_symbol_is_unknown():
    # symbols carry no identity, so even one shared object never cancels
    p = 5
    for sym in (UNIT_ENTRY, UNKNOWN_ENTRY):
        assert scalar_neg(sym, p) is sym
        assert scalar_add(sym, scalar_neg(sym, p), p).kind == UNKNOWN


def test_division_guards():
    p = 5
    with pytest.raises(ZeroDivisionError):
        scalar_div(known(1, p), UNKNOWN_ENTRY, p)
    with pytest.raises(ZeroDivisionError):
        scalar_div(known(1, p), known(0, p), p)
    assert scalar_div(UNIT_ENTRY, UNIT_ENTRY, p).kind == UNIT
    assert scalar_div(UNKNOWN_ENTRY, UNIT_ENTRY, p).kind == UNKNOWN
    assert is_known_zero(scalar_div(known(0, p), UNIT_ENTRY, p))


# ----------------------------------------------------------------- series


def test_series_validation():
    p = 3
    with pytest.raises(ValueError):
        Series(terms=((2, known(1, p)), (1, known(1, p))))
    with pytest.raises(ValueError):
        Series(terms=((1, known(0, p)),))
    with pytest.raises(ValueError):
        Series(terms=((4, known(1, p)),), tail_from=4)


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
    assert all(col[d].kind == UNKNOWN for d in (3, 5))  # every tail row
    with pytest.raises(ValueError):
        materialize(s, [2, 3])  # explicit term with no row


# ----------------------------------------------------------- elimination


def _col(*terms, tag="R", tail=None):
    """A graded column with one corner: explicit (degree, scalar) terms."""
    return {tag: Series(terms=tuple(terms), tail_from=tail)}


def _rows(*degrees, tag="R"):
    return [(tag, d) for d in degrees]


def test_unit_pivot_certifies_rank_one():
    res = certified_eliminate({"c": _col((0, UNIT_ENTRY))}, _rows(0), 5)
    assert res.status == CERTIFIED and res.rank == 1
    assert res.kernel_dim == 0 and bool(res)


def test_single_unknown_is_indeterminate():
    res = certified_eliminate({"c": _col((0, UNKNOWN_ENTRY))}, _rows(0), 5)
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
    res = certified_eliminate(cols, _rows(1, 2), p)
    assert res.status == CERTIFIED
    assert res.rank == 2
    assert res.kernel_columns == (0, 3)


def test_unknown_interference_blocks_certification():
    p = 3
    cols = {
        0: _col((1, known(1, p)), (2, UNKNOWN_ENTRY)),
        1: _col((2, UNKNOWN_ENTRY)),
    }
    res = certified_eliminate(cols, _rows(1, 2), p)
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
    res = certified_eliminate(cols, _rows(1, 2), p)
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
    res = certified_eliminate(cols, _rows(1, 2), p)
    assert res.status == INDETERMINATE  # 1 - (u/u)*1 is not known to vanish
    cols = {
        0: _col((1, known(2, p)), (2, known(1, p))),
        1: _col((1, known(2, p)), (2, known(1, p))),
    }
    res = certified_eliminate(cols, _rows(1, 2), p)
    assert res.status == CERTIFIED and res.rank == 1
    assert res.kernel_columns == (1,)


def test_in_span_columns_count_into_kernel():
    p = 3
    cols = {
        "a": _col((1, known(1, p))),
        "b": _col((1, known(2, p))),
    }
    res = certified_eliminate(cols, _rows(1), p, in_span=["b"])
    assert res.status == CERTIFIED
    assert res.rank == 1 and res.total_columns == 2
    assert res.kernel_columns == ("b",)
    with pytest.raises(ValueError):
        certified_eliminate(cols, _rows(1), p, in_span=["missing"])


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
            res = certified_eliminate(cols, _rows(*range(rows)), p)
            assert res.status == CERTIFIED
            dense = fp_rank(
                [{r: s.value for r, s in col["R"].terms} for col in cols.values()],
                p,
            )
            assert res.rank == dense
            assert res.kernel_dim == ncols - dense


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
    res = certified_eliminate(cols, rows, p)
    assert res.pivots == ((("BL", 1), 0),)


def test_explicit_term_with_no_row_is_rejected():
    p = 3
    with pytest.raises(ValueError, match="has no row"):
        certified_eliminate({0: _col((3, known(1, p)))}, _rows(1, 2), p)
    with pytest.raises(ValueError, match="has no row"):  # row of another corner
        certified_eliminate({0: _col((1, known(1, p)), tag="S")}, _rows(1), p)


def test_tail_on_a_pivot_row_resolves_to_kernel():
    # column 1 is a bare tail whose only row becomes column 0's pivot row:
    # reduced there, it is exactly zero, so nothing is left to block
    p = 3
    cols = {0: _col((1, known(1, p))), 1: _col(tail=1)}
    res = certified_eliminate(cols, _rows(1), p)
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
    res = certified_eliminate(cols, _rows(1, 2, 3, 4), p)
    assert res.status == INDETERMINATE
    assert res.rank == 1
    assert res.blocking == (1, ("R", 3))


# ------------------------------------------------- differential reference


def _fields(res):
    return (res.status, res.rank, res.total_columns, res.pivots,
            res.kernel_columns, res.blocking)


@pytest.mark.parametrize("p", PRIMES)
def test_square_eliminations_match_the_reference(p):
    squares = [
        build_zp_square(p, i, extra) for i in range(3 * p + 1) for extra in (0, 1, 2)
    ] + [mod_v1_square(p, i) for i in range(2 * p + 2)]
    for sq in squares:
        rep = square_cohomology(sq)
        ref0, ref1 = reference_square_eliminations(sq)
        assert _fields(rep.d0) == _fields(ref0), sq.label
        assert _fields(rep.d1) == _fields(ref1), sq.label


def _random_graded_matrix(rng):
    """Columns of one or two corners mixing known, unit and unknown terms,
    with tails, over a shuffled or a degree-sorted row order."""
    p = rng.choice((2, 3, 5))
    tags = ("A", "B")[: rng.randint(1, 2)]
    degrees = {t: sorted(rng.sample(range(8), rng.randint(1, 5))) for t in tags}
    rows = [(t, d) for t in tags for d in degrees[t]]
    if rng.random() < 0.5:
        rng.shuffle(rows)
    else:
        rows.sort(key=lambda r: (r[1], r[0]))
    cols = {}
    for c in range(rng.randint(1, 8)):
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
        res = certified_eliminate(cols, rows, p, in_span=span)
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
