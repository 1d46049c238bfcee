"""Certified linear algebra over F_p with partially known entries.

Matrix entries are plain data: a known entry is its residue, an int in
range(p); UNIT_ENTRY (certainly nonzero, value unknown) and UNKNOWN_ENTRY (a
fully unknown residue) are two strings.  Symbols carry no identity: every
symbolic entry stands for a value independent of all other entries, so no
two symbols ever cancel (u - u is unknown).  Elimination only ever divides
by certainly nonzero entries and only reports a rank when the outcome is
forced for every consistent assignment of the unknowns; otherwise it reports
INDETERMINATE together with the first blocking position.

Rows are (corner, degree) pairs.  A graded column is a pair (terms, tails):
its explicit entries by row, and by corner the degree from which its tail of
independent unknowns starts (the image of a truncation remainder).  The
square builders write their differentials in this form, and the eliminator
reads it as it is.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from math import inf
from operator import itemgetter
from types import MappingProxyType
from typing import Any, Iterable, Mapping, NamedTuple

CERTIFIED = "CERTIFIED"
INDETERMINATE = "INDETERMINATE"

# the one unit symbol and the one unknown symbol, shared by every entry
UNIT_ENTRY = "u"
UNKNOWN_ENTRY = "?"
_SYMBOLS = (UNIT_ENTRY, UNKNOWN_ENTRY)

Scalar = int | str  # a residue or one of the two symbols
Row = tuple[Any, int]  # (corner, degree)
Column = tuple[dict[Row, Scalar], dict[Any, int]]  # (terms by row, tails by corner)


def certainly_nonzero(s: Scalar) -> bool:
    return s != 0 and s != UNKNOWN_ENTRY


def _ratio(e: Scalar, pval: Scalar, p: int) -> Scalar:
    """The coefficient e / pval; pval must be certainly nonzero."""
    if not certainly_nonzero(pval):
        raise ZeroDivisionError("division by a not-certainly-nonzero scalar")
    if e == 0 or type(e) is not int:
        return e  # a symbol over a nonzero divisor stays the same kind of symbol
    return e * pow(pval, -1, p) % p if type(pval) is int else UNIT_ENTRY


def _minus_multiple(a: Scalar, c: Scalar, b: Scalar, p: int) -> Scalar:
    """The entry a - c*b: exact on residues.  With a symbol involved it is
    UNIT_ENTRY only when a = 0 and c and b are certainly nonzero, and
    UNKNOWN_ENTRY otherwise, so no two symbols ever cancel."""
    if c == 0 or b == 0:
        return a
    if type(a) is int and type(c) is int and type(b) is int:
        return (a - c * b) % p
    if a == 0 and certainly_nonzero(c) and certainly_nonzero(b):
        return UNIT_ENTRY
    return UNKNOWN_ENTRY


def materialize(series: Any, degrees: Iterable[int]) -> dict[int, Scalar]:
    """Column entries of a series over the given row degrees, UNKNOWN_ENTRY
    on every tail row; an explicit term on no listed row raises ValueError.
    The series is any object with (degree, entry) pairs as terms and an int
    or None as tail_from."""
    degset = set(degrees)
    col: dict[int, Scalar] = {}
    for d, s in series.terms:
        if d not in degset:
            raise ValueError(f"explicit term at degree {d} has no row")
        col[d] = s
    if series.tail_from is not None:
        for d in degset:
            if d >= series.tail_from:
                col[d] = UNKNOWN_ENTRY
    return col


class EliminationResult(NamedTuple):
    status: str
    rank: int
    total_columns: int
    pivots: tuple[tuple[Any, Any], ...]  # (row, column) pairs in pivot order
    kernel_columns: tuple[Any, ...]  # resolved-zero columns plus in-span columns
    blocking: tuple[Any, Any] | None = None  # (column, row) stopping certification

    def __bool__(self) -> bool:
        return self.status == CERTIFIED


def _in_tail(tails: dict[Any, int], r: Row) -> bool:
    return r[0] in tails and r[1] >= tails[r[0]]


def _read(columns: dict[Any, Column], row_order: Iterable[Row], p: int) -> tuple:
    """The one reader of graded columns, which copies nothing.  Raises
    ValueError at the first term at or above its corner's tail, on no row
    of row_order, or with an entry neither in range(1, p) nor a symbol.
    In the same pass it lists each column's position in the order given
    under the rows of its explicit terms.  Returns the column keys, the
    columns and that row index."""
    work = list(columns.values())
    at_row: dict[Row, list[int]] = {r: [] for r in row_order}
    for j, (terms, tails) in enumerate(work):
        for r, s in terms.items():
            if r[1] >= tails.get(r[0], inf):
                raise ValueError(f"term at {r!r} is not below its tail")
            here = at_row.get(r)
            if here is None:
                raise ValueError(f"explicit term at {r!r} has no row")
            if not (0 < s < p if type(s) is int else s in _SYMBOLS):
                raise ValueError(
                    f"entry {s!r} at {r!r} is neither a residue in 1..{p - 1} "
                    "nor a symbol"
                )
            here.append(j)
    return list(columns), work, at_row


def certified_eliminate(
    columns: dict[Any, Column],
    row_order: list[Row],
    p: int,
    in_span: Iterable[Any] = (),
) -> EliminationResult:
    """Column elimination with certified pivots on graded columns.

    Each column is a graded (terms, tails) pair.  A tail stands for an
    independent unknown on each row of its corner from its start up; tails
    are never expanded into entries.  The columns are read in place, once,
    by _read, which refuses a malformed one and indexes them by row, and
    are never written into: a combined column is a new pair.

    Rows are visited once, in the given order.  The candidates at row
    (tag, d) are the pivotless columns with an explicit term there, found
    through a row index, and those whose tail on tag starts at or below d,
    popped off the end of a per-corner list that holds the lowest tail last.
    The first candidate in the order given with a certainly nonzero explicit
    entry becomes a pivot and is subtracted from every other candidate: the
    pivot-row entry cancels exactly, the other explicit terms combine
    conservatively, each corner keeps the lower of the two tails, and
    explicit terms that land inside a tail are absorbed by it.  A row on
    which no candidate becomes a pivot is free, and the visit records the
    highest free degree of each corner.  A combined column is re-indexed
    under the rows and tails it now has.  A pivot column is not unindexed:
    it stays listed under its rows and in its tail lists, and the pivot
    search and the targets skip it.  A pivot row pops every tail that
    reaches it off its corner's list, drops the pivot columns among them and
    puts the others back in order, so a later row of lower degree again pops
    only the tails that reach it.  A row therefore costs time in its
    candidates and the terms they combine, not in the number of columns, and
    a square whose pivots combine nothing pays no index upkeep.
    Already-pivoted columns are never touched again: their entries on later
    rows sit strictly below their own pivot row, so they cannot damage the
    lower-triangular pivot minor that witnesses the rank.

    A tail row reads as unknown until it becomes a pivot row.  From then on
    every pivotless column is exactly zero there: each column with an entry
    on that row was reduced against the pivot, and every later combination
    is of columns that are zero there.

    Columns listed in in_span are known linear combinations of the remaining
    columns; they are excluded from pivoting and counted into the kernel,
    after the resolved-zero columns and in the order listed.  Column keys
    need only be hashable.

    The result is CERTIFIED when no pivotless column keeps an explicit term
    or a tail on a row that is not a pivot row, which forces both the rank
    and the kernel dimension for every consistent assignment of the symbolic
    entries.  Each pivotless column is tested once, on its own terms and
    tails: it blocks if an explicit term sits on a free row or a tail starts
    at or below the highest free degree of its corner, and joins the kernel
    otherwise.  Only the first blocking column is scanned, in row order, for
    the free row that blocks it.
    """
    span = dict.fromkeys(in_span)
    for c in span:
        if c not in columns:
            raise ValueError(f"in-span column {c!r} not among the columns")
    # working columns are keyed by their position in the order given, so the
    # first of them is the smallest int
    order, work, at_row = _read(columns, row_order, p)
    # per corner, each column's tail as (-tail_from, -position), lowest last
    tail_index: dict[Any, list[tuple[int, int]]] = {}
    for j, (_, tails) in enumerate(work):
        for tag, start in tails.items():
            tail_index.setdefault(tag, []).append((-start, -j))
    for tail_list in tail_index.values():
        tail_list.sort()

    def entry(j: int, r: Row) -> Scalar | None:
        """The entry of column j on a row that is not a pivot row."""
        terms, tails = work[j]
        e = terms.get(r)
        return UNKNOWN_ENTRY if e is None and _in_tail(tails, r) else e

    def index(j: int) -> None:
        """List a combined column under its new rows and tails."""
        terms, tails = work[j]
        for r in terms:
            at_row[r].append(j)
        for tag, start in tails.items():
            insort(tail_index.setdefault(tag, []), (-start, -j))

    def unindex(j: int) -> None:
        terms, tails = work[j]
        for r in terms:
            at_row[r].remove(j)
        for tag, start in tails.items():
            tail_list = tail_index[tag]
            del tail_list[bisect_left(tail_list, (-start, -j))]

    # positions kept out of pivoting, but not unindexed: in-span and pivot columns
    done = {j for j, c in enumerate(order) if c in span} if span else set()
    pivots: list[tuple[Any, Any]] = []
    top_free: dict[Any, int] = {}  # the highest degree of a free row by corner
    for r in row_order:
        pivot_col, targets = None, []
        for j in at_row[r]:  # a tail entry is never certainly nonzero
            if j in done:
                continue
            targets.append(j)
            if (pivot_col is None or j < pivot_col) and certainly_nonzero(
                work[j][0][r]
            ):
                pivot_col = j
        if pivot_col is None:  # no candidate, or none certainly nonzero
            if r[1] > top_free.get(r[0], -inf):
                top_free[r[0]] = r[1]
            continue
        pivots.append((r, order[pivot_col]))
        done.add(pivot_col)
        targets.remove(pivot_col)
        # reduce every pivotless column with an entry on r: an explicit term,
        # or else (explicit terms sit below a tail) a tail from r[1] or lower,
        # popped in ascending (tail_from, position); popped pivot columns and
        # in-span columns leave the tail list here
        tail_list = tail_index.get(r[0])
        if tail_list:
            low, reached = -r[1], []
            while tail_list and tail_list[-1][0] >= low:
                key = tail_list.pop()
                if -key[1] not in done:
                    reached.append(key)
            if reached:
                targets += [-j for _, j in reached]
                tail_list += reversed(reached)
        if not targets:
            continue
        pterms, ptails = work[pivot_col]
        pval = pterms[r]
        for j in targets:
            coef = _ratio(entry(j, r), pval, p)
            unindex(j)
            terms, tails = work[j]
            merged = dict(ptails)
            for tag, start in tails.items():
                merged[tag] = min(start, merged.get(tag, start))
            combined: dict[Any, Scalar] = {}
            for rr in terms.keys() | pterms.keys():
                if rr == r or _in_tail(merged, rr):
                    continue  # cancelled at the pivot row, or absorbed by a tail
                nv = _minus_multiple(terms.get(rr, 0), coef, pterms.get(rr, 0), p)
                if nv != 0:
                    combined[rr] = nv
            work[j] = (combined, merged)
            index(j)
    pivot_rows = {r for r, _ in pivots}
    blocking = None
    kernel = []
    for j in range(len(order)):
        if j in done:
            continue
        terms, tails = work[j]
        if not any(r not in pivot_rows for r in terms) and not any(
            start <= top_free.get(tag, -inf) for tag, start in tails.items()
        ):
            kernel.append(order[j])
        elif blocking is None:
            first = next(
                r for r in row_order if r not in pivot_rows and entry(j, r) is not None
            )
            blocking = (order[j], first)
    status = CERTIFIED if blocking is None else INDETERMINATE
    kernel.extend(span)
    return EliminationResult(
        status=status,
        rank=len(pivots),
        total_columns=len(columns),
        pivots=tuple(pivots),
        kernel_columns=tuple(kernel),
        blocking=blocking,
    )


TL, TR, BL, BR = "TL", "TR", "BL", "BR"  # corner tags


class SquareComplex(NamedTuple):
    """A filtration-truncated twisted de Rham square in one weight.

    Each basis element has one key, (corner, filtration degree).  The total
    complex is held as its two differentials, graded columns over the
    target corners' rows: d0 = (nabla_top, v_left) : TL -> TR + BL has one
    column per TL element, and d1(x, y) = v_right(x) - nabla_bot(y) :
    TR + BL -> BR one per TR element, then one per BL element; within a
    corner the columns come in ascending degree.  The keys of d1 are the
    rows of d0, and br holds the BR row keys in degree order, the tuples
    that the terms of d1 use.  The nabla_bot columns are stored unnegated:
    scaling a column by the unit -1 moves no pivot, kernel column or
    blocking entry.  square_rows gives the row order of each.

    bl_in_span maps each BL key whose nabla_bot column is a known
    combination of the other d1 columns to its TL partner key (the square
    identity applied to that top-left element); by default it is one shared
    read-only empty mapping.
    """

    p: int
    weight: int
    d0: dict[Row, Column]
    d1: dict[Row, Column]
    br: tuple[Row, ...]
    bl_in_span: Mapping[Row, Row] = MappingProxyType({})

    def corner_sizes(self) -> tuple[int, int, int, int]:
        ntr = sum(corner == TR for corner, _ in self.d1)
        return (len(self.d0), ntr, len(self.d1) - ntr, len(self.br))


def _euler(sizes: tuple[int, int, int, int]) -> int:
    a, b, c, d = sizes
    return a - b - c + d


def euler_characteristic(sq: SquareComplex) -> int:
    return _euler(sq.corner_sizes())


class CohomologyReport(NamedTuple):
    p: int
    weight: int
    status: str
    h0: int | None
    h1: int | None
    h2: int | None
    euler: int
    corner_sizes: tuple[int, int, int, int]
    d0: EliminationResult
    d1: EliminationResult
    generators: tuple[Any, ...] = ()

    @property
    def dims(self) -> tuple[int | None, int | None, int | None]:
        return (self.h0, self.h1, self.h2)

    def __bool__(self) -> bool:
        return self.status == CERTIFIED


def square_rows(sq: SquareComplex) -> tuple[list[Row], list[Row]]:
    """The row orders of d0 and d1: the keys of d1 by degree, a TR key
    before a BL key of equal degree (the stable sort keeps d1's order),
    then the BR rows.  Both are the square's own key tuples."""
    return sorted(sq.d1, key=itemgetter(1)), list(sq.br)


def square_cohomology(sq: SquareComplex) -> CohomologyReport:
    """Certified cohomology of the total complex of a square."""
    p = sq.p
    rows0, rows1 = square_rows(sq)
    elim0 = certified_eliminate(sq.d0, rows0, p)
    elim1 = certified_eliminate(sq.d1, rows1, p, in_span=sq.bl_in_span)

    nt, ntr, nbl, nbr = sizes = sq.corner_sizes()
    status = CERTIFIED if (elim0 and elim1) else INDETERMINATE
    if status == CERTIFIED:
        h0 = nt - elim0.rank
        h1 = (ntr + nbl) - elim1.rank - elim0.rank
        h2 = nbr - elim1.rank
        if h0 < 0 or h1 < 0 or h2 < 0:
            raise ArithmeticError("negative certified dimension")
    else:
        h0 = h1 = h2 = None
    return CohomologyReport(
        p=p,
        weight=sq.weight,
        status=status,
        h0=h0,
        h1=h1,
        h2=h2,
        euler=_euler(sizes),
        corner_sizes=sizes,
        d0=elim0,
        d1=elim1,
    )


class WindowCutoffs(NamedTuple):
    """Baseline window tops (filtration degrees), one per corner."""

    tl: int
    tr: int
    bl: int
    br: int


class TruncationCheck(NamedTuple):
    ok: bool
    failing: tuple[Any, ...] | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def verify_truncation(sq: SquareComplex, cutoffs: WindowCutoffs) -> TruncationCheck:
    """Check that basis elements beyond the cutoffs cannot affect cohomology.

    The columns are read as square_cohomology reads them: a malformed one
    raises the same ValueError, naming its (corner, degree) row.  Every
    column of an element above its corner's cutoff must land entirely
    beyond the partner cutoff, and the horizontal (can minus frobenius) ones
    keep their exact unit leading terms, on consecutive degrees from right
    above the partner cutoff.  As leading degrees grow linearly in the
    element's degree while the margin is arbitrary, enlarging the window
    then only adds columns reducible against each other, so the reported
    dimensions are stable.
    """
    for columns, rows in zip((sq.d0, sq.d1), square_rows(sq)):
        _read(columns, rows, sq.p)
    graded = sq.d0 | sq.d1
    rows = [*sq.d1, *sq.br]  # every row key of either differential

    def lowest(c: Row, tag: str) -> int | None:
        """The lowest degree of a row on tag where column c has an entry."""
        terms, tails = graded[c]
        lead = min((d for t, d in terms if t == tag), default=None)
        if lead is not None:
            return lead  # explicit terms sit below their corner's tail
        start = tails.get(tag, inf)
        return min((d for t, d in rows if t == tag and d >= start), default=None)

    def beyond(corner: str, cut: int) -> list[Row]:
        """The columns of corner above its cutoff, in ascending degree."""
        return [c for c in graded if c[0] == corner and c[1] > cut]

    def fail(col: tuple[Any, ...], why: str) -> TruncationCheck:
        return TruncationCheck(False, col, why)

    for corner, cut, tag, partner in (  # horizontal: TL -> BL, TR -> BR
        (TL, cutoffs.tl, BL, cutoffs.bl),
        (TR, cutoffs.tr, BR, cutoffs.br),
    ):
        leads = []
        for c in beyond(corner, cut):
            lead = lowest(c, tag)
            if lead is None and corner == TR:
                continue  # a TR image wholly beyond the extended window is harmless
            if lead is None or graded[c][0].get((tag, lead)) != 1:
                return fail(c, "beyond column lost its exact unit leading term")
            if lead <= partner:
                return fail(c, "beyond column leads inside the baseline window")
            leads.append(lead)
        if leads != list(range(partner + 1, partner + 1 + len(leads))):
            return fail((corner,), "beyond leading degrees are not consecutive")

    for corner, cut, tag, partner, why in (  # vertical: TL -> TR, BL -> BR
        (TL, cutoffs.tl, TR, cutoffs.tr, "vertical image"),
        (BL, cutoffs.bl, BR, cutoffs.br, "image"),
    ):
        for c in beyond(corner, cut):
            lead = lowest(c, tag)
            if lead is not None and lead <= partner:
                return fail(c, f"{why} enters the baseline window")
    return TruncationCheck(True, None, "stable")
