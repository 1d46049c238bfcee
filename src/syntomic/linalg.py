"""Certified linear algebra over F_p with partially known entries.

Matrix entries are one of: a known residue, an unknown unit (certainly
nonzero, value unknown), or a fully unknown residue.  Symbols carry no
identity: every symbolic entry, even one that is the same shared object as
another, stands for a value independent of all other entries, so no two
symbols ever cancel (u - u is unknown).  Elimination only ever divides by
certainly nonzero entries and only reports a rank when the outcome is forced
for every consistent assignment of the unknowns; otherwise it reports
INDETERMINATE together with the first blocking position.

Columns of the square-complex differentials are filtration-graded series:
finitely many explicit terms plus an optional tail of independent unknowns
from some degree on (the image of a truncation remainder).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

KNOWN = "known"
UNIT = "unit"
UNKNOWN = "unknown"

CERTIFIED = "CERTIFIED"
INDETERMINATE = "INDETERMINATE"


@dataclass(frozen=True)
class Scalar:
    kind: str
    value: int = 0

    def __repr__(self) -> str:
        if self.kind == KNOWN:
            return f"<{self.value}>"
        return "<u>" if self.kind == UNIT else "<?>"


# the one unit symbol and the one unknown symbol, shared by every entry
UNIT_ENTRY = Scalar(UNIT)
UNKNOWN_ENTRY = Scalar(UNKNOWN)


def known(v: int, p: int) -> Scalar:
    return Scalar(KNOWN, v % p)


def is_known_zero(s: Scalar) -> bool:
    return s.kind == KNOWN and s.value == 0


def certainly_nonzero(s: Scalar) -> bool:
    return s.kind == UNIT or (s.kind == KNOWN and s.value != 0)


def scalar_add(a: Scalar, b: Scalar, p: int) -> Scalar:
    if is_known_zero(a):
        return b
    if is_known_zero(b):
        return a
    if a.kind == KNOWN and b.kind == KNOWN:
        return known(a.value + b.value, p)
    # a sum involving a symbol is unknown: no relation between symbols may be
    # assumed, including cancellation
    return UNKNOWN_ENTRY


def scalar_neg(a: Scalar, p: int) -> Scalar:
    if a.kind == KNOWN:
        return known(-a.value, p)
    return a


def scalar_mul(a: Scalar, b: Scalar, p: int) -> Scalar:
    if is_known_zero(a) or is_known_zero(b):
        return known(0, p)
    if a.kind == KNOWN and b.kind == KNOWN:
        return known(a.value * b.value, p)
    if certainly_nonzero(a) and certainly_nonzero(b):
        return UNIT_ENTRY
    return UNKNOWN_ENTRY


def scalar_div(a: Scalar, b: Scalar, p: int) -> Scalar:
    """a / b; b must be certainly nonzero."""
    if not certainly_nonzero(b):
        raise ZeroDivisionError("division by a not-certainly-nonzero scalar")
    if is_known_zero(a):
        return a
    if a.kind == KNOWN and b.kind == KNOWN:
        return known(a.value * pow(b.value, -1, p), p)
    if certainly_nonzero(a):
        return UNIT_ENTRY
    return UNKNOWN_ENTRY


@dataclass(frozen=True)
class Series:
    """Explicit terms below tail_from, independent unknowns from tail_from up.

    terms is sorted by degree, holds no known zeros, and every explicit
    degree is strictly below tail_from when a tail is present.
    """

    terms: tuple[tuple[int, Scalar], ...] = ()
    tail_from: int | None = None

    def __post_init__(self) -> None:
        prev = None
        for d, s in self.terms:
            if prev is not None and d <= prev:
                raise ValueError("terms must be strictly increasing in degree")
            if is_known_zero(s):
                raise ValueError("known zeros must be dropped")
            if self.tail_from is not None and d >= self.tail_from:
                raise ValueError("explicit term inside tail range")
            prev = d


def series_window(
    p: int,
    pairs: Iterable[tuple[int, Scalar]],
    tail_from: int | None = None,
    top: int | None = None,
) -> Series:
    """Assemble a Series from raw (degree, scalar) pairs inside a degree window.

    Pairs beyond top are discarded (they land outside the truncation window),
    duplicate degrees are summed, pairs at or above tail_from merge into the
    tail (known + independent unknown is unknown, which the tail carries).
    """
    acc: dict[int, Scalar] = {}
    for d, s in pairs:
        if top is not None and d > top:
            continue
        if tail_from is not None and d >= tail_from:
            continue
        acc[d] = scalar_add(acc.get(d, known(0, p)), s, p)
    if tail_from is not None and top is not None and tail_from > top:
        tail_from = None
    terms = tuple(
        (d, s) for d, s in sorted(acc.items()) if not is_known_zero(s)
    )
    return Series(terms=terms, tail_from=tail_from)


def materialize(series: Series, degrees: Iterable[int]) -> dict[int, Scalar]:
    """Column entries of the series over the given row degrees.

    Every tail row holds UNKNOWN_ENTRY, independent of every other entry like
    all symbols; explicit terms must sit on listed rows (builders are
    responsible for window filtering).
    """
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


@dataclass(frozen=True)
class EliminationResult:
    status: str
    rank: int
    total_columns: int
    pivots: tuple[tuple[Any, Any], ...]  # (row, column) pairs in pivot order
    kernel_columns: tuple[Any, ...]  # resolved-zero columns plus in-span columns
    blocking: tuple[Any, Any] | None = None  # (column, row) stopping certification

    @property
    def kernel_dim(self) -> int:
        return self.total_columns - self.rank

    def __bool__(self) -> bool:
        return self.status == CERTIFIED


def certified_eliminate(
    columns: dict[Any, dict[Any, Scalar]],
    row_order: list[Any],
    p: int,
    in_span: Iterable[Any] = (),
) -> EliminationResult:
    """Column elimination with certified pivots.

    Rows are visited once, in the given order.  At each row the lowest
    pivotless column with a certainly nonzero entry there becomes a pivot and
    is subtracted from every other pivotless column holding an entry on that
    row (the pivot-row entry cancels exactly; other rows combine
    conservatively).  Already-pivoted columns are never touched again: their
    entries on later rows sit strictly below their own pivot row, so they
    cannot damage the lower-triangular pivot minor that witnesses the rank.

    Columns listed in in_span are known linear combinations of the remaining
    columns; they are excluded from pivoting and counted into the kernel.

    The result is CERTIFIED when every remaining pivotless column has been
    reduced to literal zero, which forces both the rank and the kernel
    dimension for every consistent assignment of the symbolic entries.
    """
    span = set(in_span)
    for c in span:
        if c not in columns:
            raise ValueError(f"in-span column {c!r} not among the columns")
    work: dict[Any, dict[Any, Scalar]] = {}
    for c, col in columns.items():
        if c in span:
            continue
        work[c] = {r: s for r, s in col.items() if not is_known_zero(s)}
    order = sorted(work)
    pivots: list[tuple[Any, Any]] = []
    pivoted: set[Any] = set()
    for r in row_order:
        pivot_col = None
        for c in order:
            if c in pivoted:
                continue
            e = work[c].get(r)
            if e is not None and certainly_nonzero(e):
                pivot_col = c
                break
        if pivot_col is None:
            continue
        pivots.append((r, pivot_col))
        pivoted.add(pivot_col)
        pcol = work[pivot_col]
        pval = pcol[r]
        for c in order:
            if c in pivoted:
                continue
            e = work[c].get(r)
            if e is None or is_known_zero(e):
                continue
            coef = scalar_div(e, pval, p)
            combined: dict[Any, Scalar] = {}
            for rr in set(work[c]) | set(pcol):
                if rr == r:
                    continue  # exact cancellation at the pivot row
                lhs = work[c].get(rr, known(0, p))
                sub = scalar_mul(coef, pcol.get(rr, known(0, p)), p)
                nv = scalar_add(lhs, scalar_neg(sub, p), p)
                if not is_known_zero(nv):
                    combined[rr] = nv
            work[c] = combined
    blocking = None
    kernel = []
    for c in order:
        if c in pivoted:
            continue
        leftover = work[c]
        if leftover:
            if blocking is None:
                pos = {r: i for i, r in enumerate(row_order)}
                first = min(leftover, key=lambda r: pos[r])
                blocking = (c, first)
        else:
            kernel.append(c)
    status = CERTIFIED if blocking is None else INDETERMINATE
    kernel.extend(sorted(span))
    return EliminationResult(
        status=status,
        rank=len(pivots),
        total_columns=len(columns),
        pivots=tuple(pivots),
        kernel_columns=tuple(kernel),
        blocking=blocking,
    )


# corner tags; also the tie-break rank used when two rows share a degree
TL, TR, BL, BR = "TL", "TR", "BL", "BR"
_ROW_RANK = {TR: 0, BL: 1}


@dataclass(frozen=True)
class SquareComplex:
    """A filtration-truncated twisted de Rham square in one weight.

    Corners are finite graded bases: tuples of (index, filtration degree).
    The four maps are columns of graded series keyed by source index, with
    target degrees matching the target corner.  Total complex:
    d0 = (nabla_top, v_left) : TL -> TR + BL and
    d1(x, y) = v_right(x) - nabla_bot(y) : TR + BL -> BR.

    bl_in_span marks bottom-left indices m whose nabla_bot column is a known
    combination of the other d1 columns (the square identity applied to the
    top-left element recorded as the value).
    """

    p: int
    weight: int
    tl: tuple[tuple[int, int], ...]
    tr: tuple[tuple[int, int], ...]
    bl: tuple[tuple[int, int], ...]
    br: tuple[tuple[int, int], ...]
    nabla_top: dict[int, Series]
    v_left: dict[int, Series]
    v_right: dict[int, Series]
    nabla_bot: dict[int, Series]
    bl_in_span: dict[int, int] = field(default_factory=dict)
    label: str = ""

    def corner_sizes(self) -> tuple[int, int, int, int]:
        return (len(self.tl), len(self.tr), len(self.bl), len(self.br))


def euler_characteristic(sq: SquareComplex) -> int:
    a, b, c, d = sq.corner_sizes()
    return a - b - c + d


@dataclass(frozen=True)
class CohomologyReport:
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
    label: str = ""

    @property
    def dims(self) -> tuple[int | None, int | None, int | None]:
        return (self.h0, self.h1, self.h2)

    def __bool__(self) -> bool:
        return self.status == CERTIFIED


def _column(
    p: int, *parts: tuple[str, Series, list[int]], negate: bool = False
) -> dict[Any, Scalar]:
    """One eliminator column: each (corner tag, series, row degrees) part
    materialized on its rows, keyed by (tag, degree), negated if asked."""
    col: dict[Any, Scalar] = {}
    for tag, series, degrees in parts:
        for d, s in materialize(series, degrees).items():
            col[(tag, d)] = scalar_neg(s, p) if negate else s
    return col


def square_cohomology(sq: SquareComplex) -> CohomologyReport:
    """Certified cohomology of the total complex of a square."""
    p = sq.p
    tr_degs = [d for _, d in sq.tr]
    bl_degs = [d for _, d in sq.bl]
    br_degs = [d for _, d in sq.br]

    cols0 = {
        (0, k): _column(
            p, (TR, sq.nabla_top[k], tr_degs), (BL, sq.v_left[k], bl_degs)
        )
        for k, _ in sq.tl
    }
    rows1 = sorted(
        [(TR, d) for d in tr_degs] + [(BL, d) for d in bl_degs],
        key=lambda rk: (rk[1], _ROW_RANK[rk[0]]),
    )
    elim0 = certified_eliminate(cols0, rows1, p)

    cols1 = {(0, k): _column(p, (BR, sq.v_right[k], br_degs)) for k, _ in sq.tr}
    for m, _ in sq.bl:
        cols1[(1, m)] = _column(p, (BR, sq.nabla_bot[m], br_degs), negate=True)
    rows2 = [(BR, d) for d in sorted(br_degs)]
    elim1 = certified_eliminate(
        cols1, rows2, p, in_span=[(1, m) for m in sq.bl_in_span]
    )

    nt, ntr, nbl, nbr = sq.corner_sizes()
    status = CERTIFIED if (elim0 and elim1) else INDETERMINATE
    if status == CERTIFIED:
        h0 = nt - elim0.rank
        h1 = (ntr + nbl) - elim1.rank - elim0.rank
        h2 = nbr - elim1.rank
        if h0 < 0 or h1 < 0 or h2 < 0:
            raise ArithmeticError("negative certified dimension")
        if h0 - h1 + h2 != euler_characteristic(sq):
            raise ArithmeticError("Euler characteristic mismatch")
    else:
        h0 = h1 = h2 = None
    return CohomologyReport(
        p=p,
        weight=sq.weight,
        status=status,
        h0=h0,
        h1=h1,
        h2=h2,
        euler=euler_characteristic(sq),
        corner_sizes=sq.corner_sizes(),
        d0=elim0,
        d1=elim1,
        label=sq.label,
    )


@dataclass(frozen=True)
class WindowCutoffs:
    """Baseline window tops (filtration degrees), one per corner."""

    tl: int
    tr: int
    bl: int
    br: int


@dataclass(frozen=True)
class TruncationCheck:
    ok: bool
    failing: tuple[Any, ...] | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _series_entries(s: Series, degrees: list[int]) -> list[int]:
    """Degrees at which the series has any (known or tail) entry on the rows."""
    out = [d for d, _ in s.terms]
    if s.tail_from is not None:
        out.extend(d for d in degrees if d >= s.tail_from)
    return sorted(set(out))


def verify_truncation(sq: SquareComplex, cutoffs: WindowCutoffs) -> TruncationCheck:
    """Check that basis elements beyond the cutoffs cannot affect cohomology.

    A square built with extra margin is compared against baseline cutoffs:
    every beyond-cutoff column must land entirely beyond the partner cutoff,
    and the horizontal (can minus frobenius) columns must keep their exact
    unit leading term strictly minimal with consecutive leading degrees
    starting right above the partner cutoff.  Together with the fact that
    leading degrees grow linearly in the basis index while the margin is
    arbitrary, this certifies that enlarging the window only adds columns
    reducible against each other, so the reported dimensions are stable.
    """
    tr_degs = [d for _, d in sq.tr]
    bl_degs = [d for _, d in sq.bl]
    br_degs = [d for _, d in sq.br]

    def fail(col: tuple[Any, ...], why: str) -> TruncationCheck:
        return TruncationCheck(False, col, why)

    leads = []
    for k, deg in sorted(sq.tl, key=lambda t: t[1]):
        if deg <= cutoffs.tl:
            continue
        hseries = sq.v_left[k]
        ent = _series_entries(hseries, bl_degs)
        if not hseries.terms or hseries.terms[0][1] != Scalar(KNOWN, 1 % sq.p):
            return fail((TL, k), "beyond column lost its exact unit leading term")
        lead = hseries.terms[0][0]
        if lead <= cutoffs.bl:
            return fail((TL, k), "beyond column leads inside the baseline window")
        if any(d < lead for d in ent[1:]) or (
            hseries.tail_from is not None and hseries.tail_from <= lead
        ):
            return fail((TL, k), "leading term is not strictly minimal")
        leads.append(lead)
        vent = _series_entries(sq.nabla_top[k], tr_degs)
        if any(d <= cutoffs.tr for d in vent):
            return fail((TL, k), "vertical image enters the baseline window")
    if leads != list(range(cutoffs.bl + 1, cutoffs.bl + 1 + len(leads))):
        return fail((TL,), "beyond leading degrees are not consecutive")

    leads = []
    for k, deg in sorted(sq.tr, key=lambda t: t[1]):
        if deg <= cutoffs.tr:
            continue
        hseries = sq.v_right[k]
        ent = _series_entries(hseries, br_degs)
        if not hseries.terms or hseries.terms[0][1] != Scalar(KNOWN, 1 % sq.p):
            if ent:
                return fail((TR, k), "beyond column lost its exact unit leading term")
            continue  # maps entirely beyond the extended window: harmless
        lead = hseries.terms[0][0]
        if lead <= cutoffs.br:
            return fail((TR, k), "beyond column leads inside the baseline window")
        if any(d < lead for d in ent[1:]) or (
            hseries.tail_from is not None and hseries.tail_from <= lead
        ):
            return fail((TR, k), "leading term is not strictly minimal")
        leads.append(lead)
    if leads != list(range(cutoffs.br + 1, cutoffs.br + 1 + len(leads))):
        return fail((TR,), "beyond leading degrees are not consecutive")

    for m, deg in sq.bl:
        if deg <= cutoffs.bl:
            continue
        ent = _series_entries(sq.nabla_bot[m], br_degs)
        if any(d <= cutoffs.br for d in ent):
            return fail((BL, m), "image enters the baseline window")
    return TruncationCheck(True, None, "stable")
