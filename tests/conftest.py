"""Shared oracles for the suite.

Everything here is deliberately independent of the engine internals: the
dimension oracle is the closed-form weight pattern, and ranks of sampled
instantiations are computed by plain dense Gaussian elimination over F_p.
The engine is only trusted to hand over its symbolic column data.  The one
symbolic oracle, reference_eliminate, runs the engine's pivot rule on dict
columns with every tail expanded into per-row unknowns; it shares none of
the engine's scalar algebra: known, is_known_zero, certainly_nonzero and the
four scalar_* operations below are the reference algebra, used by
reference_eliminate, series_window and materialized_column.
reference_greedy_membership is the greedy peel in lowest-degree order, a
scan for the lowest residual term on every clear; the verifier peels level
by level instead, and on instantiated systems the two must agree exactly
while sharing no code.
reference_instantiate_units draws the verifier's unit series through
random.Random.randrange, and seventh_peel_fails makes one sampled peel
fail.  reference_table_json is the K-table document through json.dumps,
byte for byte what ktheory.table_to_json must write.
reference_square is the Z_p square builder as it was before columns were
written in closed form: every column is summed and cut by series_window, so
zp._square must build equal squares on every window.
Series is the suite's authoring type for one map entry of a square; graded
writes {column: {corner: Series}} as the engine's graded columns, and
square_map and with_map_entry read and replace one of a square's four maps
as the restriction of its differentials to one target corner.
corner_degrees reads the degrees of one corner's basis off a square's keys.
"""

import json
from dataclasses import dataclass, replace
from typing import Iterable

import pytest

from syntomic import verifier
from syntomic.linalg import (
    CERTIFIED,
    INDETERMINATE,
    EliminationResult,
    UNIT_ENTRY,
    UNKNOWN_ENTRY,
    Scalar,
    SquareComplex,
    WindowCutoffs,
    materialize,
)

ACCEPTANCE_LINES = []


# ------------------------------------------------------ graded columns


@dataclass(frozen=True)
class Series:
    """Explicit terms below tail_from, independent unknowns from tail_from up.

    Plain data: graded writes it into a column, and the engine's one column
    reader (linalg._read) raises ValueError naming the (corner, degree) row
    of a malformed one.
    """

    terms: tuple[tuple[int, Scalar], ...] = ()
    tail_from: int | None = None


def graded(columns):
    """{column: {corner: Series}} as the engine's graded columns {column:
    (terms by (corner, degree) row, tail_from by corner)}.  Checks nothing:
    the engine's reader refuses a malformed column, and a term repeated on
    one degree keeps its last entry."""
    return {
        c: (
            {(tag, d): e for tag, s in parts.items() for d, e in s.terms},
            {tag: s.tail_from for tag, s in parts.items() if s.tail_from is not None},
        )
        for c, parts in columns.items()
    }


# each map of a square: its differential, its source corner, its target corner
MAPS = {
    "nabla_top": ("d0", "TL", "TR"),
    "v_left": ("d0", "TL", "BL"),
    "v_right": ("d1", "TR", "BR"),
    "nabla_bot": ("d1", "BL", "BR"),
}


def _restricted(column, tag) -> Series:
    terms, tails = column
    found = sorted((d, e) for (t, d), e in terms.items() if t == tag)
    return Series(tuple(found), tails.get(tag))


def corner_degrees(sq, corner) -> list[int]:
    """The filtration degrees of a square's basis on one corner, ascending:
    TL from the keys of d0, TR and BL from those of d1, BR from its rows."""
    keys = {"TL": sq.d0, "TR": sq.d1, "BL": sq.d1}.get(corner, sq.br)
    return [d for c, d in keys if c == corner]


def square_map(sq, name) -> dict:
    """One map of a square as {source degree: Series}: each column of its
    differential on the source corner, restricted to the target corner's
    rows, terms in degree order."""
    diff, source, target = MAPS[name]
    return {
        k: _restricted(col, target)
        for (corner, k), col in getattr(sq, diff).items()
        if corner == source
    }


def with_map_entry(sq, name, k, series):
    """sq with one entry of one map replaced: the column (source, k) of its
    differential, k a degree, keeps what it has on other corners and takes
    the series on the target corner."""
    diff, source, target = MAPS[name]
    columns = getattr(sq, diff)
    terms, tails = columns[source, k]
    new_terms, new_tails = graded({0: {target: series}})[0]
    column = (
        {**{r: e for r, e in terms.items() if r[0] != target}, **new_terms},
        {**{t: s for t, s in tails.items() if t != target}, **new_tails},
    )
    return replace(sq, **{diff: {**columns, (source, k): column}})


# ------------------------------------------------- reference scalar algebra
#
# The three-valued algebra of residues, UNIT_ENTRY and UNKNOWN_ENTRY as four
# separate operations.  The engine combines entries through its own two
# private functions (linalg._ratio and linalg._minus_multiple); the reference
# eliminator and the reference square builder use these instead.


def known(v: int, p: int) -> Scalar:
    return v % p


def is_known_zero(s: Scalar) -> bool:
    return s == 0


def certainly_nonzero(s: Scalar) -> bool:
    return s != 0 and s != UNKNOWN_ENTRY


def scalar_add(a: Scalar, b: Scalar, p: int) -> Scalar:
    if a == 0:
        return b
    if b == 0:
        return a
    if isinstance(a, int) and isinstance(b, int):
        return (a + b) % p
    # a sum involving a symbol is unknown: no relation between symbols may be
    # assumed, including cancellation
    return UNKNOWN_ENTRY


def scalar_neg(a: Scalar, p: int) -> Scalar:
    return -a % p if isinstance(a, int) else a


def scalar_mul(a: Scalar, b: Scalar, p: int) -> Scalar:
    if a == 0 or b == 0:
        return 0
    if isinstance(a, int) and isinstance(b, int):
        return a * b % p
    if certainly_nonzero(a) and certainly_nonzero(b):
        return UNIT_ENTRY
    return UNKNOWN_ENTRY


def scalar_div(a: Scalar, b: Scalar, p: int) -> Scalar:
    """a / b; b must be certainly nonzero."""
    if not certainly_nonzero(b):
        raise ZeroDivisionError("division by a not-certainly-nonzero scalar")
    if a == 0:
        return a
    if isinstance(a, int) and isinstance(b, int):
        return a * pow(b, -1, p) % p
    if certainly_nonzero(a):
        return UNIT_ENTRY
    return UNKNOWN_ENTRY


@pytest.fixture
def acceptance_record():
    def rec(line: str) -> None:
        ACCEPTANCE_LINES.append(line)

    return rec


@pytest.fixture
def seventh_peel_fails(monkeypatch):
    """Make the seventh call of verifier._greedy_membership report a failure
    with its true clear count.  It lies past the five samples that
    sample_certificate cross-checks, so only the pass count can show it.
    Returns the list of true verdicts, one per call."""
    peel, verdicts = verifier._greedy_membership, []

    def seventh_fails(p, n, units):
        ok, clears = peel(p, n, units)
        verdicts.append(ok)
        return (ok and len(verdicts) != 7, clears)

    monkeypatch.setattr(verifier, "_greedy_membership", seventh_fails)
    return verdicts


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def closed_form_dims(p: int, i: int) -> tuple[int, int, int]:
    """Expected (h0, h1, h2) in weight i from the closed-form count.

    h0 is one Bott power when (p-1) | i; h2 is one class when i >= p and
    (p-1) | i-1; h1 carries one divided-power class for i >= 1 plus a
    boundary partner for each h0 and h2 class.
    """
    h0 = 1 if i % (p - 1) == 0 else 0
    h2 = 1 if i >= p and (i - 1) % (p - 1) == 0 else 0
    h1 = h0 + (1 if i >= 1 else 0) + h2
    return (h0, h1, h2)


def mod_v1_expected_dims(p: int, i: int) -> tuple[int, int, int]:
    if i == 0:
        return (1, 1, 0)
    if i <= p - 1:
        return (0, 1, 0)
    if i == p:
        return (0, 1, 1)
    return (0, 0, 0)


def fp_rank(columns, p: int) -> int:
    """Rank of {row: value} columns by dense elimination, no symbols."""
    pivots = {}
    rank = 0
    for col in columns:
        cur = {r: v % p for r, v in col.items() if v % p}
        while cur:
            r = min(cur)
            if r not in pivots:
                pivots[r] = cur
                rank += 1
                break
            piv = pivots[r]
            c = cur[r] * pow(piv[r], -1, p) % p
            nxt = dict(cur)
            for rr, vv in piv.items():
                nxt[rr] = (nxt.get(rr, 0) - c * vv) % p
            cur = {rr: vv for rr, vv in nxt.items() if vv % p}
    return rank


def _value(s, p, rng) -> int:
    if s == UNIT_ENTRY:
        return rng.randrange(1, p)
    if s == UNKNOWN_ENTRY:
        return rng.randrange(p)
    return s % p


def instantiate_square(sq, rng):
    """One concrete instantiation of both differentials of a square.

    Free entries follow the symbolic model: knowns stay exact, and every
    symbolic entry gets its own draw, whether or not it is the same shared
    object as another: units a random nonzero value, unknowns (tail rows
    included) a uniform value.
    Bottom columns marked in-span are not free; they are rebuilt from the
    square identity on their top-left partner, so every sample honors the
    span relation that the certified elimination assumes.  Nothing else is
    constrained: in particular the sampled square need not be a chain
    complex, only a member of the modeled family.
    """
    p = sq.p
    tr_degs = corner_degrees(sq, "TR")
    bl_degs = corner_degrees(sq, "BL")
    br_degs = corner_degrees(sq, "BR")
    nabla_top, v_left = square_map(sq, "nabla_top"), square_map(sq, "v_left")
    v_right, nabla_bot = square_map(sq, "v_right"), square_map(sq, "nabla_bot")

    top = {}
    left = {}
    for k in corner_degrees(sq, "TL"):
        top[k] = {
            d: _value(s, p, rng)
            for d, s in materialize(nabla_top[k], tr_degs).items()
        }
        left[k] = {
            d: _value(s, p, rng)
            for d, s in materialize(v_left[k], bl_degs).items()
        }
    right = {}
    for k in tr_degs:
        right[k] = {
            d: _value(s, p, rng)
            for d, s in materialize(v_right[k], br_degs).items()
        }

    bot = {}
    busy = set()

    def bot_col(m):
        if m in bot:
            return bot[m]
        assert m not in busy, "in-span derivation cycled"
        busy.add(m)
        if ("BL", m) not in sq.bl_in_span:
            bot[m] = {
                d: _value(s, p, rng)
                for d, s in materialize(nabla_bot[m], br_degs).items()
            }
            return bot[m]
        _, k = sq.bl_in_span["BL", m]
        # v_right(nabla_top(x)) = nabla_bot(v_left(x)) solved for the m entry
        acc = {}
        for kk in tr_degs:
            c = top[k].get(kk, 0)
            if c == 0:
                continue
            for d, v in right[kk].items():
                acc[d] = (acc.get(d, 0) + c * v) % p
        lead = None
        for d, v in left[k].items():
            if d == m:
                lead = v
                continue
            for dd, vv in bot_col(d).items():
                acc[dd] = (acc.get(dd, 0) - v * vv) % p
        assert lead is not None and lead % p, "span partner lost its pivot"
        inv = pow(lead, -1, p)
        bot[m] = {d: v * inv % p for d, v in acc.items() if v % p}
        return bot[m]

    for m in bl_degs:
        bot_col(m)

    cols0 = []
    for k in top:
        col = {("TR", d): v for d, v in top[k].items() if v}
        col.update({("BL", d): v for d, v in left[k].items() if v})
        cols0.append(col)
    cols1 = [dict(right[k]) for k in tr_degs]
    cols1 += [dict(bot[m]) for m in bl_degs]
    return cols0, cols1


def sampled_dims(sq, rng) -> tuple[int, int, int]:
    """Dims of one plain F_p instantiation, bookkept exactly like the engine."""
    cols0, cols1 = instantiate_square(sq, rng)
    r0 = fp_rank(cols0, sq.p)
    r1 = fp_rank(cols1, sq.p)
    nt, ntr, nbl, nbr = sq.corner_sizes()
    return (nt - r0, ntr + nbl - r1 - r0, nbr - r1)


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
    zero = known(0, p)
    for d, s in pairs:
        if top is not None and d > top:
            continue
        if tail_from is not None and d >= tail_from:
            continue
        acc[d] = scalar_add(acc.get(d, zero), s, p)
    if tail_from is not None and top is not None and tail_from > top:
        tail_from = None
    terms = tuple(
        (d, s) for d, s in sorted(acc.items()) if not is_known_zero(s)
    )
    return Series(terms=terms, tail_from=tail_from)


def _exact_zero_vertical(p: int, i: int, k: int) -> bool:
    """Vertical image of z^k E^i t^-i vanishes exactly iff k (p-1) = i.

    That element represents the k-th power of the weight-(p-1) Bott class,
    which is a permanent cycle with an exact cocycle representative, so its
    vertical differential is zero on the nose, not merely modulo the window.
    """
    return k * (p - 1) == i


def reference_square(p: int, i: int, window: WindowCutoffs) -> SquareComplex:
    """The truncated square in weight i, cut to the given corner tops.

    Each corner keeps its basis elements of filtration degree at most the
    corner's top, and each differential is cut at the top of its target
    corner.  The formulas run over each corner's (index, degree) pairs, and
    every key is written as (corner, degree).
    """
    tl = tuple((k, k + i) for k in range(window.tl - i + 1))
    tr = tuple((k, k + i - 1) for k in range(1, window.tr - i + 2))
    bl = tuple((m, m) for m in range(window.bl + 1))
    br = tuple((d, d) for d in range(1, window.br + 1))
    one, minus_one = known(1, p), known(-1, p)

    nabla_top: dict[int, Series] = {}
    v_left: dict[int, Series] = {}
    for k, _ in tl:
        # can lands on z^(k+i), phi on z^(pk), both exact; they coincide
        # exactly at k (p-1) = i and the window sum cancels them there
        v_left[k] = series_window(
            p, [(k + i, one), (p * k, minus_one)], top=window.bl
        )
        if _exact_zero_vertical(p, i, k):
            nabla_top[k] = Series()
        else:
            nabla_top[k] = series_window(p, [], tail_from=k + i, top=window.tr)

    v_right: dict[int, Series] = {}
    for k, _ in tr:
        # can is exact at z^(k+i-2) nabla z; the twisted frobenius leads at
        # z^(pk-1) nabla z with remainder strictly above, so the tail starts
        # right after the frobenius degree (and may swallow the can term)
        v_right[k] = series_window(
            p,
            [(k + i - 1, one), (p * k, minus_one)],
            tail_from=p * k + 1,
            top=window.br,
        )

    nabla_bot: dict[int, Series] = {}
    bl_in_span: dict[tuple[str, int], tuple[str, int]] = {}
    bott = i // (p - 1) if i % (p - 1) == 0 else None
    for m, _ in bl:
        if m == 0 or (bott is not None and m == p * bott):
            # z^(p k0) t^-i represents del times the k0-th Bott power, a
            # permanent cycle: its differential vanishes exactly, like d(1)
            nabla_bot[m] = Series()
            continue
        nabla_bot[m] = series_window(
            p, [(m, known(m, p))], tail_from=m + 1, top=window.br
        )
        if m % p == 0:
            k = m // p
            # the square identity on z^k E^i t^-i rewrites this column as
            # nabla_bot(z^(k+i)) minus v_right applied to the vertical tail
            if k + i > window.tl or k + i > window.bl:
                raise ArithmeticError("in-span partner escapes the window")
            bl_in_span["BL", m] = ("TL", k + i)

    d0 = graded(
        {("TL", deg): {"TR": nabla_top[k], "BL": v_left[k]} for k, deg in tl}
    )
    d1 = graded(
        {("TR", deg): {"BR": v_right[k]} for k, deg in tr}
        | {("BL", deg): {"BR": nabla_bot[m]} for m, deg in bl}
    )
    return SquareComplex(
        p=p,
        weight=i,
        d0=d0,
        d1=d1,
        br=tuple(("BR", deg) for _, deg in br),
        bl_in_span=bl_in_span,
    )


def _series_coeff(series, d):
    """Coefficient at degree d: an int when known, None when unknown."""
    for dd, s in series.terms:
        if dd == d:
            return s if isinstance(s, int) else None
    if series.tail_from is not None and d >= series.tail_from:
        return None
    return 0


def known_square_identity_holds(sq) -> bool:
    """Compare v_right o nabla_top with nabla_bot o v_left degreewise,
    wherever both composites are fully known."""
    p = sq.p
    nabla_top, v_left = square_map(sq, "nabla_top"), square_map(sq, "v_left")
    v_right, nabla_bot = square_map(sq, "v_right"), square_map(sq, "nabla_bot")
    for k in nabla_top:
        for d in corner_degrees(sq, "BR"):
            via_top = 0
            for kk in v_right:
                a = _series_coeff(nabla_top[k], kk)
                b = _series_coeff(v_right[kk], d)
                if a == 0 or b == 0:
                    continue
                if a is None or b is None:
                    via_top = None
                    break
                via_top = (via_top + a * b) % p
            via_bot = 0
            for m in nabla_bot:
                a = _series_coeff(v_left[k], m)
                b = _series_coeff(nabla_bot[m], d)
                if a == 0 or b == 0:
                    continue
                if a is None or b is None:
                    via_bot = None
                    break
                via_bot = (via_bot + a * b) % p
            if via_top is None or via_bot is None:
                continue
            if via_top != via_bot:
                return False
    return True


def reference_eliminate(columns, row_order, p, in_span=()):
    """Certified elimination on dict columns {row: Scalar}, tails expanded.

    The same pivot rule as the engine: rows in the given order, the first
    pivotless column in the order given with a certainly nonzero entry
    pivots and is subtracted from every other pivotless column with an entry
    on that row.  In-span columns join the kernel in the order listed.
    """
    span = dict.fromkeys(in_span)
    for c in span:
        if c not in columns:
            raise ValueError(f"in-span column {c!r} not among the columns")
    work = {
        c: {r: s for r, s in col.items() if not is_known_zero(s)}
        for c, col in columns.items()
        if c not in span
    }
    order = list(work)
    pivots = []
    pivoted = set()
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
            combined = {}
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
    pos = {r: i for i, r in enumerate(row_order)}
    for c in order:
        if c in pivoted:
            continue
        if work[c]:
            if blocking is None:
                blocking = (c, min(work[c], key=lambda r: pos[r]))
        else:
            kernel.append(c)
    kernel.extend(span)
    return EliminationResult(
        status=CERTIFIED if blocking is None else INDETERMINATE,
        rank=len(pivots),
        total_columns=len(columns),
        pivots=tuple(pivots),
        kernel_columns=tuple(kernel),
        blocking=blocking,
    )


def materialized_column(parts, row_order, p, negate=False):
    """A graded column {tag: Series} as a dict column keyed by (tag, degree)
    over the rows of row_order, tails expanded, negated if asked."""
    col = {}
    for tag, series in parts.items():
        degrees = [d for t, d in row_order if t == tag]
        for d, s in materialize(series, degrees).items():
            col[(tag, d)] = scalar_neg(s, p) if negate else s
    return col


def reference_square_eliminations(sq):
    """d0 and d1 of a square by reference_eliminate, columns built on
    materialized tails with nabla_bot negated as d1 = v_right - nabla_bot."""
    p = sq.p
    rows1 = sorted(
        [("TR", d) for d in corner_degrees(sq, "TR")]
        + [("BL", d) for d in corner_degrees(sq, "BL")],
        key=lambda rk: (rk[1], {"TR": 0, "BL": 1}[rk[0]]),
    )
    nabla_top, v_left = square_map(sq, "nabla_top"), square_map(sq, "v_left")
    v_right, nabla_bot = square_map(sq, "v_right"), square_map(sq, "nabla_bot")
    cols0 = {
        ("TL", k): materialized_column(
            {"TR": nabla_top[k], "BL": v_left[k]}, rows1, p
        )
        for k in nabla_top
    }
    rows2 = [("BR", d) for d in sorted(corner_degrees(sq, "BR"))]
    cols1 = {
        ("TR", k): materialized_column({"BR": v_right[k]}, rows2, p)
        for k in v_right
    }
    for m in nabla_bot:
        cols1[("BL", m)] = materialized_column(
            {"BR": nabla_bot[m]}, rows2, p, negate=True
        )
    return (
        reference_eliminate(cols0, rows1, p),
        reference_eliminate(cols1, rows2, p, in_span=sq.bl_in_span),
    )


def reference_instantiate_units(p, n, bound, rng, max_tail=3):
    """The verifier's unit series drawn through rng.randrange, as a list by
    level: per level a nonzero constant plus a short random tail.
    verifier._draw_units must draw the same units with the zero-coefficient
    tail terms left out, and leave rng in the same state."""
    units = []
    for _ in range(n):
        series = [(0, rng.randrange(1, p))]
        for _ in range(rng.randrange(0, max_tail + 1)):
            offset = rng.randrange(1, max(bound // max(n, 1), 2))
            series.append((offset, rng.randrange(0, p)))
        units.append(series)
    return units


def reference_greedy_membership(p, n, units):
    """The verifier's greedy peel, choosing each term to clear by a full scan.

    Residual terms are keyed by (level j, z power a) with nonzero
    coefficients in F_p; every clear takes the term of lowest filtration
    degree a + n*p^j (ties broken by level), trades it for the level-(j+1)
    terms of its phi image and counts one clear.  Returns (ok, clears) like
    verifier._greedy_membership.  On an instantiation the offsets are
    nonnegative and the chain ascends, so every phi image lies above its
    source in degree: each term is cleared once, with its final coefficient,
    and the count agrees with the level order.
    """
    weight = p ** (n - 1) - p ** (n - 2)
    bound = n * weight
    if p ** (n - 1) >= bound:
        return (True, 0)
    residual = {(0, p ** (n - 1) - n): 1}
    clears = 0
    while residual:
        (j, a), coef = min(
            residual.items(),
            key=lambda kv: (kv[0][1] + n * p ** kv[0][0], kv[0][0]),
        )
        del residual[(j, a)]
        if coef % p == 0:
            continue
        s = a - (weight - p**j)
        if s < 0:
            return (False, clears)
        clears += 1
        if j + 1 >= n:
            continue
        for offset, lam in units[j]:
            pos = (j + 1, p * s + offset)
            if pos[1] + n * p ** (j + 1) >= bound:
                continue
            residual[pos] = (residual.get(pos, 0) + coef * lam) % p
            if residual[pos] == 0:
                del residual[pos]
    return (True, clears)


def reference_table_json(table) -> str:
    """A KTable as json.dumps(indent=2, sort_keys=True) of its document,
    plus a newline: the layout ktheory.table_to_json writes from templates."""
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
