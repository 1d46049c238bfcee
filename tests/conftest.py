"""Shared oracles for the suite.

Everything here is deliberately independent of the engine internals: the
dimension oracle is the closed-form weight pattern, and ranks of sampled
instantiations are computed by plain dense Gaussian elimination over F_p.
The engine is only trusted to hand over its symbolic column data.
"""

import pytest

from syntomic.linalg import materialize

ACCEPTANCE_LINES = []


@pytest.fixture
def acceptance_record():
    def rec(line: str) -> None:
        ACCEPTANCE_LINES.append(line)

    return rec


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
    if s.kind == "known":
        return s.value % p
    if s.kind == "unit":
        return rng.randrange(1, p)
    return rng.randrange(p)


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
    tr_degs = [d for _, d in sq.tr]
    bl_degs = [d for _, d in sq.bl]
    br_degs = [d for _, d in sq.br]

    top = {}
    left = {}
    for k, _ in sq.tl:
        top[k] = {
            d: _value(s, p, rng)
            for d, s in materialize(sq.nabla_top[k], tr_degs).items()
        }
        left[k] = {
            d: _value(s, p, rng)
            for d, s in materialize(sq.v_left[k], bl_degs).items()
        }
    right = {}
    for k, _ in sq.tr:
        right[k] = {
            d: _value(s, p, rng)
            for d, s in materialize(sq.v_right[k], br_degs).items()
        }

    bot = {}
    busy = set()

    def bot_col(m):
        if m in bot:
            return bot[m]
        assert m not in busy, "in-span derivation cycled"
        busy.add(m)
        if m not in sq.bl_in_span:
            bot[m] = {
                d: _value(s, p, rng)
                for d, s in materialize(sq.nabla_bot[m], br_degs).items()
            }
            return bot[m]
        k = sq.bl_in_span[m]
        # v_right(nabla_top(x)) = nabla_bot(v_left(x)) solved for the m entry
        acc = {}
        for kk, ddeg in sq.tr:
            c = top[k].get(ddeg, 0)
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

    for m, _ in sq.bl:
        bot_col(m)

    cols0 = []
    for k, _ in sq.tl:
        col = {("TR", d): v for d, v in top[k].items() if v}
        col.update({("BL", d): v for d, v in left[k].items() if v})
        cols0.append(col)
    cols1 = [dict(right[k]) for k, _ in sq.tr]
    cols1 += [dict(bot[m]) for m, _ in sq.bl]
    return cols0, cols1


def sampled_dims(sq, rng) -> tuple[int, int, int]:
    """Dims of one plain F_p instantiation, bookkept exactly like the engine."""
    cols0, cols1 = instantiate_square(sq, rng)
    r0 = fp_rank(cols0, sq.p)
    r1 = fp_rank(cols1, sq.p)
    nt, ntr, nbl, nbr = sq.corner_sizes()
    return (nt - r0, ntr + nbl - r1 - r0, nbr - r1)


def _series_coeff(series, d):
    """Coefficient at degree d: an int when known, None when unknown."""
    for dd, s in series.terms:
        if dd == d:
            return s.value if s.kind == "known" else None
    if series.tail_from is not None and d >= series.tail_from:
        return None
    return 0


def known_square_identity_holds(sq) -> bool:
    """Compare v_right o nabla_top with nabla_bot o v_left degreewise,
    wherever both composites are fully known."""
    p = sq.p
    for k, _ in sq.tl:
        for d, _ in sq.br:
            via_top = 0
            for kk, ddeg in sq.tr:
                a = _series_coeff(sq.nabla_top[k], ddeg)
                b = _series_coeff(sq.v_right[kk], d)
                if a == 0 or b == 0:
                    continue
                if a is None or b is None:
                    via_top = None
                    break
                via_top = (via_top + a * b) % p
            via_bot = 0
            for m, mdeg in sq.bl:
                a = _series_coeff(sq.v_left[k], mdeg)
                b = _series_coeff(sq.nabla_bot[m], d)
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
