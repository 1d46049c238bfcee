"""Weight-graded mod p syntomic cohomology of the p-adic integers.

For each weight i >= 0 the engine builds a finite filtration-truncated model
of the square

    Nygaard level i  ---can - phi--->  prism level
         |                                  |
      nabla_top                         nabla_bot
         v                                  v
    Nygaard level i-1 (nabla z part) ---> prism level (nabla z part)

with corners spanned by monomials z^k E^i t^-i (top left), z^(k-1) E^(i-1)
nabla z t^-i (top right), z^m t^-i (bottom left), z^(m-1) nabla z t^-i
(bottom right).  Truncation windows: k <= floor(i/(p-1)) on the left column,
k <= floor((i-1)/(p-1)) on the right, with the bottom row extended to the
corresponding image degrees.  Everything the exact can/phi formulas pin down
is recorded as known entries; every "modulo higher filtration" remainder is
an independent unknown tail, except where the multiplicative structure
forces exact vanishing (permanent-cycle representatives, see below).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .arith import Monomial, PrimeContext, mono_mul, mono_str
from .linalg import (
    BL,
    BR,
    CERTIFIED,
    TL,
    TR,
    CohomologyReport,
    Series,
    SquareComplex,
    WindowCutoffs,
    known,
    series_window,
    square_cohomology,
)


def left_window(p: int, i: int) -> int:
    return i // (p - 1)


def right_window(p: int, i: int) -> int:
    # empty for weight 0: there is no twisted Nygaard index to populate
    return (i - 1) // (p - 1) if i >= 1 else -1


def standard_cutoffs(p: int, i: int) -> WindowCutoffs:
    kl, kr = left_window(p, i), right_window(p, i)
    top = i - 1 + kr if i >= 1 else -1
    return WindowCutoffs(tl=i + kl, tr=top, bl=i + kl, br=top)


def _exact_zero_vertical(p: int, i: int, k: int) -> bool:
    """Vertical image of z^k E^i t^-i vanishes exactly iff k (p-1) = i.

    That element represents the k-th power of the weight-(p-1) Bott class,
    which is a permanent cycle with an exact cocycle representative, so its
    vertical differential is zero on the nose, not merely modulo the window.
    """
    return k * (p - 1) == i


def build_zp_square(p: int, i: int, extra: int = 0) -> SquareComplex:
    """The truncated square in weight i, with an optional extra margin.

    extra widens every window by the given number of basis elements; the
    certified dimensions must not depend on it (see verify_truncation).
    """
    PrimeContext(p)  # validates primality
    if i < 0:
        raise ValueError("weight must be >= 0")
    if extra < 0:
        raise ValueError("extra margin must be >= 0")
    kl = left_window(p, i) + extra
    bl_top = i + kl
    if i >= 1:
        kr = right_window(p, i) + extra
        br_top = i - 1 + kr
    else:
        kr = 0  # weight 0: the right column is zero and stays zero
        br_top = -1

    tl = tuple((k, k + i) for k in range(kl + 1))
    tr = tuple((k, k + i - 1) for k in range(1, kr + 1)) if i >= 1 else ()
    bl = tuple((m, m) for m in range(bl_top + 1))
    br = tuple((d, d) for d in range(1, br_top + 1)) if br_top >= 1 else ()

    nabla_top: dict[int, Series] = {}
    v_left: dict[int, Series] = {}
    for k, _ in tl:
        # can lands on z^(k+i), phi on z^(pk), both exact; they coincide
        # exactly at k (p-1) = i and the window sum cancels them there
        v_left[k] = series_window(
            p, [(k + i, known(1, p)), (p * k, known(-1, p))], top=bl_top
        )
        if _exact_zero_vertical(p, i, k):
            nabla_top[k] = Series()
        else:
            nabla_top[k] = series_window(
                p, [], tail_from=k + i, top=(i - 1 + kr) if i >= 1 else -1
            )

    v_right: dict[int, Series] = {}
    for k, _ in tr:
        # can is exact at z^(k+i-2) nabla z; the twisted frobenius leads at
        # z^(pk-1) nabla z with remainder strictly above, so the tail starts
        # right after the frobenius degree (and may swallow the can term)
        v_right[k] = series_window(
            p,
            [(k + i - 1, known(1, p)), (p * k, known(-1, p))],
            tail_from=p * k + 1,
            top=br_top,
        )

    nabla_bot: dict[int, Series] = {}
    bl_in_span: dict[int, int] = {}
    bott = i // (p - 1) if i % (p - 1) == 0 else None
    for m, _ in bl:
        if m == 0 or (bott is not None and m == p * bott):
            # z^(p k0) t^-i represents del times the k0-th Bott power, a
            # permanent cycle: its differential vanishes exactly, like d(1)
            nabla_bot[m] = Series()
            continue
        nabla_bot[m] = series_window(
            p, [(m, known(m, p))], tail_from=m + 1, top=br_top
        )
        if m % p == 0:
            k = m // p
            # the square identity on z^k E^i t^-i rewrites this column as
            # nabla_bot(z^(k+i)) minus v_right applied to the vertical tail
            if k > kl or k + i > bl_top:
                raise ArithmeticError("in-span partner escapes the window")
            bl_in_span[m] = k

    return SquareComplex(
        p=p,
        weight=i,
        tl=tl,
        tr=tr,
        bl=bl,
        br=br,
        nabla_top=nabla_top,
        v_left=v_left,
        v_right=v_right,
        nabla_bot=nabla_bot,
        bl_in_span=bl_in_span,
        label=f"zp p={p} weight={i} extra={extra}",
    )


@dataclass(frozen=True)
class NamedClass:
    """A cohomology class with its standard name and leading representative."""

    name: str
    weight: int
    degree: int
    corner: str
    rep: str


def _power(base: str, k: int) -> str:
    if k == 0:
        return ""
    return base if k == 1 else f"{base}^{k}"

def _name(*parts: str) -> str:
    live = [s for s in parts if s]
    return "*".join(live) if live else "1"


def _rep(m: Monomial) -> str:
    return mono_str(m)


def named_basis(p: int, i: int) -> tuple[NamedClass, ...]:
    """The standard generator names in weight i, from the closed-form count.

    h0 is spanned by the Bott powers v1^k0 at (p-1) | i; h1 by one
    divided-power class v1^k gamma_j (j the weight of the bare class), plus
    del v1^k0 when (p-1) | i, plus v1^kap lambda1 when i = p + kap (p-1);
    h2 by del lambda1 v1^kap in the same weights.
    """
    out: list[NamedClass] = []
    if i % (p - 1) == 0:
        k0 = i // (p - 1)
        out.append(
            NamedClass(
                name=_name(_power("v1", k0)),
                weight=i,
                degree=0,
                corner=TL,
                rep=_rep(Monomial(e_pow=i, z_pow=k0, twist=i)),
            )
        )
        out.append(
            NamedClass(
                name=_name(_power("v1", k0), "del"),
                weight=i,
                degree=1,
                corner=BL,
                rep=_rep(Monomial(z_pow=p * k0, twist=i)),
            )
        )
    if i >= 1:
        j = (i - 1) % (p - 1) + 1
        k = (i - j) // (p - 1)
        out.append(
            NamedClass(
                name=_name(_power("v1", k), f"gamma_{j}"),
                weight=i,
                degree=1,
                corner=BL,
                rep=_rep(Monomial(z_pow=j + p * k, twist=i)),
            )
        )
    if i >= p and (i - 1) % (p - 1) == 0:
        kap = (i - p) // (p - 1)
        out.append(
            NamedClass(
                name=_name(_power("v1", kap), "lambda1"),
                weight=i,
                degree=1,
                corner=TR,
                rep=_rep(
                    Monomial(e_pow=i - 1, z_pow=kap, nabla=True, twist=i)
                ),
            )
        )
        out.append(
            NamedClass(
                name=_name(_power("v1", kap), "del", "lambda1"),
                weight=i,
                degree=2,
                corner=BR,
                rep=_rep(
                    Monomial(z_pow=p * (kap + 1) - 1, nabla=True, twist=i)
                ),
            )
        )
    return tuple(out)


def _match_generators(
    p: int, i: int, rep: CohomologyReport, names: tuple[NamedClass, ...]
) -> None:
    """Tie each name to its certified elimination witness or fail loudly."""
    by_deg = {d: sum(1 for c in names if c.degree == d) for d in (0, 1, 2)}
    if (by_deg[0], by_deg[1], by_deg[2]) != (rep.h0, rep.h1, rep.h2):
        raise ArithmeticError(
            f"named basis does not match certified dims in weight {i}"
        )
    if i % (p - 1) == 0:
        k0 = i // (p - 1)
        if (0, k0) not in rep.d0.kernel_columns:
            raise ArithmeticError("Bott power column did not resolve to zero")
        if (1, p * k0) not in rep.d1.kernel_columns:
            raise ArithmeticError("del column did not resolve to zero")
    if i >= p and (i - 1) % (p - 1) == 0:
        k1 = (i - 1) // (p - 1)
        if (0, k1) not in rep.d1.kernel_columns:
            raise ArithmeticError("lambda column did not resolve to zero")
    if rep.h2:
        k1 = (i - 1) // (p - 1)
        hit = {r[1] for r, _ in rep.d1.pivots}
        br_degs = set(range(1, i - 1 + right_window(p, i) + 1))
        open_rows = br_degs - hit
        if open_rows != {p * k1}:
            raise ArithmeticError(
                f"H^2 generator row mismatch in weight {i}: {open_rows}"
            )


def zp_cohomology(p: int, i: int, extra: int = 0) -> CohomologyReport:
    """Certified dims plus named generators for the weight-i square."""
    sq = build_zp_square(p, i, extra)
    rep = square_cohomology(sq)
    if rep.status != CERTIFIED:
        return rep
    names = named_basis(p, i)
    if extra == 0:
        _match_generators(p, i, rep, names)
    else:
        counts = tuple(sum(1 for c in names if c.degree == d) for d in (0, 1, 2))
        if counts != (rep.h0, rep.h1, rep.h2):
            raise ArithmeticError(
                f"named basis does not match certified dims in weight {i}"
            )
    return replace(rep, generators=names)


def mod_v1_square(p: int, i: int) -> SquareComplex:
    """The square in weight i reduced modulo the image of the Bott class.

    Below weight p-1 nothing can be divided by the Bott class and the
    reduced square coincides with the plain one.  From weight p-1 on, the
    left column collapses to single classes and the bottom row to the p
    lowest powers (the bottom Bott action is multiplication by z^p).  At
    weight exactly p-1 the dividing classes upstairs carry no E factor, the
    top Bott action shifts z-degree by two, and the top right corner keeps
    two classes instead of one.
    """
    PrimeContext(p)
    if i < 0:
        raise ValueError("weight must be >= 0")
    if i < p - 1:
        return build_zp_square(p, i)
    tr_indices = (1, 2) if i == p - 1 else (1,)
    tl = ((0, i),)
    tr = tuple((k, k + i - 1) for k in tr_indices)
    bl = tuple((m, m) for m in range(p))
    br = tuple((d, d) for d in range(1, p + 1))
    nabla_top = {0: series_window(p, [], tail_from=i, top=i + len(tr_indices) - 1)}
    v_left = {0: series_window(p, [(i, known(1, p)), (0, known(-1, p))], top=p - 1)}
    v_right = {
        k: series_window(
            p,
            [(k + i - 1, known(1, p)), (p * k, known(-1, p))],
            tail_from=p * k + 1,
            top=p,
        )
        for k in tr_indices
    }
    nabla_bot = {
        m: Series()
        if m == 0
        else series_window(p, [(m, known(m, p))], tail_from=m + 1, top=p)
        for m in range(p)
    }
    # at weight p-1 the square identity on E^i expresses the z^(p-1) column
    # through the right-hand columns, since nabla_bot(1) = 0 exactly
    bl_in_span = {p - 1: 0} if i == p - 1 else {}
    return SquareComplex(
        p=p,
        weight=i,
        tl=tl,
        tr=tr,
        bl=bl,
        br=br,
        nabla_top=nabla_top,
        v_left=v_left,
        v_right=v_right,
        nabla_bot=nabla_bot,
        bl_in_span=bl_in_span,
        label=f"zp mod v1 p={p} weight={i}",
    )


def mod_v1_named_basis(p: int, i: int) -> tuple[NamedClass, ...]:
    if i < p - 1:
        return named_basis(p, i)
    if i == p - 1:
        return (
            NamedClass(
                name=f"gamma_{p - 1}",
                weight=i,
                degree=1,
                corner=BL,
                rep=_rep(Monomial(z_pow=p - 1, twist=i)),
            ),
        )
    if i == p:
        return (
            NamedClass(
                name="lambda1",
                weight=i,
                degree=1,
                corner=TR,
                rep=_rep(Monomial(e_pow=i - 1, nabla=True, twist=i)),
            ),
            NamedClass(
                name="del*lambda1",
                weight=i,
                degree=2,
                corner=BR,
                rep=_rep(Monomial(z_pow=p - 1, nabla=True, twist=i)),
            ),
        )
    return ()


def mod_v1_cohomology(p: int, i: int) -> CohomologyReport:
    sq = mod_v1_square(p, i)
    rep = square_cohomology(sq)
    if rep.status != CERTIFIED:
        return rep
    names = mod_v1_named_basis(p, i)
    counts = tuple(sum(1 for c in names if c.degree == d) for d in (0, 1, 2))
    if counts != (rep.h0, rep.h1, rep.h2):
        raise ArithmeticError(
            f"reduced named basis does not match certified dims in weight {i}"
        )
    return replace(rep, generators=names)


@dataclass(frozen=True)
class WeightRow:
    weight: int
    status: str
    h0: int | None
    h1: int | None
    h2: int | None
    generators: tuple[str, ...]


def syntomic_basis_table(
    p: int, i_max: int, i_min: int = 0
) -> tuple[WeightRow, ...]:
    """Named generators of the mod p syntomic cohomology in weights
    i_min..i_max."""
    rows = []
    for i in range(i_min, i_max + 1):
        rep = zp_cohomology(p, i)
        rows.append(
            WeightRow(
                weight=i,
                status=rep.status,
                h0=rep.h0,
                h1=rep.h1,
                h2=rep.h2,
                generators=tuple(c.name for c in rep.generators),
            )
        )
    return tuple(rows)


# multiplicative structure on representatives: the Bott class acts on the
# left column by z E^(p-1) t^-(p-1) and on the bottom row by z^p t^-(p-1)


def v1_top_action(m: Monomial, p: int) -> Monomial:
    return mono_mul(m, Monomial(e_pow=p - 1, z_pow=1, twist=p - 1))


def v1_bottom_action(m: Monomial, p: int) -> Monomial:
    return mono_mul(m, Monomial(z_pow=p, twist=p - 1))


def del_action(corner: str, m: Monomial, p: int) -> tuple[str, Monomial] | None:
    """Multiply a representative by the weight-0 boundary class del.

    On left-column representatives this applies the frobenius and lands in
    the bottom row; bottom-row representatives multiply to zero (the bottom
    corners square to zero against del).  Returns None for the zero product.
    """
    if corner == TL:
        if m.e_pow != m.twist or m.nabla:
            raise ValueError("not a left-column representative")
        return (BL, Monomial(z_pow=p * m.z_pow, twist=m.twist))
    if corner == TR:
        if not m.nabla:
            raise ValueError("not a top-right representative")
        return (BR, Monomial(z_pow=p * (m.z_pow + 1) - 1, nabla=True, twist=m.twist))
    if corner in (BL, BR):
        return None
    raise ValueError(f"unknown corner {corner!r}")
