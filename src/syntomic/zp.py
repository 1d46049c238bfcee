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

from .arith import Monomial, PrimeContext, mono_str
from .linalg import (
    CERTIFIED,
    CohomologyReport,
    Scalar,
    Series,
    SquareComplex,
    WindowCutoffs,
    known,
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


def _square(p: int, i: int, window: WindowCutoffs, label: str) -> SquareComplex:
    """The truncated square in weight i, cut to the given corner tops.

    Each corner keeps its basis elements of filtration degree at most the
    corner's top, and each differential is cut at the top of its target
    corner.  Every column is written from its formula: at most two exact
    terms, then an unknown tail.
    """
    tl = tuple((k, k + i) for k in range(window.tl - i + 1))
    tr = tuple((k, k + i - 1) for k in range(1, window.tr - i + 2))
    bl = tuple((m, m) for m in range(window.bl + 1))
    br = tuple((d, d) for d in range(1, window.br + 1))
    one, minus_one, empty = known(1, p), known(-1, p), Series()

    def can_minus_phi(
        can: int, phi: int, top: int
    ) -> tuple[tuple[int, Scalar], ...]:
        """The exact terms can - phi at or below top, in degree order."""
        if can < phi:
            terms = ((can, one), (phi, minus_one))
        elif can > phi:
            terms = ((phi, minus_one), (can, one))
        else:
            return ()  # the two coincide and cancel
        if terms[1][0] <= top:
            return terms
        return terms[:1] if terms[0][0] <= top else ()

    nabla_top: dict[int, Series] = {}
    v_left: dict[int, Series] = {}
    for k, _ in tl:
        # can lands on z^(k+i), phi on z^(pk), both exact
        if k + i == p * k:
            # k (p-1) = i: can and phi cancel, and z^k E^i t^-i represents the
            # k-th power of the weight-(p-1) Bott class, a permanent cycle with
            # an exact cocycle representative, so its vertical image is zero
            # on the nose, not merely modulo the window
            v_left[k] = nabla_top[k] = empty
            continue
        v_left[k] = Series(can_minus_phi(k + i, p * k, window.bl))
        nabla_top[k] = Series(tail_from=k + i) if k + i <= window.tr else empty

    v_right: dict[int, Series] = {}
    for k, _ in tr:
        # can is exact at z^(k+i-2) nabla z; the twisted frobenius leads at
        # z^(pk-1) nabla z with remainder strictly above, so the tail starts
        # right after the frobenius degree (and may swallow the can term)
        v_right[k] = Series(
            can_minus_phi(k + i - 1, p * k, min(p * k, window.br)),
            p * k + 1 if p * k < window.br else None,
        )

    nabla_bot: dict[int, Series] = {}
    bl_in_span: dict[int, int] = {}
    bott = i // (p - 1) if i % (p - 1) == 0 else None
    for m, _ in bl:
        if m == 0 or (bott is not None and m == p * bott):
            # z^(p k0) t^-i represents del times the k0-th Bott power, a
            # permanent cycle: its differential vanishes exactly, like d(1)
            nabla_bot[m] = empty
            continue
        nabla_bot[m] = Series(
            ((m, known(m, p)),) if m % p and m <= window.br else (),
            m + 1 if m < window.br else None,
        )
        if m % p == 0:
            k = m // p
            # the square identity on z^k E^i t^-i rewrites this column as
            # nabla_bot(z^(k+i)) minus v_right applied to the vertical tail
            if k + i > window.tl or k + i > window.bl:
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
        label=label,
    )


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
    c = standard_cutoffs(p, i)
    # weight 0: the right column is zero and stays zero
    grow = extra if i >= 1 else 0
    window = WindowCutoffs(
        tl=c.tl + extra, tr=c.tr + grow, bl=c.bl + extra, br=c.br + grow
    )
    return _square(p, i, window, f"zp p={p} weight={i} extra={extra}")


@dataclass(frozen=True)
class NamedClass:
    """A cohomology class with its standard name and leading representative."""

    name: str
    weight: int
    degree: int
    rep: str


def _power(base: str, k: int) -> str:
    if k == 0:
        return ""
    return base if k == 1 else f"{base}^{k}"

def _name(*parts: str) -> str:
    live = [s for s in parts if s]
    return "*".join(live) if live else "1"


def h2_name(p: int, w: int) -> str | None:
    """The name of the one H^2 class, del lambda1 v1^kap, in weight
    w = p + kap (p-1); None in every other weight, which has no H^2."""
    if w < p or (w - 1) % (p - 1):
        return None
    kap = (w - p) // (p - 1)
    if kap > 1:
        return f"v1^{kap}*del*lambda1"
    return "v1*del*lambda1" if kap else "del*lambda1"


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
                rep=mono_str(Monomial(e_pow=i, z_pow=k0, twist=i)),
            )
        )
        out.append(
            NamedClass(
                name=_name(_power("v1", k0), "del"),
                weight=i,
                degree=1,
                rep=mono_str(Monomial(z_pow=p * k0, twist=i)),
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
                rep=mono_str(Monomial(z_pow=j + p * k, twist=i)),
            )
        )
    h2 = h2_name(p, i)
    if h2 is not None:
        kap = (i - p) // (p - 1)
        out.append(
            NamedClass(
                name=_name(_power("v1", kap), "lambda1"),
                weight=i,
                degree=1,
                rep=mono_str(
                    Monomial(e_pow=i - 1, z_pow=kap, nabla=True, twist=i)
                ),
            )
        )
        out.append(
            NamedClass(
                name=h2,
                weight=i,
                degree=2,
                rep=mono_str(
                    Monomial(z_pow=p * (kap + 1) - 1, nabla=True, twist=i)
                ),
            )
        )
    return tuple(out)


def _check_named_dims(
    rep: CohomologyReport, names: tuple[NamedClass, ...], what: str
) -> None:
    """Fail loudly unless the names count, degree by degree, the certified dims."""
    counts = tuple(sum(1 for c in names if c.degree == d) for d in (0, 1, 2))
    if counts != rep.dims:
        raise ArithmeticError(
            f"{what} does not match certified dims in weight {rep.weight}"
        )


def _match_generators(sq: SquareComplex, rep: CohomologyReport) -> None:
    """Tie each named class to its certified elimination witness in sq, at
    any window margin, or fail loudly."""
    p, i = sq.p, sq.weight
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
        open_rows = {d for d, _ in sq.br} - hit
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
    _check_named_dims(rep, names, "named basis")
    _match_generators(sq, rep)
    return replace(rep, generators=names)


def mod_v1_square(p: int, i: int) -> SquareComplex:
    """The square in weight i reduced modulo the image of the Bott class.

    Below weight p-1 nothing can be divided by the Bott class and the
    reduced square coincides with the plain one.  From weight p-1 on it is
    the same square on a smaller window: the left column collapses to single
    classes and the bottom row to the p lowest powers (the bottom Bott action
    is multiplication by z^p).  At weight exactly p-1 the dividing classes
    upstairs carry no E factor, the top Bott action shifts z-degree by two,
    and the top right corner keeps two classes instead of one.
    """
    PrimeContext(p)
    if i < 0:
        raise ValueError("weight must be >= 0")
    if i < p - 1:
        return build_zp_square(p, i)
    kr = 2 if i == p - 1 else 1
    window = WindowCutoffs(tl=i, tr=i - 1 + kr, bl=p - 1, br=p)
    sq = _square(p, i, window, f"zp mod v1 p={p} weight={i}")
    # at weight p-1 the square identity on E^i expresses the z^(p-1) column
    # through the right-hand columns, since nabla_bot(1) = 0 exactly
    return replace(sq, bl_in_span={p - 1: 0}) if i == p - 1 else sq


def mod_v1_named_basis(p: int, i: int) -> tuple[NamedClass, ...]:
    """The classes of named_basis(p, i) that carry no Bott factor."""
    return tuple(c for c in named_basis(p, i) if "v1" not in c.name)


def mod_v1_cohomology(p: int, i: int) -> CohomologyReport:
    sq = mod_v1_square(p, i)
    rep = square_cohomology(sq)
    if rep.status != CERTIFIED:
        return rep
    names = mod_v1_named_basis(p, i)
    _check_named_dims(rep, names, "reduced named basis")
    return replace(rep, generators=names)
