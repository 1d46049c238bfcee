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

from dataclasses import replace
from typing import NamedTuple

from .arith import Monomial, mono_str, require_prime
from .linalg import (
    BL,
    BR,
    CERTIFIED,
    CohomologyReport,
    Column,
    Scalar,
    SquareComplex,
    TL,
    TR,
    WindowCutoffs,
    square_cohomology,
)


def left_window(p: int, i: int) -> int:
    return i // (p - 1)


def right_window(p: int, i: int) -> int:
    return (i - 1) // (p - 1)


def standard_cutoffs(p: int, i: int, extra: int = 0) -> WindowCutoffs:
    """The corner tops of the weight-i window, each widened by extra basis
    elements; in weight 0 the right column is zero and stays zero."""
    kl, kr = left_window(p, i), right_window(p, i)
    left = i + kl + extra
    top = i - 1 + kr + extra if i >= 1 else -1
    return WindowCutoffs(tl=left, tr=top, bl=left, br=top)


def _square(p: int, i: int, window: WindowCutoffs) -> SquareComplex:
    """The truncated square in weight i, cut to the given corner tops.

    Each corner keeps its basis elements of filtration degree at most the
    corner's top, and each differential is cut at the top of its target
    corner.  Every column is written once, from its formula, as the graded
    column the eliminator reads: at most two exact terms, then an unknown
    tail.  Each BL and BR key is one tuple per square, shared by every
    column with a term on it and, on BL, by the column it names.
    """
    bl_row = [(BL, d) for d in range(window.bl + 1)]  # the key of each degree
    br_row = [(BR, d) for d in range(window.br + 1)]
    minus_one = p - 1

    def can_minus_phi(can: int, phi: int, top: int, row: list) -> dict:
        """The exact terms can - phi at or below top, on the rows given."""
        if can == phi:
            return {}  # the two coincide and cancel
        terms: dict[tuple[str, int], Scalar] = {}
        if can <= top:
            terms[row[can]] = 1
        if phi <= top:
            terms[row[phi]] = minus_one
        return terms

    d0: dict[tuple[str, int], Column] = {}
    for d in range(i, window.tl + 1):
        # z^(d-i) E^i t^-i: can lands on z^d, phi on z^(p(d-i)), both exact
        if d == p * (d - i):
            # (d-i)(p-1) = i: can and phi cancel, and the element represents
            # the (d-i)-th power of the weight-(p-1) Bott class, a permanent
            # cycle with an exact cocycle representative, so its vertical
            # image is zero on the nose, not merely modulo the window
            d0[TL, d] = ({}, {})
            continue
        d0[TL, d] = (
            can_minus_phi(d, p * (d - i), window.bl, bl_row),
            {TR: d} if d <= window.tr else {},
        )

    d1: dict[tuple[str, int], Column] = {}
    for d in range(i, window.tr + 1):
        # can is exact at z^(d-1) nabla z; the twisted frobenius leads at
        # z^(phi-1) nabla z with remainder strictly above, so the tail starts
        # right after the frobenius degree (and may swallow the can term)
        phi = p * (d - i + 1)
        d1[TR, d] = (
            can_minus_phi(d, phi, min(phi, window.br), br_row),
            {BR: phi + 1} if phi < window.br else {},
        )

    bl_in_span: dict[tuple[str, int], tuple[str, int]] = {}
    bott = i // (p - 1) if i % (p - 1) == 0 else None
    for m, key in enumerate(bl_row):
        if m == 0 or (bott is not None and m == p * bott):
            # z^(p k0) t^-i represents del times the k0-th Bott power, a
            # permanent cycle: its differential vanishes exactly, like d(1)
            d1[key] = ({}, {})
            continue
        d1[key] = (
            {br_row[m]: m % p} if m % p and m <= window.br else {},
            {BR: m + 1} if m < window.br else {},
        )
        if m % p == 0:
            k = m // p
            # the square identity on z^k E^i t^-i rewrites this column as
            # nabla_bot(z^(k+i)) minus v_right applied to the vertical tail
            if k + i > window.tl or k + i > window.bl:
                raise ArithmeticError("in-span partner escapes the window")
            bl_in_span[key] = (TL, k + i)

    return SquareComplex(
        p=p, weight=i, d0=d0, d1=d1, br=tuple(br_row[1:]), bl_in_span=bl_in_span
    )


def build_zp_square(p: int, i: int, extra: int = 0) -> SquareComplex:
    """The truncated square in weight i, with an optional extra margin.

    extra widens every window by the given number of basis elements; the
    certified dimensions must not depend on it (see verify_truncation).
    """
    require_prime(p)
    if i < 0:
        raise ValueError("weight must be >= 0")
    if extra < 0:
        raise ValueError("extra margin must be >= 0")
    return _square(p, i, standard_cutoffs(p, i, extra))


def _monomial(i: int, witness: tuple[str, int]) -> Monomial:
    """The basis monomial of the weight-i square at a (corner, degree) key."""
    corner, d = witness
    if corner == TL:
        return Monomial(e_pow=i, z_pow=d - i, twist=i)
    if corner == TR:
        return Monomial(e_pow=i - 1, z_pow=d - i, nabla=True, twist=i)
    if corner == BL:
        return Monomial(z_pow=d, twist=i)
    return Monomial(z_pow=d - 1, nabla=True, twist=i)


_DEGREE = {TL: 0, TR: 1, BL: 1, BR: 2}


class NamedClass(NamedTuple):
    """A cohomology class with its standard name and the witness of the
    certified elimination it stands for: a (corner, filtration degree) key
    of the weight's square."""

    name: str
    weight: int
    witness: tuple[str, int]

    @property
    def degree(self) -> int:
        return _DEGREE[self.witness[0]]

    @property
    def rep(self) -> str:
        """The leading representative: the witness's basis monomial."""
        return mono_str(_monomial(self.weight, self.witness))


def _named(k: int, bare: str) -> str:
    """The name of v1^k times the bare class; "1" when both are trivial."""
    if k == 0:
        return bare or "1"
    power = "v1" if k == 1 else f"v1^{k}"
    return f"{power}*{bare}" if bare else power


def h2_name(p: int, w: int) -> str | None:
    """The name of the one H^2 class, del lambda1 v1^kap, in weight
    w = p + kap (p-1); None in every other weight, which has no H^2."""
    if w < p or (w - 1) % (p - 1):
        return None
    return _named((w - p) // (p - 1), "del*lambda1")


def _classes(p: int, i: int) -> list[tuple[int, NamedClass]]:
    """Each named class in weight i, with the exponent of its Bott factor."""
    require_prime(p)
    if i < 0:
        raise ValueError("weight must be >= 0")
    out: list[tuple[int, NamedClass]] = []

    def add(k: int, bare: str, witness: tuple[str, int]) -> None:
        out.append((k, NamedClass(_named(k, bare), i, witness)))

    if i % (p - 1) == 0:
        k0 = i // (p - 1)
        add(k0, "", (TL, k0 + i))
        add(k0, "del", (BL, p * k0))
    if i >= 1:
        j = (i - 1) % (p - 1) + 1
        k = (i - j) // (p - 1)
        add(k, f"gamma_{j}", (BL, j + p * k))
    h2 = h2_name(p, i)
    if h2 is not None:
        kap = (i - p) // (p - 1)
        add(kap, "lambda1", (TR, kap + i))
        out.append((kap, NamedClass(h2, i, (BR, p * (kap + 1)))))
    return out


def named_basis(p: int, i: int) -> tuple[NamedClass, ...]:
    """The standard generators in weight i: each a closed-form name on the
    witness of its certified class in the weight-i square.

    h0: the Bott power v1^k0 at (p-1) | i, on TL degree i + k0.  h1: one
    divided-power class v1^k gamma_j (j the weight of the bare class) on BL
    degree j + pk; del v1^k0 on BL degree p k0 when (p-1) | i; and
    v1^kap lambda1 on TR degree i + kap when i = p + kap (p-1).  h2:
    del lambda1 v1^kap on BR degree p (kap+1), in the same weights.
    """
    return tuple(c for _, c in _classes(p, i))


def _witnesses(sq: SquareComplex, rep: CohomologyReport) -> set[tuple[str, int]]:
    """The witness of every certified class of sq, each a key of sq: the d0
    kernel columns (h0), the d1 kernel columns that are no d0 pivot row
    (h1), and the BR rows no d1 pivot hits (h2)."""
    boundary = {r for r, _ in rep.d0.pivots}
    hit = {r for r, _ in rep.d1.pivots}
    out = set(rep.d0.kernel_columns)
    out.update(c for c in rep.d1.kernel_columns if c not in boundary)
    out.update(r for r in sq.br if r not in hit)
    return out


def _listing(witnesses: set[tuple[str, int]]) -> str:
    return ", ".join(f"{c} {k}" for c, k in sorted(witnesses)) or "none"


def _witnessed(sq: SquareComplex, names: tuple[NamedClass, ...]) -> CohomologyReport:
    """Certified cohomology of sq with the named classes as generators, or
    fail loudly unless the names are exactly the certified witnesses, once
    each."""
    rep = square_cohomology(sq)
    if rep.status != CERTIFIED:
        return rep
    named = {c.witness for c in names}
    found = _witnesses(sq, rep)
    if named != found or len(names) != sum(rep.dims):
        raise ArithmeticError(
            f"named basis does not match the certified witnesses in weight "
            f"{sq.weight}: missing {_listing(found - named)}; "
            f"extra {_listing(named - found)}; "
            f"{len(names)} named for dims {rep.dims}"
        )
    return rep._replace(generators=names)


def zp_cohomology(p: int, i: int, extra: int = 0) -> CohomologyReport:
    """Certified dims plus named generators for the weight-i square."""
    return _witnessed(build_zp_square(p, i, extra), named_basis(p, i))


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
    require_prime(p)
    if i < 0:
        raise ValueError("weight must be >= 0")
    if i < p - 1:
        return build_zp_square(p, i)
    kr = 2 if i == p - 1 else 1
    window = WindowCutoffs(tl=i, tr=i - 1 + kr, bl=p - 1, br=p)
    sq = _square(p, i, window)
    # at weight p-1 the square identity on E^i expresses the z^(p-1) column
    # through the right-hand columns, since nabla_bot(1) = 0 exactly
    return replace(sq, bl_in_span={(BL, p - 1): (TL, p - 1)}) if i == p - 1 else sq


def mod_v1_named_basis(p: int, i: int) -> tuple[NamedClass, ...]:
    """The classes of named_basis(p, i) that carry no Bott factor."""
    return tuple(c for k, c in _classes(p, i) if k == 0)


def mod_v1_cohomology(p: int, i: int) -> CohomologyReport:
    return _witnessed(mod_v1_square(p, i), mod_v1_named_basis(p, i))
