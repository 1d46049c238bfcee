"""Exponent arithmetic for the filtered divided-power rings underlying the engine.

Two rings occur.  In base mode the ring is generated over the prism base by a
single coordinate z (plus one distinguished degree-1 element nabla z in the
top row of a square).  In quotient mode (the mod p^n ring) an infinite family
of envelope generators f_0, f_1, ... is adjoined, where f_u has filtration
weight n * p^u and Nygaard weight p^u, subject to f_0 = z^n on the nose.
Monomials are pure bookkeeping: tuples of exponents with an attached
filtration degree.  No coefficient arithmetic happens here.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class PrimeContext:
    """Ambient arithmetic data: the prime p and, in quotient mode, the power n."""

    p: int
    n: int = 1
    quotient: bool = False

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"p={self.p} is not prime")
        if self.n < 1:
            raise ValueError("n must be >= 1")

    def f_weight(self, u: int) -> int:
        """Filtration weight of the envelope generator f_u."""
        if not self.quotient:
            raise ValueError("f generators exist only in quotient mode")
        return self.n * self.p**u

    def nygaard_f_weight(self, u: int) -> int:
        """Nygaard weight of f_u."""
        return self.p**u


@dataclass(frozen=True)
class Monomial:
    """A monomial E^e * z^k * prod f_u^{c_u} * (nabla z)^eps * t^{-twist}.

    f_exp is a sorted tuple of (u, c_u) with c_u > 0; exponents c_u < p are
    maintained by every constructor in this package (reducing f_u^p would
    introduce an unknown unit, which the engine never does).
    """

    e_pow: int = 0
    z_pow: int = 0
    f_exp: tuple[tuple[int, int], ...] = field(default=())
    nabla: bool = False
    twist: int = 0

    def __post_init__(self) -> None:
        if self.e_pow < 0 or self.z_pow < 0:
            raise ValueError("negative exponent")
        last = -1
        for u, c in self.f_exp:
            if u <= last or c <= 0:
                raise ValueError("f_exp must be sorted with positive exponents")
            last = u


def f_degree(m: Monomial, ctx: PrimeContext) -> int:
    """Filtration degree: E and z weigh 1, f_u weighs n*p^u, nabla z weighs 1.

    The twist is filtration-neutral.  Additive under monomial product.
    """
    deg = m.e_pow + m.z_pow + (1 if m.nabla else 0)
    for u, c in m.f_exp:
        deg += c * ctx.f_weight(u)
    return deg


def nygaard_f_valuation(m: Monomial, ctx: PrimeContext) -> int:
    """Total Nygaard weight carried by the f-part of m."""
    return sum(c * ctx.nygaard_f_weight(u) for u, c in m.f_exp)


def mixed_radix_monomial(j: int, ctx: PrimeContext) -> Monomial:
    """The unique E-free, nabla-free monomial basis element of filtration degree j.

    Writes j = k + n * sum_u e_u p^u with 0 <= k < n and 0 <= e_u < p and
    returns z^k * prod f_u^{e_u}.  In quotient mode these monomials form a
    basis of the associated graded in each degree (one per degree).
    """
    if not ctx.quotient:
        raise ValueError("mixed radix form needs quotient mode")
    if j < 0:
        raise ValueError("degree must be >= 0")
    k, q = j % ctx.n, j // ctx.n
    fs = []
    u = 0
    while q:
        q, digit = divmod(q, ctx.p)
        if digit:
            fs.append((u, digit))
        u += 1
    return Monomial(z_pow=k, f_exp=tuple(fs))


def nygaard_e_power(j_target: int, m: Monomial, ctx: PrimeContext) -> int:
    """E-power needed to put the E-free monomial m into Nygaard level j_target.

    Equals max(j_target - nygaard weight of m, 0); the z-part needs no E.
    """
    if m.e_pow:
        raise ValueError("m must be E-free")
    return max(j_target - nygaard_f_valuation(m, ctx), 0)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """Formal exponent sum.  Rejects (nabla z)^2, keeps f exponents raw."""
    if a.nabla and b.nabla:
        raise ValueError("nabla z squares to zero")
    fs: dict[int, int] = {}
    for u, c in a.f_exp:
        fs[u] = fs.get(u, 0) + c
    for u, c in b.f_exp:
        fs[u] = fs.get(u, 0) + c
    return Monomial(
        e_pow=a.e_pow + b.e_pow,
        z_pow=a.z_pow + b.z_pow,
        f_exp=tuple(sorted(fs.items())),
        nabla=a.nabla or b.nabla,
        twist=a.twist + b.twist,
    )


def mono_str(m: Monomial) -> str:
    parts = []
    if m.e_pow:
        parts.append("E" if m.e_pow == 1 else f"E^{m.e_pow}")
    if m.z_pow:
        parts.append("z" if m.z_pow == 1 else f"z^{m.z_pow}")
    for u, c in m.f_exp:
        parts.append(f"f{u}" if c == 1 else f"f{u}^{c}")
    if m.nabla:
        parts.append("Dz")
    if m.twist:
        parts.append(f"t^-{m.twist}")
    return "*".join(parts) if parts else "1"
