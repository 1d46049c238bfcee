"""Exponent arithmetic for the filtered divided-power rings underlying the engine.

Two rings occur.  For Z_p the ring is generated over the prism base by a
single coordinate z (plus one distinguished degree-1 element nabla z in the
top row of a square).  For Z/p^n (the mod p^n ring) an infinite family
of envelope generators f_0, f_1, ... is adjoined, where f_u has filtration
weight n * p^u and Nygaard weight p^u, subject to f_0 = z^n on the nose.
Monomials are pure bookkeeping: tuples of exponents with an attached
filtration degree.  No coefficient arithmetic happens here.
"""

from __future__ import annotations

from dataclasses import dataclass, field


# Miller-Rabin over the primes up to 37 as bases decides primality exactly
# for every p below 3.3 * 10^24 (Sorenson and Webster); the limit 2^64 keeps
# a wide margin below that, and a larger p is refused, not guessed.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(p: int) -> bool:
    """Deterministic primality test; ValueError for p >= 2^64."""
    if p >= 2**64:
        raise ValueError(f"p={p} is at or above the primality limit 2^64")
    if p < 2:
        return False
    for a in _WITNESSES:
        if p % a == 0:
            return p == a
    if p < 41 * 41:  # no prime factor up to 37, so none at all
        return True
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> None:
    """ValueError unless p is prime: the one gate on p at every entry."""
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")


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


def f_degree(m: Monomial, p: int, n: int) -> int:
    """Filtration degree: E and z weigh 1, f_u weighs n*p^u, nabla z weighs 1.

    The twist is filtration-neutral.  Additive under monomial product.
    """
    deg = m.e_pow + m.z_pow + (1 if m.nabla else 0)
    for u, c in m.f_exp:
        deg += c * n * p**u
    return deg


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
