"""Machine-checked vanishing certificates for the truncated rings Z/p^n.

In the weight i = p^(n-1) - p^(n-2) the Bott power z^(p^(n-1)) t^-i times
the boundary class must die in H^2.  The engine certifies the underlying
identity: modulo filtration >= i*n the monomial z^(p^(n-1)) t^-i lies in the
image of can - phi on Nygaard level i.  The witness is a telescoping chain:
step j clears the remainder against E^(i-p^j) z^(s_j) f_j t^-i, whose can
image reproduces the remainder exactly and whose phi image is the next
remainder, one envelope generator deeper and strictly higher in filtration.
The chain stops at the first remainder at or beyond the truncation.
certify_vanishing builds and checks the chain in one pass: each step is
checked on its own and against the step before it as it is made, and the
closed-form filtration degrees each step records are recomputed through
the monomial grading f_degree.

Everything here is exact integer bookkeeping: can rewrites E to z on the
nose mod p, phi consumes the E power exactly (the twist contributes
phi(E)^-i), and the only rewrite ever used is f_0 = z^n.  The unit lambda_j
in front of each phi image stays symbolic; no f_u^p reduction is ever
attempted (that rewrite has an unknown unit and a vanishing leading term).
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import Monomial, f_degree, require_prime

HIGH_FILTRATION = "HIGH_FILTRATION"

# Largest Bott tower p^(n-2) that h2_basis steps through; its cost is linear
# in it, so a larger (p, n) is refused rather than left to run for hours
# (p^(n-2) is 2^28 at p = 2, n = 30).
MAX_BOTT_TOWER = 4096


def nygaard_truncation_bound(n: int, i: int) -> int:
    """Filtration level from which everything sits in Nygaard level >= i.

    Each generator carries at least 1/n of its filtration weight in Nygaard
    weight, so F^(>= n*i) lies in N^(>= i) and may be discarded wholesale
    when arguing modulo the truncation.
    """
    return n * i


@dataclass(frozen=True)
class StepWitness:
    """Step j: the element E^e z^s f_j, its can image z^k f_j and its phi
    image z^k f_(j+1), each monomial with f_exp = ((u, 1),)."""

    j: int
    element: Monomial
    can_image: Monomial
    phi_image: Monomial
    phi_unit: str
    fdeg_can: int
    fdeg_phi: int


def telescoping_step(p: int, n: int, j: int) -> StepWitness:
    """The j-th clearing step of the weight p^(n-1) - p^(n-2) chain."""
    require_prime(p)
    if n < 2:
        raise ValueError("need n >= 2")
    i = p ** (n - 1) - p ** (n - 2)
    s_j = p ** (n - 2) - (n - 1 - j) * p**j
    if j < 0 or j > n - 2 or s_j < 0:
        raise ValueError(f"step j={j} is outside the valid chain range")
    element = Monomial(e_pow=i - p**j, z_pow=s_j, f_exp=((j, 1),))
    # can rewrites every E to z (E = z + p), exact mod p
    can_image = Monomial(z_pow=element.e_pow + element.z_pow, f_exp=((j, 1),))
    # phi sends z to z^p and f_j to lambda_j f_(j+1); the twist t^-i divides
    # by phi(E)^i, consuming phi(E)^(e_pow + p^j) = phi(E)^i exactly
    phi_image = Monomial(z_pow=p * element.z_pow, f_exp=((j + 1, 1),))
    # closed forms: z weighs 1 and f_u weighs n p^u
    fdeg_can = can_image.z_pow + n * p**j
    fdeg_phi = phi_image.z_pow + n * p ** (j + 1)
    return StepWitness(
        j=j,
        element=element,
        can_image=can_image,
        phi_image=phi_image,
        phi_unit=f"lambda_{j}",
        fdeg_can=fdeg_can,
        fdeg_phi=fdeg_phi,
    )


@dataclass(frozen=True)
class VanishingCertificate:
    p: int
    n: int
    weight: int
    truncation: int
    target_z_pow: int
    steps: tuple[StepWitness, ...]
    termination_reason: str
    termination_step: int
    termination_fdeg: int
    verified: bool
    failures: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "kind": "vanishing-certificate",
            "p": self.p,
            "n": self.n,
            "weight": self.weight,
            "truncation": self.truncation,
            "target_z_pow": self.target_z_pow,
            "steps": [
                {
                    "j": s.j,
                    "element": _record(s.element),
                    "can_image": _record(s.can_image),
                    "phi_image": _record(s.phi_image),
                    "phi_unit": s.phi_unit,
                    "fdeg_can": s.fdeg_can,
                    "fdeg_phi": s.fdeg_phi,
                }
                for s in self.steps
            ],
            "termination": {
                "reason": self.termination_reason,
                "step": self.termination_step,
                "fdeg": self.termination_fdeg,
            },
            "verified": self.verified,
            "failures": list(self.failures),
        }


def _record(m: Monomial) -> dict:
    """A chain monomial E^e z^k f_u as the certificate writes it."""
    ((u, _),) = m.f_exp
    return {"e_pow": m.e_pow, "z_pow": m.z_pow, "f_index": u}


def certify_vanishing(p: int, n: int) -> VanishingCertificate:
    """Build and self-check the full telescoping chain for (p, n).

    The target is z^(p^(n-1)) t^-i.  Writing z^(p^(n-1)) = z^(p^(n-1)-n) f_0
    (the one exact rewrite) identifies it with the step-0 can image; each phi
    remainder is the next step's can image until the remainder's filtration
    degree reaches the truncation bound, where it is discarded.
    """
    require_prime(p)
    if n < 2:
        raise ValueError("need n >= 2")
    i = p ** (n - 1) - p ** (n - 2)
    bound = nygaard_truncation_bound(n, i)
    target = p ** (n - 1)
    steps: list[StepWitness] = []
    failures: list[str] = []
    for j in range(n - 1):
        w = telescoping_step(p, n, j)
        if not steps:
            if w.can_image.z_pow + n != target or w.can_image.f_exp != ((0, 1),):
                failures.append("target does not match the step-0 can image")
        else:
            prev = steps[-1]
            if w.can_image != prev.phi_image:
                failures.append(f"chain link broken between steps {j - 1} and {j}")
        # the monomial grading is a second route to the closed-form degrees
        degrees = (f_degree(w.can_image, p, n), f_degree(w.phi_image, p, n))
        if (w.fdeg_can, w.fdeg_phi) != degrees:
            failures.append(f"step {j} filtration degree mismatch")
        if w.fdeg_phi <= w.fdeg_can:
            failures.append(f"step {j}: filtration does not strictly ascend")
        steps.append(w)
        if w.fdeg_phi >= bound:
            break
    last = steps[-1]
    if last.fdeg_phi < bound:
        failures.append("final remainder is below the truncation bound")

    return VanishingCertificate(
        p=p,
        n=n,
        weight=i,
        truncation=bound,
        target_z_pow=target,
        steps=tuple(steps),
        termination_reason=HIGH_FILTRATION,
        termination_step=last.j,
        termination_fdeg=last.fdeg_phi,
        verified=not failures,
        failures=tuple(failures),
    )


def bott_tower_size(p: int, n: int) -> int:
    """p^(n-2), the number of Bott powers that survive in Z/p^n.

    Raises ValueError for n < 2, p not prime, or a tower above MAX_BOTT_TOWER; an
    oversized n is refused before the power is formed.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    require_prime(p)
    if n - 2 >= MAX_BOTT_TOWER.bit_length() or p ** (n - 2) > MAX_BOTT_TOWER:
        raise ValueError(
            f"p^(n-2) for p={p}, n={n} exceeds the Bott tower limit "
            f"{MAX_BOTT_TOWER}"
        )
    return p ** (n - 2)
