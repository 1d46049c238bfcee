"""Machine-checked vanishing certificates for the truncated rings Z/p^n.

In the weight i = p^(n-1) - p^(n-2) the Bott power z^(p^(n-1)) t^-i times
the boundary class must die in H^2.  The engine certifies the underlying
identity: modulo filtration >= i*n the monomial z^(p^(n-1)) t^-i lies in the
image of can - phi on Nygaard level i.  The witness is a telescoping chain:
step j clears the remainder against E^(i-p^j) z^(s_j) f_j t^-i, whose can
image reproduces the remainder exactly and whose phi image is the next
remainder, one envelope generator deeper and strictly higher in filtration.
The chain stops at the first remainder at or beyond the truncation.

Everything here is exact integer bookkeeping: can rewrites E to z on the
nose mod p, phi consumes the E power exactly (the twist contributes
phi(E)^-i), and the only rewrite ever used is f_0 = z^n.  The unit lambda_j
in front of each phi image stays symbolic; no f_u^p reduction is ever
attempted (that rewrite has an unknown unit and a vanishing leading term).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .arith import Monomial, PrimeContext, f_degree
from .zp import v1_bottom_action

HIGH_FILTRATION = "HIGH_FILTRATION"


def nygaard_truncation_bound(n: int, i: int) -> int:
    """Filtration level from which everything sits in Nygaard level >= i.

    Each generator carries at least 1/n of its filtration weight in Nygaard
    weight, so F^(>= n*i) lies in N^(>= i) and may be discarded wholesale
    when arguing modulo the truncation.
    """
    return n * i


@dataclass(frozen=True)
class ExpMonomial:
    """Raw exponents of E^e z^k f_idx, stored before any normal form."""

    e_pow: int
    z_pow: int
    f_index: int

    def f_deg(self, ctx: PrimeContext) -> int:
        return f_degree(
            Monomial(
                e_pow=self.e_pow, z_pow=self.z_pow, f_exp=((self.f_index, 1),)
            ),
            ctx,
        )


@dataclass(frozen=True)
class StepWitness:
    j: int
    element: ExpMonomial
    can_image: ExpMonomial
    phi_image: ExpMonomial
    phi_unit: str
    fdeg_can: int
    fdeg_phi: int
    side_conditions: tuple[tuple[str, bool], ...]

    def ok(self) -> bool:
        return all(v for _, v in self.side_conditions)


def telescoping_step(p: int, n: int, j: int) -> StepWitness:
    """The j-th clearing step of the weight p^(n-1) - p^(n-2) chain."""
    ctx = PrimeContext(p, n, quotient=True)
    if n < 2:
        raise ValueError("need n >= 2")
    i = p ** (n - 1) - p ** (n - 2)
    s_j = p ** (n - 2) - (n - 1 - j) * p**j
    if j < 0 or j > n - 2 or s_j < 0:
        raise ValueError(f"step j={j} is outside the valid chain range")
    element = ExpMonomial(e_pow=i - p**j, z_pow=s_j, f_index=j)
    # can rewrites every E to z (E = z + p), exact mod p
    can_image = ExpMonomial(e_pow=0, z_pow=element.e_pow + element.z_pow, f_index=j)
    # phi sends z to z^p and f_j to lambda_j f_(j+1); the twist t^-i divides
    # by phi(E)^i, consuming phi(E)^(e_pow + p^j) = phi(E)^i exactly
    phi_image = ExpMonomial(e_pow=0, z_pow=p * element.z_pow, f_index=j + 1)
    fdeg_can = can_image.f_deg(ctx)
    fdeg_phi = phi_image.f_deg(ctx)
    side = (
        ("step_in_chain_range", 0 <= j <= n - 2),
        ("element_z_power_nonneg", s_j >= 0),
        ("element_e_power_nonneg", element.e_pow >= 0),
        ("phi_consumes_e_power_exactly", element.e_pow + p**j == i),
        ("nygaard_level_reached", element.e_pow + p**j >= i),
        ("filtration_strictly_ascends", fdeg_phi > fdeg_can),
    )
    return StepWitness(
        j=j,
        element=element,
        can_image=can_image,
        phi_image=phi_image,
        phi_unit=f"lambda_{j}",
        fdeg_can=fdeg_can,
        fdeg_phi=fdeg_phi,
        side_conditions=side,
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
                    "element": asdict(s.element),
                    "can_image": asdict(s.can_image),
                    "phi_image": asdict(s.phi_image),
                    "phi_unit": s.phi_unit,
                    "fdeg_can": s.fdeg_can,
                    "fdeg_phi": s.fdeg_phi,
                    "side_conditions": [[k, v] for k, v in s.side_conditions],
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


def certify_vanishing(p: int, n: int) -> VanishingCertificate:
    """Build and self-check the full telescoping chain for (p, n).

    The target is z^(p^(n-1)) t^-i.  Writing z^(p^(n-1)) = z^(p^(n-1)-n) f_0
    (the one exact rewrite) identifies it with the step-0 can image; each phi
    remainder is the next step's can image until the remainder's filtration
    degree reaches the truncation bound, where it is discarded.
    """
    ctx = PrimeContext(p, n, quotient=True)
    if n < 2:
        raise ValueError("need n >= 2")
    i = p ** (n - 1) - p ** (n - 2)
    bound = nygaard_truncation_bound(n, i)
    target = p ** (n - 1)
    steps: list[StepWitness] = []
    failures: list[str] = []
    j = 0
    while True:
        if j > n - 2:
            # unreachable: the j = n-2 remainder has degree n p^(n-1) >= i n
            failures.append("chain ran past the last valid step index")
            break
        w = telescoping_step(p, n, j)
        steps.append(w)
        for name, okv in w.side_conditions:
            if not okv:
                failures.append(f"step {j}: side condition {name} failed")
        if w.fdeg_phi >= bound:
            break
        j += 1

    if steps:
        first = steps[0]
        if first.can_image.z_pow + n != target or first.can_image.f_index != 0:
            failures.append("target does not match the step-0 can image")
        for a, b in zip(steps, steps[1:]):
            if (
                b.can_image.z_pow != a.phi_image.z_pow
                or b.can_image.f_index != a.phi_image.f_index
            ):
                failures.append(f"chain link broken between steps {a.j} and {b.j}")
            if b.fdeg_phi <= a.fdeg_phi:
                failures.append(f"filtration fails to ascend at step {b.j}")
        for w in steps[:-1]:
            if w.fdeg_phi >= bound:
                failures.append(f"step {w.j} should already have terminated")
        # when the target itself reaches the truncation (only p = n = 2),
        # the chain is formally degenerate and clears nothing in-window
        target_in_window = target < bound
        for w in steps:
            if target_in_window and w.fdeg_can >= bound:
                failures.append(f"step {w.j} clears a term beyond the truncation")
            # recompute both degrees through the monomial grading as a
            # second route, instead of trusting the chain arithmetic
            if w.fdeg_can != w.can_image.f_deg(ctx) or w.fdeg_phi != w.phi_image.f_deg(ctx):
                failures.append(f"step {w.j} filtration degree mismatch")
        last = steps[-1]
        term_step, term_fdeg = last.j, last.fdeg_phi
        if term_fdeg < bound:
            failures.append("final remainder is below the truncation bound")
    else:
        term_step, term_fdeg = -1, -1
        failures.append("empty chain")

    return VanishingCertificate(
        p=p,
        n=n,
        weight=i,
        truncation=bound,
        target_z_pow=target,
        steps=tuple(steps),
        termination_reason=HIGH_FILTRATION,
        termination_step=term_step,
        termination_fdeg=term_fdeg,
        verified=not failures,
        failures=tuple(failures),
    )


def v1_power_partial_representative(p: int, n: int) -> Monomial:
    """Bottom-row representative of the p^(n-2)-th Bott power for Z/p^n.

    Computed two ways: directly as z^(p^(n-1)) t^-(p^(n-1)-p^(n-2)), and by
    iterating the bottom-row Bott action on the unit.  Both must agree.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    i = p ** (n - 1) - p ** (n - 2)
    direct = Monomial(z_pow=p ** (n - 1), twist=i)
    stepped = Monomial()
    for _ in range(p ** (n - 2)):
        stepped = v1_bottom_action(stepped, p)
    if stepped != direct:
        raise ArithmeticError("Bott power representative mismatch")
    return direct
