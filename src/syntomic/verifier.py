"""Independent re-verification of vanishing certificates.

This module deliberately shares no code with the certificate producer: it
re-derives every exponent from p and n with its own integer arithmetic and
walks the serialized dict.  A certificate that passes both the producer's
self-checks and this module is machine-checked twice over.

It also samples the certified identity: the certificate asserts that the
target monomial lies in the image of can - phi modulo high filtration.
For any concrete instantiation of the unknown unit series lambda_j the
instantiated column system is triangular (each column's lowest term is its
exact can image, with coefficient one), so a greedy peel of the lowest
residual term is a sound and complete membership decision, and a success
constructs an explicit preimage.  Dense F_p elimination over the same
column space cross-checks the greedy solver for small truncations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    q = 2
    while q * q <= p:
        if p % q == 0:
            return False
        q += 1
    return True


@dataclass(frozen=True)
class VerifierReport:
    ok: bool
    checks: tuple[tuple[str, bool], ...]
    errors: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def verify_certificate(data: dict) -> VerifierReport:
    """Recompute a serialized vanishing certificate from scratch."""
    checks: list[tuple[str, bool]] = []
    errors: list[str] = []

    def check(name: str, okv: bool, detail: str = "") -> None:
        checks.append((name, okv))
        if not okv:
            errors.append(detail or name)

    try:
        p, n = int(data["p"]), int(data["n"])
        steps = list(data["steps"])
        term = data["termination"]
    except (KeyError, TypeError, ValueError) as exc:
        return VerifierReport(False, (), (f"malformed certificate: {exc}",))

    check("p_prime", _is_prime(p), f"p={p} is not prime")
    check("n_at_least_two", n >= 2, f"n={n} < 2")
    if not (checks and all(v for _, v in checks)):
        return VerifierReport(False, tuple(checks), tuple(errors))

    weight = p ** (n - 1) - p ** (n - 2)
    bound = n * weight
    target = p ** (n - 1)
    check("weight", data.get("weight") == weight, "wrong weight")
    check("truncation", data.get("truncation") == bound, "wrong truncation bound")
    check("target", data.get("target_z_pow") == target, "wrong target power")
    check("nonempty_chain", len(steps) >= 1, "empty chain")
    check(
        "verified_flag", data.get("verified") is True, "producer did not verify"
    )

    prev_phi_z = None
    prev_phi_f = None
    prev_fdeg = -1
    for idx, s in enumerate(steps):
        j = s["j"]
        tag = f"step_{idx}"
        check(f"{tag}_index", j == idx, f"step indices not consecutive at {idx}")
        el, can, phi = s["element"], s["can_image"], s["phi_image"]
        s_j = p ** (n - 2) - (n - 1 - j) * p**j
        check(f"{tag}_range", 0 <= j <= n - 2, f"step {j} outside chain range")
        check(
            f"{tag}_element",
            el["e_pow"] == weight - p**j
            and el["z_pow"] == s_j
            and el["f_index"] == j
            and el["z_pow"] >= 0
            and el["e_pow"] >= 0,
            f"step {j}: element exponents are wrong",
        )
        check(
            f"{tag}_can",
            can["e_pow"] == 0
            and can["z_pow"] == el["e_pow"] + el["z_pow"]
            and can["f_index"] == j,
            f"step {j}: can image is wrong",
        )
        check(
            f"{tag}_phi",
            phi["e_pow"] == 0
            and phi["z_pow"] == p * el["z_pow"]
            and phi["f_index"] == j + 1,
            f"step {j}: phi image is wrong",
        )
        check(
            f"{tag}_unit",
            s.get("phi_unit") == f"lambda_{j}",
            f"step {j}: unnamed or misnamed unit",
        )
        fdeg_can = can["z_pow"] + n * p**j
        fdeg_phi = phi["z_pow"] + n * p ** (j + 1)
        check(
            f"{tag}_degrees",
            s["fdeg_can"] == fdeg_can and s["fdeg_phi"] == fdeg_phi,
            f"step {j}: filtration degrees are wrong",
        )
        check(
            f"{tag}_inside_window",
            fdeg_can < bound or target >= bound,
            f"step {j}: clears a term at or beyond the truncation",
        )
        check(
            f"{tag}_ascent",
            fdeg_phi > fdeg_can and fdeg_phi > prev_fdeg,
            f"step {j}: filtration does not strictly ascend",
        )
        if idx == 0:
            check(
                "target_link",
                can["z_pow"] + n == target and can["f_index"] == 0,
                "target does not reduce to the step-0 can image via f_0 = z^n",
            )
        else:
            check(
                f"{tag}_link",
                can["z_pow"] == prev_phi_z and can["f_index"] == prev_phi_f,
                f"step {j}: chain link broken",
            )
        if idx < len(steps) - 1:
            check(
                f"{tag}_not_terminal",
                fdeg_phi < bound,
                f"step {j}: chain should have terminated here",
            )
        prev_phi_z, prev_phi_f, prev_fdeg = phi["z_pow"], phi["f_index"], fdeg_phi

    if steps:
        last = steps[-1]
        last_fdeg = last["phi_image"]["z_pow"] + n * p ** (last["j"] + 1)
        check(
            "termination_rule",
            last_fdeg >= bound,
            "final remainder is below the truncation bound",
        )
        check(
            "termination_record",
            term.get("reason") == "HIGH_FILTRATION"
            and term.get("step") == last["j"]
            and term.get("fdeg") == last_fdeg,
            "termination record does not match the chain",
        )

    ok = all(v for _, v in checks)
    return VerifierReport(ok, tuple(checks), tuple(errors))


def _instantiate_units(
    p: int, n: int, bound: int, rng: random.Random, max_tail: int = 3
) -> dict[int, list[tuple[int, int]]]:
    """A concrete unit series per chain level: nonzero constant plus a short
    random tail.  The tails are free unknowns of the model, so any choice is
    a legitimate instantiation."""
    units: dict[int, list[tuple[int, int]]] = {}
    for j in range(n):
        series = [(0, rng.randrange(1, p))]
        for _ in range(rng.randrange(0, max_tail + 1)):
            offset = rng.randrange(1, max(bound // max(n, 1), 2))
            series.append((offset, rng.randrange(0, p)))
        units[j] = series
    return units


def _greedy_membership(
    p: int, n: int, units: dict[int, list[tuple[int, int]]]
) -> tuple[bool, int]:
    """Decide, for the instantiated system, whether the target is hit.

    State: residual terms keyed by (level j, z power) with coefficients in
    F_p, all of filtration degree < n * weight.  The unique column leading
    at the lowest term is the level-j Nygaard element with matching can
    image; subtracting it trades the term for level-(j+1) terms of strictly
    higher degree, so the loop terminates.  Level-n terms always sit beyond
    the truncation and vanish from the residual.
    """
    weight = p ** (n - 1) - p ** (n - 2)
    bound = n * weight
    if p ** (n - 1) >= bound:
        return (True, 0)  # the target is already zero modulo the truncation
    residual: dict[tuple[int, int], int] = {(0, p ** (n - 1) - n): 1}
    clears = 0
    while residual:
        (j, a), coef = min(
            ((k, v) for k, v in residual.items()),
            key=lambda kv: (kv[0][1] + n * p ** kv[0][0], kv[0][0]),
        )
        del residual[(j, a)]
        if coef % p == 0:
            continue
        s = a - (weight - p**j)
        if s < 0:
            return (False, clears)  # no column leads at this position
        clears += 1
        if j + 1 >= n:
            continue  # the phi remainder lives beyond the truncation
        for offset, lam in units[j]:
            pos = (j + 1, p * s + offset)
            if pos[1] + n * p ** (j + 1) >= bound:
                continue
            residual[pos] = (residual.get(pos, 0) + coef * lam) % p
            if residual[pos] == 0:
                del residual[pos]
    return (True, clears)


def _reduce(
    vec: dict[int, int], pivots: dict[int, dict[int, int]], p: int
) -> dict[int, int]:
    """Clear the lowest live row of vec against the pivot led there, until
    that row has no pivot; returns the remainder (empty if fully reduced)."""
    cur = {r: v % p for r, v in vec.items() if v % p}
    while cur:
        r = min(cur)
        piv = pivots.get(r)
        if piv is None:
            break
        factor = (cur[r] * pow(piv[r], -1, p)) % p
        for rr, vv in piv.items():
            cur[rr] = (cur.get(rr, 0) - factor * vv) % p
        cur = {rr: vv for rr, vv in cur.items() if vv}
    return cur


def _dense_membership(
    p: int, n: int, units: dict[int, list[tuple[int, int]]]
) -> bool:
    """Plain F_p elimination over the same single-f column space."""
    weight = p ** (n - 1) - p ** (n - 2)
    bound = n * weight
    if p ** (n - 1) >= bound:
        return True
    rows = [
        (j, a)
        for j in range(n)
        for a in range(max(bound - n * p**j, 0))
    ]
    row_index = {r: i for i, r in enumerate(rows)}
    cols = []
    for j in range(n):
        a_min = weight - p**j
        for s in range(0, bound):
            a = a_min + s
            if a < 0 or a + n * p**j >= bound:
                continue
            col = {row_index[(j, a)]: 1}
            if j + 1 < n:
                for offset, lam in units[j]:
                    pos = (j + 1, p * s + offset)
                    if pos[1] + n * p ** (j + 1) < bound:
                        ri = row_index[pos]
                        col[ri] = (col.get(ri, 0) + lam) % p
            cols.append({r: v % p for r, v in col.items() if v % p})
    # echelonize the columns, then reduce the target against them
    pivots: dict[int, dict[int, int]] = {}
    for col in cols:
        cur = _reduce(col, pivots, p)
        if cur:
            pivots[min(cur)] = cur
    return not _reduce({row_index[(0, p ** (n - 1) - n)]: 1}, pivots, p)


@dataclass(frozen=True)
class SampleReport:
    passes: int
    total: int
    cross_checked: bool

    @property
    def ok(self) -> bool:
        return self.passes == self.total

    def __bool__(self) -> bool:
        return self.ok


def check_image_membership(data: dict, rng: random.Random) -> bool:
    """One sampled membership check of the certified identity."""
    p, n = int(data["p"]), int(data["n"])
    bound = n * (p ** (n - 1) - p ** (n - 2))
    units = _instantiate_units(p, n, bound, rng)
    ok, _ = _greedy_membership(p, n, units)
    return ok


def sample_certificate(data: dict, samples: int = 100, seed: int = 0) -> SampleReport:
    """Sample the certified identity; cross-check greedy against dense
    elimination when the truncation window is small enough to afford it."""
    p, n = int(data["p"]), int(data["n"])
    bound = n * (p ** (n - 1) - p ** (n - 2))
    rng = random.Random(seed)
    passes = 0
    crossed = False
    for trial in range(samples):
        units = _instantiate_units(p, n, bound, rng)
        ok, _ = _greedy_membership(p, n, units)
        if bound <= 24 and trial < 5:
            dense = _dense_membership(p, n, units)
            crossed = True
            if dense != ok:
                raise ArithmeticError(
                    "greedy and dense membership disagree on a sample"
                )
        if ok:
            passes += 1
    return SampleReport(passes=passes, total=samples, cross_checked=crossed)
