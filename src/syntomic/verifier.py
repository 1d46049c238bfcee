"""Independent re-verification of vanishing certificates.

This module deliberately shares no code with the certificate producer: it
re-derives every exponent from p and n with its own integer arithmetic and
walks the serialized dict.  A certificate that passes both the producer's
self-checks and this module is machine-checked twice over.

It also samples the certified identity: the certificate asserts that the
target monomial lies in the image of can - phi modulo high filtration.
For any concrete instantiation of the unknown unit series lambda_j the
instantiated column system is triangular (each column's lowest term is its
exact can image, with coefficient one) and block-bidiagonal by level: a
level-j column leads at level j and its phi image lies wholly at level
j+1.  So a peel that clears one level at a time, each level's terms with
their final coefficients, is a sound and complete membership decision; it
reports the verdict and the number of terms it cleared.  Each sample draws
the unit series of every level, then peels them.  Each constant term is
nonzero, so the lowest term of a level never cancels and the sampled
verdict depends only on p and n; dense F_p elimination over the same column
space, on small truncations, is the only second route.
"""

from __future__ import annotations

import random
from typing import NamedTuple


def _is_prime(p: int) -> bool:
    """Strong-probable-prime test to every prime base up to 37, which is
    exact below 2^64 (Sorenson and Webster); p >= 2^64 is never confirmed."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if p < 2 or p >= 1 << 64:
        return False
    if any(p % b == 0 for b in bases):
        return p in bases
    odd, twos = p - 1, 0
    while not odd & 1:
        odd >>= 1
        twos += 1
    for b in bases:
        y = pow(b, odd, p)
        if y == 1 or y == p - 1:
            continue
        for _ in range(twos - 1):
            y = pow(y, 2, p)
            if y == p - 1:
                break
        else:
            return False
    return True


class VerifierReport(NamedTuple):
    ok: bool
    checks: tuple[tuple[str, bool], ...]
    errors: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def verify_certificate(data: dict) -> VerifierReport:
    """Recompute a serialized vanishing certificate from scratch.

    A certificate missing a field, or holding a field of the wrong type at
    any depth, gives a failed report with a "malformed certificate" error,
    never an exception."""
    checks: list[tuple[str, bool]] = []
    errors: list[str] = []

    def check(name: str, okv: bool, detail: str = "") -> bool:
        checks.append((name, okv))
        if not okv:
            errors.append(detail or name)
        return okv

    try:
        _check_certificate(data, check)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        errors.append(f"malformed certificate: {exc}")
        return VerifierReport(False, tuple(checks), tuple(errors))
    ok = all(v for _, v in checks)
    return VerifierReport(ok, tuple(checks), tuple(errors))


def _int(fields: dict, key: str) -> int:
    """fields[key], which must be an int: not a bool, float or string."""
    if type(fields[key]) is not int:
        raise TypeError(f"{key!r} is not an int: {fields[key]!r}")
    return fields[key]


def _check_certificate(data: dict, check) -> None:
    """Record every check of verify_certificate through check(name, ok,
    detail), which returns ok; raises on a missing or mistyped field."""
    p, n = _int(data, "p"), _int(data, "n")
    steps = list(data["steps"])
    term = data["termination"]

    prime = check("p_prime", _is_prime(p), f"p={p} is not a prime below 2^64")
    if not (check("n_at_least_two", n >= 2, f"n={n} < 2") and prime):
        return

    weight = p ** (n - 1) - p ** (n - 2)
    bound = n * weight
    target = p ** (n - 1)
    check("nonempty_chain", len(steps) >= 1, "empty chain")

    prev_phi_z, prev_phi_f, prev_fdeg = None, None, -1
    for idx, s in enumerate(steps):
        j = _int(s, "j")
        tag = f"step_{idx}"
        check(f"{tag}_index", j == idx, f"step indices not consecutive at {idx}")
        el, can, phi = (
            {key: _int(m, key) for key in ("e_pow", "z_pow", "f_index")}
            for m in (s["element"], s["can_image"], s["phi_image"])
        )
        s_j = p ** (n - 2) - (n - 1 - j) * p**j
        check(f"{tag}_range", 0 <= j <= n - 2, f"step {j} outside chain range")
        check(
            f"{tag}_element",
            el == {"e_pow": weight - p**j, "z_pow": s_j, "f_index": j}
            and min(el["e_pow"], el["z_pow"]) >= 0,
            f"step {j}: element exponents are wrong",
        )
        check(
            f"{tag}_can",
            can == {"e_pow": 0, "z_pow": el["e_pow"] + el["z_pow"], "f_index": j},
            f"step {j}: can image is wrong",
        )
        check(
            f"{tag}_phi",
            phi == {"e_pow": 0, "z_pow": p * el["z_pow"], "f_index": j + 1},
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
            (_int(s, "fdeg_can"), _int(s, "fdeg_phi")) == (fdeg_can, fdeg_phi),
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

    # the head after the chain, so that a malformed step is named first
    check("kind", data.get("kind") == "vanishing-certificate", "wrong kind")
    check("weight", _int(data, "weight") == weight, "wrong weight")
    check("truncation", _int(data, "truncation") == bound, "wrong truncation bound")
    check("target", _int(data, "target_z_pow") == target, "wrong target power")
    check("verified_flag", data.get("verified") is True, "producer did not verify")
    check("no_failures", data.get("failures") == [], "producer recorded failures")
    if steps:  # j and prev_fdeg are the last step's index and phi degree
        check(
            "termination_rule",
            prev_fdeg >= bound,
            "final remainder is below the truncation bound",
        )
        record = (term.get("reason"), _int(term, "step"), _int(term, "fdeg"))
        check(
            "termination_record",
            record == ("HIGH_FILTRATION", j, prev_fdeg),
            "termination record does not match the chain",
        )


MAX_TAIL = 3  # the most tail terms of a drawn unit series
Units = list[list[tuple[int, int]]]  # units[j]: lambda_j's (offset, lam) terms


def _draw_units(p: int, n: int, rng: random.Random) -> Units:
    """The (offset, lam) terms of lambda_0, ..., lambda_(n-1), drawn from rng.

    Per level: a constant in [1, p), a tail length in [0, MAX_TAIL], then per
    tail term an offset in [1, max(bound // n, 2)) and a coefficient in
    [0, p), kept only if nonzero.  Each value in [a, a + m) is a plus the
    first rng.getrandbits(m.bit_length()) below m, as CPython's randrange
    draws it, so rng ends where randrange leaves it.  Needs p >= 2 and n >= 2,
    which sample_certificate checks first: getrandbits(0) never ends a draw.
    """
    getrandbits = rng.getrandbits
    bound = n * (p ** (n - 1) - p ** (n - 2))
    m_const, k_const = p - 1, (p - 1).bit_length()
    m_len, k_len = MAX_TAIL + 1, (MAX_TAIL + 1).bit_length()
    m_off = max(bound // n, 2) - 1
    k_off, k_coef = m_off.bit_length(), p.bit_length()
    units = []
    for _ in range(n):
        r = getrandbits(k_const)
        while r >= m_const:
            r = getrandbits(k_const)
        series = [(0, 1 + r)]
        length = getrandbits(k_len)
        while length >= m_len:
            length = getrandbits(k_len)
        for _ in range(length):
            offset = getrandbits(k_off)
            while offset >= m_off:
                offset = getrandbits(k_off)
            lam = getrandbits(k_coef)
            while lam >= p:
                lam = getrandbits(k_coef)
            if lam:
                series.append((1 + offset, lam))
        units.append(series)
    return units


def _greedy_membership(p: int, n: int, units: Units) -> tuple[bool, int]:
    """(whether the target is hit, the number of terms cleared), for the
    system instantiated with units.

    State: the residual terms of one level j, as {z power a: coefficient}
    in F_p, all of filtration degree a + n*p^j < n * weight.  The unique
    column leading at a level-j term is the Nygaard element at s = a - floor
    with floor = weight - p^j; subtracting it trades the term for the
    level-(j+1) terms of its phi image, at z powers p*s + offset for the
    (offset, lam) of units[j].  Once level j is cleared, each level-(j+1)
    coefficient is final, so the peel clears one level at a time, counting
    each live term once; a term below its level's floor has no column and
    fails it.  No image is formed for an empty level or for level n - 1.
    """
    weight = p ** (n - 1) - p ** (n - 2)
    bound = n * weight
    # the target z^(p^(n-1) - n) f_0 at level 0, if not zero mod truncation
    level = {p ** (n - 1) - n: 1} if p ** (n - 1) < bound else {}
    ok, clears, pj = True, 0, 1  # pj = p^j
    for j in range(n):
        floor, pj = weight - pj, pj * p
        if level and min(level) < floor:
            ok, level = False, {}  # no column leads at this position
        clears += len(level)
        if not level or j == n - 1:
            continue
        series = units[j]
        limit = bound - n * pj  # the level-(j+1) truncation
        image: dict[int, int] = {}
        get = image.get
        for a, coef in level.items():
            base = p * (a - floor)
            for offset, lam in series:
                pos = base + offset
                if pos < limit:
                    c = (get(pos, 0) + coef * lam) % p
                    if c:
                        image[pos] = c
                    else:
                        image.pop(pos, None)
        level = image
    return (ok, clears)


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


def _dense_membership(p: int, n: int, units: Units) -> bool:
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


class SampleReport(NamedTuple):
    passes: int
    total: int
    cross_checked: bool

    @property
    def ok(self) -> bool:
        return self.passes == self.total

    def __bool__(self) -> bool:
        return self.ok


def sample_certificate(data: dict, samples: int = 100, seed: int = 0) -> SampleReport:
    """Sample the certified identity: each sample draws the units of every
    level from one Random(seed) and peels them, and the first five samples
    of a truncation bound <= 24 are cross-checked by dense elimination on the
    same units.  ValueError is raised before any draw unless there is at
    least one sample, p is prime and n >= 2: else all would pass vacuously.
    A p or n that is not an int (a bool, float or string) raises TypeError."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    p, n = _int(data, "p"), _int(data, "n")
    if not _is_prime(p):
        raise ValueError(f"p={p} is not a prime below 2^64")
    if n < 2:
        raise ValueError(f"n={n} < 2")
    bound = n * (p ** (n - 1) - p ** (n - 2))
    rng = random.Random(seed)
    passes, crossed = 0, False
    for trial in range(samples):
        units = _draw_units(p, n, rng)
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
