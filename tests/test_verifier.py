import random

import pytest
from conftest import reference_greedy_membership, reference_instantiate_units

from syntomic.verifier import (
    SampleReport,
    _dense_membership,
    _draw_units,
    _greedy_membership,
    sample_certificate,
    verify_certificate,
)
from syntomic.zpn import certify_vanishing


def test_sample_report_semantics():
    assert SampleReport(passes=5, total=5, cross_checked=False).ok
    assert not SampleReport(passes=4, total=5, cross_checked=True)


def _nonzero_terms(units):
    """units with every zero-coefficient term left out, as _draw_units draws
    them: a term with coefficient 0 does not change the series."""
    return [[term for term in series if term[1]] for series in units]


def test_instantiated_units_have_nonzero_constants():
    units = _draw_units(5, 3, random.Random(3))
    assert len(units) == 3
    for series in units:
        assert series[0][0] == 0 and 1 <= series[0][1] < 5
        assert all(off > 0 and 1 <= lam < 5 for off, lam in series[1:])


@pytest.mark.parametrize("max_tail", [0, 3, 12])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_unit_draws_are_the_randrange_draws(p, max_tail, monkeypatch):
    # the getrandbits rejection draws must reproduce randrange exactly, so
    # that a past certify --seed samples the same instantiations
    monkeypatch.setattr("syntomic.verifier.MAX_TAIL", max_tail)
    for n in range(2, 9):
        bound = n * (p ** (n - 1) - p ** (n - 2))
        seed = 1000 * p + 10 * n + max_tail
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(20):
            units = _draw_units(p, n, rng)
            want = reference_instantiate_units(p, n, bound, ref, max_tail)
            assert units == _nonzero_terms(want)
        assert rng.getstate() == ref.getstate(), (p, n, max_tail)


@pytest.mark.parametrize("p,n", [(2, 3), (2, 4), (3, 2), (3, 3), (5, 2)])
def test_greedy_matches_dense_on_small_truncations(p, n, monkeypatch):
    bound = n * (p ** (n - 1) - p ** (n - 2))
    assert bound <= 24  # dense elimination is affordable here
    rng = random.Random(100 * p + n)
    for max_tail in (3, 12):
        monkeypatch.setattr("syntomic.verifier.MAX_TAIL", max_tail)
        for _ in range(30):
            units = _draw_units(p, n, rng)
            ok, _ = _greedy_membership(p, n, units)
            assert len(units) == n
            assert ok == _dense_membership(p, n, units), (max_tail, units)
            assert ok  # membership certified, so every instantiation passes


def test_greedy_constructs_clearing_sequences():
    ok, clears = _greedy_membership(3, 3, _draw_units(3, 3, random.Random(7)))
    assert ok and clears >= 1


def test_degenerate_case_is_vacuously_members():
    # (2, 2): the target already sits at the truncation bound, and both
    # levels are still drawn
    rng, ref = random.Random(0), random.Random(0)
    units = _draw_units(2, 2, rng)
    assert _greedy_membership(2, 2, units) == (True, 0)
    assert units == _nonzero_terms(reference_instantiate_units(2, 2, 2, ref))
    assert rng.getstate() == ref.getstate() != random.Random(0).getstate()
    assert _dense_membership(2, 2, units)


@pytest.mark.parametrize("max_tail", [3, 12])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_peel_matches_the_reference_scan(p, max_tail, monkeypatch):
    # every n whose truncation bound is at most about 3000: up to n = 10
    # at p = 2 (bound 2560), 7 at p = 3 (3402), 5 at p = 5, 4 at p = 7;
    # past bound 1000 the reference scan is slow, so fewer draws there.  The
    # reference scans the reference draws, zero-coefficient terms included.
    monkeypatch.setattr("syntomic.verifier.MAX_TAIL", max_tail)
    rng, ref = random.Random(1000 * p + max_tail), random.Random(1000 * p + max_tail)
    n = 2
    while n * (p ** (n - 1) - p ** (n - 2)) <= 3500:
        bound = n * (p ** (n - 1) - p ** (n - 2))
        for _ in range(25 if bound <= 1000 else 3):
            units = _draw_units(p, n, rng)
            got = _greedy_membership(p, n, units)
            want = reference_instantiate_units(p, n, bound, ref, max_tail)
            assert units == _nonzero_terms(want)
            assert got == reference_greedy_membership(p, n, want), (n, want)
        n += 1
    assert n > 4


@pytest.mark.parametrize("p,n", [(2, 10), (3, 8)])
def test_heap_peel_matches_the_reference_at_benchmark_sizes(p, n):
    # the certify sizes of the zpn-large benchmark (bounds 2560 and 11664);
    # the draws and the peel are compared together, sample by sample.  The
    # peel is level by level now; the name is kept from the heap-ordered peel
    # it replaced, so this check keeps its id across that change.  At (2, 10)
    # levels 8 and 9 are empty in every sample, so the generator state shows
    # whether the levels the peel never reads are still drawn.
    bound = n * (p ** (n - 1) - p ** (n - 2))
    rng, ref = random.Random(5), random.Random(5)
    got = [_greedy_membership(p, n, _draw_units(p, n, rng)) for _ in range(20)]
    want = [
        reference_greedy_membership(p, n, reference_instantiate_units(p, n, bound, ref))
        for _ in range(20)
    ]
    assert got == want
    assert all(ok and clears for ok, clears in got)
    assert rng.getstate() == ref.getstate()


# Hand-built maps, not instantiations, keyed by level (the peel reads only
# units[j]): negative offsets put phi images below their source, outside
# the instantiation model.  In READDED the level-1 terms at z powers 32
# and 34 both reach the level-2 term at z power 16.  The reference clears terms in lowest-degree order, so it
# clears that term before the later contribution arrives, has it re-added
# and clears it again: 11 clears.  The level-by-level peel sums both
# contributions first, they cancel, and the term is never cleared: 9
# clears, with the same verdict.  In UNREACHABLE an offset of -30 puts a
# level-1 term below every level-1 column, so the peel fails after one
# clear.  In LAST_LEVEL (p = 3, n = 3) the offset -10 sends the level-1
# term to z power -10 at level 2 = n - 1, below that level's floor
# weight - p^2 = -3, so only the last level's floor check can fail it.  In
# CANCELLED each level-1 term's phi image is twice the same term, which
# cancels mod 2, so level 2 empties three levels before level n - 1.
READDED = {
    0: [(10, 1), (12, 1)],
    1: [(-24, 1), (-20, 1)],
    2: [(8, 1), (8, 1), (8, 1), (9, 1)],
    3: [(0, 1)],
    4: [(0, 1)],
    5: [(0, 1)],
}
UNREACHABLE = {0: [(-30, 1), (0, 1)], 1: [(0, 1)], 2: [(0, 1)], 3: [(0, 1)]}
LAST_LEVEL = {0: [(0, 1)], 1: [(0, 1), (-10, 1)], 2: [(0, 1)]}
CANCELLED = {
    0: [(0, 1), (2, 1)],
    1: [(3, 1), (3, 1)],
    2: [(0, 1)],
    3: [(0, 1)],
    4: [(0, 1)],
    5: [(0, 1)],
}


@pytest.mark.parametrize(
    "p,n,units,reference,peel",
    [
        (2, 6, READDED, (True, 11), (True, 9)),
        (2, 4, UNREACHABLE, (False, 1), (False, 1)),
        (3, 3, LAST_LEVEL, (False, 2), (False, 2)),
        (2, 6, CANCELLED, (True, 3), (True, 3)),
    ],
    ids=["readded", "unreachable", "last_level", "cancelled"],
)
def test_peel_against_the_reference_on_hand_built_maps(p, n, units, reference, peel):
    assert reference_greedy_membership(p, n, units) == reference
    assert _greedy_membership(p, n, units) == peel


@pytest.mark.parametrize("samples", [0, -4])
def test_sampling_needs_at_least_one_sample(samples):
    data = certify_vanishing(3, 3).to_dict()
    with pytest.raises(ValueError, match="at least 1"):
        sample_certificate(data, samples=samples)


@pytest.mark.parametrize(
    "data",
    [
        {"p": 2, "n": 1},
        {"p": 2, "n": 0},
        {"p": 4, "n": 3},
        {"p": 9, "n": 4},
        {"p": 1, "n": 3},
    ],
    ids=["n1", "n0", "p4", "p9", "p1"],
)
def test_sampling_refuses_a_vacuous_input(data):
    # a p that is not prime or n < 2 has no chain to sample, so every
    # sample would pass vacuously; nothing may be drawn for it
    with pytest.raises(ValueError, match="not a prime|< 2"):
        sample_certificate(data, samples=5)


def test_sampling_cross_check_flag_follows_bound():
    small = sample_certificate(certify_vanishing(2, 3).to_dict(), samples=20, seed=1)
    assert small.ok and small.cross_checked
    big = sample_certificate(certify_vanishing(5, 3).to_dict(), samples=10, seed=1)
    assert big.ok and not big.cross_checked


def test_sampler_counts_each_failed_sample(seventh_peel_fails):
    # (2, 4) has bound 16, so samples 1-5 are cross-checked and the failed
    # seventh reaches only the pass count
    report = sample_certificate(certify_vanishing(2, 4).to_dict(), samples=10, seed=3)
    assert seventh_peel_fails == [True] * 10
    assert report == SampleReport(passes=9, total=10, cross_checked=True)


def test_sampling_is_seed_deterministic():
    data = certify_vanishing(2, 4).to_dict()
    a = sample_certificate(data, samples=15, seed=9)
    b = sample_certificate(data, samples=15, seed=9)
    assert a == b


def test_verifier_report_is_detailed():
    report = verify_certificate(certify_vanishing(2, 5).to_dict())
    names = [name for name, _ in report.checks]
    assert "p_prime" in names and "target_link" in names
    assert "termination_rule" in names
    assert all(ok for _, ok in report.checks)
    assert bool(report)


@pytest.mark.parametrize(
    "steps,missing",
    [([{}], "'j'"), ([{"j": 0}], "'element'"), ([7], "not subscriptable")],
)
def test_malformed_step_is_a_failed_report(steps, missing):
    data = {"p": 2, "n": 3, "steps": steps, "termination": {}}
    report = verify_certificate(data)
    assert not report.ok
    assert report.errors[-1].startswith("malformed certificate:")
    assert missing in report.errors[-1]


def _set(path, value):
    """Set the field at path (keys and list indices) of a certificate dict."""

    def mutate(data):
        for key in path[:-1]:
            data = data[key]
        data[path[-1]] = value

    return mutate


@pytest.mark.parametrize(
    "mutate, error",
    [
        (_set(["p"], "3"), "malformed certificate: 'p' is not an int: '3'"),
        (_set(["p"], 3.0), "malformed certificate: 'p' is not an int: 3.0"),
        (_set(["n"], "4"), "malformed certificate: 'n' is not an int: '4'"),
        (_set(["weight"], 18.0), "malformed certificate: 'weight' is not an int: 18.0"),
        (
            _set(["steps", 0, "fdeg_can"], 27.0),
            "malformed certificate: 'fdeg_can' is not an int: 27.0",
        ),
        (
            _set(["steps", 0, "element", "z_pow"], 6.0),
            "malformed certificate: 'z_pow' is not an int: 6.0",
        ),
        (_set(["failures"], ["step 0 filtration degree mismatch"]),
         "producer recorded failures"),
        (_set(["kind"], "vanishing-certificate-v2"), "wrong kind"),
    ],
    ids=[
        "p-str", "p-float", "n-str", "weight-float", "fdeg-float", "zpow-float",
        "failures", "kind",
    ],
)
def test_a_mistyped_or_inconsistent_certificate_is_a_failed_report(mutate, error):
    # each of these equals the producer's certificate as a number or reads
    # as verified, and each must still be refused
    data = certify_vanishing(3, 4).to_dict()
    assert verify_certificate(data).ok
    mutate(data)
    report = verify_certificate(data)
    assert not report.ok
    assert report.errors == (error,)


@pytest.mark.parametrize("field, value", [("p", "3"), ("p", 3.0), ("n", "4")])
def test_sampling_reads_p_and_n_as_ints(field, value):
    data = certify_vanishing(3, 4).to_dict()
    data[field] = value
    with pytest.raises(TypeError, match=f"^'{field}' is not an int: "):
        sample_certificate(data, samples=1)


def test_malformed_termination_is_a_failed_report():
    data = certify_vanishing(2, 5).to_dict()
    data["termination"] = None
    report = verify_certificate(data)
    assert not report.ok
    assert report.errors == (
        "malformed certificate: 'NoneType' object has no attribute 'get'",
    )
