import copy
from dataclasses import replace

import pytest

from syntomic import zpn
from syntomic.arith import Monomial
from syntomic.zpn import (
    MAX_BOTT_TOWER,
    bott_tower_size,
    certify_vanishing,
    nygaard_truncation_bound,
    telescoping_step,
)

CERT_GRID = [(p, n) for p in (2, 3, 5) for n in range(2, 7)]

# chain lengths, frozen from the termination rule: stop at the first
# remainder whose filtration degree p^(n-1) + (j+1) p^(j+1) reaches n * weight
EXPECTED_STEPS = {
    (2, 2): 1, (2, 3): 1, (2, 4): 2, (2, 5): 3, (2, 6): 4,
    (3, 2): 1, (3, 3): 2, (3, 4): 3, (3, 5): 4, (3, 6): 5,
    (5, 2): 1, (5, 3): 2, (5, 4): 3, (5, 5): 4, (5, 6): 5,
}


def test_truncation_bound():
    assert nygaard_truncation_bound(3, 6) == 18
    assert nygaard_truncation_bound(2, 2) == 4


# ---------------------------------------------------------------- steps


def test_single_step_exponents():
    w = telescoping_step(3, 3, 0)
    i = 3**2 - 3**1  # weight 6
    assert w.element.e_pow == i - 1 and w.element.z_pow == 3 - 2
    assert w.can_image.z_pow == i - 1 + 1 and w.can_image.f_exp == ((0, 1),)
    assert w.phi_image.z_pow == 3 * 1 and w.phi_image.f_exp == ((1, 1),)
    assert w.phi_unit == "lambda_0"
    assert w.fdeg_can == 6 + 3 and w.fdeg_phi == 3 + 9


def test_step_rejects_out_of_range():
    with pytest.raises(ValueError):
        telescoping_step(3, 3, 2)
    with pytest.raises(ValueError):
        telescoping_step(3, 3, -1)
    with pytest.raises(ValueError):
        telescoping_step(3, 1, 0)


def test_step_z_powers_are_never_negative():
    # s_j = p^(n-2) - (n-1-j) p^j stays >= 0 across every valid chain index
    for p in (2, 3, 5):
        for n in range(2, 7):
            for j in range(n - 1):
                w = telescoping_step(p, n, j)
                assert w.element.z_pow >= 0
    assert telescoping_step(2, 6, 2).element.z_pow == 4  # 16 - 3*4


# ----------------------------------------------------------- certificates


@pytest.mark.parametrize("p,n", CERT_GRID)
def test_certificates_verify_with_expected_chain_length(p, n):
    cert = certify_vanishing(p, n)
    assert cert.verified, cert.failures
    assert cert.failures == ()
    assert len(cert.steps) == EXPECTED_STEPS[(p, n)]
    i = p ** (n - 1) - p ** (n - 2)
    assert cert.weight == i
    assert cert.truncation == n * i
    assert cert.target_z_pow == p ** (n - 1)
    assert cert.termination_reason == "HIGH_FILTRATION"
    assert cert.termination_fdeg >= cert.truncation
    # filtration strictly ascends within each step, and consecutive steps
    # meet at the same degree: the next can image is the previous remainder
    for w in cert.steps:
        assert w.fdeg_can < w.fdeg_phi
    for a, b in zip(cert.steps, cert.steps[1:]):
        assert b.fdeg_can == a.fdeg_phi
    phis = [w.fdeg_phi for w in cert.steps]
    assert phis == sorted(phis) and len(set(phis)) == len(phis)


def test_certificate_chain_links():
    cert = certify_vanishing(3, 4)
    assert cert.steps[0].can_image.z_pow + 4 == cert.target_z_pow
    for a, b in zip(cert.steps, cert.steps[1:]):
        assert b.can_image.z_pow == a.phi_image.z_pow
        assert b.can_image.f_exp == a.phi_image.f_exp


def test_certify_rejects_bad_input():
    with pytest.raises(ValueError):
        certify_vanishing(3, 1)
    with pytest.raises(ValueError):
        certify_vanishing(6, 2)


def test_certificate_serialization_round_trip():
    cert = certify_vanishing(2, 4)
    data = cert.to_dict()
    assert data["kind"] == "vanishing-certificate"
    assert data["p"] == 2 and data["n"] == 4
    assert len(data["steps"]) == len(cert.steps)
    assert data["termination"]["reason"] == "HIGH_FILTRATION"
    step = data["steps"][0]
    assert set(step) == {
        "j", "element", "can_image", "phi_image", "phi_unit",
        "fdeg_can", "fdeg_phi",
    }


def test_degenerate_smallest_case():
    # (2, 2): the target degree equals the truncation bound; the chain is
    # formally degenerate but still records one verified step
    cert = certify_vanishing(2, 2)
    assert cert.verified
    assert cert.target_z_pow == cert.truncation == 2
    assert len(cert.steps) == 1


# The (3, 4) chain: can images z^23 f0, z^18 f1, z^9 f2 at degrees 27, 30,
# 45; phi images z^18 f1, z^9 f2, f3 at degrees 30, 45, 108; truncation 72.
# Each case corrupts fields of steps and names every check it trips.
@pytest.mark.parametrize(
    "corrupt, failures",
    [
        # the ascent check (id kept from the side condition it replaced):
        # step 1 falls back to z^6 f1 (degree 18 < 30) and step 2 picks the
        # chain up there, so every link and degree route holds
        ({1: {"phi_image": Monomial(z_pow=6, f_exp=((1, 1),)),
              "fdeg_phi": 18},
          2: {"can_image": Monomial(z_pow=6, f_exp=((1, 1),)),
              "fdeg_can": 18}},
         ("step 1: filtration does not strictly ascend",)),
        # z^15 f1 has the degree of z^23 f0 but is not the target rewrite
        ({0: {"can_image": Monomial(z_pow=15, f_exp=((1, 1),))}},
         ("target does not match the step-0 can image",)),
        ({1: {"can_image": Monomial(z_pow=26, f_exp=((0, 1),))}},
         ("chain link broken between steps 0 and 1",)),
        # a non-ascending or out-of-window degree breaks the second route
        ({1: {"fdeg_phi": 30}},
         ("step 1 filtration degree mismatch",
          "step 1: filtration does not strictly ascend")),
        ({1: {"fdeg_can": 72}},
         ("step 1 filtration degree mismatch",
          "step 1: filtration does not strictly ascend")),
        ({1: {"fdeg_can": 31}}, ("step 1 filtration degree mismatch",)),
        ({2: {"fdeg_phi": 71}},
         ("step 2 filtration degree mismatch",
          "final remainder is below the truncation bound")),
    ],
    ids=["side", "target", "link", "ascent", "window", "degree", "final"],
)
def test_every_producer_check_can_fail(corrupt, failures, monkeypatch):
    honest = zpn.telescoping_step

    def corrupted(p, n, k):
        return replace(honest(p, n, k), **corrupt.get(k, {}))

    monkeypatch.setattr(zpn, "telescoping_step", corrupted)
    cert = certify_vanishing(3, 4)
    assert cert.verified is False
    assert cert.failures == failures


# ----------------------------------------------------------- bott tower


def test_bott_tower_limit_sits_between_n_14_and_15_at_p_2():
    assert MAX_BOTT_TOWER == 4096
    assert bott_tower_size(2, 14) == 4096
    with pytest.raises(ValueError, match="Bott tower limit 4096"):
        bott_tower_size(2, 15)


@pytest.mark.parametrize("p,n", [(3, 10), (5, 8), (2, 10**9), (7, 10**12)])
def test_oversized_bott_tower_is_refused_at_once(p, n):
    # 2^(10^9) would not fit in memory: the refusal must come before the
    # power is formed
    with pytest.raises(ValueError, match="exceeds the Bott tower limit"):
        bott_tower_size(p, n)


# --------------------------------------------------- verifier interplay


def test_verifier_accepts_grid():
    from syntomic.verifier import verify_certificate

    for p, n in CERT_GRID:
        report = verify_certificate(certify_vanishing(p, n).to_dict())
        assert report.ok, (p, n, report.errors)
        assert report.errors == ()


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda d: d["steps"][0]["element"].__setitem__("z_pow",
            d["steps"][0]["element"]["z_pow"] + 1), "element"),
        (lambda d: d.__setitem__("truncation", d["truncation"] + 1), "truncation"),
        (lambda d: d.__setitem__("verified", False), "verify"),
        (lambda d: d["steps"][0].__setitem__("phi_unit", "lambda_9"), "unit"),
        (lambda d: d.__setitem__("target_z_pow", 1), "target"),
        (lambda d: d["termination"].__setitem__("step", 99), "termination"),
        (lambda d: d["steps"].append(copy.deepcopy(d["steps"][-1])), ""),
        (lambda d: d.__setitem__("steps", []), ""),
    ],
)
def test_verifier_rejects_tampered_certificates(mutate, fragment):
    from syntomic.verifier import verify_certificate

    data = certify_vanishing(3, 3).to_dict()
    assert verify_certificate(data).ok
    mutate(data)
    report = verify_certificate(data)
    assert not report.ok
    if fragment:
        assert any(fragment in e for e in report.errors), report.errors


def test_verifier_rejects_malformed_and_composite():
    from syntomic.verifier import verify_certificate

    assert not verify_certificate({}).ok
    assert not verify_certificate({"p": 3, "n": 3}).ok
    data = certify_vanishing(3, 3).to_dict()
    data["p"] = 9
    assert not verify_certificate(data).ok
