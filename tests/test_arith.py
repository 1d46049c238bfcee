import pytest

from syntomic.arith import (
    Monomial,
    f_degree,
    is_prime,
    mono_str,
    require_prime,
)
from syntomic.verifier import _is_prime as verifier_is_prime


def test_is_prime_small_values():
    primes = [n for n in range(30) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def _sieve(limit: int) -> list[bool]:
    flags = [False, False] + [True] * (limit - 2)
    for d in range(2, int(limit**0.5) + 1):
        if flags[d]:
            flags[d * d :: d] = [False] * len(flags[d * d :: d])
    return flags


# 3825123056546413051 is a strong pseudoprime to every prime base up to 31;
# only base 37 exposes it
@pytest.mark.parametrize("prime_test", [is_prime, verifier_is_prime])
def test_primality_is_exact(prime_test):
    flags = _sieve(10**5)
    assert [p for p in range(10**5) if prime_test(p)] == [
        p for p in range(10**5) if flags[p]
    ]
    assert not prime_test(3825123056546413051)
    assert prime_test(2**61 - 1)
    assert prime_test(2**64 - 59)  # the largest prime below 2^64
    assert not prime_test(2**64 - 57)


def test_primality_refuses_p_from_two_to_the_sixty_four():
    for p in (2**64, 2**64 + 13, 2**89 - 1):
        with pytest.raises(ValueError, match="primality limit 2\\^64"):
            is_prime(p)
        assert not verifier_is_prime(p)


def test_require_prime_rejects_non_primes():
    require_prime(2**61 - 1)
    for p in (9, 1, 0, -3):
        with pytest.raises(ValueError, match=f"p={p} is not prime"):
            require_prime(p)


def test_monomial_validation():
    with pytest.raises(ValueError):
        Monomial(e_pow=-1)
    with pytest.raises(ValueError):
        Monomial(z_pow=-2)
    with pytest.raises(ValueError):
        Monomial(f_exp=((1, 1), (0, 1)))  # unsorted
    with pytest.raises(ValueError):
        Monomial(f_exp=((0, 0),))  # zero exponent


def test_f_degree_and_valuation():
    m = Monomial(e_pow=2, z_pow=1, f_exp=((0, 1), (2, 1)), nabla=True, twist=5)
    # 2 + 1 + 1 + 3*1 + 3*4
    assert f_degree(m, 2, 3) == 19
    assert f_degree(Monomial(), 2, 3) == 0
    # f_u alone weighs n p^u
    assert [f_degree(Monomial(f_exp=((u, 1),)), 3, 4) for u in range(4)] == [
        4, 12, 36, 108
    ]


def test_mono_str():
    assert mono_str(Monomial()) == "1"
    assert mono_str(Monomial(e_pow=1, z_pow=1)) == "E*z"
    m = Monomial(e_pow=2, z_pow=1, f_exp=((0, 2),), nabla=True, twist=3)
    assert mono_str(m) == "E^2*z*f0^2*Dz*t^-3"
    assert mono_str(Monomial(z_pow=4, twist=2)) == "z^4*t^-2"
