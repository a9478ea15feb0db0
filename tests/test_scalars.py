import pytest

from nclift import DEFAULT_MODULUS, is_prime, require_prime_modulus
from nclift.scalars import residue


def test_residue_reduces_ints_and_refuses_the_rest():
    p = 7
    assert [residue(a, p) for a in (-1, 0, 6, 15, True)] == [6, 0, 6, 1, 1]
    big = -(10 ** 30)
    assert residue(big, DEFAULT_MODULUS) == big % DEFAULT_MODULUS
    for bad in (1.0, 2.5, "3", None):
        with pytest.raises(TypeError):
            residue(bad, p)


def test_nonprime_modulus_rejected():
    for bad in (0, 1, 4, 6, 561, 2**35 + 1):
        with pytest.raises(ValueError):
            require_prime_modulus(bad)
    assert require_prime_modulus(2) == 2
    assert require_prime_modulus(DEFAULT_MODULUS) == DEFAULT_MODULUS
    # A float equal to a prime already checked is still not a modulus.
    require_prime_modulus(7)
    for bad in (7.0, "7"):
        with pytest.raises(ValueError, match="is not an int$"):
            require_prime_modulus(bad)


def test_is_prime_both_branches():
    # Trial division branch.
    assert is_prime(2)
    assert is_prime(2**31 - 1)
    assert not is_prime(561)          # Carmichael number
    assert not is_prime(2**30 + 1)
    # Deterministic Miller-Rabin branch.
    assert is_prime(2**61 - 1)
    assert is_prime(10**18 + 9)
    assert not is_prime(2**35 + 1)
    assert not is_prime((2**31 - 1) * (2**31 + 11))
