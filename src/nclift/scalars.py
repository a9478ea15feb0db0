"""The prime modulus p, and the boundary where values become residues.

A residue in Z_p is a plain int in 0..p-1; every kernel in the package
holds them that way.  The default modulus is the common 30-bit prime
1000000007.  Any prime works; small primes such as 7 are useful for
exercising coefficient wraparound.  Primality is verified once per
modulus and cached.
"""

from __future__ import annotations

import operator

DEFAULT_MODULUS = 1_000_000_007

# These witnesses make Miller-Rabin deterministic for every modulus
# below 3.3 * 10**24, far beyond anything this package handles.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_verified_moduli: set[int] = set()


def is_prime(p: int) -> bool:
    """Exact primality test: trial division below 2**31, Miller-Rabin above."""
    if p < 2:
        return False
    if p < 2**31:
        if p % 2 == 0:
            return p == 2
        f = 3
        while f * f <= p:
            if p % f == 0:
                return False
            f += 2
        return True
    d, r = p - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def require_prime_modulus(p: int) -> int:
    """Return p after checking (once) that it is prime.

    p must be an int: a float equal to a checked prime is refused too.
    """
    if not isinstance(p, int):
        raise ValueError(f"modulus {p!r} is not an int")
    if p not in _verified_moduli:
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        _verified_moduli.add(p)
    return p


def residue(a, p: int) -> int:
    """The int a reduced mod p: 0 <= result < p.

    Every value a caller hands in as a coefficient, constant or point
    coordinate becomes a residue here; a float, str or other non-integer
    is a TypeError rather than a value silently truncated or kept.
    """
    return operator.index(a) % p


def assigned_residue(assignment, index: int, p: int,
                     label: str = "variable x") -> int:
    """residue(assignment[index], p) for a sequence or map; a missing
    entry is a ValueError naming `<label><index>`."""
    try:
        a = assignment[index]
    except (KeyError, IndexError) as exc:
        raise ValueError(f"{label}{index} has no assigned value") from exc
    return residue(a, p)
