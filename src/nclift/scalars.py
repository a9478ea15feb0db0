"""Exact residue arithmetic in a prime field Z_p.

The default modulus is the common 30-bit prime 1000000007.  Any prime
works; small primes such as 7 are useful for exercising coefficient
wraparound.  Primality is verified once per modulus and cached.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Return p after checking (once) that it is prime."""
    if p not in _verified_moduli:
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        _verified_moduli.add(p)
    return p


@dataclass(frozen=True)
class Scalar:
    """A residue in Z_p.  Stored reduced: 0 <= value < modulus."""

    value: int
    modulus: int

    def __post_init__(self) -> None:
        require_prime_modulus(self.modulus)
        object.__setattr__(self, "value", self.value % self.modulus)

    @classmethod
    def zero(cls, modulus: int) -> "Scalar":
        return cls(0, modulus)

    @classmethod
    def one(cls, modulus: int) -> "Scalar":
        return cls(1, modulus)

    def _coerce(self, other) -> int:
        if isinstance(other, Scalar):
            if other.modulus != self.modulus:
                raise ValueError(
                    f"modulus mismatch: {self.modulus} vs {other.modulus}")
            return other.value
        if isinstance(other, int):
            return other
        return NotImplemented

    def __add__(self, other) -> "Scalar":
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Scalar(self.value + v, self.modulus)

    __radd__ = __add__

    def __sub__(self, other) -> "Scalar":
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Scalar(self.value - v, self.modulus)

    def __rsub__(self, other) -> "Scalar":
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Scalar(v - self.value, self.modulus)

    def __neg__(self) -> "Scalar":
        return Scalar(-self.value, self.modulus)

    def __mul__(self, other) -> "Scalar":
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Scalar(self.value * v, self.modulus)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Scalar":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return Scalar(pow(self.value, exponent, self.modulus), self.modulus)

    def inverse(self) -> "Scalar":
        if self.value == 0:
            raise ZeroDivisionError("0 has no inverse")
        # Fermat: p is prime, so a**(p-2) inverts a.
        return Scalar(pow(self.value, self.modulus - 2, self.modulus),
                      self.modulus)

    def __truediv__(self, other) -> "Scalar":
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return self * Scalar(v, self.modulus).inverse()

    def is_zero(self) -> bool:
        return self.value == 0

    def __str__(self) -> str:
        return str(self.value)


def residue(a, p: int) -> int:
    """An int or Scalar reduced mod p; a Scalar of another modulus is a
    ValueError."""
    if isinstance(a, Scalar):
        if a.modulus != p:
            raise ValueError(f"modulus mismatch: {p} vs {a.modulus}")
        a = a.value
    return a % p


def assigned_residue(assignment, index: int, p: int,
                     label: str = "variable x") -> int:
    """residue(assignment[index], p) for a sequence or map; a missing
    entry is a ValueError naming `<label><index>`."""
    try:
        a = assignment[index]
    except (KeyError, IndexError) as exc:
        raise ValueError(f"{label}{index} has no assigned value") from exc
    return residue(a, p)
