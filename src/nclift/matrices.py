"""Dense square matrices over an exact ring.

Entries are Scalar residues or NCPolynomial values; anything with
__add__, __mul__, and is_zero() works.  Multiplication is the naive
cubic product (exponent 3 everywhere; no fast matrix multiplication),
skipping structurally zero left entries.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from .polynomials import NCPolynomial


class SquareMatrix:
    __slots__ = ("dim", "rows")

    def __init__(self, rows: Sequence[Sequence]):
        dim = len(rows)
        rows = tuple(tuple(row) for row in rows)
        for row in rows:
            if len(row) != dim:
                raise ValueError(f"matrix is not square: {dim} rows, "
                                 f"row of length {len(row)}")
        self.dim = dim
        self.rows = rows

    @classmethod
    def filled(cls, dim: int, build: Callable[[int, int], object]) -> "SquareMatrix":
        return cls([[build(i, j) for j in range(dim)] for i in range(dim)])

    @classmethod
    def zeros(cls, dim: int, zero) -> "SquareMatrix":
        return cls.filled(dim, lambda i, j: zero)

    @classmethod
    def identity(cls, dim: int, one, zero) -> "SquareMatrix":
        return cls.filled(dim, lambda i, j: one if i == j else zero)

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def map_entries(self, fn: Callable) -> "SquareMatrix":
        return SquareMatrix([[fn(e) for e in row] for row in self.rows])

    def _check_dim(self, other: "SquareMatrix") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other: "SquareMatrix") -> "SquareMatrix":
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        self._check_dim(other)
        return SquareMatrix([[a + b for a, b in zip(ra, rb)]
                             for ra, rb in zip(self.rows, other.rows)])

    def __mul__(self, other: "SquareMatrix") -> "SquareMatrix":
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        self._check_dim(other)
        n = self.dim
        out = []
        for i in range(n):
            arow = self.rows[i]
            orow: list = [None] * n
            for j in range(n):
                acc = None
                for k in range(n):
                    a = arow[k]
                    if a.is_zero():
                        continue
                    term = a * other.rows[k][j]
                    acc = term if acc is None else acc + term
                if acc is None:
                    # Row had no nonzero entries; fall back to 0 * anything.
                    acc = arow[0] * other.rows[0][j]
                    if not acc.is_zero():  # pragma: no cover - defensive
                        raise AssertionError("zero row produced nonzero")
                orow[j] = acc
            out.append(orow)
        return SquareMatrix(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        return self.dim == other.dim and self.rows == other.rows

    __hash__ = None

    def __repr__(self) -> str:
        return f"SquareMatrix(dim={self.dim})"


def matrix_value_of_poly(f: NCPolynomial, mats: Mapping[int, SquareMatrix],
                         dim: int, one, zero) -> SquareMatrix:
    """Evaluate a polynomial at square matrices, word by word in order.

    Each word contributes coeff * M_{w_1} * ... * M_{w_k}; the empty word
    contributes coeff * I.  Serves as the order-respecting oracle that
    circuit evaluation is tested against.
    """
    acc = SquareMatrix.zeros(dim, zero)
    for word in sorted(f.terms):
        prod = SquareMatrix.identity(dim, one, zero)
        for letter in word:
            if letter not in mats:
                raise ValueError(f"no matrix assigned to x{letter}")
            prod = prod * mats[letter]
        c = f.terms[word]
        acc = acc + prod.map_entries(lambda e: e * c)
    return acc
