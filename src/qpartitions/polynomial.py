"""Dense polynomials in q over arbitrary-precision integers.

Every generating function in this package is an ``IntPolynomial``: an
immutable, normalized, dense coefficient sequence.  All arithmetic is exact;
Python's native integers carry the arbitrary precision.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class IntPolynomial:
    """A polynomial in q with integer coefficients, stored densely.

    ``coeffs[i]`` is the coefficient of ``q**i``.  The representation is
    normalized: the last stored coefficient is nonzero, and the zero
    polynomial stores an empty tuple.  Instances are immutable and hashable.

    >>> IntPolynomial([1, 0, 2, 0])
    IntPolynomial('1 + 2*q^2')
    >>> IntPolynomial([]) == IntPolynomial([0, 0])
    True
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @property
    def coeffs(self) -> tuple[int, ...]:
        """The normalized coefficient tuple, constant term first."""
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; ``-1`` for the zero polynomial."""
        return len(self._coeffs) - 1

    def is_zero(self) -> bool:
        return not self._coeffs

    def coeff(self, i: int) -> int:
        """Coefficient of ``q**i``; zero outside the stored range.

        >>> IntPolynomial([1, 2, 1]).coeff(1)
        2
        >>> IntPolynomial([1, 2, 1]).coeff(-1)
        0
        """
        if 0 <= i < len(self._coeffs):
            return self._coeffs[i]
        return 0

    def shift(self, e: int) -> IntPolynomial:
        """Multiply by ``q**e`` (prepend ``e`` zero coefficients).

        The zero polynomial shifts to itself for every ``e``, negative
        included: recurrences shift a factor by an exponent that is negative
        only where that factor vanishes.

        >>> IntPolynomial([1, 1]).shift(2)
        IntPolynomial('q^2 + q^3')
        >>> IntPolynomial([]).shift(-1)
        IntPolynomial('0')
        """
        if not self._coeffs:
            return self
        if e < 0:
            raise ValueError(f"shift exponent must be nonnegative, got {e}")
        return IntPolynomial((0,) * e + self._coeffs)

    def inflate(self, r: int) -> IntPolynomial:
        """Substitute q -> q**r, moving the coefficient of q^i to q^(r*i).

        >>> IntPolynomial([1, 1, 1]).inflate(3)
        IntPolynomial('1 + q^3 + q^6')
        """
        if r < 1:
            raise ValueError(f"inflation step must be a positive integer, got {r}")
        if r == 1 or not self._coeffs:
            return self
        out = [0] * ((len(self._coeffs) - 1) * r + 1)
        for i, c in enumerate(self._coeffs):
            out[i * r] = c
        return IntPolynomial(out)

    def evaluate(self, x: int) -> int:
        """Evaluate at an integer point by Horner's rule.

        ``p.evaluate(1)`` is the coefficient total, handy for sanity checks.
        """
        acc = 0
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def is_self_reciprocal(self) -> bool:
        """True when the coefficient sequence is palindromic.

        The zero polynomial has no degree and is rejected.
        """
        if not self._coeffs:
            raise ValueError("the zero polynomial has no reciprocal pairing")
        return self._coeffs == tuple(reversed(self._coeffs))

    def is_unimodal(self) -> bool:
        """True when the raw coefficient sequence rises then falls.

        Interior zero coefficients count as dips, so an inflated polynomial
        such as 1 + q^2 + q^4 is not unimodal.  The zero polynomial is
        rejected.
        """
        if not self._coeffs:
            raise ValueError("the zero polynomial has no coefficient profile")
        cs = self._coeffs
        i = 0
        while i + 1 < len(cs) and cs[i] <= cs[i + 1]:
            i += 1
        while i + 1 < len(cs) and cs[i] >= cs[i + 1]:
            i += 1
        return i == len(cs) - 1

    def coeffs_as_strings(self) -> list[str]:
        """Coefficients as decimal strings, safe for JSON at any magnitude."""
        return [str(c) for c in self._coeffs]

    def __add__(self, other: IntPolynomial | int) -> IntPolynomial:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    __radd__ = __add__

    def __neg__(self) -> IntPolynomial:
        return IntPolynomial(-c for c in self._coeffs)

    def __sub__(self, other: IntPolynomial | int) -> IntPolynomial:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: int) -> IntPolynomial:
        return _coerce(other) + (-self)

    def __mul__(self, other: IntPolynomial | int) -> IntPolynomial:
        if isinstance(other, int):
            return IntPolynomial(c * other for c in self._coeffs)
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> IntPolynomial:
        if n < 0:
            raise ValueError("negative powers are not defined for polynomials")
        acc = ONE
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntPolynomial):
            return self._coeffs == other._coeffs
        if isinstance(other, int):
            return self._coeffs == (IntPolynomial((other,)))._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        # a constant equals its int, so it must hash like it too
        if len(self._coeffs) <= 1:
            return hash(self.coeff(0))
        return hash(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __iter__(self) -> Iterator[int]:
        return iter(self._coeffs)

    def __repr__(self) -> str:
        return f"IntPolynomial('{self}')"

    def __str__(self) -> str:
        """Canonical text rendering, ascending powers.

        >>> print(IntPolynomial([1, 0, 2, 0, 0, 1]))
        1 + 2*q^2 + q^5
        >>> print(IntPolynomial([]))
        0
        """
        if not self._coeffs:
            return "0"
        parts: list[str] = []
        for i, c in enumerate(self._coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            elif i == 1:
                body = "q" if mag == 1 else f"{mag}*q"
            else:
                body = f"q^{i}" if mag == 1 else f"{mag}*q^{i}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


def _coerce(value: IntPolynomial | int) -> IntPolynomial:
    if isinstance(value, IntPolynomial):
        return value
    if isinstance(value, int):
        return IntPolynomial((value,))
    return NotImplemented


def monomial(exponent: int, coefficient: int = 1) -> IntPolynomial:
    """The polynomial ``coefficient * q**exponent``."""
    if exponent < 0:
        raise ValueError(f"exponent must be nonnegative, got {exponent}")
    return IntPolynomial((0,) * exponent + (coefficient,))


ZERO = IntPolynomial()
ONE = IntPolynomial((1,))
q = IntPolynomial((0, 1))
