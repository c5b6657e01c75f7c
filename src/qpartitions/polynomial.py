"""Dense polynomials in q over arbitrary-precision integers.

Every generating function in this package is an ``IntPolynomial``: an
immutable, normalized, dense coefficient sequence.  All arithmetic is exact;
Python's native integers carry the arbitrary precision.

Multiplication is Kronecker substitution at every size: each operand is
packed into one integer, one big-integer product does the whole convolution,
and the digits are read back.  The digit width is chosen so that no product
coefficient can overflow its digit, so the result is exact.

``Packing`` is the one packing kernel.  ``product(a, b, step)`` uses it for a
single product ``a(q**step) * b``, which ``__mul__`` calls at step 1 and the
two-kind generating functions call at step r, so no inflated copy of ``a`` is
built.  ``packed_sums`` uses it for whole sums of shifted products, such as
the sides of the Guo-Yang identities (eq2/eq3): every operand is packed once,
all at one digit width sized from the operands, and the products are summed
as integers.  It hands back each sum packed, with the ``Packing`` that reads
it.  The ``thm2.3`` verifier packs generating functions with it directly and
compares sums of them shifted by whole digits, with no product at all.

A digit is exactly as wide as its bound needs: ``bound.bit_length() // 8 + 1``
bytes, so every coefficient is below half a digit in size and the digit's
top bit is spare for the sign.  Then a packed integer determines each of its
coefficients, and two sequences packed at one width are equal exactly when
their integers are.  At widths 1, 2, 4 and 8 a digit is a struct
integer: one ``struct.pack`` packs the whole sequence, and a step spreads
the digits into a zeroed buffer with one strided copy.  At widths 3, 5, 6
and 7 one ``struct.pack`` packs 8-byte digits, and their low bytes are
copied into a zeroed buffer one byte position at a time.  A wider digit is
packed with one ``to_bytes`` per coefficient.  Negative coefficients are
packed apart from the others and subtracted, so every packed digit is
nonnegative.

Every dense result whose degree comes from a caller's step or shift is
checked against ``MAX_DENSE_DEGREE`` before anything is allocated, so an
unbounded step fails with ``ValueError`` instead of exhausting memory.  That
includes every term of every ``packed_sums`` side: each term's degree, its
shift plus the degree of its product, is checked before any operand is
packed.
"""

from __future__ import annotations

import struct
from typing import Iterable, Sequence

# The largest degree of a dense coefficient sequence built from a step or a
# shift.  Every test and benchmark request stays far below it: the largest,
# ``count partition --n 86``, reaches degree 7,396.
MAX_DENSE_DEGREE = 10**7

_STRUCT_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}

# A byte to the byte that extends its sign bit: 0x00 below 0x80, else 0xff.
_SIGN_FILL = bytes(128) + b"\xff" * 128


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
        _check_dense(e + len(self._coeffs) - 1)
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
        degree = (len(self._coeffs) - 1) * r
        _check_dense(degree)
        out = [0] * (degree + 1)
        for i, c in enumerate(self._coeffs):
            out[i * r] = c
        return IntPolynomial(out)

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
        # other - self as (-self) + other; NotImplemented passes through
        return (-self).__add__(other)

    def __mul__(self, other: IntPolynomial | int) -> IntPolynomial:
        if isinstance(other, int):
            return IntPolynomial(c * other for c in self._coeffs)
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return product(self._coeffs, other._coeffs)

    __rmul__ = __mul__

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


def _check_dense(degree: int) -> None:
    """Refuse a dense coefficient sequence of degree above ``MAX_DENSE_DEGREE``."""
    if degree > MAX_DENSE_DEGREE:
        raise ValueError(
            f"dense degree {degree} exceeds the limit of {MAX_DENSE_DEGREE}"
        )


def _magnitudes(coeffs: Sequence[int]) -> tuple[int, int]:
    """``(sum|c|, max|c|)`` over a coefficient sequence; ``(0, 0)`` when empty."""
    if min(coeffs, default=0) >= 0:
        return sum(coeffs), max(coeffs, default=0)
    return sum(map(abs, coeffs)), max(map(abs, coeffs))


def _product_bound(a: tuple[int, int], b: tuple[int, int]) -> int:
    """A bound on every coefficient of a product, from its operands' magnitudes.

    Coefficient n of ``a * b`` is the sum of ``a[i] * b[n - i]``, so it is at
    most ``sum|a| * max|b|`` and at most ``max|a| * sum|b|`` in size; the
    bound is the smaller of the two.  Inflating either operand leaves it
    unchanged.  It is 0 exactly when one operand has no nonzero coefficient,
    and otherwise it is at least every operand coefficient in size.
    """
    return min(a[0] * b[1], a[1] * b[0])


class Packing:
    """Kronecker substitution at one digit width: the packing kernel.

    A coefficient sequence is packed as one integer, coefficient i in digit
    i, each digit ``width`` bytes wide, so one big-integer product does a
    whole convolution and a sum of shifted products is plain integer
    addition.  The width is fixed up front from ``bound``, at the fewest
    whole bytes that hold ``bound`` and a sign bit: every coefficient that is
    packed or read back must be at most ``bound`` in size, so below half a
    digit, and a packed integer then has exactly one such digit sequence.
    Packing does not check the bound.  Reading back adds half a digit to
    every digit, so every digit is nonnegative whatever the signs, and
    ``to_bytes`` raises rather than truncating a total that does not fit.
    """

    __slots__ = ("width", "_half")

    def __init__(self, bound: int) -> None:
        self.width = bound.bit_length() // 8 + 1
        self._half = 1 << (8 * self.width - 1)

    def pack(self, coeffs: Sequence[int], step: int = 1) -> int:
        """The integer whose digit ``step * i`` is ``coeffs[i]``.

        This packs ``coeffs`` with q replaced by q**step: ``step - 1`` zero
        digits go between coefficients, so no inflated copy is built.
        """
        if step < 1:
            raise ValueError(f"step must be a positive integer, got {step}")
        if not coeffs:
            return 0
        _check_dense(step * (len(coeffs) - 1))
        try:
            return self._pack_nonnegative(coeffs, step)
        except (struct.error, OverflowError):
            # every digit is packed unsigned, so a negative coefficient is
            # refused: the positive and the negative ones are packed apart
            return self._pack_nonnegative(
                [c if c > 0 else 0 for c in coeffs], step
            ) - self._pack_nonnegative([-c if c < 0 else 0 for c in coeffs], step)

    def _pack_nonnegative(self, coeffs: Sequence[int], step: int) -> int:
        """``pack`` for a nonempty sequence; a negative coefficient raises."""
        width = self.width
        if width in _STRUCT_CODES:
            code = _STRUCT_CODES[width].upper()
            raw = struct.pack(f"<{len(coeffs)}{code}", *coeffs)
            if step > 1:
                # copy the digits into every step-th slot of a zeroed buffer
                spread = bytearray(width * (step * (len(coeffs) - 1) + 1))
                memoryview(spread).cast(code)[::step] = memoryview(raw).cast(code)
                raw = spread
            return int.from_bytes(raw, "little")
        if width < 8:
            # 8-byte digits, then byte b of each copied to byte b of every
            # step-th digit of a zeroed buffer, one copy per b < width
            raw = struct.pack(f"<{len(coeffs)}Q", *coeffs)
            stride = width * step
            spread = bytearray(width * (step * (len(coeffs) - 1) + 1))
            for b in range(width):
                spread[b::stride] = raw[b::8]
            return int.from_bytes(spread, "little")
        # one coefficient alone needs no gap, whatever the step
        gap = bytes(width * (step - 1)) if len(coeffs) > 1 else b""
        return int.from_bytes(
            gap.join([c.to_bytes(width, "little") for c in coeffs]), "little"
        )

    def unpack(self, total: int, length: int) -> list[int]:
        """The ``length`` coefficients packed in ``total``, constant term first."""
        width = self.width
        size = width * length
        bias = int.from_bytes(self._half.to_bytes(width, "little") * length, "little")
        # every biased digit is nonnegative; flipping its top bit back leaves
        # the coefficient's two's complement in its own digit
        raw = ((total + bias) ^ bias).to_bytes(size, "little")
        if width in _STRUCT_CODES:
            return list(struct.unpack(f"<{length}{_STRUCT_CODES[width]}", raw))
        if width < 8:
            # each digit's bytes into the low end of an 8-byte slot, and its
            # top byte's sign bit, spread by _SIGN_FILL, into the rest
            slots = bytearray(8 * length)
            for b in range(width):
                slots[b::8] = raw[b::width]
            sign = raw[width - 1 :: width].translate(_SIGN_FILL)
            for b in range(width, 8):
                slots[b::8] = sign
            return list(struct.unpack(f"<{length}q", slots))
        return [
            int.from_bytes(raw[i : i + width], "little", signed=True)
            for i in range(0, size, width)
        ]


def product(a: Sequence[int], b: Sequence[int], step: int = 1) -> IntPolynomial:
    """``a(q**step) * b`` for coefficient sequences ``a`` and ``b``, exactly.

    Both operands are packed at one digit width, sized by ``_product_bound``
    so that no coefficient of the product can overflow its digit, and one
    big-integer product does the whole convolution.  ``a`` is packed with
    ``step - 1`` zero digits between its coefficients, never inflated.

    >>> print(product([1, 1], [1, 1], 2))
    1 + q + q^2 + q^3
    """
    bound = _product_bound(_magnitudes(a), _magnitudes(b))
    if not bound:
        # an operand with no nonzero coefficient
        return ZERO
    packing = Packing(bound)
    total = packing.pack(a, step) * packing.pack(b)
    return IntPolynomial(packing.unpack(total, step * (len(a) - 1) + len(b)))


def packed_sums(
    sides: Sequence[Sequence[tuple[int, int, int, Sequence[int], Sequence[int]]]],
) -> tuple[Packing, list[tuple[int, int]]]:
    """Several sums of products, each packed as one integer at one digit width.

    A side is a list of terms ``(sign, shift, step, a, b)``, each standing
    for ``sign * q**shift * a(q**step) * b`` with ``sign`` 1 or -1.  One
    digit width serves every side: it holds the largest side bound, the sum
    of ``_product_bound`` over the side's terms, and so every
    coefficient of every side and of every operand.  A term with a zero
    operand contributes nothing and is skipped.  Every other operand is
    packed once per step, however many terms share it; operands are told
    apart by identity, so pass a repeated operand as the same object.  Every
    term's degree is checked against ``MAX_DENSE_DEGREE`` before anything is
    packed.

    The result is the ``Packing`` and, per side in order, its packed total
    and its length, its highest term degree plus one; ``unpack(total,
    length)`` on the packing reads the side's coefficients.  No side is read
    back here.  Every coefficient of every side is below half a digit in
    size, so a total determines its coefficients, and two sides are equal
    exactly when their totals are.
    """
    magnitudes: dict[int, tuple[int, int]] = {}
    live = []
    largest = 0
    for side in sides:
        terms = []
        side_bound = length = 0
        for term in side:
            _, shift, step, a, b = term
            for cs in (a, b):
                if id(cs) not in magnitudes:
                    magnitudes[id(cs)] = _magnitudes(cs)
            term_bound = _product_bound(magnitudes[id(a)], magnitudes[id(b)])
            if term_bound:
                terms.append(term)
                side_bound += term_bound
                length = max(length, shift + step * (len(a) - 1) + len(b))
        # the side's highest term degree, checked before anything is packed
        _check_dense(length - 1)
        live.append((terms, length))
        largest = max(largest, side_bound)
    packing = Packing(largest)
    bits = 8 * packing.width
    packed: dict[tuple[int, int], int] = {}

    def pack(cs: Sequence[int], step: int) -> int:
        key = (id(cs), step)
        if key not in packed:
            packed[key] = packing.pack(cs, step)
        return packed[key]

    totals = []
    for terms, length in live:
        total = 0
        for sign, shift, step, a, b in terms:
            product = (pack(a, step) * pack(b, 1)) << (bits * shift)
            total = total + product if sign > 0 else total - product
        totals.append((total, length))
    return packing, totals


ZERO = IntPolynomial()
ONE = IntPolynomial((1,))
q = IntPolynomial((0, 1))
