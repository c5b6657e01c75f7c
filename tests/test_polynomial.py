"""Exact-arithmetic polynomial substrate: examples and algebraic laws."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qpartitions import polynomial
from qpartitions.polynomial import (
    ONE,
    ZERO,
    IntPolynomial,
    Packing,
    monomial,
    packed_sums,
    product,
    q,
)


def P(*coeffs):
    return IntPolynomial(coeffs)


polys = st.builds(IntPolynomial, st.lists(st.integers(-9, 9), max_size=8))
nonzero_polys = polys.filter(lambda p: not p.is_zero())

# Coefficient lists long enough for the Kronecker path: up to 60 entries, a
# run of zeros in front, signed or all nonnegative, small or near 2**200.
_BIG = 2**200
long_lists = st.builds(
    lambda zeros, body: [0] * zeros + body,
    st.integers(0, 5),
    st.one_of(
        st.lists(st.integers(-9, 9) | st.integers(-_BIG, _BIG), max_size=55),
        st.lists(st.integers(0, 9) | st.integers(0, _BIG), max_size=55),
    ),
)
long_polys = st.builds(IntPolynomial, long_lists)


def schoolbook(a, b):
    """Convolution by the double loop: the reference for every multiply."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


class TestConstruction:
    def test_trailing_zeros_stripped(self):
        assert P(1, 2, 0, 0).coeffs == (1, 2)

    def test_zero_polynomial_is_empty(self):
        assert P(0, 0, 0).coeffs == ()
        assert P().is_zero()

    def test_degree(self):
        assert P(1, 0, 5).degree == 2
        assert P(7).degree == 0

    def test_zero_degree_is_minus_one(self):
        assert ZERO.degree == -1

    def test_constants_hash_like_equal_ints(self):
        assert ONE == 1 and ZERO == 0
        assert hash(ONE) == hash(1) and hash(ZERO) == hash(0)
        assert len({ONE, 1}) == 1
        assert {1: "x"}[ONE] == "x"


class TestAdd:
    def test_cancellation(self):
        assert P(1, 1) + P(1, -1) == P(2)

    def test_additive_identity(self):
        p = P(3, 0, 1)
        assert p + ZERO == p

    def test_doubling(self):
        assert P(0, 0, 1) + P(0, 0, 1) == P(0, 0, 2)

    def test_int_mixing(self):
        assert 1 - q == P(1, -1)

    def test_foreign_minus_polynomial_is_unsupported(self):
        with pytest.raises(TypeError, match="for -: 'float' and 'IntPolynomial'"):
            1.5 - q
        with pytest.raises(TypeError, match="for -: 'NoneType' and 'IntPolynomial'"):
            None - q


class TestMul:
    def test_square_of_binomial(self):
        assert P(1, 1) * P(1, 1) == P(1, 2, 1)

    def test_annihilator(self):
        assert P(4, 5) * ZERO == ZERO

    def test_telescoping_product(self):
        # (1 + q + q^2)(1 - q) convolves to 1 - q^3
        assert P(1, 1, 1) * P(1, -1) == P(1, 0, 0, -1)

    def test_scalar(self):
        assert 3 * P(1, 1) == P(3, 3)

    def test_pow(self):
        assert (ONE + q) ** 2 == P(1, 2, 1)
        assert P(0, 1) ** 0 == ONE

    def test_pow_multiplies_only_what_it_uses(self, monkeypatch):
        # (1 + q)**40 also takes the Kronecker path
        calls = []
        mul = IntPolynomial.__mul__

        def counting_mul(self, other):
            calls.append(1)
            return mul(self, other)

        monkeypatch.setattr(IntPolynomial, "__mul__", counting_mul)
        for n, products in ((1, 0), (3, 2), (4, 2), (40, 6)):
            calls.clear()
            assert P(1, 1) ** n == IntPolynomial(math.comb(n, i) for i in range(n + 1))
            assert len(calls) == products, n


class TestShift:
    def test_monomial(self):
        assert ONE.shift(3) == P(0, 0, 0, 1)

    def test_zero_shifts_to_zero(self):
        assert ZERO.shift(5) == ZERO
        assert ZERO.shift(-1) == ZERO

    def test_binomial(self):
        assert P(1, 1).shift(2) == P(0, 0, 1, 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            P(1).shift(-1)


class TestInflate:
    def test_spreads_exponents(self):
        assert P(1, 1).inflate(2) == P(1, 0, 1)

    def test_identity_substitution(self):
        p = P(2, 0, 3, 1)
        assert p.inflate(1) == p

    def test_triple(self):
        assert P(1, 1, 1).inflate(3) == P(1, 0, 0, 1, 0, 0, 1)

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError):
            P(1, 1).inflate(0)


class TestCoeff:
    def test_interior(self):
        assert P(1, 2, 1).coeff(1) == 2

    def test_negative_index_is_zero(self):
        assert P(1, 2, 1).coeff(-1) == 0

    def test_monomial_top(self):
        assert monomial(5).coeff(5) == 1
        assert monomial(5).coeff(6) == 0


class TestSelfReciprocal:
    def test_palindrome(self):
        assert P(1, 1, 1).is_self_reciprocal()

    def test_non_palindrome(self):
        assert not P(1, 2).is_self_reciprocal()

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            ZERO.is_self_reciprocal()


class TestUnimodal:
    def test_peak(self):
        assert P(1, 2, 1).is_unimodal()

    def test_interior_zeros_break_unimodality(self):
        assert not P(1, 0, 1, 0, 1).is_unimodal()

    def test_constant(self):
        assert P(1).is_unimodal()

    def test_strictly_rising_and_falling(self):
        assert P(1, 3, 5, 2).is_unimodal()
        assert not P(2, 1, 2).is_unimodal()

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            ZERO.is_unimodal()


class TestRendering:
    def test_canonical_text(self):
        assert str(P(1, 0, 2, 0, 0, 1)) == "1 + 2*q^2 + q^5"

    def test_zero(self):
        assert str(ZERO) == "0"

    def test_negative_coefficients(self):
        assert str(P(1, -1, -1, 0, 1)) == "1 - q - q^2 + q^4"

    def test_degree_one(self):
        assert str(P(0, 1)) == "q"
        assert str(P(0, 3)) == "3*q"

    def test_coeff_strings(self):
        assert P(1, 0, 2).coeffs_as_strings() == ["1", "0", "2"]


class TestEvaluate:
    def test_coefficient_total(self):
        assert P(1, 1, 2, 1, 1).evaluate(1) == 6

    def test_point(self):
        assert P(1, 0, 1).evaluate(3) == 10


@given(polys, polys)
def test_add_commutes(a, b):
    assert a + b == b + a


@given(polys, polys, polys)
def test_add_associates(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(polys, polys)
def test_mul_commutes(a, b):
    assert a * b == b * a


@given(polys, polys, polys)
def test_mul_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(polys, polys, polys)
def test_mul_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(long_polys, long_polys, long_polys)
def test_mul_associates_long(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(long_polys, long_polys, long_polys)
def test_mul_distributes_long(a, b, c):
    assert a * (b + c) == a * b + a * c


def kronecker(a, b):
    """One product through the packing kernel."""
    [coeffs] = packed_sums([[(1, 0, 1, a, b)]])
    return coeffs


def schoolbook_sum(terms):
    """Sum of sign * q**shift * a(q**step) * b by the double loop, as a polynomial."""
    total = ZERO
    for sign, shift, step, a, b in terms:
        inflated = [0] * max(step * (len(a) - 1) + 1, 0)
        inflated[::step] = a
        total = total + IntPolynomial([0] * shift + schoolbook(inflated, b)) * sign
    return total


@given(long_lists, long_lists)
def test_kronecker_matches_schoolbook(a, b):
    expected = IntPolynomial(schoolbook(a, b))
    if a and b:
        assert IntPolynomial(kronecker(a, b)) == expected
    A, B = IntPolynomial(a), IntPolynomial(b)
    assert A * B == expected
    for x in (-3, 2):
        assert (A * B).evaluate(x) == A.evaluate(x) * B.evaluate(x)


@given(long_lists, long_lists, st.integers(1, 4))
def test_product_at_a_step_matches_schoolbook(a, b, step):
    assert product(a, b, step) == schoolbook_sum([(1, 0, step, a, b)])


class TestDenseDegreeLimit:
    def test_boundary(self, monkeypatch):
        # every dense builder takes degree 6 and refuses degree 7 or 8
        monkeypatch.setattr(polynomial, "MAX_DENSE_DEGREE", 6)
        packing = Packing(1)
        assert P(1, 1, 1).inflate(3).degree == 6
        assert P(1, 1).shift(5).degree == 6
        assert packing.pack([1, 1, 1], 3) == 1 + (1 << 24) + (1 << 48)
        assert product([1, 1, 1], [1], 3).degree == 6
        for build in (
            lambda: P(1, 1, 1).inflate(4),
            lambda: P(1, 1).shift(6),
            lambda: packing.pack([1, -1, 1], 4),
            lambda: product([1, 1, 1], [1], 4),
        ):
            with pytest.raises(ValueError, match="dense degree [78] exceeds the limit of 6"):
                build()

    def test_a_constant_takes_any_step(self):
        assert P(7).inflate(10**18) == P(7)
        assert product([2], [1, -1], 10**18) == P(2, -2)


terms = st.tuples(
    st.sampled_from((1, -1)),
    st.integers(0, 6),
    st.integers(1, 4),
    long_lists,
    long_lists,
)


@given(st.lists(st.lists(terms, max_size=5), min_size=1, max_size=3))
def test_packed_sums_match_schoolbook(sides):
    # signed and all-nonnegative operands, empty and all-zero ones, and
    # coefficients far past 64 bits, all sides at one width
    for side, coeffs in zip(sides, packed_sums(sides), strict=True):
        assert IntPolynomial(coeffs) == schoolbook_sum(side)


def test_packed_sums_share_an_operand_across_steps():
    a = list(range(1, 13))
    b = [2, -1] * 6
    sides = [[(1, 0, 2, a, b), (-1, 3, 1, a, a)], [(1, 1, 3, b, a)]]
    for side, coeffs in zip(sides, packed_sums(sides), strict=True):
        assert IntPolynomial(coeffs) == schoolbook_sum(side)


@pytest.mark.parametrize("sign", (1, -1))
def test_kronecker_at_the_digit_bound(sign):
    # every coefficient at its largest for its bit length drives the middle
    # product coefficient up to the bound the digit width is sized for, at
    # every total width modulo a byte; short operands pack too
    for bits_a in range(1, 25):
        for bits_b in (1, 8, 9):
            for n in (1, 2, 5, 15, 16, 31):
                a = [2**bits_a - 1] * n
                b = [sign * (2**bits_b - 1)] * n
                expected = schoolbook(a, b)
                assert kronecker(a, b) == expected, (bits_a, bits_b, n)
                product = IntPolynomial(a) * IntPolynomial(b)
                assert list(product.coeffs) == expected, (bits_a, bits_b, n)


@pytest.mark.parametrize("sign", (1, -1))
def test_packed_sums_at_the_sum_bound(sign):
    # several all-maximal products of one length peak at the same
    # coefficient, so the sum reaches the side bound exactly, across every
    # total width modulo a byte and past the 8-byte struct sizes
    n = 16
    for bits in range(1, 80):
        for count in (2, 3, 5):
            side = [
                (sign, 0, 1, [2**bits - 1] * n, [2 ** (j % 3 + 1) - 1] * n)
                for j in range(count)
            ]
            bound = sum(n * (2**bits - 1) * (2 ** (j % 3 + 1) - 1) for j in range(count))
            [coeffs] = packed_sums([side])
            assert coeffs[n - 1] == sign * bound, (bits, count)
            assert IntPolynomial(coeffs) == schoolbook_sum(side), (bits, count)


@given(nonzero_polys, nonzero_polys)
def test_degree_additive_for_nonzero(a, b):
    assert (a * b).degree == a.degree + b.degree


@given(polys, st.integers(1, 4), st.integers(1, 4))
def test_inflate_composes(p, a, b):
    assert p.inflate(a).inflate(b) == p.inflate(a * b)


@given(polys, polys, st.integers(0, 12))
def test_product_coefficient_is_convolution(a, b, n):
    direct = sum(a.coeff(j) * b.coeff(n - j) for j in range(n + 1))
    assert (a * b).coeff(n) == direct


@given(polys, polys)
def test_results_stay_normalized(a, b):
    for result in (a + b, a - b, a * b, a.shift(3), a.inflate(2)):
        assert not result.coeffs or result.coeffs[-1] != 0
