"""Exact-arithmetic polynomial substrate: examples and algebraic laws."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qpartitions.polynomial import ONE, ZERO, IntPolynomial, monomial, q


def P(*coeffs):
    return IntPolynomial(coeffs)


polys = st.builds(IntPolynomial, st.lists(st.integers(-9, 9), max_size=8))
nonzero_polys = polys.filter(lambda p: not p.is_zero())


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
