"""Exact-arithmetic polynomial substrate: examples and algebraic laws."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qpartitions import polynomial, qbinomial
from qpartitions.polynomial import (
    ONE,
    ZERO,
    IntPolynomial,
    Packing,
    packed_sums,
    product,
    q,
)
from qpartitions.qbinomial import qbinom


def P(*coeffs):
    return IntPolynomial(coeffs)


polys = st.builds(IntPolynomial, st.lists(st.integers(-9, 9), max_size=8))
nonzero_polys = polys.filter(bool)

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
        assert not P()

    def test_normalized_tuple_is_shared_not_copied(self):
        cs = (1, 0, 2)
        assert IntPolynomial(cs).coeffs is cs
        assert IntPolynomial(()).coeffs == ()
        # anything else is still normalized into a tuple of its own
        assert IntPolynomial((1, 0)).coeffs == (1,)
        assert IntPolynomial((0,)).coeffs == ()
        assert IntPolynomial([1, 2]).coeffs == (1, 2)
        assert IntPolynomial([1, 2, 0]).coeffs == (1, 2)

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

    def test_non_constants_hash_by_their_coefficients(self):
        assert hash(P(1, 2)) == hash(P(1, 2, 0)) == hash((1, 2))
        assert len({P(1, 2), P(1, 2, 0), P(2, 1), q}) == 3


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
        assert ONE.shift(5).coeff(5) == 1
        assert ONE.shift(5).coeff(6) == 0


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


def unpacked_sums(sides):
    """Every side of ``packed_sums``, read back through its packing."""
    packing, totals = packed_sums(sides)
    return [packing.unpack(total, length) for total, length in totals]


def kronecker(a, b):
    """One product through the packing kernel."""
    [coeffs] = unpacked_sums([[(1, 0, 1, a, b)]])
    return coeffs


def schoolbook_sum(terms):
    """Sum of sign * q**shift * a(q**step) * b by the double loop, as a polynomial."""
    total = ZERO
    for sign, shift, step, a, b in terms:
        inflated = [0] * max(step * (len(a) - 1) + 1, 0)
        inflated[::step] = a
        total = total + IntPolynomial([0] * shift + schoolbook(inflated, b)) * sign
    return total


def pack_by_bytes(width, coeffs, step):
    """``Packing.pack`` one coefficient at a time: the positive and negative halves
    as ``width``-byte digits with ``step - 1`` zero digits between them."""

    def half(cs):
        gap = bytes(width * (step - 1))
        return int.from_bytes(gap.join(c.to_bytes(width, "little") for c in cs), "little")

    return half([max(c, 0) for c in coeffs]) - half([max(-c, 0) for c in coeffs])


# exact digit widths, each with the bit lengths of the bounds that choose it:
# a bound of b bits takes b // 8 + 1 bytes, so a sign bit is always spare.
# Widths 1, 2, 4 and 8 pack through one struct code, 3, 5, 6 and 7 through
# 8-byte digits copied byte by byte, and 9 and 16 one coefficient at a time
_WIDTH_BITS = {1: (1, 7), 16: (120, 127)}
_WIDTH_BITS.update({width: (8 * width - 8, 8 * width - 1) for width in range(2, 10)})


@pytest.mark.parametrize("width", sorted(_WIDTH_BITS))
@given(data=st.data(), step=st.integers(1, 5))
def test_pack_matches_per_coefficient_bytes(width, data, step):
    low, high = _WIDTH_BITS[width]
    bound = data.draw(st.integers(2 ** (low - 1), 2**high - 1))
    coefficient = st.integers(-bound, bound) | st.sampled_from((0, bound, -bound))
    coeffs = data.draw(
        st.lists(coefficient, max_size=12)
        | st.lists(st.integers(0, bound), max_size=12)
        | st.lists(coefficient, max_size=1).map(tuple)
    )
    packing = Packing(bound)
    assert packing.width == width
    assert packing.pack(coeffs, step) == pack_by_bytes(width, coeffs, step)


@pytest.mark.parametrize("width", sorted(_WIDTH_BITS))
def test_pack_empty_and_single_coefficients(width):
    bound = 2 ** _WIDTH_BITS[width][1] - 1
    packing = Packing(bound)
    for step in range(1, 6):
        assert packing.pack([], step) == 0
        for c in (0, 1, -1, bound, -bound):
            assert packing.pack([c], step) == c == pack_by_bytes(width, [c], step)


@pytest.mark.parametrize("width", range(1, 10))
@given(data=st.data())
def test_unpack_inverts_pack(width, data):
    # signed digits at every width through 9, the bound itself included
    low, high = _WIDTH_BITS[width]
    bound = data.draw(st.integers(2 ** (low - 1), 2**high - 1))
    coefficient = st.integers(-bound, bound) | st.sampled_from((bound, -bound))
    coeffs = data.draw(st.lists(coefficient, max_size=12))
    packing = Packing(bound)
    assert packing.width == width
    assert packing.unpack(packing.pack(coeffs), len(coeffs)) == coeffs


@pytest.mark.parametrize("width", (3, 5, 6, 7))
@given(data=st.data(), step=st.integers(1, 4))
def test_product_at_odd_widths_matches_schoolbook(width, data, step):
    # scaling a scales the product's bound, so a drawn scale sets the width
    small = st.lists(st.integers(-9, 9), min_size=1, max_size=12).filter(any)
    a, b = data.draw(small), data.draw(small)
    bound = polynomial._product_bound(
        polynomial._magnitudes(a), polynomial._magnitudes(b)
    )
    low, high = _WIDTH_BITS[width]
    scale = data.draw(st.integers(-(-(2 ** (low - 1)) // bound), (2**high - 1) // bound))
    a = [c * scale for c in a]
    bound *= scale
    assert Packing(bound).width == width
    assert product(a, b, step) == schoolbook_sum([(1, 0, step, a, b)])


@given(long_lists, long_lists)
def test_kronecker_matches_schoolbook(a, b):
    expected = IntPolynomial(schoolbook(a, b))
    if a and b:
        assert IntPolynomial(kronecker(a, b)) == expected
    A, B = IntPolynomial(a), IntPolynomial(b)
    assert A * B == expected


@given(long_lists, long_lists, st.integers(1, 4))
def test_product_at_a_step_matches_schoolbook(a, b, step):
    assert product(a, b, step) == schoolbook_sum([(1, 0, step, a, b)])


class TestDenseDegreeLimit:
    def test_boundary(self, monkeypatch):
        # every dense builder takes degree 6 and refuses degree 7 or 8; the
        # Gaussian store starts empty, since a held row is not admitted again
        monkeypatch.setattr(polynomial, "MAX_DENSE_DEGREE", 6)
        monkeypatch.setattr(qbinomial, "_prefixes", {})
        packing = Packing(1)
        assert P(1, 1, 1).inflate(3).degree == 6
        assert P(1, 1).shift(5).degree == 6
        assert packing.pack([1, 1, 1], 3) == 1 + (1 << 24) + (1 << 48)
        assert product([1, 1, 1], [1], 3).degree == 6
        assert qbinom(5, 2).degree == 6
        for build in (
            lambda: P(1, 1, 1).inflate(4),
            lambda: P(1, 1).shift(6),
            lambda: packing.pack([1, -1, 1], 4),
            lambda: product([1, 1, 1], [1], 4),
            lambda: qbinom(6, 2),
        ):
            with pytest.raises(ValueError, match="dense degree [78] exceeds the limit of 6"):
                build()

    def test_a_constant_takes_any_step(self):
        assert P(7).inflate(10**18) == P(7)
        assert product([2], [1, -1], 10**18) == P(2, -2)

    def test_packed_sums_check_every_term(self, monkeypatch):
        # a term's degree is its shift plus step * deg a + deg b; a side
        # that reaches degree 6 is read back, one term past it refuses the
        # whole call before any side is built
        monkeypatch.setattr(polynomial, "MAX_DENSE_DEGREE", 6)
        a, b = [1, 1], [1, 1, 1]
        for shift, step in ((3, 1), (2, 2), (0, 4)):
            [coeffs] = unpacked_sums([[(1, 0, 1, b, b), (1, shift, step, a, b)]])
            assert len(coeffs) == 7
        for shift, step in ((4, 1), (3, 2), (0, 5)):
            sides = [[(1, 0, 1, a, b)], [(1, 0, 1, b, b), (-1, shift, step, a, b)]]
            with pytest.raises(ValueError, match="^dense degree 7 exceeds the limit of 6$"):
                packed_sums(sides)
        # a term with a zero operand adds nothing and is not sized
        assert unpacked_sums([[(1, 10**18, 1, [0], b)]]) == [[]]
        monkeypatch.undo()
        with pytest.raises(ValueError, match=f"^dense degree {10**18} exceeds"):
            packed_sums([[(1, 10**18, 1, [1], [1])]])


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
    for side, coeffs in zip(sides, unpacked_sums(sides), strict=True):
        assert IntPolynomial(coeffs) == schoolbook_sum(side)


def test_packed_sums_share_an_operand_across_steps():
    a = list(range(1, 13))
    b = [2, -1] * 6
    sides = [[(1, 0, 2, a, b), (-1, 3, 1, a, a)], [(1, 1, 3, b, a)]]
    for side, coeffs in zip(sides, unpacked_sums(sides), strict=True):
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
            [coeffs] = unpacked_sums([side])
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
