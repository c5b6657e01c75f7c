"""Identity verifiers: one runnable check per supported identity.

Each verifier is a ``check`` run by ``_sweep`` at every point of a product
of ranges, its finite parameter grid.  A check compares both sides of its
identity exactly (as polynomials or as integer counts) and returns how many
comparisons it made and its counterexamples; ``_sweep`` alone tallies them
into a ``VerificationReport``.  A report with an empty failure list is a
pass; failures carry the offending parameter tuple and both sides' values.
``Counterexample`` is a frozen record on the same private base as the
partition records; ``VerificationReport`` is a plain mutable class that
compares by value and is unhashable.  Neither is a dataclass.

Every verifier states the total work of its whole grid, and ``_sweep``
refuses a grid over its limit with ``ValueError`` before the first point.
The points come first: a grid of more than ``MAX_GRID_POINTS`` points is
refused.  A verifier's ``cost`` then sizes the whole grid in its own unit.
A point (a, b) of Thm 3.1, Thm 3.3, eq2 or eq3 makes a*b + 1 units of work:
comparisons for Thm 3.x (the report's ``checked``), and for eq2 and eq3 the
coefficients of the Gaussian [a+b, b] that the memo keeps.  Point n of
Cor 3.2 builds and keeps [2n, n], of n*n + 1 coefficients, and its terms
keep [n+j, j] and [n+1, 2j+1]; the grid counts each distinct row once, after
its [2n, n] rows alone have passed.  Thm 2.3, 2.4 and 2.5 count the
coefficients of the ``pbar_gf`` and ``qbar_gf`` memo entries their grid
reads, neighbours included, in closed form.  These are held to
``MAX_GRID_POINTS`` as well.  The limit bounds the run, not its speed:
the largest square Thm 3.x grid it allows, 44 by 44 (982,125 comparisons),
takes over a minute.  A grid checked against an enumeration row (Thm 2.1,
2.2 and 2.6) is refused when its costliest row would walk past
``MAX_ENUMERATION_WORK``, with the error that row would raise, or when its
rows would walk more than ``MAX_GRID_WORK`` pairs of picks in all.  These
three enumerate each kind's list of pick totals once per grid, in a cache
made for the call, and still tally every pair of picks at every point.

The registry at the bottom maps stable identity ids (``"thm2.1"``, ``"eq2"``,
``"cor3.2"``, ...) to their verifiers; ``run_identity`` is the single entry
point used by the command-line front end.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product, zip_longest
from math import comb, isqrt, prod
from typing import Callable, Sequence

from .polynomial import ONE, ZERO, IntPolynomial, Packing, packed_sums
from .qbinomial import qbinom
from .partitions import (
    TwoKindQuery,
    _Record,
    _check_walk,
    _kind_sums,
    _pbar_row,
    _qbar_row,
    _set,
    partition_p,
    pbar_convolution,
    pbar_convolution_totals,
    pbar_gf,
    qbar_gf,
)

# The most points one verification grid may hold.
MAX_GRID_POINTS = 10**6

# The most pairs of picks the enumeration rows of one grid may walk in all.
MAX_GRID_WORK = 10**8


class Counterexample(_Record):
    """One failing grid point: the parameters and both sides, rendered."""

    _fields = ("params", "lhs", "rhs")
    __slots__ = _fields

    def __init__(self, params: tuple[int, ...], lhs: str, rhs: str) -> None:
        _set(self, "params", params)
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)

    def as_dict(self) -> dict:
        return {"params": list(self.params), "lhs": self.lhs, "rhs": self.rhs}


class VerificationReport:
    """Outcome of sweeping one identity over a parameter grid.

    Its failures are sorted by parameters.  A report is mutable, equals
    only a report with equal fields, and is unhashable.
    """

    def __init__(
        self,
        identity_id: str,
        grid: str,
        checked: int,
        failures: list[Counterexample] | None = None,
    ) -> None:
        if checked <= 0:
            raise ValueError(
                f"{identity_id}: empty verification grid (checked nothing)"
            )
        self.identity_id = identity_id
        self.grid = grid
        self.checked = checked
        self.failures = [] if failures is None else failures
        self.failures.sort(key=lambda c: c.params)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.identity_id, self.grid, self.checked, self.failures) == (
            other.identity_id, other.grid, other.checked, other.failures
        )

    def __repr__(self) -> str:
        return (
            f"{self.__class__.__qualname__}(identity_id={self.identity_id!r}, "
            f"grid={self.grid!r}, checked={self.checked!r}, failures={self.failures!r})"
        )

    @property
    def passed(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {
            "identity_id": self.identity_id,
            "grid": self.grid,
            "checked": self.checked,
            "failures": [c.as_dict() for c in self.failures],
        }

    def summary(self) -> str:
        status = "PASS" if self.passed else f"FAIL ({len(self.failures)} counterexamples)"
        return f"{self.identity_id}: {status} (checked={self.checked}, grid {self.grid})"


def _row_failures(
    params: tuple[int, ...], got: Sequence[int], expected: Sequence[int]
) -> list[Counterexample]:
    """One counterexample per target n where two rows of counts differ.

    Entry n of a row is the count at target n; a row that ends early reads
    as 0 past its end.  Equal rows, the usual case, are found equal in one
    comparison of lists, so that a tuple and a list with the same entries
    match; only rows that differ, or differ in length, are walked.
    """
    if list(got) == list(expected):
        return []
    return [
        Counterexample(params + (n,), str(lhs), str(rhs))
        for n, (lhs, rhs) in enumerate(zip_longest(got, expected, fillvalue=0))
        if lhs != rhs
    ]


def _mismatch(params: tuple, lhs: object, rhs: object) -> list[Counterexample]:
    """The counterexample at ``params`` when the two sides differ, else none."""
    return [] if lhs == rhs else [Counterexample(params, str(lhs), str(rhs))]


def _check_grid(identity_id: str, size: int, unit: str, limit: int) -> None:
    """Refuse a grid of more than ``limit`` units of work."""
    if size > limit:
        raise ValueError(
            f"{identity_id}: grid of {size} {unit} exceeds the limit of {limit}"
        )


def _sweep(
    identity_id: str,
    grid: str,
    axes: tuple[range, ...],
    check: Callable,
    cost: Callable[[], tuple[int, str, int]] | None = None,
) -> VerificationReport:
    """Run ``check(*point)`` at every point of the product of ``axes``.

    Each call returns how many comparisons it made and its counterexamples;
    their order within one point is kept by the report's stable sort.  The
    axes are step-1 ranges, so the point count is known before the first
    point: above ``MAX_GRID_POINTS`` the grid is refused with ``ValueError``.
    A grid within that limit and with points is then sized by ``cost``, when
    given, which returns the whole grid's work as (size, unit, limit) and
    may raise itself; a size over its limit is refused the same way.
    """
    points = prod(max(0, axis.stop - axis.start) for axis in axes)
    _check_grid(identity_id, points, "points", MAX_GRID_POINTS)
    if points and cost is not None:
        _check_grid(identity_id, *cost())
    checked = 0
    failures: list[Counterexample] = []
    # product() holds each axis as a tuple first, so an empty grid is not walked
    for point in product(*axes) if points else ():
        comparisons, found = check(*point)
        checked += comparisons
        failures += found
    return VerificationReport(identity_id, grid, checked, failures)


def _rectangle_work(a_max: int, b_max: int) -> int:
    """The sum of a*b + 1 over 0 <= a <= ``a_max`` and 0 <= b <= ``b_max``.

    It is C(a_max+1, 2) * C(b_max+1, 2) + (a_max+1) * (b_max+1).
    """
    return comb(a_max + 1, 2) * comb(b_max + 1, 2) + (a_max + 1) * (b_max + 1)


# ---------------------------------------------------------------------------
# Polynomial identities for sums of Gaussian products.


def _gaussian_sweep(
    identity_id: str, m_max: int, n_max: int, step: int, right: Callable
) -> VerificationReport:
    """At every (m, n), compare a sum of Gaussian products with a right side.

    The left side is the sum over k up to n // step of
    [m+k, k] at q^step times [m+1, n-step*k] times q^C(n-step*k, 2).
    [m+1, j] vanishes past j = m+1, so only the terms with n - step*k at
    most m+1 are built.
    ``right(n, wide)`` gives the ``packed_sums`` terms of the right side,
    where wide[j] is the coefficients of [m+j, j].  Every side at one m
    goes through one ``packed_sums`` call, which packs each Gaussian once
    for that m (the ones at q^step padded, not inflated), so each product
    is one integer product.  The call is made at the first n of m and,
    since the points come in order, each n takes its own two totals in
    turn.

    The two sides are compared as packed integers.  Every coefficient of
    either side is at most the bound ``packed_sums`` sized the digits for,
    which is below half a digit, so each total determines its side's
    coefficients and the sides are equal exactly when their totals are.
    Only the sides of a point whose totals differ are read back, and their
    counterexample is built from those coefficients.

    The Gaussian memo keeps every [m+j, j] the grid builds, m*j + 1
    coefficients each, so the grid's cost is their sum over the whole grid.
    """

    @lru_cache(maxsize=1)
    def sums_at(m: int):
        wide = [qbinom(m + j, j).coeffs for j in range(n_max + 1)]
        narrow = [qbinom(m + 1, j).coeffs for j in range(min(m + 1, n_max) + 1)]
        sides = []
        for n in range(n_max + 1):
            sides.append([
                (1, comb(n - step * k, 2), step, wide[k], narrow[n - step * k])
                for k in range(max(0, -((m + 1 - n) // step)), n // step + 1)
            ])
            sides.append(right(n, wide))
        packing, totals = packed_sums(sides)
        return packing, iter(totals)

    def check(m: int, n: int) -> tuple[int, list[Counterexample]]:
        packing, totals = sums_at(m)
        (lhs, lhs_length), (rhs, rhs_length) = next(totals), next(totals)
        if lhs == rhs:
            return 1, []
        lhs_poly = IntPolynomial(packing.unpack(lhs, lhs_length))
        rhs_poly = IntPolynomial(packing.unpack(rhs, rhs_length))
        return 1, _mismatch((m, n), lhs_poly, rhs_poly)

    def cost():
        return _rectangle_work(m_max, n_max), "Gaussian coefficients", MAX_GRID_POINTS

    grid = f"0<=m<={m_max}, 0<=n<={n_max}"
    return _sweep(identity_id, grid, (range(m_max + 1), range(n_max + 1)), check, cost)


def verify_guo_yang_1(m_max: int = 10, n_max: int = 10) -> VerificationReport:
    """First Guo-Yang identity, checked exactly as polynomials.

    For each grid point: the sum over k of
    [m+k, k] at q^2 times [m+1, n-2k] times q^C(n-2k, 2)
    must equal [m+n, n], here the one-term side [m+n, n] times 1.
    """
    return _gaussian_sweep("eq2", m_max, n_max, 2, lambda n, wide: [
        (1, 0, 1, wide[n], ONE.coeffs)
    ])


def verify_guo_yang_2(m_max: int = 10, n_max: int = 10) -> VerificationReport:
    """Second Guo-Yang identity, checked exactly as polynomials.

    The q^4 side (sum over k up to n // 4) must equal the alternating q^2
    side (sum over k up to n // 2 of (-1)^k [m+k, k] at q^2 times
    [m+n-2k, n-2k]).
    """
    return _gaussian_sweep("eq3", m_max, n_max, 4, lambda n, wide: [
        (-1 if k % 2 else 1, 0, 2, wide[k], wide[n - 2 * k])
        for k in range(n // 2 + 1)
    ])


# ---------------------------------------------------------------------------
# Structural properties of the two-kind counting function.


def _two_kind_grid(r_max: int, param_max: int, lower: int = 0) -> tuple[range, ...]:
    """The axes r, N1, N2, k1, k2 of a two-kind grid; N1 and N2 start at ``lower``."""
    bounds, parts = range(lower, param_max + 1), range(param_max + 1)
    return range(1, r_max + 1), bounds, bounds, parts, parts


def _multiset_walk(bound: int) -> tuple[int, int]:
    """The costliest (k, t) of ``pbar_enumerate_totals`` with N, k <= ``bound``.

    A kind draws k picks with replacement from 0..N, C(N+k, k) of them, and
    both that count and k times it are largest at N = k = ``bound``.
    """
    return bound, 2 * bound


def _multiset_picks(bound: int) -> int:
    """One kind's picks in ``pbar_enumerate_totals``, summed over N, k <= ``bound``.

    The sum of C(N+k, k) over 0 <= N, k <= bound is C(2*bound + 2, bound + 1) - 1.
    """
    return comb(2 * bound + 2, bound + 1) - 1


def _set_walk(bound: int) -> tuple[int, int]:
    """The costliest (k, t) of ``qbar_enumerate_totals`` with N, k <= ``bound``.

    A kind with k <= N draws k distinct picks from 1..N, C(N, k) of them; a
    kind with k > N is not walked.  Both C(N, k) and k * C(N, k) grow with
    N.  At N = ``bound`` the first is largest at k = bound // 2 and the
    second, bound * C(bound-1, k-1), at k = ceil(bound/2), where C(N, k) has
    the same largest value.
    """
    return -(-bound // 2), bound


def _set_picks(bound: int) -> int:
    """One kind's picks in ``qbar_enumerate_totals``, summed over N, k <= ``bound``.

    A kind with k > N is not walked, and the sum of C(N, k) over k <= N is
    2**N, so the sum over N <= bound is 2**(bound + 1) - 1.
    """
    return 2 ** (bound + 1) - 1


def _generating_function_cost(
    r_max: int, *entries: tuple[int, int]
) -> tuple[int, str, int]:
    """The coefficients of sets of two-kind generating functions, as a cost.

    A generating function at (r, N1, N2, k1, k2) holds r*s1 + s2 + 1
    coefficients, where s1 and s2 are each kind's share of its length.  Each
    set in ``entries`` is (pairs, shares): every r up to ``r_max`` with any
    two of ``pairs`` bound pairs (N, k), whose shares add up to ``shares``.
    Such a set holds (C(r_max+1, 2) + r_max) * shares * pairs + r_max *
    pairs**2 coefficients.
    """
    work = sum(
        (comb(r_max + 1, 2) + r_max) * shares * pairs + r_max * pairs**2
        for pairs, shares in entries
    )
    return work, "generating-function coefficients", MAX_GRID_POINTS


def _pbar_gf_cost(r_max: int, param_max: int) -> tuple[int, str, int]:
    """The coefficients of ``pbar_gf`` at every bound tuple up to p = ``param_max``.

    Its share per kind is N*k, and the shares of the (p+1)**2 pairs of one
    kind add up to C(p+1, 2)**2.
    """
    pairs = (param_max + 1) ** 2
    return _generating_function_cost(r_max, (pairs, comb(param_max + 1, 2) ** 2))


def _rows_against_oracle(
    identity_id: str,
    route: Callable,
    oracle: Callable,
    walk: Callable[[int], tuple[int, int]],
    picks: Callable[[int], int],
    r_max: int,
    param_max: int,
) -> VerificationReport:
    """Compare a route's row of counts with the oracle's for every bound tuple.

    ``oracle(sums, *bounds)`` is ``_pbar_row`` or ``_qbar_row``.  A kind's
    pick totals depend only on its own (N, k), so ``sums`` is a cache of
    ``_kind_sums`` made for this call alone: each list is enumerated once
    per grid, not once per point, and is gone when the call returns.  Every
    row still runs the oracle's own checks, and its pairs of picks are
    still counted one by one.

    ``walk(param_max)`` is the oracle's costliest (k, t) per kind over the
    grid, so ``_check_walk`` on it refuses, before the first point, exactly
    the grids in which the oracle would refuse some point.  ``picks(param_max)``
    is one kind's picks summed over its bounds, S, so each r walks S**2
    pairs of picks; past ``MAX_GRID_WORK`` pairs in all, r_max * S**2, the
    grid is refused before its first point too.  The cache holds S totals
    in all, so that limit also holds it to 10**4.
    """
    sums = lru_cache(maxsize=None)(_kind_sums)

    def check(*bounds: int):
        return 1, _row_failures(bounds, route(*bounds), oracle(sums, *bounds))

    def cost():
        worst = walk(param_max)
        _check_walk(worst, worst)
        return r_max * picks(param_max) ** 2, "pairs of picks", MAX_GRID_WORK

    grid = f"1<=r<={r_max}, 0<=N1,N2,k1,k2<={param_max}, all n"
    axes = _two_kind_grid(r_max, param_max)
    return _sweep(identity_id, grid, axes, check, cost)


def verify_thm21(r_max: int = 3, param_max: int = 4) -> VerificationReport:
    """Convolution route against the enumeration oracle, every target."""
    return _rows_against_oracle(
        "thm2.1", pbar_convolution_totals, _pbar_row, _multiset_walk,
        _multiset_picks, r_max, param_max,
    )


def verify_thm22(r_max: int = 3, param_max: int = 4) -> VerificationReport:
    """Generating-function coefficients against the enumeration oracle."""
    return _rows_against_oracle(
        "thm2.2", lambda *b: pbar_gf(*b).coeffs, _pbar_row, _multiset_walk,
        _multiset_picks, r_max, param_max,
    )


def verify_thm23(r_max: int = 3, param_max: int = 5) -> VerificationReport:
    """The three five-term recurrences, each checked as a polynomial identity.

    Checking generating functions covers every target n at once; boundary
    terms with a part-count bound at -1 vanish through the zero branch of
    ``pbar_gf``.  A counterexample's first parameter is the relation's
    index, 1 to 3.

    Each relation is checked as one integer sum of packed operands.  Every
    ``pbar_gf`` the grid reads has bounds at most p = ``param_max``, so its
    coefficients are nonnegative and sum to C(N1+k1, N1) * C(N2+k2, N2),
    which is at most B = C(2p, p)**2.  Each is packed once per r, all at one
    ``Packing`` sized for 4B, and a right side is the sum of its four
    operands shifted by whole digits.  Every coefficient of either side is
    then at most 4B in size and fits its digit, so the two sides are equal
    exactly when their packed integers are.  A point with an operand that
    has a coefficient over B in size, or with a relation whose packed sides
    differ, is checked again with ``IntPolynomial`` arithmetic, which alone
    builds the counterexamples.  ``pbar_gf`` is read from this module at
    each call.

    The grid's cost counts the ``pbar_gf`` coefficients at every bound tuple
    up to p.  That covers every point and neighbour the recurrences read,
    and 2(p+1) tuples per r that none reads.
    """

    @lru_cache(maxsize=1)
    def packed_at(r: int) -> tuple[Callable[..., int | None], int]:
        # product() walks r outermost, so only one r's packed values are held.
        # B is computed here, at a point, so only for a grid known to be small.
        bound = comb(2 * param_max, param_max) ** 2
        digits = Packing(4 * bound)

        @lru_cache(maxsize=None)
        def packed(*bounds: int) -> int | None:
            coeffs = pbar_gf(r, *bounds).coeffs
            fits = max(map(abs, coeffs), default=0) <= bound
            return digits.pack(coeffs) if fits else None

        return packed, 8 * digits.width

    def check(r: int, n1: int, n2: int, k1: int, k2: int):
        params = (r, n1, n2, k1, k2)
        neighbours = (
            (n1 - 1, n2 - 1, k1, k2),
            (n1 - 1, n2, k1, k2 - 1),
            (n1, n2 - 1, k1 - 1, k2),
            (n1, n2, k1 - 1, k2 - 1),
        )
        # each relation's shift of each neighbour, in that order
        relations = (
            (k1 * r + k2, k1 * r, k2, 0),
            (0, n2, n1 * r, n1 * r + n2),
            (k1 * r, k1 * r + n2, 0, n2),
        )
        packed, w = packed_at(r)
        gf = packed(n1, n2, k1, k2)
        terms = [packed(*bounds) for bounds in neighbours]
        if gf is not None and None not in terms:
            a, b, c, d = terms
            if all(
                (a << w * s) + (b << w * t) + (c << w * u) + (d << w * v) == gf
                for s, t, u, v in relations
            ):
                return 3, []
        gf = pbar_gf(*params)
        terms = [pbar_gf(r, *bounds) for bounds in neighbours]
        found = []
        for index, shifts in enumerate(relations, start=1):
            rhs = sum((term.shift(s) for term, s in zip(terms, shifts)), ZERO)
            found += _mismatch((index,) + params, gf, rhs)
        return 3, found

    grid = (
        f"1<=r<={r_max}, 1<=N1,N2<={param_max}, 0<=k1,k2<={param_max}, "
        "three relations, all n"
    )
    axes = _two_kind_grid(r_max, param_max, lower=1)
    return _sweep("thm2.3", grid, axes, check, lambda: _pbar_gf_cost(r_max, param_max))


def verify_thm24(r_max: int = 3, param_max: int = 5) -> VerificationReport:
    """Parameter-swap symmetry and self-reciprocity of the generating function.

    The four expressions obtained by swapping N1 with k1 and N2 with k2 must
    coincide, and the coefficient sequence must read the same both ways
    (which is the reflection identity for every target n).

    The swap comparisons check almost nothing: ``qbinom`` keeps [t, b] and
    [t, t-b] in one memo entry, so ``pbar_gf(r, k1, n2, n1, k2)`` multiplies
    the very same row objects as ``pbar_gf(r, n1, n2, k1, k2)`` and can
    differ only if ``product`` is not deterministic.  Per-kind conjugation
    of the enumerated partitions would make them a real check.

    The swaps stay inside the grid, so its cost counts the ``pbar_gf``
    coefficients at the grid's own points.
    """

    def check(*params: int):
        r, n1, n2, k1, k2 = params
        gf = pbar_gf(*params)
        found = (
            _mismatch(params, gf, pbar_gf(r, k1, n2, n1, k2))
            + _mismatch(params, gf, pbar_gf(r, n1, k2, k1, n2))
            + _mismatch(params, gf, pbar_gf(r, k1, k2, n1, n2))
        )
        if not gf.is_self_reciprocal():
            found += _mismatch(params, gf, IntPolynomial(tuple(reversed(gf.coeffs))))
        return 1, found

    grid = f"1<=r<={r_max}, 0<=N1,N2,k1,k2<={param_max}"
    axes = _two_kind_grid(r_max, param_max)
    return _sweep("thm2.4", grid, axes, check, lambda: _pbar_gf_cost(r_max, param_max))


def verify_thm25(r_max: int = 3, param_max: int = 5) -> VerificationReport:
    """The staircase bijection between distinct-part and unrestricted counts.

    The distinct-part generating function must equal the two-kind generating
    function at (N1-k1, N2-k2) shifted by r*C(k1+1, 2) + C(k2+1, 2); when a
    reduced bound is negative, both sides vanish.

    The grid's cost counts the coefficients of both sides' memo entries:
    ``qbar_gf`` at each point, its shift included, and ``pbar_gf`` at the
    reduced bounds.  Each is nonzero only where k <= N for both kinds.
    """

    def check(*params: int):
        r, n1, n2, k1, k2 = params
        lhs = qbar_gf(*params)
        offset = r * comb(k1 + 1, 2) + comb(k2 + 1, 2)
        rhs = pbar_gf(r, n1 - k1, n2 - k2, k1, k2).shift(offset)
        return 1, _mismatch(params, lhs, rhs)

    def cost():
        # one kind's pairs with k <= N, C(p+2, 2) of them: a qbar_gf share is
        # k*(N-k) + C(k+1, 2), and the share of its pbar_gf at (N-k, k) is
        # (N-k)*k; summed over the pairs, these are C(p+2, 4) + C(p+3, 4)
        # and C(p+2, 4)
        pairs, reduced = comb(param_max + 2, 2), comb(param_max + 2, 4)
        qbar = (pairs, reduced + comb(param_max + 3, 4))
        return _generating_function_cost(r_max, qbar, (pairs, reduced))

    grid = f"1<=r<={r_max}, 0<=N1,N2,k1,k2<={param_max}"
    return _sweep("thm2.5", grid, _two_kind_grid(r_max, param_max), check, cost)


def verify_thm26(r_max: int = 3, param_max: int = 5) -> VerificationReport:
    """Distinct-part generating function against the enumeration oracle."""
    return _rows_against_oracle(
        "thm2.6", lambda *b: qbar_gf(*b).coeffs, _qbar_row, _set_walk,
        _set_picks, r_max, param_max,
    )


# ---------------------------------------------------------------------------
# The two partition formulas.


def _expansion(r: int, N: int, k: int) -> IntPolynomial:
    """The step-r expansion of Thm 3.1 (r=2) and Thm 3.3 (r=4) as a polynomial in q.

    The sum over j up to k // r of q^C(k-rj, 2) times the two-kind row at
    bounds (N, N+1-k+rj, j, k-rj).  A term whose second bound is negative
    counts nothing.
    """
    total = ZERO
    for j in range(k // r + 1):
        n2 = N + 1 - k + r * j
        if n2 >= 0:
            row = IntPolynomial(pbar_convolution_totals(r, N, n2, j, k - r * j))
            total = total + row.shift(comb(k - r * j, 2))
    return total


def expand_p_thm31(N: int, k: int, n: int) -> int:
    """One-kind count p(N, k, n) expanded as a sum of two-kind counts at r=2.

    Sums the two-kind count at (N, N+1-k+2j, j, k-2j, n - C(k-2j, 2)) over
    j up to k // 2; out-of-range summands contribute 0.  Each summand is one
    clipped convolution sum at its own target, so one coefficient costs no
    whole row (``_expansion`` is the row form).
    """
    if N < 0 or k < 0 or n < 0:
        raise ValueError("expand_p_thm31 needs nonnegative arguments")
    total = 0
    for j in range(k // 2 + 1):
        n2 = N + 1 - k + 2 * j
        target = n - comb(k - 2 * j, 2)
        if n2 >= 0 and target >= 0:
            total += pbar_convolution(TwoKindQuery(2, N, n2, j, k - 2 * j, target))
    return total


def _expansion_sweep(
    identity_id: str, n_max: int, k_max: int, check: Callable, note: str = ""
) -> VerificationReport:
    """Run a check of Thm 3.1 or Thm 3.3 at every (N, k), costed in comparisons.

    A point (N, k) compares rows of N*k + 1 counts.
    """

    def cost():
        return _rectangle_work(n_max, k_max), "comparisons", MAX_GRID_POINTS

    grid = f"0<=N<={n_max}, 0<=k<={k_max}, 0<=n<=N*k{note}"
    return _sweep(identity_id, grid, (range(n_max + 1), range(k_max + 1)), check, cost)


def verify_thm31(n_max: int = 8, k_max: int = 8) -> VerificationReport:
    """The r=2 expansion against the one-kind count, over a full grid.

    With the two-kind generating function substituted, Thm 3.1 at (N, k) is
    the first Guo-Yang identity (eq2) at (m, n) = (N, k).  Here it is checked
    on rows of counts with a plain convolution loop, and ``eq2`` checks the
    same identity through the polynomial product; their agreement is a route
    agreement.
    """

    def check(N: int, k: int):
        got = _expansion(2, N, k).coeffs
        return N * k + 1, _row_failures((N, k), got, qbinom(N + k, N).coeffs)

    return _expansion_sweep("thm3.1", n_max, k_max, check)


def corollary_lower_index(n: int) -> int:
    """Smallest j >= 0 with C(n-2j, 2) <= n, in closed form.

    This is the first index whose summand can be nonzero in the partition
    formula below.  It is ceil(n/2 - 1/4 - sqrt(n/2 + 1/16)), evaluated
    exactly for arbitrarily large n: the expression equals
    (2n - 1 - sqrt(8n + 1)) / 4, and for integer arguments t the comparison
    t <= sqrt(8n + 1) is decided by isqrt.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return max(0, -((isqrt(8 * n + 1) - (2 * n - 1)) // 4))


def corollary_term_count(n: int) -> int:
    """Number of summands the partition formula uses for n."""
    return n // 2 - corollary_lower_index(n) + 1


def corollary_terms(n: int) -> list[int]:
    """The summand values of the partition formula for n, in index order.

    Term j is the two-kind count at r=2 with bounds
    (n, n-2j, j, 2j+1) and target n - C(n-2j, 2).
    """
    return [
        pbar_convolution(
            TwoKindQuery(2, n, n - 2 * j, j, 2 * j + 1, n - comb(n - 2 * j, 2))
        )
        for j in range(corollary_lower_index(n), n // 2 + 1)
    ]


def p_by_corollary(n: int) -> int:
    """The partition number p(n) as a short sum of two-kind counts."""
    return sum(corollary_terms(n))


def verify_cor32(n_max: int = 60) -> VerificationReport:
    """The short-sum partition formula against p(n, n, n)."""

    def check(n: int):
        return 1, _mismatch((n,), p_by_corollary(n), partition_p(n))

    def cost():
        # point n builds and keeps [2n, n], of n*n + 1 coefficients
        coeffs = n_max * (n_max + 1) * (2 * n_max + 1) // 6 + n_max + 1
        _check_grid("cor3.2", coeffs, "Gaussian coefficients", MAX_GRID_POINTS)
        # and term j keeps [n+j, j] and [n+1, 2j+1]; the memo holds [t, b]
        # and [t, t-b] as one row of b*(t-b) + 1 coefficients
        rows = {(2 * n, n) for n in range(n_max + 1)}
        for n in range(n_max + 1):
            for j in range(corollary_lower_index(n), n // 2 + 1):
                rows.add((n + j, j))
                rows.add((n + 1, min(2 * j + 1, n - 2 * j)))
        coeffs = sum(b * (t - b) + 1 for t, b in rows)
        return coeffs, "Gaussian coefficients", MAX_GRID_POINTS

    return _sweep("cor3.2", f"0<=n<={n_max}", (range(n_max + 1),), check, cost)


def verify_thm33(
    n_max: int = 5, k_max: int = 6, signed: bool = True
) -> VerificationReport:
    """The r=4 expansion against the alternating r=2 sum.

    The right-hand side carries the factor (-1)^j; ``signed=False`` drops it
    and is expected to FAIL.  It exists to document that the alternating
    sign is essential, not optional.

    With the two-kind generating function substituted, Thm 3.3 at (N, k) is
    the second Guo-Yang identity (eq3) at (m, n) = (N, k): rows of counts
    here, checked with a plain convolution loop, against the polynomial
    product in ``eq3``.
    """

    def check(N: int, k: int):
        rhs = ZERO
        for j in range(k // 2 + 1):
            row = IntPolynomial(pbar_convolution_totals(2, N, N, j, k - 2 * j))
            rhs = rhs + (-row if signed and j % 2 else row)
        return N * k + 1, _row_failures((N, k), _expansion(4, N, k).coeffs, rhs.coeffs)

    note = "" if signed else " (sign factor dropped)"
    return _expansion_sweep("thm3.3", n_max, k_max, check, note)


# ---------------------------------------------------------------------------
# Registry.

_Verifier = Callable[..., VerificationReport]

_REGISTRY: dict[str, tuple[_Verifier, tuple[str, ...]]] = {
    "thm2.1": (verify_thm21, ("r_max", "param_max")),
    "thm2.2": (verify_thm22, ("r_max", "param_max")),
    "thm2.3": (verify_thm23, ("r_max", "param_max")),
    "thm2.4": (verify_thm24, ("r_max", "param_max")),
    "thm2.5": (verify_thm25, ("r_max", "param_max")),
    "thm2.6": (verify_thm26, ("r_max", "param_max")),
    "thm3.1": (verify_thm31, ("n_max", "k_max")),
    "thm3.3": (verify_thm33, ("n_max", "k_max")),
    "cor3.2": (verify_cor32, ("n_max",)),
    "eq2": (verify_guo_yang_1, ("m_max", "n_max")),
    "eq3": (verify_guo_yang_2, ("m_max", "n_max")),
}

IDENTITY_IDS: tuple[str, ...] = tuple(_REGISTRY)


def run_identity(identity_id: str, **grid_overrides: int | None) -> VerificationReport:
    """Run one registered verifier, overriding its default grid bounds.

    Overrides that the verifier does not accept are ignored, so one set of
    command-line flags can drive every identity.  Unknown ids raise KeyError.
    """
    verifier, accepted = _REGISTRY[identity_id]
    kwargs = {
        name: value
        for name, value in grid_overrides.items()
        if name in accepted and value is not None
    }
    return verifier(**kwargs)
