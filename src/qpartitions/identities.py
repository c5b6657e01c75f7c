"""Identity verifiers: one runnable check per supported identity.

Each verifier is a ``check`` run by ``_sweep`` at every point of a product
of ranges, its finite parameter grid.  A check compares both sides of its
identity exactly (as polynomials or as integer counts) and returns how many
comparisons it made and its counterexamples; ``_sweep`` alone tallies them
into a ``VerificationReport``.  A report with an empty failure list is a
pass; failures carry the offending parameter tuple and both sides' values.
``Counterexample`` and ``VerificationReport`` are records on the same
private base as the partition records, not dataclasses; a counterexample is
frozen, and a report is mutable and so unhashable.

Every verifier states the total work of its whole grid, and ``_sweep``
refuses a grid over its limit with ``ValueError`` before the first point.
The points come first: a grid of more than ``MAX_GRID_POINTS`` points is
refused.  A verifier's ``cost`` then sizes the whole grid in its own unit.
Each of the two grid shapes has one sweep, which writes its axes and its
report text once.  ``_rectangle_sweep`` runs Thm 3.1, Thm 3.3, eq2 and eq3
at every (a, b) up to a bound pair and costs them too: a point makes
a*b + 1 units of work, comparisons for Thm 3.x (the report's ``checked``)
and for eq2 and eq3 the coefficients of the Gaussian [a+b, b] that the memo
keeps.  ``_two_kind_sweep`` runs Thm 2.1, 2.2, 2.4, 2.5 and 2.6 at every
(r, N1, N2, k1, k2), each with its own cost; Thm 2.3, whose N1 and N2
start at 1, and Cor 3.2 build their own axes.  Cor 3.2 counts whole rows,
more than the prefixes its grid reads: [2n, n], of n*n + 1 coefficients, at
point n, and [n+j, j] and [n+1, 2j+1] for its terms; the grid counts each
distinct row once, after its [2n, n] rows alone have passed.  Thm 2.3 and
2.4 count the coefficients of the ``pbar_gf`` products their grid reads,
neighbours included, one per bound tuple, in closed form.  The memo holds
fewer, since it keeps one product per pair of Gaussian cells and no zero,
so this is an upper bound on what it holds.  These are held to
``MAX_GRID_POINTS`` as well.  The limit bounds the run, not its speed: the
largest square Thm 3.x grid it allows, 44 by 44 (982,125 comparisons),
takes over a minute.  Thm 2.5 reads no generating function: it checks the
staircase map on each kind's picks, and its cost is the picks it walks,
held to ``MAX_ENUMERATION_WORK``.  A grid checked against an enumeration
row (Thm 2.1, 2.2 and 2.6) is refused when its costliest row would walk
past ``MAX_ENUMERATION_WORK``, with the error that row would raise, or
when its rows would walk more than
``MAX_GRID_WORK`` pairs of picks in all; both are counted by the oracle's
own pick-count rule, ``_walk``.  That sizing is the oracle's admission of
every row of the grid, done once before the first point, so each point is a
bare ``_tally`` of the oracle: each kind's list of pick totals is
enumerated once per grid through the listings' walker, in caches made for
the call, and every pair of picks is still tallied one by one at every
point.  Each of these oracle verifiers is a kernel and a gap: the kernel
gives the route's row of counts at bounds (r, N1, N2, k1, k2), and the gap
is 0 for parts with repetition (Thm 2.1 and 2.2) or 1 for distinct parts
(Thm 2.6).  A route row depends only on r and its two Gaussian cells, so
the oracle check reads it once per pair of cells per call, at the cells'
own orientation; at gap 1 it reads the row from the staircase up and
lowers the lists to match once per grid, so no point builds a shifted
copy.  Where a kind has no pick, k > N at gap 1, a point is counted as
checked and not compared: both sides are the zero row there, so one test
decides it before anything is read.

The registry at the bottom maps the stable identity ids of ``IDENTITY_IDS``
(``"thm2.1"``, ``"eq2"``, ``"cor3.2"``, ...), kept in the light module
``_ids`` for the command line, to their verifiers; ``run_identity`` is the
single entry point used by the command-line front end.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import product, zip_longest
from math import comb, isqrt, prod
from operator import add, sub
from typing import Callable, Sequence

from ._ids import IDENTITY_IDS
from .polynomial import ONE, IntPolynomial, Packing, _exceeds, packed_sums
from .qbinomial import qbinom
from . import partitions
from .partitions import (
    _Record,
    _check_walk,
    _convolve,
    _kind_sums,
    _picks,
    _tally,
    _walk,
    partition_p,
    pbar_convolution_totals,
    pbar_gf,
)

__all__ = [
    "Counterexample",
    "VerificationReport",
    "IDENTITY_IDS",
    "run_identity",
    "verify_guo_yang_1",
    "verify_guo_yang_2",
    "verify_thm21",
    "verify_thm22",
    "verify_thm23",
    "verify_thm24",
    "verify_thm25",
    "verify_thm26",
    "verify_thm31",
    "verify_thm33",
    "verify_cor32",
    "corollary_lower_index",
    "corollary_term_count",
    "corollary_terms",
    "p_by_corollary",
]

# The most points one verification grid may hold.
MAX_GRID_POINTS = 10**6

# The most pairs of picks the enumeration rows of one grid may walk in all.
MAX_GRID_WORK = 10**8


class Counterexample(_Record):
    """One failing grid point: the parameters and both sides, rendered."""

    _fields = ("params", "lhs", "rhs")
    __slots__ = _fields

    def __init__(self, params: tuple[int, ...], lhs: str, rhs: str) -> None:
        super().__init__(params, lhs, rhs)

    def as_dict(self) -> dict:
        return {"params": list(self.params), "lhs": self.lhs, "rhs": self.rhs}


class VerificationReport(_Record):
    """Outcome of sweeping one identity over a parameter grid.

    Its failures are sorted by parameters.  A report is a record that
    compares and prints field by field, but it is mutable, and so
    unhashable.
    """

    _fields = ("identity_id", "grid", "checked", "failures")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

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
        failures = [] if failures is None else failures
        failures.sort(key=lambda c: c.params)
        super().__init__(identity_id, grid, checked, failures)

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
    params: tuple[int, ...], got: Sequence[int], expected: Sequence[int], origin: int = 0
) -> list[Counterexample]:
    """One counterexample per target n where two rows of counts differ.

    Entry n of a row is the count at target n; a row that ends early reads
    as 0 past its end.  Equal rows, the usual case, are found equal in one
    comparison of tuples, so that a tuple and a list with the same entries
    match; a row that is a tuple already, such as a generating function's
    coefficients, is not copied for it.  Rows that still differ are walked
    once, the shorter read as zeros past its end, so rows that differ only
    in trailing zeros give no counterexample, and the caller's rows are
    left as they are.  Entry n of the rows counts the target n + ``origin``,
    which the counterexamples name.
    """
    if tuple(got) == tuple(expected):
        return []
    return [
        Counterexample(params + (n + origin,), str(lhs), str(rhs))
        for n, (lhs, rhs) in enumerate(zip_longest(got, expected, fillvalue=0))
        if lhs != rhs
    ]


def _mismatch(params: tuple, lhs: object, rhs: object) -> list[Counterexample]:
    """The counterexample at ``params`` when the two sides differ, else none.

    A side that is the other's very object is equal without a walk of its
    coefficients, as each of thm2.4's swaps is: it reads the product that
    ``pbar_gf`` stored for the point.
    """
    if lhs is rhs or lhs == rhs:
        return []
    return [Counterexample(params, str(lhs), str(rhs))]


def _packed_mismatch(
    params: tuple, packing: Packing, lhs: int, rhs: int
) -> list[Counterexample]:
    """The counterexample at ``params`` when two packed sides differ, else none.

    Both sides are totals at ``packing``'s width whose coefficients are all
    below half a digit in size, so each total determines its coefficients
    and equal totals mean equal sides.  Sides that differ are read back to
    as many digits as the larger total spans, and reported as polynomials.
    """
    if lhs == rhs:
        return []
    length = max(abs(lhs), abs(rhs)).bit_length() // (8 * packing.width) + 1
    sides = (IntPolynomial(packing.unpack(total, length)) for total in (lhs, rhs))
    return _mismatch(params, *sides)


def _check_grid(identity_id: str, size: int, unit: str, limit: int) -> None:
    """Refuse a grid of more than ``limit`` units of work."""
    if size > limit:
        raise _exceeds(f"{identity_id}: grid of {size} {unit}", limit)


def _sweep(
    identity_id: str,
    grid: str,
    axes: tuple[range, ...],
    check: Callable,
    cost: Callable[[], tuple[int, str, int]],
) -> VerificationReport:
    """Run ``check(*point)`` at every point of the product of ``axes``.

    Each call returns how many comparisons it made and its counterexamples;
    their order within one point is kept by the report's stable sort.  The
    axes are step-1 ranges, so the point count is known before the first
    point: above ``MAX_GRID_POINTS`` the grid is refused with ``ValueError``.
    A grid within that limit and with points is then sized by ``cost``,
    which returns the whole grid's work as (size, unit, limit) and may raise
    itself; a size over its limit is refused the same way.
    """
    points = prod(max(0, axis.stop - axis.start) for axis in axes)
    _check_grid(identity_id, points, "points", MAX_GRID_POINTS)
    if points:
        _check_grid(identity_id, *cost())
    checked = 0
    failures: list[Counterexample] = []
    # product() holds each axis as a tuple first, so an empty grid is not walked
    for point in product(*axes) if points else ():
        comparisons, found = check(*point)
        checked += comparisons
        failures += found
    return VerificationReport(identity_id, grid, checked, failures)


def _rectangle_sweep(
    identity_id: str, names: str, a_max: int, b_max: int, check: Callable, unit: str,
    note: str = "",
) -> VerificationReport:
    """Run ``check(a, b)`` at every point of 0 <= a <= ``a_max``, 0 <= b <= ``b_max``.

    ``names`` names the two axes in the report's grid text, which ``note``
    ends.  A point (a, b) makes a*b + 1 units of work in ``unit``, so the
    grid costs C(a_max+1, 2) * C(b_max+1, 2) + (a_max+1) * (b_max+1) of
    them, held to ``MAX_GRID_POINTS``.
    """

    def cost():
        work = comb(a_max + 1, 2) * comb(b_max + 1, 2) + (a_max + 1) * (b_max + 1)
        return work, unit, MAX_GRID_POINTS

    grid = ", ".join(map("0<={}<={}".format, names.split(), (a_max, b_max))) + note
    return _sweep(identity_id, grid, (range(a_max + 1), range(b_max + 1)), check, cost)


def _two_kind_sweep(
    identity_id: str, r_max: int, param_max: int, check: Callable, cost: Callable,
    note: str = "",
) -> VerificationReport:
    """Run ``check(r, N1, N2, k1, k2)`` at every point of the two-kind grid.

    r runs from 1 to ``r_max`` and each bound from 0 to ``param_max``;
    ``note`` ends the report's grid text, and ``cost`` sizes the grid.
    """
    grid = f"1<=r<={r_max}, 0<=N1,N2,k1,k2<={param_max}{note}"
    axes = (range(1, r_max + 1), *[range(param_max + 1)] * 4)
    return _sweep(identity_id, grid, axes, check, cost)


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
    is one integer product.  The call is made once per m, and point n
    reads its two totals at index 2n and 2n + 1.

    The two sides are compared as packed integers by ``_packed_mismatch``.
    Every coefficient of either side is at most the bound ``packed_sums``
    sized the digits for, which is below half a digit, so each total
    determines its side's coefficients and the sides are equal exactly when
    their totals are.

    The Gaussian memo keeps every [m+j, j] the grid builds, m*j + 1
    coefficients each, so the grid is a rectangle costed in them.
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
        return packed_sums(sides)

    def check(m: int, n: int) -> tuple[int, list[Counterexample]]:
        packing, totals = sums_at(m)
        (lhs, _), (rhs, _) = totals[2 * n], totals[2 * n + 1]
        return 1, _packed_mismatch((m, n), packing, lhs, rhs)

    unit = "Gaussian coefficients"
    return _rectangle_sweep(identity_id, "m n", m_max, n_max, check, unit)


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


def _pbar_gf_cost(r_max: int, param_max: int) -> tuple[int, str, int]:
    """The coefficients of ``pbar_gf`` at every bound tuple up to p = ``param_max``.

    A product at (r, N1, N2, k1, k2) holds r*N1*k1 + N2*k2 + 1 coefficients.
    Each kind has P = (p+1)**2 bound pairs (N, k), whose shares N*k add up
    to S = C(p+1, 2)**2, so every r up to ``r_max`` with any two pairs makes
    (C(r_max+1, 2) + r_max) * S * P + r_max * P**2 coefficients.  The memo
    keeps one product per pair of Gaussian cells, and a kind's (p+1)**2
    pairs are (p+1)(p+2)/2 cells, so the count is an upper bound on what it
    holds.
    """
    pairs, shares = (param_max + 1) ** 2, comb(param_max + 1, 2) ** 2
    work = (comb(r_max + 1, 2) + r_max) * shares * pairs + r_max * pairs**2
    return work, "generating-function coefficients", MAX_GRID_POINTS


def _rows_against_oracle(
    identity_id: str, kernel: Callable, gap: int, r_max: int, param_max: int
) -> VerificationReport:
    """Compare the rows of a count kernel with the oracle's ``_tally`` at ``gap``.

    The grid is admitted once, by ``cost``, and each point is a bare tally.
    A kind's pick totals depend only on its own (N, k), so the oracle reads
    them from caches of ``_kind_sums`` made for this call alone: each list
    is enumerated once per grid, not once per point, the first kind's is
    multiplied by each r once, and all are gone when the call returns.
    Every pair of picks is still counted one by one at every point.  A
    point where a kind has no pick, k > N at gap 1, is decided by that one
    test before anything is read: both sides are the zero row there, so it
    counts as checked and is not compared, and neither the route nor a list
    is asked for it.

    ``kernel(r, N1, N2, k1, k2)`` gives the row of counts of parts with
    repetition, and this check alone sets the bounds it is read at.  At
    gap 1 each kind's N is lowered by k, so that the row of k distinct
    parts at most N is read as that of at most k parts at most N - k.  A
    kind's row is then the Gaussian [N+k, N] == [N+k, k] (Andrews 1976,
    ch. 3), so the route's row depends only on r and its two Gaussian
    cells: ``route`` keeps it once per pair of cells, in a cache made for
    this call and keyed as ``pbar_gf`` keys its products,
    (r, N1+k1, min(N1, k1), N2+k2, min(N2, k2)), and reads the kernel at
    the cells' own orientation, N <= k in each kind.  A point that swaps N
    and k in a kind still tallies that kind's own picks, the conjugate
    multisets, against the row its cells share.

    Entry m of a row counts the target m + s.  At gap 0, s is 0.  At gap 1
    the route's row starts at the staircase s = r*C(k1+1, 2) + C(k2+1, 2),
    the least total of k1 and k2 distinct parts, since it is read at the
    lowered bounds; each list is lowered to match in its cache, by its
    kind's C(k+1, 2), once per grid.  So a passing point compares two
    rows in one frame with no shifted copy and no arithmetic on s, and only
    a failing one lifts its counterexamples back to the real target n.  A
    list's least total is checked once per grid as well: one below its
    staircase, which no k distinct positive parts reach, or below 0 at gap
    0, lowers it by that least total instead, and at every point that reads
    it the route's row is padded to the same frame, so the stray total is a
    counterexample at its real target, not an index out of the row.

    The cost applies ``_walk`` to each bound pair (N, k) of one kind, at
    most 31**2 of them once ``_sweep`` has held the grid to
    ``MAX_GRID_POINTS`` points.  The costliest, the most picks C with ties
    broken by the most parts k * C, goes to ``_check_walk`` as both kinds,
    so a grid is refused before its first point, with the error its
    costliest row would raise, exactly when some row would be refused.
    Each r pairs every pick of one kind with every pick of the other, S**2
    pairs for S picks over the bound pairs; past ``MAX_GRID_WORK`` pairs in
    all, r_max * S**2, the grid is refused before its first point too.  The
    caches hold S totals per r, so that limit also holds them to 10**4
    each.
    """
    # the lists with a total below their staircase, by how far below
    deficits: dict[tuple[int, int], int] = {}

    @lru_cache(maxsize=None)
    def totals(n: int, k: int) -> Sequence[int]:
        sums = _kind_sums(n, k, gap)
        least = gap * k * (k + 1) // 2
        if min(sums, default=least) < least:
            deficits[n, k], least = least - min(sums), min(sums)
        return [s - least for s in sums]

    @lru_cache(maxsize=None)
    def scaled(r: int, n: int, k: int) -> list[int]:
        return [r * s for s in totals(n, k)]

    @lru_cache(maxsize=None)
    def route(r: int, t1: int, b1: int, t2: int, b2: int) -> tuple[int, ...]:
        return tuple(kernel(r, b1, b2, t1 - b1, t2 - b2))

    def check(r: int, n1: int, n2: int, k1: int, k2: int):
        if gap and (k1 > n1 or k2 > n2):
            # no pick in a kind: both sides are the zero row
            return 1, []
        # No per-row checks run here.  ``cost`` has refused the grid unless
        # every row passes ``_check_walk``, and a grid of at most
        # ``MAX_GRID_POINTS`` points, with r >= 1 and every bound >= 0, has
        # no row past ``MAX_DENSE_DEGREE``, so nothing that ``_row`` would
        # refuse reaches this tally.
        oracle = _tally(scaled(r, n1, k1), totals(n2, k2))
        m1, m2 = n1 - gap * k1, n2 - gap * k2
        row = route(r, m1 + k1, m1 if m1 < k1 else k1, m2 + k2, m2 if m2 < k2 else k2)
        found = _row_failures((r, n1, n2, k1, k2), row, oracle)
        if found or deficits:
            # again in the oracle's frame, which a list lowered short of its
            # staircase starts lower, and at the real targets
            pad = r * deficits.get((n1, k1), 0) + deficits.get((n2, k2), 0)
            got = (0,) * pad + row
            origin = gap * (r * comb(k1 + 1, 2) + comb(k2 + 1, 2)) - pad
            found = _row_failures((r, n1, n2, k1, k2), got, oracle, origin)
        return 1, found

    def cost():
        bounds = range(param_max + 1)
        walks = [_walk(n, k, gap) for n in bounds for k in bounds]
        # the most picks C, ties broken by the most parts k * C
        _, k, t = max((comb(t, k), k, t) for k, t in walks)
        _check_walk((k, t), (k, t))
        picks = sum(comb(t, k) for k, t in walks)
        return r_max * picks**2, "pairs of picks", MAX_GRID_WORK

    return _two_kind_sweep(identity_id, r_max, param_max, check, cost, ", all n")


def _gf_row(r: int, n1: int, n2: int, k1: int, k2: int) -> tuple[int, ...]:
    """The coefficients of ``pbar_gf``: the kernel of Thm 2.2 and Thm 2.6."""
    return pbar_gf(r, n1, n2, k1, k2).coeffs


def verify_thm21(r_max: int = 3, param_max: int = 4) -> VerificationReport:
    """Convolution route against the enumeration oracle, every target.

    The kernel is ``pbar_convolution_totals``, the whole-row window of
    ``_convolve``, the one kernel that ``pbar_convolution`` and the Thm 3.x
    expansions read as well, at gap 0.  ``_rows_against_oracle`` reads it
    at N <= k in each kind only, so both orders of each kind are compared
    with the oracle in the tests of ``pbar_convolution_totals`` instead.
    """
    # the module's name, read at call time, so a replacement is checked
    return _rows_against_oracle("thm2.1", pbar_convolution_totals, 0, r_max, param_max)


def verify_thm22(r_max: int = 3, param_max: int = 4) -> VerificationReport:
    """Generating-function coefficients against the enumeration oracle.

    The kernel is ``pbar_gf``'s coefficients, at gap 0.
    """
    return _rows_against_oracle("thm2.2", _gf_row, 0, r_max, param_max)


def verify_thm23(r_max: int = 3, param_max: int = 5) -> VerificationReport:
    """The three five-term recurrences, each checked as a polynomial identity.

    Checking generating functions covers every target n at once; boundary
    terms with a part-count bound at -1 vanish through the zero branch of
    ``pbar_gf``.  A counterexample's first parameter is the relation's
    index, 1 to 3.

    Each relation is checked as one integer sum of packed operands.  For
    each r, ``pbar_gf`` is read once at every bound tuple the relations can
    read, N1 and N2 in 0..p and k1 and k2 in -1..p for p = ``param_max``,
    and the largest coefficient M found, in size, sizes one ``Packing`` for
    4M.  Each generating function is then packed once, the bound tuples that
    read one stored product sharing its packed value, and a right side is
    the sum of its four operands shifted by whole digits.  Every
    coefficient of either side is at most 4M in size, below half a digit,
    so the two sides are equal exactly when their packed integers are,
    whatever the operands; a relation whose sides differ is read back from
    its two totals by ``_packed_mismatch``.  ``pbar_gf`` is read from this
    module, so a replacement there is what gets checked.

    The grid's cost counts the ``pbar_gf`` coefficients at every bound tuple
    up to p, which are the nonzero ones the grid reads; the memo keeps fewer
    (see ``_pbar_gf_cost``).
    """

    @lru_cache(maxsize=1)
    def packed_at(r: int) -> tuple[dict[tuple[int, ...], int], Packing]:
        # product() walks r outermost, so only one r's table is held
        tuples = product(*[range(param_max + 1)] * 2, *[range(-1, param_max + 1)] * 2)
        gfs = {b: pbar_gf(r, *b) for b in tuples}
        # the tuples that swap N and k read one stored product, and every
        # zero one ZERO: each object is sized and packed once, and held here
        # while its id keys it
        distinct = {id(gf): gf for gf in gfs.values()}
        largest = max(max(map(abs, gf.coeffs), default=0) for gf in distinct.values())
        packing = Packing(4 * largest)
        packed = {key: packing.pack(gf.coeffs) for key, gf in distinct.items()}
        return {b: packed[id(gf)] for b, gf in gfs.items()}, packing

    def check(r: int, n1: int, n2: int, k1: int, k2: int):
        table, packing = packed_at(r)
        w = 8 * packing.width
        gf = table[n1, n2, k1, k2]
        a, b, c, d = (
            table[n1 - 1, n2 - 1, k1, k2],
            table[n1 - 1, n2, k1, k2 - 1],
            table[n1, n2 - 1, k1 - 1, k2],
            table[n1, n2, k1 - 1, k2 - 1],
        )
        # each relation's shift of each neighbour, in that order
        relations = (
            (k1 * r + k2, k1 * r, k2, 0),
            (0, n2, n1 * r, n1 * r + n2),
            (k1 * r, k1 * r + n2, 0, n2),
        )
        found = []
        for index, (s, t, u, v) in enumerate(relations, start=1):
            rhs = (a << w * s) + (b << w * t) + (c << w * u) + (d << w * v)
            found += _packed_mismatch((index, r, n1, n2, k1, k2), packing, gf, rhs)
        return 3, found

    grid = (
        f"1<=r<={r_max}, 1<=N1,N2<={param_max}, 0<=k1,k2<={param_max}, "
        "three relations, all n"
    )
    axes = (range(1, r_max + 1), *[range(1, param_max + 1)] * 2, *[range(param_max + 1)] * 2)
    return _sweep("thm2.3", grid, axes, check, partial(_pbar_gf_cost, r_max, param_max))


def verify_thm24(r_max: int = 3, param_max: int = 5) -> VerificationReport:
    """Parameter-swap symmetry and self-reciprocity of the generating function.

    The four expressions obtained by swapping N1 with k1 and N2 with k2 must
    coincide, and the coefficient sequence must read the same both ways
    (which is the reflection identity for every target n).

    The swap comparisons cannot fail: ``pbar_gf`` keys its memo by the two
    Gaussian cells it multiplies, and [t, b] and [t, t-b] are one cell, so
    ``pbar_gf(r, k1, n2, n1, k2)`` returns the very object that
    ``pbar_gf(r, n1, n2, k1, k2)`` stored.  Self-reciprocity is the real
    check here.  Per-kind conjugation of the enumerated partitions would
    make the swaps one too.

    The swaps stay inside the grid, so its cost counts the ``pbar_gf``
    coefficients at the grid's own points, one per bound tuple: an upper
    bound, since the memo keeps the swapped tuples as one product.
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

    cost = partial(_pbar_gf_cost, r_max, param_max)
    return _two_kind_sweep("thm2.4", r_max, param_max, check, cost)


def _staircase(parts: tuple[int, ...]) -> tuple[int, ...]:
    """A set of k distinct parts, descending, less (k, k-1, ..., 1), zeros dropped."""
    return tuple(filter(None, map(sub, parts, range(len(parts), 0, -1))))


def verify_thm25(r_max: int = 3, param_max: int = 5) -> VerificationReport:
    """The staircase bijection between distinct-part and unrestricted picks.

    The distinct-part generating function is the two-kind one at
    (N1-k1, N2-k2) shifted by r*C(k1+1, 2) + C(k2+1, 2), and it is so kind
    by kind, with step r on the first kind, through the staircase map
    (Andrews, ch. 3; Pak, 2006): ``_staircase`` takes (k, k-1, ..., 1) off a
    set of k distinct parts at most N, which leaves a multiset of at most k
    parts at most N - k, its total lowered by C(k+1, 2).  This checks the
    map itself, on the walks the oracle lists, and reads no generating
    function.  For each kind's (N, k), once per grid, the images of the
    sets ``_picks`` walks at gap 1 must be exactly the multisets it walks
    at (N - k, k) and gap 0, in order, so each is hit once.  The map keeps
    the walker's order: subtracting one vector keeps the lexicographic order
    of k-tuples, and a multiset with trailing zeros dropped comes after its
    extensions, as the walker yields a prefix after them.  When k > N both
    walks are empty.

    Each point (r, N1, N2, k1, k2) is one comparison.  Where a kind's two
    walks part, the point has a counterexample whose parameters end with
    the kind, 1 or 2, and whose sides are the first image and the multiset
    walked with it, as tuples of the walked parts (the first kind's
    multipliers), ``None`` where a walk has ended.

    The cost is the picks walked: C(N, k) sets and as many multisets for
    each pair (N, k) of one kind, 2 * (2**(p+1) - 1) in all for
    p = ``param_max`` and any r, held to ``MAX_ENUMERATION_WORK``.
    """

    @lru_cache(maxsize=None)
    def parting(n: int, k: int) -> tuple | None:
        # the first image that is not the multiset walked with it, if any
        images = map(_staircase, _picks(n, k, 0, n * k, 1))
        pairs = zip_longest(images, _picks(n - k, k, 0, (n - k) * k, 0))
        return next((pair for pair in pairs if pair[0] != pair[1]), None)

    def check(r: int, n1: int, n2: int, k1: int, k2: int):
        pairs = enumerate((parting(n1, k1), parting(n2, k2)), 1)
        return 1, [
            Counterexample((r, n1, n2, k1, k2, kind), *map(str, pair))
            for kind, pair in pairs if pair
        ]

    def cost():
        # C(N, k) summed over k <= N <= p is the sum of 2**N, 2**(p+1) - 1
        return 2 * (2 ** (param_max + 1) - 1), "picks", partitions.MAX_ENUMERATION_WORK

    return _two_kind_sweep("thm2.5", r_max, param_max, check, cost)


def verify_thm26(r_max: int = 3, param_max: int = 5) -> VerificationReport:
    """Distinct-part generating function against the enumeration oracle.

    The kernel is ``pbar_gf``'s coefficients, as for Thm 2.2, at gap 1:
    read at (N1-k1, N2-k2, k1, k2), it is the product that ``qbar_gf`` is a
    view of, from the staircase up (see ``_rows_against_oracle``).
    Counterexamples name the real target n.
    """
    return _rows_against_oracle("thm2.6", _gf_row, 1, r_max, param_max)


# ---------------------------------------------------------------------------
# The two partition formulas.


def _expansion(r: int, N: int, k: int, low: int, high: int) -> list[int]:
    """Entries ``low`` through ``high`` of the step-r expansion, as counts.

    The expansion of Thm 3.1 (r=2) and Thm 3.3 (r=4) is the sum over j up
    to k // r of q^C(k-rj, 2) times the two-kind row at bounds
    (N, N+1-k+rj, j, k-rj), so term j is the ``_convolve`` window shifted
    by C(k-rj, 2), added entry by entry.  A term whose second bound is
    negative, or whose shift passes the window, counts nothing.
    """
    total = [0] * (high - low + 1)
    for j in range(k // r + 1):
        n2, shift = N + 1 - k + r * j, comb(k - r * j, 2)
        if n2 >= 0 and shift <= high:
            term = _convolve(r, N, n2, j, k - r * j, low - shift, high - shift)
            total = list(map(add, total, term))
    return total


def verify_thm31(n_max: int = 8, k_max: int = 8) -> VerificationReport:
    """The r=2 expansion against the one-kind count, over a full grid.

    With the two-kind generating function substituted, Thm 3.1 at (N, k) is
    the first Guo-Yang identity (eq2) at (m, n) = (N, k).  Here it is checked
    on rows of counts from the convolution kernel, and ``eq2`` checks the
    same identity through the polynomial product; their agreement is a route
    agreement.
    """

    def check(N: int, k: int):
        got = _expansion(2, N, k, 0, N * k)
        return N * k + 1, _row_failures((N, k), got, qbinom(N + k, N).coeffs)

    note = ", 0<=n<=N*k"
    return _rectangle_sweep("thm3.1", "N k", n_max, k_max, check, "comparisons", note)


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
    (n, n-2j, j, 2j+1) and target t = n - C(n-2j, 2): the one-entry window
    [t, t] of ``_convolve``, as ``_expansion`` reads it.
    """
    return [
        _convolve(2, n, n - 2 * j, j, 2 * j + 1, t := n - comb(n - 2 * j, 2), t)[0]
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
        # whole rows, more than the prefixes the grid reads: point n counts
        # [2n, n], of n*n + 1 coefficients
        coeffs = n_max * (n_max + 1) * (2 * n_max + 1) // 6 + n_max + 1
        _check_grid("cor3.2", coeffs, "Gaussian coefficients", MAX_GRID_POINTS)
        # and term j counts [n+j, j] and [n+1, 2j+1]; the memo holds [t, b]
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
    from the convolution kernel here, against the polynomial product in
    ``eq3``.
    """

    def check(N: int, k: int):
        rhs = [0] * (N * k + 1)
        for j in range(k // 2 + 1):
            row = _convolve(2, N, N, j, k - 2 * j, 0, N * k)
            rhs = list(map(sub if signed and j % 2 else add, rhs, row))
        return N * k + 1, _row_failures((N, k), _expansion(4, N, k, 0, N * k), rhs)

    note = ", 0<=n<=N*k" + ("" if signed else " (sign factor dropped)")
    return _rectangle_sweep("thm3.3", "N k", n_max, k_max, check, "comparisons", note)


# ---------------------------------------------------------------------------
# Registry.

_Verifier = Callable[..., VerificationReport]

# The verifier of each id in ``IDENTITY_IDS``, in its order, and the grid
# bounds it accepts.
_REGISTRY: dict[str, tuple[_Verifier, tuple[str, ...]]] = dict(zip(IDENTITY_IDS, (
    (verify_thm21, ("r_max", "param_max")),
    (verify_thm22, ("r_max", "param_max")),
    (verify_thm23, ("r_max", "param_max")),
    (verify_thm24, ("r_max", "param_max")),
    (verify_thm25, ("r_max", "param_max")),
    (verify_thm26, ("r_max", "param_max")),
    (verify_thm31, ("n_max", "k_max")),
    (verify_thm33, ("n_max", "k_max")),
    (verify_cor32, ("n_max",)),
    (verify_guo_yang_1, ("m_max", "n_max")),
    (verify_guo_yang_2, ("m_max", "n_max")),
), strict=True))


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
