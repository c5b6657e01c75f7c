"""Restricted partition counting, for one kind of part and for two.

The two-kind counting function takes a query (r, N1, N2, k1, k2, n) and
counts partitions of n with at most k1 parts of the first kind (each
divisible by r and at most N1*r) and at most k2 parts of the second kind
(each at most N2).  Its distinct-part companion requires exactly k1 and k2
distinct parts per kind, first-kind parts again divisible by r and at most
N1*r.

Every count is computable by two or three independent routes:

* ``*_genfun``      coefficient extraction from a product of Gaussian
                    polynomials (the generating-function route);
* ``pbar_convolution``  a convolution of one-kind counts: one clipped sum
                        for one target, or with ``pbar_convolution_totals``
                        the whole row, built as one scaled copy of the
                        second-kind row per first-kind count;
* ``*_enumerate``   explicit brute-force enumeration of the partitions
                    themselves (the oracle; it never touches polynomial
                    arithmetic), generated in canonical order: descending
                    lexicographic on (first-kind parts, second-kind parts),
                    with no sort afterwards.  Both listings walk each kind
                    by total through one pruned walker, so the work is
                    bounded by the listing.

The bulk ``*_totals`` forms return one dense entry per target, so the
largest target is held to ``MAX_DENSE_DEGREE`` like every dense polynomial:
a span past it raises ``ValueError`` before the row is built.  The
enumeration rows are also sized by their walk, in pairs of picks and in
parts drawn; past ``MAX_ENUMERATION_WORK`` of either they raise
``ValueError`` before the first pick.  That sizing is ``_check_walk``, which
the oracle verifiers also apply to a grid's costliest row.  A row is two
steps: ``_kind_sums`` lists one kind's pick totals, which depend only on
that kind's (N, k), and ``_pair_counts`` tallies every pair of picks one by
one.  The public rows draw both lists afresh; the oracle verifiers build
the same rows through ``_pbar_row`` and ``_qbar_row`` from a cache of the
lists that lasts one call, so each list is enumerated once per grid.
``TwoKindQuery``, ``pbar_convolution`` and the listings still take any r.

The records ``TwoKindQuery``, ``TwoKindPartition`` and
``DistinctTwoKindPartition`` are frozen, slotted classes on one private
base, not dataclasses, so that importing the package stays cheap for a
one-shot command.  They compare, hash and print field by field like frozen
dataclasses, and a record never equals one of another class.  The listings
build their partitions through a private constructor that skips the public
one's checks and sorts, since the walk already yields canonical tuples.

Route agreement is the core correctness argument and is exercised heavily
by the test suite and the identity verifiers.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import comb
from operator import attrgetter
from typing import Callable, Iterator

from .polynomial import ZERO, IntPolynomial, _check_dense, product
from .qbinomial import qbinom

# The most pairs of picks, and the most parts drawn, that one enumeration
# row may walk.  The largest in the tests and the benchmark, at bounds 5,
# walks 63,504 pairs.
MAX_ENUMERATION_WORK = 10**6

# Sets a field of a frozen record, past the record's own ``__setattr__``.
_set = object.__setattr__


class _Record:
    """A frozen record of the fields that ``_fields`` names, in order.

    Two records are equal when they are of the same class and their fields
    are equal, equal records hash alike, and the repr names every field, as
    for a frozen dataclass.  ``__init__`` sets each field once with
    ``_set``; assigning or deleting an attribute afterwards raises
    ``AttributeError``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # the tuple of field values, read by one C getter made once per class
        # (a tuple only for two fields or more, which every record has)
        cls._values = property(attrgetter(*cls._fields))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild through the constructor, not by assignment
        return self.__class__, self._values


class TwoKindQuery(_Record):
    """Parameter tuple for the two-kind counting functions.

    ``r`` is the divisibility step for first-kind parts, ``n1`` and ``n2``
    the part-size bound parameters, ``k1`` and ``k2`` the part-count bounds,
    and ``n`` the partition target.
    """

    _fields = ("r", "n1", "n2", "k1", "k2", "n")
    __slots__ = _fields

    def __init__(self, r: int, n1: int, n2: int, k1: int, k2: int, n: int) -> None:
        _check_bounds(r, n1, n2, k1, k2)
        if n < 0:
            raise ValueError(f"n must be nonnegative, got {n}")
        _set(self, "r", r)
        _set(self, "n1", n1)
        _set(self, "n2", n2)
        _set(self, "k1", k1)
        _set(self, "k2", k2)
        _set(self, "n", n)


def _check_bounds(r: int, n1: int, n2: int, k1: int, k2: int) -> None:
    """Reject a step below 1 and negative bounds, naming the first offender."""
    if r < 1:
        raise ValueError(f"r must be a positive integer, got {r}")
    for name, value in (("n1", n1), ("n2", n2), ("k1", k1), ("k2", k2)):
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")


class TwoKindPartition(_Record):
    """A two-kind partition: one multiset of parts per kind.

    Parts are stored as descending tuples; constructors may pass them in any
    order.  Rendering marks second-kind parts with a trailing apostrophe.
    """

    _fields = ("first_kind", "second_kind")
    __slots__ = _fields

    def __init__(
        self, first_kind: tuple[int, ...], second_kind: tuple[int, ...]
    ) -> None:
        for kind in (first_kind, second_kind):
            if any(part < 1 for part in kind):
                raise ValueError(f"parts must be positive, got {kind}")
        _set(self, "first_kind", tuple(sorted(first_kind, reverse=True)))
        _set(self, "second_kind", tuple(sorted(second_kind, reverse=True)))

    @classmethod
    def _canonical(
        cls, first_kind: tuple[int, ...], second_kind: tuple[int, ...]
    ) -> TwoKindPartition:
        """A partition from tuples already in the form ``__init__`` checks for.

        Nothing is checked or sorted: the parts must be positive and
        descending, and distinct within a kind for the distinct class.
        """
        record = object.__new__(cls)
        _set(record, "first_kind", first_kind)
        _set(record, "second_kind", second_kind)
        return record

    def total(self) -> int:
        return sum(self.first_kind) + sum(self.second_kind)

    def render(self) -> str:
        """Canonical text form: ``2+1'+1'`` and friends, ``(empty)`` for n=0."""
        terms = [str(part) for part in self.first_kind]
        terms += [f"{part}'" for part in self.second_kind]
        return "+".join(terms) if terms else "(empty)"


class DistinctTwoKindPartition(TwoKindPartition):
    """A two-kind partition whose parts are distinct within each kind."""

    __slots__ = ()

    def __init__(
        self, first_kind: tuple[int, ...], second_kind: tuple[int, ...]
    ) -> None:
        super().__init__(first_kind, second_kind)
        for kind in (self.first_kind, self.second_kind):
            if len(set(kind)) != len(kind):
                raise ValueError(f"parts must be distinct within a kind, got {kind}")


def p(N: int, k: int, n: int) -> int:
    """Partitions of n into at most k parts, each at most N.

    This is the coefficient of q^n in the Gaussian polynomial [N+k, N].
    """
    if N < 0 or k < 0 or n < 0:
        raise ValueError("p(N, k, n) needs nonnegative arguments")
    return qbinom(N + k, N).coeff(n)


def partition_p(n: int) -> int:
    """The unrestricted partition number, computed as p(n, n, n)."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return p(n, n, n)


def Q(N: int, k: int, n: int) -> int:
    """Partitions of n into exactly k distinct parts, each at most N.

    Computed as the coefficient of q^n in q^C(k+1, 2) * [N, k].
    """
    if N < 0 or k < 0 or n < 0:
        raise ValueError("Q(N, k, n) needs nonnegative arguments")
    return qbinom(N, k).coeff(n - comb(k + 1, 2))


@lru_cache(maxsize=None)
def pbar_gf(r: int, n1: int, n2: int, k1: int, k2: int) -> IntPolynomial:
    """Generating function of the two-kind counts: [N1+k1, N1] at q^r times [N2+k2, N2].

    Negative bounds yield the zero polynomial, the convention under which the
    recurrence and bijection identities are total.  The step-1 row
    [N1+k1, N1] goes to ``product`` with step r, which pads it as it packs,
    so no copy at q^r is built.
    """
    if n1 < 0 or n2 < 0 or k1 < 0 or k2 < 0:
        return ZERO
    return product(qbinom(n1 + k1, n1).coeffs, qbinom(n2 + k2, n2).coeffs, r)


@lru_cache(maxsize=None)
def qbar_gf(r: int, n1: int, n2: int, k1: int, k2: int) -> IntPolynomial:
    """Generating function of the distinct-part counts.

    This is q^(r*C(k1+1, 2) + C(k2+1, 2)) * [N1, k1] at q^r * [N2, k2],
    with the step-1 row [N1, k1] taken to q^r by ``product`` as in
    ``pbar_gf``.
    """
    if n1 < 0 or n2 < 0 or k1 < 0 or k2 < 0:
        return ZERO
    gf = product(qbinom(n1, k1).coeffs, qbinom(n2, k2).coeffs, r)
    return gf.shift(r * comb(k1 + 1, 2) + comb(k2 + 1, 2))


def pbar_genfun(query: TwoKindQuery) -> int:
    """Two-kind count via the generating-function route."""
    return pbar_gf(query.r, query.n1, query.n2, query.k1, query.k2).coeff(query.n)


def _convolve(first: tuple[int, ...], second: tuple[int, ...], r: int, n: int) -> int:
    """Sum of first[j] * second[n - r*j], over the j where both entries exist."""
    low = max(0, -((len(second) - 1 - n) // r))
    high = min(n // r, len(first) - 1)
    return sum(first[j] * second[n - r * j] for j in range(low, high + 1))


def pbar_convolution(query: TwoKindQuery) -> int:
    """Two-kind count as a convolution of one-kind counts.

    Sums p(N1, k1, j) * p(N2, k2, n - r*j) over j up to n // r.  Each
    p(N, k, m) is the coefficient of q^m in [N+k, N], so both rows are read
    once, and j runs only where both coefficients can be nonzero: at most
    N1*k1 and at least (n - N2*k2) / r.  The work is therefore bounded by
    the rows, not by n.
    """
    first = qbinom(query.n1 + query.k1, query.n1).coeffs
    second = qbinom(query.n2 + query.k2, query.n2).coeffs
    return _convolve(first, second, query.r, query.n)


def pbar_convolution_totals(r: int, n1: int, n2: int, k1: int, k2: int) -> list[int]:
    """Two-kind counts for every target, by the convolution route.

    Entry ``n`` is ``pbar_convolution`` at target n, for n from 0 through
    r*N1*k1 + N2*k2, the same span as ``pbar_enumerate_totals``.  The row is
    built whole rather than target by target: each first-kind count
    p(N1, k1, j) adds itself times the whole second-kind row [N2+k2, N2]
    into the entries from r*j on, one list comprehension per j.  That is
    N1*k1 + 1 Python steps for the row.  No polynomial product is used, so
    this route stays apart from the generating-function one.
    """
    _check_bounds(r, n1, n2, k1, k2)
    top = r * n1 * k1 + n2 * k2
    _check_dense(top)
    first = qbinom(n1 + k1, n1).coeffs
    second = qbinom(n2 + k2, n2).coeffs
    width = len(second)
    out = [0] * (top + 1)
    for j, a in enumerate(first):
        start = r * j
        out[start:start + width] = [
            c + a * b for c, b in zip(out[start:start + width], second)
        ]
    return out


def qbar_genfun(query: TwoKindQuery) -> int:
    """Distinct-part two-kind count via the generating-function route."""
    return qbar_gf(query.r, query.n1, query.n2, query.k1, query.k2).coeff(query.n)


def _picks(
    max_value: int, count: int, low: int, high: int, gap: int
) -> Iterator[tuple[int, ...]]:
    """Descending tuples of parts in [1, max_value] with total in [low, high].

    Consecutive parts differ by at least ``gap``, which is 0 or 1.  The
    model is the one ``pbar_enumerate_totals`` lists: ``count`` picks from
    [0, max_value], where a 0 pick stands for "no part" and is allowed only
    when ``gap`` is 0.  So gap 0 gives the multisets of at most ``count``
    parts and gap 1 the sets of exactly ``count`` distinct parts.

    Tuples come in descending lexicographic order, the empty tuple last.
    Below a first part f the other count - 1 parts total at least
    ``least`` = gap * C(count, 2), and the whole branch at most
    count * f - ``least``; every total in between is reached.  So a branch
    is cut as soon as it can no longer reach [low, high], every branch
    walked yields a tuple, and the walk is bounded by what it yields.
    """
    if count > 0 and low <= high:
        least = gap * count * (count - 1) // 2
        for first in range(min(max_value, high - least), gap * (count - 1), -1):
            if count * first - least < low:
                break
            for rest in _picks(first - gap, count - 1, low - first, high - first, gap):
                yield (first,) + rest
    if low <= 0 <= high and (count == 0 or gap == 0):
        yield ()


def _listing(
    kind: type[TwoKindPartition], query: TwoKindQuery, gap: int
) -> list[TwoKindPartition]:
    """Every partition of the query's n whose parts ``_picks`` walks at ``gap``.

    First-kind parts are r times a multiplier at most N1, which guarantees
    divisibility by construction.  The multipliers are walked once, over the
    totals that leave the second kind between its least total ``fewest`` and
    its greatest ``most``, and the second kind over the one total that
    completes n, so every multiplier tuple walked has a completion.  Both
    walks come in descending lexicographic order, so the listing comes out
    in canonical order without a sort.  Their tuples are already positive,
    descending and, at gap 1, distinct, so each partition is built by
    ``_canonical``, without the public constructor's checks and sorts.
    """
    r, n, n2, k2 = query.r, query.n, query.n2, query.k2
    fewest = gap * k2 * (k2 + 1) // 2
    most = n2 * k2 - gap * k2 * (k2 - 1) // 2
    firsts = _picks(query.n1, query.k1, -((most - n) // r), (n - fewest) // r, gap)
    canonical = kind._canonical
    return [
        canonical(tuple(r * m for m in multipliers), second)
        for multipliers in firsts
        for rest in (n - r * sum(multipliers),)
        for second in _picks(n2, k2, rest, rest, gap)
    ]


def pbar_enumerate(query: TwoKindQuery) -> list[TwoKindPartition]:
    """All two-kind partitions matching the query, in canonical order.

    The canonical order is descending lexicographic on (first-kind parts,
    second-kind parts), and the walk produces it directly.
    """
    return _listing(TwoKindPartition, query, 0)


def qbar_enumerate(query: TwoKindQuery) -> list[DistinctTwoKindPartition]:
    """All distinct-part two-kind partitions matching the query, canonical order.

    Exactly k1 distinct first-kind parts (r times distinct multipliers at
    most N1) and exactly k2 distinct second-kind parts at most N2.  Both
    kinds are walked by total, so the work is bounded by the listing.
    """
    return _listing(DistinctTwoKindPartition, query, 1)


def _check_walk(first: tuple[int, int], second: tuple[int, int]) -> None:
    """Refuse an enumeration walk of more than ``MAX_ENUMERATION_WORK`` steps.

    ``first`` and ``second`` are (k, t) pairs: k parts picked in one of
    C(t, k) ways per kind.  The walk pairs every pick of one kind with every
    pick of the other, C1 * C2 pairs, and draws k1 * C1 + k2 * C2 parts.
    Past the limit in either it raises ``ValueError``.
    """
    (k1, t1), (k2, t2) = first, second
    c1, c2 = comb(t1, k1), comb(t2, k2)
    pairs, parts = c1 * c2, k1 * c1 + k2 * c2
    if pairs > MAX_ENUMERATION_WORK or parts > MAX_ENUMERATION_WORK:
        raise ValueError(
            f"enumeration of {pairs} pairs of picks drawing {parts} parts "
            f"exceeds the limit of {MAX_ENUMERATION_WORK}"
        )


def _kind_sums(pick: Callable, pool: range, k: int) -> list[int]:
    """The totals of one kind's picks, ``pick(pool, k)``, in the order drawn.

    A pick of no parts draws from no pool, so that itertools copies none.
    The totals depend only on the kind's own (pool, k), not on r or on the
    other kind, so an oracle grid can draw each kind's list once and share
    it between rows; nothing here keeps it.
    """
    return list(map(sum, pick(pool if k else (), k)))


def _pair_counts(
    r: int, first_sums: list[int], second_sums: list[int], top: int
) -> list[int]:
    """Count the pairs of picks by r*(first total) + (second total), 0 through ``top``.

    Every pair is counted on its own, one increment each; the lists are
    only read, so they may be shared between rows.
    """
    counts = [0] * (top + 1)
    for a in (r * s for s in first_sums):
        for b in second_sums:
            counts[a + b] += 1
    return counts


def _pbar_row(sums: Callable, r: int, n1: int, n2: int, k1: int, k2: int) -> list[int]:
    """``pbar_enumerate_totals``, with each kind's pick totals from ``sums``.

    ``sums`` is ``_kind_sums`` or a cache of it.  The row's span is checked
    against ``MAX_DENSE_DEGREE`` and its walk sized by ``_check_walk``
    before ``sums`` is called: itertools copies the whole pool when it
    makes the iterator, so an oversized row is refused before a pool of the
    same size is built.
    """
    _check_bounds(r, n1, n2, k1, k2)
    top = r * n1 * k1 + n2 * k2
    _check_dense(top)
    _check_walk((k1, n1 + k1), (k2, n2 + k2))
    pick = combinations_with_replacement
    return _pair_counts(
        r, sums(pick, range(n1 + 1), k1), sums(pick, range(n2 + 1), k2), top
    )


def _qbar_row(sums: Callable, r: int, n1: int, n2: int, k1: int, k2: int) -> list[int]:
    """``qbar_enumerate_totals``, with each kind's pick totals from ``sums``.

    Checked and sized first as in ``_pbar_row``.
    """
    _check_bounds(r, n1, n2, k1, k2)
    if k1 > n1 or k2 > n2:
        return [0]
    top = r * (k1 * n1 - comb(k1, 2)) + k2 * n2 - comb(k2, 2)
    _check_dense(top)
    _check_walk((k1, n1), (k2, n2))
    pick = combinations
    return _pair_counts(
        r, sums(pick, range(1, n1 + 1), k1), sums(pick, range(1, n2 + 1), k2), top
    )


def pbar_enumerate_totals(r: int, n1: int, n2: int, k1: int, k2: int) -> list[int]:
    """Counts of two-kind partitions for every target, by explicit enumeration.

    Entry ``n`` of the result is the number of two-kind partitions of ``n``
    under the bounds; the list covers 0 through r*N1*k1 + N2*k2.  This is the
    bulk form of the enumeration oracle: it generates every admissible
    multiset pair and tallies by total, with no polynomial arithmetic.  A
    multiset of at most k parts from 1..N is listed as k picks with
    replacement from 0..N, a 0 standing for "no part": C(N+k, k) picks.
    """
    return _pbar_row(_kind_sums, r, n1, n2, k1, k2)


def qbar_enumerate_totals(r: int, n1: int, n2: int, k1: int, k2: int) -> list[int]:
    """Distinct-part analogue of ``pbar_enumerate_totals``.

    The list covers 0 through the largest achievable total (at least 0); all
    entries are 0 when no selection of exactly k1 and k2 distinct parts
    exists.  A set of exactly k distinct parts is listed as k picks without
    replacement from 1..N: C(N, k) picks.
    """
    return _qbar_row(_kind_sums, r, n1, n2, k1, k2)
