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
* ``pbar_convolution``  a convolution of one-kind counts (for one target,
                        or every target with ``pbar_convolution_totals``);
* ``*_enumerate``   explicit brute-force enumeration of the partitions
                    themselves (the oracle; it never touches polynomial
                    arithmetic).

Route agreement is the core correctness argument and is exercised heavily
by the test suite and the identity verifiers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import comb
from typing import Iterator

from .polynomial import ZERO, IntPolynomial, product
from .qbinomial import qbinom


@dataclass(frozen=True)
class TwoKindQuery:
    """Parameter tuple for the two-kind counting functions.

    ``r`` is the divisibility step for first-kind parts, ``n1`` and ``n2``
    the part-size bound parameters, ``k1`` and ``k2`` the part-count bounds,
    and ``n`` the partition target.
    """

    r: int
    n1: int
    n2: int
    k1: int
    k2: int
    n: int

    def __post_init__(self) -> None:
        _check_bounds(self.r, self.n1, self.n2, self.k1, self.k2)
        if self.n < 0:
            raise ValueError(f"n must be nonnegative, got {self.n}")


def _check_bounds(r: int, n1: int, n2: int, k1: int, k2: int) -> None:
    """Reject a step below 1 and negative bounds, naming the first offender."""
    if r < 1:
        raise ValueError(f"r must be a positive integer, got {r}")
    for name, value in (("n1", n1), ("n2", n2), ("k1", k1), ("k2", k2)):
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")


@dataclass(frozen=True)
class TwoKindPartition:
    """A two-kind partition: one multiset of parts per kind.

    Parts are stored as descending tuples; constructors may pass them in any
    order.  Rendering marks second-kind parts with a trailing apostrophe.
    """

    first_kind: tuple[int, ...]
    second_kind: tuple[int, ...]

    def __post_init__(self) -> None:
        for kind in (self.first_kind, self.second_kind):
            if any(part < 1 for part in kind):
                raise ValueError(f"parts must be positive, got {kind}")
        object.__setattr__(
            self, "first_kind", tuple(sorted(self.first_kind, reverse=True))
        )
        object.__setattr__(
            self, "second_kind", tuple(sorted(self.second_kind, reverse=True))
        )

    def total(self) -> int:
        return sum(self.first_kind) + sum(self.second_kind)

    def render(self) -> str:
        """Canonical text form: ``2+1'+1'`` and friends, ``(empty)`` for n=0."""
        terms = [str(part) for part in self.first_kind]
        terms += [f"{part}'" for part in self.second_kind]
        return "+".join(terms) if terms else "(empty)"


@dataclass(frozen=True)
class DistinctTwoKindPartition(TwoKindPartition):
    """A two-kind partition whose parts are distinct within each kind."""

    def __post_init__(self) -> None:
        super().__post_init__()
        for kind in (self.first_kind, self.second_kind):
            if len(set(kind)) != len(kind):
                raise ValueError(f"parts must be distinct within a kind, got {kind}")


def _sort_key(partition: TwoKindPartition) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return (partition.first_kind, partition.second_kind)


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
    r*N1*k1 + N2*k2, the same span as ``pbar_enumerate_totals``.  Both
    one-kind rows are read once for the whole list.
    """
    _check_bounds(r, n1, n2, k1, k2)
    first = qbinom(n1 + k1, n1).coeffs
    second = qbinom(n2 + k2, n2).coeffs
    return [_convolve(first, second, r, n) for n in range(r * n1 * k1 + n2 * k2 + 1)]


def qbar_genfun(query: TwoKindQuery) -> int:
    """Distinct-part two-kind count via the generating-function route."""
    return qbar_gf(query.r, query.n1, query.n2, query.k1, query.k2).coeff(query.n)


def _multisets(max_value: int, max_count: int, total: int) -> Iterator[tuple[int, ...]]:
    """Multisets of integers in [1, max_value], size <= max_count, given total.

    Yields descending tuples; the empty tuple is the unique multiset with
    total 0.  Only multisets of the given total are visited, which lets
    ``pbar_enumerate`` list one target without walking every multiset.
    """
    if total == 0:
        yield ()
        return
    if max_count == 0 or max_value == 0:
        return
    for first in range(min(max_value, total), 0, -1):
        for rest in _multisets(first, max_count - 1, total - first):
            yield (first,) + rest


def pbar_enumerate(query: TwoKindQuery) -> list[TwoKindPartition]:
    """All two-kind partitions matching the query, in canonical order.

    First-kind parts are generated as r times a multiplier at most N1, which
    guarantees divisibility by construction.  The canonical order is
    descending lexicographic on (first-kind parts, second-kind parts).
    """
    r = query.r
    found: list[TwoKindPartition] = []
    top_multiplier_total = min(query.n // r, query.n1 * query.k1)
    for mult_total in range(top_multiplier_total + 1):
        remainder = query.n - r * mult_total
        if remainder > query.n2 * query.k2:
            continue
        for multipliers in _multisets(query.n1, query.k1, mult_total):
            first = tuple(r * m for m in multipliers)
            for second in _multisets(query.n2, query.k2, remainder):
                found.append(TwoKindPartition(first, second))
    found.sort(key=_sort_key, reverse=True)
    return found


def qbar_enumerate(query: TwoKindQuery) -> list[DistinctTwoKindPartition]:
    """All distinct-part two-kind partitions matching the query, canonical order.

    Exactly k1 distinct first-kind parts (r times distinct multipliers at
    most N1) and exactly k2 distinct second-kind parts at most N2.
    """
    r = query.r
    found: list[DistinctTwoKindPartition] = []
    for multipliers in combinations(range(1, query.n1 + 1), query.k1):
        first_total = r * sum(multipliers)
        if first_total > query.n:
            continue
        for second in combinations(range(1, query.n2 + 1), query.k2):
            if first_total + sum(second) == query.n:
                found.append(
                    DistinctTwoKindPartition(
                        tuple(r * m for m in multipliers), second
                    )
                )
    found.sort(key=_sort_key, reverse=True)
    return found


def pbar_enumerate_totals(r: int, n1: int, n2: int, k1: int, k2: int) -> list[int]:
    """Counts of two-kind partitions for every target, by explicit enumeration.

    Entry ``n`` of the result is the number of two-kind partitions of ``n``
    under the bounds; the list covers 0 through r*N1*k1 + N2*k2.  This is the
    bulk form of the enumeration oracle: it generates every admissible
    multiset pair and tallies by total, with no polynomial arithmetic.  A
    multiset of at most k parts from 1..N is listed as k picks with
    replacement from 0..N, a 0 standing for "no part".
    """
    _check_bounds(r, n1, n2, k1, k2)
    first_totals = [
        r * sum(parts) for parts in combinations_with_replacement(range(n1 + 1), k1)
    ]
    second_totals = [
        sum(parts) for parts in combinations_with_replacement(range(n2 + 1), k2)
    ]
    counts = [0] * (r * n1 * k1 + n2 * k2 + 1)
    for a in first_totals:
        for b in second_totals:
            counts[a + b] += 1
    return counts


def qbar_enumerate_totals(r: int, n1: int, n2: int, k1: int, k2: int) -> list[int]:
    """Distinct-part analogue of ``pbar_enumerate_totals``.

    The list covers 0 through the largest achievable total (at least 0); all
    entries are 0 when no selection of exactly k1 and k2 distinct parts
    exists.
    """
    _check_bounds(r, n1, n2, k1, k2)
    if k1 > n1 or k2 > n2:
        return [0]
    top = r * (k1 * n1 - comb(k1, 2)) + k2 * n2 - comb(k2, 2)
    counts = [0] * (top + 1)
    second_totals = [sum(parts) for parts in combinations(range(1, n2 + 1), k2)]
    for multipliers in combinations(range(1, n1 + 1), k1):
        first_total = r * sum(multipliers)
        for b in second_totals:
            counts[first_total + b] += 1
    return counts
