"""Answer oracles for the benchmark, written without qpartitions.

Every count the benchmark asks qpartitions for is recomputed here by a
different method: the partition number by Euler's pentagonal recurrence,
box-restricted counts by a part-by-part dynamic program, and verifier grid
sizes by counting the grid directly.  None of these touch Gaussian
polynomials, so a wrong answer from the library cannot be mirrored here.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb


@lru_cache(maxsize=None)
def partition_number(n: int) -> int:
    """p(n) by Euler's pentagonal number recurrence."""
    table = [1] + [0] * n
    for m in range(1, n + 1):
        total, k = 0, 1
        while True:
            first = m - k * (3 * k - 1) // 2
            if first < 0:
                break
            second = m - k * (3 * k + 1) // 2
            term = table[first] + (table[second] if second >= 0 else 0)
            total += term if k % 2 else -term
            k += 1
        table[m] = total
    return table[n]


@lru_cache(maxsize=None)
def box_counts(part_max: int, count_max: int) -> tuple[int, ...]:
    """Entry m: partitions of m into at most ``count_max`` parts, each <= ``part_max``.

    Built part value by part value; ``ways[c][m]`` counts multisets of ``c``
    parts totalling ``m``.
    """
    top = part_max * count_max
    ways = [[0] * (top + 1) for _ in range(count_max + 1)]
    ways[0][0] = 1
    for value in range(1, part_max + 1):
        for c in range(1, count_max + 1):
            row, prev = ways[c], ways[c - 1]
            for m in range(value, min(top, c * value) + 1):
                row[m] += prev[m - value]
    return tuple(sum(ways[c][m] for c in range(count_max + 1)) for m in range(top + 1))


@lru_cache(maxsize=None)
def distinct_counts(part_max: int, count: int) -> tuple[int, ...]:
    """Entry m: sets of exactly ``count`` distinct parts in [1, part_max] totalling m."""
    if count > part_max:
        return (0,)
    top = count * part_max
    ways = [[0] * (top + 1) for _ in range(count + 1)]
    ways[0][0] = 1
    for value in range(1, part_max + 1):
        for c in range(min(value, count), 0, -1):
            row, prev = ways[c], ways[c - 1]
            for m in range(top, value - 1, -1):
                row[m] += prev[m - value]
    return tuple(ways[count])


def _at(seq: tuple[int, ...], i: int) -> int:
    return seq[i] if 0 <= i < len(seq) else 0


def one_kind(N: int, k: int, n: int) -> int:
    """Partitions of n into at most k parts, each at most N."""
    return _at(box_counts(N, k), n)


def _two_kind(first: tuple[int, ...], second: tuple[int, ...], r: int, n: int) -> int:
    return sum(first[s] * _at(second, n - r * s) for s in range(min(len(first), n // r + 1)))


def pbar(r: int, n1: int, n2: int, k1: int, k2: int, n: int) -> int:
    """Two-kind count; out-of-range arguments count nothing."""
    if min(n1, n2, k1, k2, n) < 0:
        return 0
    return _two_kind(box_counts(n1, k1), box_counts(n2, k2), r, n)


def qbar(r: int, n1: int, n2: int, k1: int, k2: int, n: int) -> int:
    """Distinct-part two-kind count: exactly k1 and k2 distinct parts per kind."""
    return _two_kind(distinct_counts(n1, k1), distinct_counts(n2, k2), r, n)


def gaussian_coeffs(top: int, bottom: int, step: int) -> list[int]:
    """Coefficients of the Gaussian polynomial [top, bottom] at q**step, as a box count."""
    if bottom < 0 or bottom > top:
        return []
    out = [0] * (bottom * (top - bottom) * step + 1)
    for i, c in enumerate(box_counts(top - bottom, bottom)):
        out[i * step] = c
    return out


def corollary_terms(n: int) -> list[int]:
    """Summands of the short-sum formula for p(n), each from the two-kind oracle."""
    lower = 0
    while comb(n - 2 * lower, 2) > n:
        lower += 1
    return [
        pbar(2, n, n - 2 * j, j, 2 * j + 1, n - comb(n - 2 * j, 2))
        for j in range(lower, n // 2 + 1)
    ]


def grid_size(identity_id: str, kw: dict[str, int]) -> int:
    """Number of grid points a verifier must report as ``checked``."""
    if identity_id in ("eq2", "eq3"):
        return (kw["m_max"] + 1) * (kw["n_max"] + 1)
    if identity_id == "cor3.2":
        return kw["n_max"] + 1
    if identity_id in ("thm3.1", "thm3.3"):
        return sum(N * k + 1 for N in range(kw["n_max"] + 1) for k in range(kw["k_max"] + 1))
    r, m = kw["r_max"], kw["param_max"]
    if identity_id == "thm2.3":
        return 3 * r * m * m * (m + 1) ** 2
    return r * (m + 1) ** 4
