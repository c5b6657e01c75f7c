"""Gaussian binomial coefficients, exactly, in q and in q^r.

The central object is ``qbinom(top, bottom, step)``: the q-binomial
coefficient with ``q`` replaced by ``q**step``.  Out-of-range ``bottom``
(negative, or larger than ``top``) gives the zero polynomial; this is the
convention that makes every recurrence in this package total.

Each polynomial is built on its own from the product formula: with
w = top - bottom,

    [w + j, j] = [w + j - 1, j - 1] * (1 - q^(w+j)) / (1 - q^j),    j = 1..bottom,

in plain integer arithmetic: the division is an exact running sum, and its
zero remainder is checked.  A finished row is memoized as its cell's prefix
at full length, in the one store that holds the prefixes below.  A row whose
degree bottom * (top - bottom) passes ``MAX_DENSE_DEGREE``, or whose build,
bottom passes over up to that degree, passes ``MAX_GAUSSIAN_WORK`` steps, is
refused with ``ValueError`` before it is built.  The Pascal recurrences
(``check_gr1``, ``check_gr2``) and the product characterization against the
q-shifted factorial are independent checks, not the construction path.

A count reads a few coefficients, not a whole row, so every count reads one
window of a row, coefficients low..high, through ``_coefficients``, which
builds only a prefix: coefficients 0..D of the same product, truncated at
q^(D+1), by the same builder, ``_build``.  Only the factors 1 - q^m with
m <= D act on it, and only the divisors 1 - q^j with j <= min(bottom, D);
division by 1 - q^j is exact in power series, so the truncated steps give
the row's own coefficients, and a truncated step has no remainder to check.
A row reads the same from both ends, so a window past the middle is read
from its mirror's prefix.  Each cell keeps its longest prefix, and a read as
deep as the middle of the row builds and keeps the whole row instead, the
tuple ``qbinom`` wraps.  A prefix is admitted by the whole row's rule, so a
read is refused exactly when ``qbinom`` would refuse its row.
"""

from __future__ import annotations

import threading
from itertools import accumulate
from operator import add, sub

from .polynomial import ONE, IntPolynomial, _check_dense, _exceeds

__all__ = ["pochhammer_q", "qbinom", "check_gr1", "check_gr2"]

# The most steps, bottom * degree, that building one Gaussian row may take.
# On two cores with Python 3.11, [1200, 300] (8.1e7 steps) builds in 8-13 s
# and is admitted, and [400, 200] (8e6) in about 1 s; [6000, 3000]
# (2.7e10), whose prefix ``count partition --n 3000`` would read, is refused.
MAX_GAUSSIAN_WORK = 10**8

# The one memo of Gaussian rows: the longest prefix built so far of each cell
# [top, bottom], 2 * bottom <= top, as a tuple of its first coefficients, and
# the whole row once it is built.  A tuple stored here is never changed, so
# readers may share it; ``_prefix`` alone stores, comparing lengths under the
# lock, so a shorter prefix never replaces a longer one.
_prefixes: dict[tuple[int, int], tuple[int, ...]] = {}
_prefixes_lock = threading.Lock()


def pochhammer_q(n: int) -> IntPolynomial:
    """The q-shifted factorial (q; q)_n, i.e. the product of (1 - q^i) for i <= n.

    >>> print(pochhammer_q(0))
    1
    >>> print(pochhammer_q(1))
    1 - q
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    out = ONE
    for i in range(1, n + 1):
        out = out * (ONE - IntPolynomial((0,) * i + (1,)))
    return out


def _build(top: int, bottom: int, depth: int) -> list[int]:
    """Coefficients 0 through ``depth`` of [top, bottom], ``0 <= 2 * bottom <= top``.

    With w = top - bottom, step j multiplies [w + j - 1, j - 1] by
    1 - q^(w+j) and divides by 1 - q^j, all truncated at q^(depth+1).  Only
    the divisors j <= depth act below the truncation, and division by
    1 - q^j is exact in power series, so a truncated step still gives the
    row's own coefficients.  A step whose whole product fits under the
    truncation also checks that its top j entries, the remainder, are zero.
    A depth at or past the degree builds the whole row: it is raised to the
    last product's degree, so every step is whole and checked.
    """
    if depth >= bottom * (top - bottom):
        depth = bottom * (top - bottom + 1)
    cs = [1]
    for j in range(1, min(bottom, depth) + 1):
        m = top - bottom + j
        whole = len(cs) + m
        cs.extend([0] * (min(whole, depth + 1) - len(cs)))
        # multiply by 1 - q^m
        cs[m:] = map(sub, cs[m:], cs)
        # divide by 1 - q^j: the quotient is the running sum at distance j,
        # taken along each of the j residue classes or block of j by block
        # of j, whichever are fewer; the top j entries of a whole product
        # are the remainder
        if j * j <= len(cs):
            for start in range(j):
                cs[start::j] = accumulate(cs[start::j])
        else:
            for start in range(j, len(cs), j):
                cs[start:start + j] = map(add, cs[start:start + j], cs[start - j:start])
        if len(cs) == whole:
            if any(cs[-j:]):
                raise ArithmeticError(f"[{m}, {j}]: 1 - q^{j} left a remainder")
            del cs[-j:]
    return cs


def _prefix(top: int, bottom: int, depth: int) -> tuple[int, ...]:
    """Coefficients 0 through ``depth`` of [top, bottom] at least; () for the zero row.

    [top, bottom] == [top, top - bottom], so one cell, at the smaller
    bottom, serves both.  A read the cell holds returns the stored tuple at
    once: the cell passed the limits when it was stored.  Otherwise a row
    past ``MAX_DENSE_DEGREE`` in degree, or past ``MAX_GAUSSIAN_WORK`` in
    build steps, is refused with ``ValueError``, and the cell is rebuilt at
    least twice as deep, so a rising run of reads, such as a table's, costs
    a constant factor over its last read.  A read reaching the middle of the
    row builds the whole row, every step checked.  Every reader of a cell
    shares its one stored tuple.
    """
    if bottom < 0 or bottom > top:
        return ()
    if 2 * bottom > top:
        bottom = top - bottom
    key, degree = (top, bottom), bottom * (top - bottom)
    held = _prefixes.get(key, ())
    if len(held) > depth or len(held) > degree:
        return held
    _check_dense(degree)
    if bottom * degree > MAX_GAUSSIAN_WORK:
        subject = f"build of Gaussian [{top}, {bottom}] in {bottom * degree} steps"
        raise _exceeds(subject, MAX_GAUSSIAN_WORK)
    depth = max(depth, 2 * len(held))
    if 2 * depth >= degree:
        depth = degree
    prefix = tuple(_build(top, bottom, depth))
    with _prefixes_lock:
        if len(prefix) > len(_prefixes.get(key, ())):
            _prefixes[key] = prefix
        return _prefixes[key]


def _coefficients(top: int, bottom: int, low: int, high: int) -> tuple[int, ...]:
    """Coefficients ``low`` through ``high`` of [top, bottom], 0 outside the row.

    A window no deeper than the middle of the row is a slice of a prefix,
    and one wholly past the middle the reversed slice of its mirror's
    prefix, since coefficient n is coefficient degree - n.  Any other window
    crosses the middle, so its prefix is the whole row, and the window of the
    whole row is the stored tuple itself.  The row is admitted even when the
    window misses it.
    """
    degree = bottom * (top - bottom) if 0 <= bottom <= top else -1
    first, last = (low if low > 0 else 0), (high if high < degree else degree)
    if first > last:
        _prefix(top, bottom, 0)
        return (0,) * (high - low + 1)
    if 2 * first >= degree:
        cs = _prefix(top, bottom, degree - first)[degree - last:degree - first + 1][::-1]
    else:
        cs = _prefix(top, bottom, last)[first:last + 1]
    return (0,) * (first - low) + cs + (0,) * (high - last)


def qbinom(top: int, bottom: int, step: int = 1) -> IntPolynomial:
    """The Gaussian polynomial ``[top, bottom]`` evaluated at ``q**step``.

    >>> print(qbinom(4, 2))
    1 + q + 2*q^2 + q^3 + q^4
    >>> print(qbinom(3, 1, 2))
    1 + q^2 + q^4
    >>> print(qbinom(3, 4))
    0
    """
    if top < 0:
        raise ValueError(f"top must be nonnegative, got {top}")
    if step < 1:
        raise ValueError(f"step must be a positive integer, got {step}")
    return IntPolynomial(_prefix(top, bottom, bottom * (top - bottom))).inflate(step)


def check_gr1(top: int, bottom: int, step: int = 1) -> bool:
    """Exact check of [N, k] = q^(k*r) [N-1, k] + [N-1, k-1] at q^r."""
    if top < 1:
        raise ValueError(f"top must be at least 1, got {top}")
    rhs = qbinom(top - 1, bottom, step).shift(bottom * step) + qbinom(
        top - 1, bottom - 1, step
    )
    return qbinom(top, bottom, step) == rhs


def check_gr2(top: int, bottom: int, step: int = 1) -> bool:
    """Exact check of [N, k] = [N-1, k] + q^((N-k)*r) [N-1, k-1] at q^r."""
    if top < 1:
        raise ValueError(f"top must be at least 1, got {top}")
    rhs = qbinom(top - 1, bottom, step) + qbinom(top - 1, bottom - 1, step).shift(
        (top - bottom) * step
    )
    return qbinom(top, bottom, step) == rhs
