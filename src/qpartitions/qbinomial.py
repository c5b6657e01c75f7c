"""Gaussian binomial coefficients, exactly, in q and in q^r.

The central object is ``qbinom(top, bottom, step)``: the q-binomial
coefficient with ``q`` replaced by ``q**step``.  Out-of-range ``bottom``
(negative, or larger than ``top``) gives the zero polynomial; this is the
convention that makes every recurrence in this package total.

Each polynomial is built on its own from the product formula

    [N, j] = [N, j-1] * (1 - q^(N-j+1)) / (1 - q^j),    j = 1..k,

in plain integer arithmetic: the division is an exact running sum, and its
zero remainder is checked.  Finished polynomials are memoized.  A row whose
degree bottom * (top - bottom) passes ``MAX_DENSE_DEGREE`` is refused with
``ValueError`` before it is built.  The Pascal recurrences (``check_gr1``,
``check_gr2``) and the product characterization against the q-shifted
factorial are independent checks, not the construction path.
"""

from __future__ import annotations

import functools

from .polynomial import ONE, ZERO, IntPolynomial, _check_dense


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


@functools.lru_cache(maxsize=None)
def _gaussian_base(top: int, bottom: int) -> IntPolynomial:
    """``[top, bottom]`` at step 1, for ``0 <= 2 * bottom <= top``."""
    cs = [1]
    for j in range(1, bottom + 1):
        m = top - j + 1
        cs.extend([0] * m)
        # multiply by 1 - q^m
        for i in range(len(cs) - 1, m - 1, -1):
            cs[i] -= cs[i - m]
        # divide by 1 - q^j: the quotient is the running sum along each
        # residue class mod j, and the top j entries are the remainder
        for i in range(j, len(cs)):
            cs[i] += cs[i - j]
        if any(cs[-j:]):
            raise ArithmeticError(f"[{top}, {j}]: 1 - q^{j} left a remainder")
        del cs[-j:]
    return IntPolynomial(cs)


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
    if bottom < 0 or bottom > top:
        return ZERO
    if 2 * bottom > top:
        # [top, bottom] == [top, top - bottom]: one memo entry serves both
        bottom = top - bottom
    _check_dense(bottom * (top - bottom))
    return _gaussian_base(top, bottom).inflate(step)


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
