"""Gaussian binomial coefficients, exactly, in q and in q^r.

The central object is ``qbinom(top, bottom, step)``: the q-binomial
coefficient with ``q`` replaced by ``q**step``.  Out-of-range ``bottom``
(negative, or larger than ``top``) gives the zero polynomial; this is the
convention that makes every recurrence in this package total.

Polynomials are built by the Pascal-style recurrence

    [N, k] = q^k [N-1, k] + [N-1, k-1]

over a persistent memo table, never by polynomial division, so everything
stays in plain integer arithmetic.  The product characterization against the
q-shifted factorial is kept as an independent test, not as the construction
path.
"""

from __future__ import annotations

from .polynomial import ONE, ZERO, IntPolynomial


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


# Memo table for step-1 q-binomials, keyed (top, bottom) with 0 < bottom < top.
# Values are immutable; concurrent duplicate inserts are idempotent, so plain
# dict access is safe under the GIL.
_BASE_CACHE: dict[tuple[int, int], IntPolynomial] = {}


def _cell(top: int, bottom: int) -> IntPolynomial:
    if bottom < 0 or bottom > top:
        return ZERO
    if bottom == 0 or bottom == top:
        return ONE
    return _BASE_CACHE[(top, bottom)]


def _gaussian_base(top: int, bottom: int) -> IntPolynomial:
    """``[top, bottom]`` at step 1, filled iteratively row by row."""
    if bottom < 0 or bottom > top:
        return ZERO
    if bottom == 0 or bottom == top:
        return ONE
    got = _BASE_CACHE.get((top, bottom))
    if got is not None:
        return got
    for t in range(2, top + 1):
        lo = max(1, bottom - (top - t))
        hi = min(t - 1, bottom)
        for b in range(lo, hi + 1):
            if (t, b) not in _BASE_CACHE:
                _BASE_CACHE[(t, b)] = _cell(t - 1, b).shift(b) + _cell(t - 1, b - 1)
    return _BASE_CACHE[(top, bottom)]


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
