"""Identity verifiers: one runnable check per supported identity.

Each verifier sweeps a finite parameter grid, compares both sides of its
identity exactly (as polynomials or as integer counts), and returns a
``VerificationReport``.  A report with an empty failure list is a pass;
failures carry the offending parameter tuple and both sides' values.

The registry at the bottom maps stable identity ids (``"thm2.1"``, ``"eq2"``,
``"cor3.2"``, ...) to their verifiers; ``run_identity`` is the single entry
point used by the command-line front end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import zip_longest
from math import comb, isqrt
from typing import Callable, Sequence

from .polynomial import ZERO, IntPolynomial, packed_sums
from .qbinomial import qbinom
from .partitions import (
    TwoKindQuery,
    partition_p,
    pbar_convolution,
    pbar_convolution_totals,
    pbar_enumerate_totals,
    pbar_gf,
    qbar_enumerate_totals,
    qbar_gf,
)


@dataclass(frozen=True)
class Counterexample:
    """One failing grid point: the parameters and both sides, rendered."""

    params: tuple[int, ...]
    lhs: str
    rhs: str

    def as_dict(self) -> dict:
        return {"params": list(self.params), "lhs": self.lhs, "rhs": self.rhs}


@dataclass
class VerificationReport:
    """Outcome of sweeping one identity over a parameter grid."""

    identity_id: str
    grid: str
    checked: int
    failures: list[Counterexample] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.checked <= 0:
            raise ValueError(
                f"{self.identity_id}: empty verification grid (checked nothing)"
            )
        self.failures.sort(key=lambda c: c.params)

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
    as 0 past its end.
    """
    return [
        Counterexample(params + (n,), str(lhs), str(rhs))
        for n, (lhs, rhs) in enumerate(zip_longest(got, expected, fillvalue=0))
        if lhs != rhs
    ]


# ---------------------------------------------------------------------------
# Polynomial identities for sums of Gaussian products.


def verify_guo_yang_1(m_max: int = 10, n_max: int = 10) -> VerificationReport:
    """First Guo-Yang identity, checked exactly as polynomials.

    For each grid point: the sum over k of
    [m+k, k] at q^2 times [m+1, n-2k] times q^C(n-2k, 2)
    must equal [m+n, n].

    The left sides of all n at one m are summed by ``packed_sums``: each
    Gaussian is packed once for that m (the q^2 ones padded, not inflated),
    all at one digit width, each product is one integer product, and each
    side is read back once and compared with [m+n, n].
    """
    failures = []
    checked = 0
    for m in range(m_max + 1):
        # [m + j, j] and [m + 1, j], for every j the sides at this m use
        wide = [qbinom(m + j, j) for j in range(n_max + 1)]
        narrow = [qbinom(m + 1, j).coeffs for j in range(n_max + 1)]
        sides = [
            [
                (1, comb(n - 2 * k, 2), 2, wide[k].coeffs, narrow[n - 2 * k])
                for k in range(n // 2 + 1)
            ]
            for n in range(n_max + 1)
        ]
        for n, coeffs in enumerate(packed_sums(sides)):
            checked += 1
            lhs = IntPolynomial(coeffs)
            rhs = wide[n]
            if lhs != rhs:
                failures.append(Counterexample((m, n), str(lhs), str(rhs)))
    grid = f"0<=m<={m_max}, 0<=n<={n_max}"
    return VerificationReport("eq2", grid, checked, failures)


def verify_guo_yang_2(m_max: int = 10, n_max: int = 10) -> VerificationReport:
    """Second Guo-Yang identity, checked exactly as polynomials.

    The q^4 side (sum over k up to n // 4) must equal the alternating q^2
    side (sum over k up to n // 2 with sign (-1)^k).

    Both sides of all n at one m are summed by ``packed_sums``: each
    Gaussian is packed once for that m (the q^2 and q^4 ones padded, not
    inflated), all at one digit width, and each side is read back once.
    """
    failures = []
    checked = 0
    for m in range(m_max + 1):
        # [m + j, j] and [m + 1, j], for every j the sides at this m use
        wide = [qbinom(m + j, j).coeffs for j in range(n_max + 1)]
        narrow = [qbinom(m + 1, j).coeffs for j in range(n_max + 1)]
        sides = []
        for n in range(n_max + 1):
            sides.append([
                (1, comb(n - 4 * k, 2), 4, wide[k], narrow[n - 4 * k])
                for k in range(n // 4 + 1)
            ])
            sides.append([
                (-1 if k % 2 else 1, 0, 2, wide[k], wide[n - 2 * k])
                for k in range(n // 2 + 1)
            ])
        sums = packed_sums(sides)
        # the sides come in pairs, left then right
        for n, (lhs, rhs) in enumerate(zip(sums, sums)):
            checked += 1
            lhs, rhs = IntPolynomial(lhs), IntPolynomial(rhs)
            if lhs != rhs:
                failures.append(Counterexample((m, n), str(lhs), str(rhs)))
    grid = f"0<=m<={m_max}, 0<=n<={n_max}"
    return VerificationReport("eq3", grid, checked, failures)


# ---------------------------------------------------------------------------
# Structural properties of the two-kind counting function.


def _two_kind_grid(r_max: int, param_max: int, lower: int = 0):
    for r in range(1, r_max + 1):
        for n1 in range(lower, param_max + 1):
            for n2 in range(lower, param_max + 1):
                for k1 in range(param_max + 1):
                    for k2 in range(param_max + 1):
                        yield r, n1, n2, k1, k2


def _rows_against_oracle(
    identity_id: str,
    route: Callable[..., Sequence[int]],
    oracle: Callable[..., Sequence[int]],
    r_max: int,
    param_max: int,
) -> VerificationReport:
    """Compare a route's row of counts with the oracle's for every bound tuple."""
    failures = []
    checked = 0
    for bounds in _two_kind_grid(r_max, param_max):
        checked += 1
        failures += _row_failures(bounds, route(*bounds), oracle(*bounds))
    grid = f"1<=r<={r_max}, 0<=N1,N2,k1,k2<={param_max}, all n"
    return VerificationReport(identity_id, grid, checked, failures)


def verify_thm21(r_max: int = 3, param_max: int = 4) -> VerificationReport:
    """Convolution route against the enumeration oracle, every target."""
    return _rows_against_oracle(
        "thm2.1", pbar_convolution_totals, pbar_enumerate_totals, r_max, param_max
    )


def verify_thm22(r_max: int = 3, param_max: int = 4) -> VerificationReport:
    """Generating-function coefficients against the enumeration oracle."""
    return _rows_against_oracle(
        "thm2.2", lambda *b: pbar_gf(*b).coeffs, pbar_enumerate_totals, r_max, param_max
    )


def verify_thm23(r_max: int = 3, param_max: int = 5) -> VerificationReport:
    """The three five-term recurrences, each checked as a polynomial identity.

    Checking generating functions covers every target n at once; boundary
    terms with a part-count bound at -1 vanish through the zero branch of
    the Gaussian polynomial.
    """
    failures = []
    checked = 0
    for r, n1, n2, k1, k2 in _two_kind_grid(r_max, param_max, lower=1):
        gf = pbar_gf(r, n1, n2, k1, k2)
        relations = (
            pbar_gf(r, n1 - 1, n2 - 1, k1, k2).shift(k1 * r + k2)
            + pbar_gf(r, n1 - 1, n2, k1, k2 - 1).shift(k1 * r)
            + pbar_gf(r, n1, n2 - 1, k1 - 1, k2).shift(k2)
            + pbar_gf(r, n1, n2, k1 - 1, k2 - 1),
            pbar_gf(r, n1 - 1, n2 - 1, k1, k2)
            + pbar_gf(r, n1 - 1, n2, k1, k2 - 1).shift(n2)
            + pbar_gf(r, n1, n2 - 1, k1 - 1, k2).shift(n1 * r)
            + pbar_gf(r, n1, n2, k1 - 1, k2 - 1).shift(n1 * r + n2),
            pbar_gf(r, n1 - 1, n2 - 1, k1, k2).shift(k1 * r)
            + pbar_gf(r, n1 - 1, n2, k1, k2 - 1).shift(k1 * r + n2)
            + pbar_gf(r, n1, n2 - 1, k1 - 1, k2)
            + pbar_gf(r, n1, n2, k1 - 1, k2 - 1).shift(n2),
        )
        for index, rhs in enumerate(relations, start=1):
            checked += 1
            if gf != rhs:
                failures.append(
                    Counterexample((index, r, n1, n2, k1, k2), str(gf), str(rhs))
                )
    grid = (
        f"1<=r<={r_max}, 1<=N1,N2<={param_max}, 0<=k1,k2<={param_max}, "
        "three relations, all n"
    )
    return VerificationReport("thm2.3", grid, checked, failures)


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
    """
    failures = []
    checked = 0
    for r, n1, n2, k1, k2 in _two_kind_grid(r_max, param_max):
        checked += 1
        gf = pbar_gf(r, n1, n2, k1, k2)
        for swapped in (
            pbar_gf(r, k1, n2, n1, k2),
            pbar_gf(r, n1, k2, k1, n2),
            pbar_gf(r, k1, k2, n1, n2),
        ):
            if gf != swapped:
                failures.append(
                    Counterexample((r, n1, n2, k1, k2), str(gf), str(swapped))
                )
        if not gf.is_self_reciprocal():
            failures.append(
                Counterexample(
                    (r, n1, n2, k1, k2),
                    str(gf),
                    str(IntPolynomial(tuple(reversed(gf.coeffs)))),
                )
            )
    grid = f"1<=r<={r_max}, 0<=N1,N2,k1,k2<={param_max}"
    return VerificationReport("thm2.4", grid, checked, failures)


def verify_thm25(r_max: int = 3, param_max: int = 5) -> VerificationReport:
    """The staircase bijection between distinct-part and unrestricted counts.

    The distinct-part generating function must equal the two-kind generating
    function at (N1-k1, N2-k2) shifted by r*C(k1+1, 2) + C(k2+1, 2); when a
    reduced bound is negative, both sides vanish.
    """
    failures = []
    checked = 0
    for r, n1, n2, k1, k2 in _two_kind_grid(r_max, param_max):
        checked += 1
        lhs = qbar_gf(r, n1, n2, k1, k2)
        offset = r * comb(k1 + 1, 2) + comb(k2 + 1, 2)
        rhs = pbar_gf(r, n1 - k1, n2 - k2, k1, k2).shift(offset)
        if lhs != rhs:
            failures.append(Counterexample((r, n1, n2, k1, k2), str(lhs), str(rhs)))
    grid = f"1<=r<={r_max}, 0<=N1,N2,k1,k2<={param_max}"
    return VerificationReport("thm2.5", grid, checked, failures)


def verify_thm26(r_max: int = 3, param_max: int = 5) -> VerificationReport:
    """Distinct-part generating function against the enumeration oracle."""
    return _rows_against_oracle(
        "thm2.6", lambda *b: qbar_gf(*b).coeffs, qbar_enumerate_totals, r_max, param_max
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


def verify_thm31(n_max: int = 8, k_max: int = 8) -> VerificationReport:
    """The r=2 expansion against the one-kind count, over a full grid.

    With the two-kind generating function substituted, Thm 3.1 at (N, k) is
    the first Guo-Yang identity (eq2) at (m, n) = (N, k).  Here it is checked
    on rows of counts with a plain convolution loop, and ``eq2`` checks the
    same identity through the polynomial product; their agreement is a route
    agreement.
    """
    failures = []
    checked = 0
    for N in range(n_max + 1):
        for k in range(k_max + 1):
            checked += N * k + 1
            failures += _row_failures(
                (N, k), _expansion(2, N, k).coeffs, qbinom(N + k, N).coeffs
            )
    grid = f"0<=N<={n_max}, 0<=k<={k_max}, 0<=n<=N*k"
    return VerificationReport("thm3.1", grid, checked, failures)


def corollary_lower_index(n: int) -> int:
    """Smallest j >= 0 with C(n-2j, 2) <= n, found by exact integer scan.

    This is the first index whose summand can be nonzero in the partition
    formula below; the scan is bit-exact for arbitrarily large n.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    j = 0
    while comb(n - 2 * j, 2) > n:
        j += 1
    return j


def corollary_ceiling_index(n: int) -> int:
    """The same lower index, via the closed-form ceiling expression.

    Evaluates ceil(n/2 - 1/4 - sqrt(n/2 + 1/16)) exactly: the expression
    equals (2n - 1 - sqrt(8n + 1)) / 4, and for integer arguments t the
    comparison t <= sqrt(8n + 1) is decided by isqrt.  Kept alongside the
    scan so the two can be checked against each other.
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
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
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
    targets = range(n_max + 1)
    failures = _row_failures(
        (), [p_by_corollary(n) for n in targets], [partition_p(n) for n in targets]
    )
    return VerificationReport("cor3.2", f"0<=n<={n_max}", len(targets), failures)


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
    failures = []
    checked = 0
    for N in range(n_max + 1):
        for k in range(k_max + 1):
            checked += N * k + 1
            rhs = ZERO
            for j in range(k // 2 + 1):
                row = IntPolynomial(pbar_convolution_totals(2, N, N, j, k - 2 * j))
                rhs = rhs + (-row if signed and j % 2 else row)
            failures += _row_failures((N, k), _expansion(4, N, k).coeffs, rhs.coeffs)
    grid = f"0<=N<={n_max}, 0<=k<={k_max}, 0<=n<=N*k" + (
        "" if signed else " (sign factor dropped)"
    )
    return VerificationReport("thm3.3", grid, checked, failures)


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
