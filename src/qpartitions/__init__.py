"""Exact restricted-partition counting for parts of two kinds.

The package computes, enumerates, and cross-verifies:

* Gaussian polynomials (q-binomial coefficients) in q and q^r, built by
  recurrence in exact integer arithmetic (``qbinom``);
* one-kind restricted partition counts ``p(N, k, n)`` and the partition
  number ``partition_p(n)``;
* two-kind counts with a divisibility step r, by three independent routes:
  generating function, convolution, and brute-force enumeration
  (``pbar_genfun``, ``pbar_convolution``, ``pbar_enumerate``);
* distinct-part companions ``qbar_genfun``, ``qbar_enumerate``, ``Q``;
* a battery of identity verifiers returning structured reports
  (``run_identity``, ``verify_*``), including two q-series summation
  identities checked exactly as polynomials and a short-sum formula for the
  partition number (``p_by_corollary``).

The command-line front end lives in ``qpartitions.cli`` (subcommands gauss,
count, enumerate, verify, table).
"""

from .polynomial import ONE, ZERO, IntPolynomial, monomial, q
from .qbinomial import check_gr1, check_gr2, pochhammer_q, qbinom
from .partitions import (
    DistinctTwoKindPartition,
    Q,
    TwoKindPartition,
    TwoKindQuery,
    p,
    partition_p,
    pbar_convolution,
    pbar_enumerate,
    pbar_enumerate_totals,
    pbar_genfun,
    pbar_gf,
    qbar_enumerate,
    qbar_enumerate_totals,
    qbar_genfun,
    qbar_gf,
)
from .identities import (
    IDENTITY_IDS,
    Counterexample,
    VerificationReport,
    corollary_ceiling_index,
    corollary_lower_index,
    corollary_term_count,
    corollary_terms,
    expand_p_thm31,
    p_by_corollary,
    run_identity,
    verify_cor32,
    verify_guo_yang_1,
    verify_guo_yang_2,
    verify_thm21,
    verify_thm22,
    verify_thm23,
    verify_thm24,
    verify_thm25,
    verify_thm26,
    verify_thm31,
    verify_thm33,
)

__version__ = "0.1.0"

__all__ = [
    "IntPolynomial",
    "monomial",
    "ZERO",
    "ONE",
    "q",
    "pochhammer_q",
    "qbinom",
    "check_gr1",
    "check_gr2",
    "TwoKindQuery",
    "TwoKindPartition",
    "DistinctTwoKindPartition",
    "p",
    "partition_p",
    "Q",
    "pbar_gf",
    "qbar_gf",
    "pbar_genfun",
    "pbar_convolution",
    "pbar_enumerate",
    "pbar_enumerate_totals",
    "qbar_genfun",
    "qbar_enumerate",
    "qbar_enumerate_totals",
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
    "expand_p_thm31",
    "corollary_lower_index",
    "corollary_ceiling_index",
    "corollary_term_count",
    "corollary_terms",
    "p_by_corollary",
    "__version__",
]
