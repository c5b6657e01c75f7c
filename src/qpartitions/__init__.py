"""Exact restricted-partition counting for parts of two kinds.

The package computes, enumerates, and cross-verifies:

* Gaussian polynomials (q-binomial coefficients) in q and q^r, built from
  the product formula in exact integer arithmetic (``qbinom``);
* one-kind restricted partition counts ``p(N, k, n)`` and the partition
  number ``partition_p(n)``;
* two-kind counts with a divisibility step r, by three independent routes:
  generating function, convolution, and brute-force enumeration
  (``pbar_genfun``, ``pbar_convolution``, ``pbar_enumerate``), the last two
  also for every target at once (``pbar_convolution_totals``,
  ``pbar_enumerate_totals``);
* distinct-part companions ``qbar_genfun``, ``qbar_enumerate``, ``Q``;
* a battery of identity verifiers returning structured reports
  (``run_identity``, ``verify_*``), including two q-series summation
  identities checked exactly as polynomials and a short-sum formula for the
  partition number (``p_by_corollary``).

The command-line front end lives in ``qpartitions.cli`` (subcommands gauss,
count, enumerate, verify, table).

Each submodule's ``__all__`` is the one list of the names it exports; the
package re-exports those lists, in module order, and ``__version__``.
"""

from .polynomial import *
from .qbinomial import *
from .partitions import *
from .identities import *

__version__ = "0.1.0"

__all__ = [
    *polynomial.__all__,
    *qbinomial.__all__,
    *partitions.__all__,
    *identities.__all__,
    "__version__",
]
