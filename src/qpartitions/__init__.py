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
package re-exports those lists, in module order, and ``__version__``.  The
names from ``identities``, the submodule itself, and ``__all__`` are
resolved on first access (PEP 562), so a command that verifies nothing
never compiles the verifiers; a probe for a missing dunder name, such as
tools make, does not compile them either.
"""

from .polynomial import *
from .qbinomial import *
from .partitions import *

__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    if name.startswith("__") and name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .identities import __all__ as deferred

    if name == "__all__":
        value = [
            *polynomial.__all__,
            *qbinomial.__all__,
            *partitions.__all__,
            *deferred,
            "__version__",
        ]
    elif name in deferred:
        value = getattr(identities, name)
    elif name in globals():
        # the import above bound the submodule ``identities`` itself
        return globals()[name]
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    exported = __getattr__("__all__")
    return sorted({*globals(), *exported})
