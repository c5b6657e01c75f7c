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
* ``pbar_convolution``  a convolution of one-kind counts by one clipped
                        kernel, ``_convolve``, that returns any window of
                        targets: [n, n] here, the whole row for
                        ``pbar_convolution_totals``, and shifted windows
                        for the Thm 3.x expansions;
* ``*_enumerate``   explicit brute-force enumeration of the partitions
                    themselves (the oracle; it never touches polynomial
                    arithmetic), generated in canonical order: descending
                    lexicographic on (first-kind parts, second-kind parts),
                    with no sort afterwards.  The listings and the bulk
                    rows alike walk each kind through one pruned walker,
                    ``_picks``; a listing walks by total, so its work is
                    bounded by the listing.  The walker keeps its own
                    stack, so no depth of walk exhausts the call stack,
                    and a listing whose partitions could hold more than
                    ``MAX_ENUMERATION_WORK`` parts is refused.

The bulk ``*_totals`` forms return one dense entry per target, so the
largest target is held to ``MAX_DENSE_DEGREE`` like every dense polynomial:
a span past it raises ``ValueError`` before the row is built.  The
enumeration rows are also sized by their walk, in pairs of picks and in
parts drawn; past ``MAX_ENUMERATION_WORK`` of either they raise
``ValueError`` before the first pick.  That sizing is ``_check_walk`` of
each kind's pick count ``_walk``.  A public row, ``_row``, is its
admission (the bounds, the span and that sizing) and then its tally:
``_kind_sums`` lists one kind's pick totals, which depend only on that
kind's (N, k), and ``_tally`` counts every pair of picks one by one, with
no check of its own.  The public rows are admitted one by one and list
both kinds afresh.  The oracle verifiers admit a whole grid at once, by
applying ``_check_walk`` to its costliest row, and then tally each point
from caches of the lists that last one call, so each list is enumerated
once per grid.  ``TwoKindQuery``, ``pbar_convolution`` and the listings
still take any r.

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

import threading
from math import comb
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

from .polynomial import ZERO, IntPolynomial, _check_dense, _exceeds, product
from .qbinomial import _coefficients, qbinom

__all__ = [
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
    "pbar_convolution_totals",
    "pbar_enumerate",
    "pbar_enumerate_totals",
    "qbar_genfun",
    "qbar_enumerate",
    "qbar_enumerate_totals",
]

# The most pairs of picks, and the most parts drawn, that one enumeration
# row may walk, and the most parts a listed partition may hold.  The largest
# row in the tests and the benchmark, at bounds 5, walks 63,504 pairs.
MAX_ENUMERATION_WORK = 10**6

# Sets a field of a frozen record, past the record's own ``__setattr__``.
_set = object.__setattr__


class _Record:
    """A record of the fields that ``_fields`` names, in order.

    Two records are equal when they are of the same class and their fields
    are equal, equal records hash alike, and the repr names every field, as
    for a dataclass.  ``__init__`` takes the field values in order and sets
    each once with ``_set``.  A record is frozen: assigning or deleting an
    attribute afterwards raises ``AttributeError``.  A subclass may thaw
    itself by restoring ``object``'s ``__setattr__`` and ``__delattr__``,
    and then sets ``__hash__`` to ``None``, as ``VerificationReport`` does.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # the tuple of field values, read by one C getter made once per class
        # (a tuple only for two fields or more, which every record has)
        cls._values = property(attrgetter(*cls._fields))

    def __init__(self, *values: object) -> None:
        for name, value in zip(self._fields, values, strict=True):
            _set(self, name, value)

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
        super().__init__(r, n1, n2, k1, k2, n)


def _check_step(r: int) -> None:
    """Reject a divisibility step below 1."""
    if r < 1:
        raise ValueError(f"r must be a positive integer, got {r}")


def _check_bounds(r: int, n1: int, n2: int, k1: int, k2: int) -> None:
    """Reject a step below 1 and negative bounds, naming the first offender.

    The usual, valid bounds pass one chained comparison; the offender is
    looked for only when it fails.
    """
    if r >= 1 and n1 >= 0 <= n2 and k1 >= 0 <= k2:
        return
    _check_step(r)
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
        super().__init__(
            tuple(sorted(first_kind, reverse=True)),
            tuple(sorted(second_kind, reverse=True)),
        )

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

    This is the coefficient of q^n in the Gaussian polynomial [N+k, N],
    read from a prefix of that row.
    """
    if N < 0 or k < 0 or n < 0:
        raise ValueError("p(N, k, n) needs nonnegative arguments")
    return _coefficients(N + k, N, n, n)[0]


def partition_p(n: int) -> int:
    """The unrestricted partition number, computed as p(n, n, n)."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return p(n, n, n)


def Q(N: int, k: int, n: int) -> int:
    """Partitions of n into exactly k distinct parts, each at most N.

    Computed as the coefficient of q^n in q^C(k+1, 2) * [N, k], read from a
    prefix of [N, k].
    """
    if N < 0 or k < 0 or n < 0:
        raise ValueError("Q(N, k, n) needs nonnegative arguments")
    return _coefficients(N, k, n - comb(k + 1, 2), n - comb(k + 1, 2))[0]


class _MemoInfo(_Record):
    """What ``cache_info`` reports of the generating-function memo."""

    _fields = ("hits", "misses", "currsize")
    __slots__ = _fields


class _Memo(dict):
    """The memo of ``pbar_gf``: its non-zero products by pair of Gaussian cells.

    A key (r, t1, b1, t2, b2) stands for [t1, b1] at q^r times [t2, b2].
    ``pbar_gf`` counts a read and subscripts the dict, inline; a key not
    held reaches ``__missing__``, which builds the product from the key
    and stores it under the lock unless another thread stored one first,
    and returns the stored one, so every reader of a key is handed one
    object.
    A zero product is never stored: ``pbar_gf`` answers it with the shared
    ``ZERO`` before it reads.

    A miss is a read that stored an entry, and a hit any other read; a zero
    read is neither.  Misses are counted under the lock, so they are exact
    under threads and equal the entries stored since the last ``clear``.
    Reads are counted outside it, to keep the read path to comparisons and
    one lookup, so the hits are exact in one thread but may lose an
    increment when threads read at once.
    """

    __slots__ = ("reads", "misses", "_lock")

    def __init__(self) -> None:
        super().__init__()
        self.reads = self.misses = 0
        self._lock = threading.Lock()

    def __missing__(self, key: tuple[int, ...]) -> IntPolynomial:
        r, t1, b1, t2, b2 = key
        gf = product(qbinom(t1, b1).coeffs, qbinom(t2, b2).coeffs, r)
        with self._lock:
            held = self.setdefault(key, gf)
            if held is gf:
                self.misses += 1
            return held

    def info(self) -> _MemoInfo:
        """The hits, the misses and the entries held, as ``cache_info``."""
        return _MemoInfo(self.reads - self.misses, self.misses, len(self))

    def clear(self) -> None:
        """Drop every entry and zero both counts, as ``cache_clear``."""
        with self._lock:
            super().clear()
            self.reads = self.misses = 0


_pbar_memo = _Memo()


def pbar_gf(r: int, n1: int, n2: int, k1: int, k2: int) -> IntPolynomial:
    """Generating function of the two-kind counts: [N1+k1, N1] at q^r times [N2+k2, N2].

    A step r below 1 is refused with ``ValueError``.  Negative bounds yield
    the shared ``ZERO``, the convention under which the recurrence and
    bijection identities are total, and no memo entry.  The step-1 row
    [N1+k1, N1] goes to ``product`` with step r, which pads it as it packs,
    so no copy at q^r is built.

    [N+k, N] == [N+k, k], so the memo keys a product by the two Gaussian
    cells it multiplies, (r, N1+k1, min(N1, k1), N2+k2, min(N2, k2)), the
    cells ``qbinomial`` keeps, and every bound tuple that swaps N and k
    within a kind reads that one stored object.  It is the package's one
    generating-function memo: ``qbar_gf`` and ``qbar_genfun`` read it too.
    ``cache_info()`` gives its hits, misses and entries: the misses are
    exact under threads, the hits only in one thread (see ``_Memo``).
    ``cache_clear()`` empties it, so a cold start is one call.
    """
    if r < 1:
        _check_step(r)
    if n1 >= 0 <= n2 and k1 >= 0 <= k2:
        _pbar_memo.reads += 1
        return _pbar_memo[r, n1 + k1, n1 if n1 < k1 else k1, n2 + k2, n2 if n2 < k2 else k2]
    return ZERO


pbar_gf.cache_info, pbar_gf.cache_clear = _pbar_memo.info, _pbar_memo.clear


def qbar_gf(r: int, n1: int, n2: int, k1: int, k2: int) -> IntPolynomial:
    """Generating function of the distinct-part counts.

    This is q^(r*C(k1+1, 2) + C(k2+1, 2)) * [N1, k1] at q^r * [N2, k2].  By
    the staircase map (Andrews, ch. 3), k distinct parts at most N less
    (k, k-1, ..., 1) are at most k parts at most N - k, the total lowered
    by C(k+1, 2); as products, [N, k] = [(N-k)+k, N-k].  So it is the
    product ``pbar_gf`` stores at (N1-k1, N2-k2, k1, k2), shifted: a view
    of the one memo, with no memo of its own.  The shifted copy is built at
    each call and kept nowhere; ``qbar_genfun`` reads a count without it.
    ``pbar_gf`` refuses a step below 1, and where k < 0 or k > N in some
    kind, a negative bound, it gives the shared ``ZERO``, which every shift
    leaves as it is.
    """
    shift = r * comb(k1 + 1, 2) + comb(k2 + 1, 2) if k1 >= 0 <= k2 else 0
    return pbar_gf(r, n1 - k1, n2 - k2, k1, k2).shift(shift)


def pbar_genfun(query: TwoKindQuery) -> int:
    """Two-kind count via the generating-function route."""
    return pbar_gf(query.r, query.n1, query.n2, query.k1, query.k2).coeff(query.n)


def _convolve(
    r: int, n1: int, n2: int, k1: int, k2: int, low: int, high: int
) -> list[int]:
    """Entries ``low`` through ``high`` of the two-kind count row, by convolution.

    Entry n is the sum over j of p(N1, k1, j) * p(N2, k2, n - r*j), 0
    outside the row.  j runs only where both counts can be nonzero for some
    n in the window, and each row is read once, as the window those j need.
    Each first-kind count then adds itself times the slice of the
    second-kind window that lands in the window, one list comprehension
    per j; a slice that lands wholly inside needs no clipping.  No
    polynomial product is used, so this route stays apart from the
    generating-function one.
    """
    j_low, j_high = max(0, -((n2 * k2 - low) // r)), min(n1 * k1, high // r)
    first = _coefficients(n1 + k1, n1, j_low, j_high)
    m_low = max(0, low - r * j_high)
    second = _coefficients(n2 + k2, n2, m_low, min(n2 * k2, high - r * j_low))
    out = [0] * (high - low + 1)
    size, width = len(out), len(second)
    for j, a in enumerate(first, j_low):
        # out[i] takes a * second[i - shift], clipped by comparisons and by
        # the slices' own ends, as in ``_picks``: min and max calls cost more
        shift = r * j + m_low - low
        stop = shift + width
        if shift >= 0 and stop <= size:
            start, lands = shift, second
        else:
            start = shift if shift > 0 else 0
            lands = second[start - shift:size - shift]
        out[start:stop] = [c + a * b for c, b in zip(out[start:stop], lands)]
    return out


def pbar_convolution(query: TwoKindQuery) -> int:
    """Two-kind count as a convolution of one-kind counts: ``_convolve`` at [n, n].

    The query's fields are the kernel's (r, N1, N2, k1, k2) and low = n.
    """
    return _convolve(*query._values, query.n)[0]


def pbar_convolution_totals(r: int, n1: int, n2: int, k1: int, k2: int) -> list[int]:
    """Two-kind counts for every target, by the convolution route.

    Entry ``n`` is ``pbar_convolution`` at target n, for n from 0 through
    r*N1*k1 + N2*k2, the same span as ``pbar_enumerate_totals``: the
    ``_convolve`` window over the whole row, which reads both Gaussian rows
    whole and takes N1*k1 + 1 Python steps.
    """
    _check_bounds(r, n1, n2, k1, k2)
    top = r * n1 * k1 + n2 * k2
    _check_dense(top)
    return _convolve(r, n1, n2, k1, k2, 0, top)


def qbar_genfun(query: TwoKindQuery) -> int:
    """Distinct-part two-kind count via the generating-function route.

    The coefficient of q^(n - s) in ``pbar_gf`` at (N1-k1, N2-k2, k1, k2),
    with s = r*C(k1+1, 2) + C(k2+1, 2), as ``qbar_gf`` says, but with no
    shifted copy built, whatever s is.  A kind with k > N lowers its bound
    below 0, where ``pbar_gf`` is ``ZERO``.
    """
    r, n1, n2, k1, k2, n = query._values
    return pbar_gf(r, n1 - k1, n2 - k2, k1, k2).coeff(n - r * comb(k1 + 1, 2) - comb(k2 + 1, 2))


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

    The walk keeps an explicit stack, not the call stack, so its depth is
    bounded by memory alone, and one list of the parts placed, so that its
    memory grows with the depth, not with its square.  Each level computes
    the descending range of candidates that pass both cuts.  A level with
    more than one part left to place and some candidate becomes a frame on
    the stack, holding that range, the count left below it and its own
    window [low, high], from which its placed part is subtracted.  Every
    other level's candidates are last parts, each completing a tuple, so
    they are yielded at once.  At gap 0 a level yields its own prefix after
    its candidates.  A level with an empty window, which only the outermost
    can have, walks no candidate.
    """
    parts, frames = [], []
    while True:
        # the level below ``parts``: ``count`` more parts, at most ``max_value``
        candidates: Iterable[int] = ()
        if count and low <= high:
            # the two cuts, as comparisons: min and max calls cost a third
            # of an exact-target walk
            least = gap * count * (count - 1) // 2
            top = high - least
            if top > max_value:
                top = max_value
            stop = (low + least - 1) // count
            if stop < gap * (count - 1):
                stop = gap * (count - 1)
            candidates = range(top, stop, -1)
        if count > 1 and candidates:
            frames.append((iter(candidates), count - 1, low, high))
            parts.append(0)
        else:
            # a level with no frame: each candidate, if any, is a last part
            head = tuple(parts)
            for last in candidates:
                yield head + (last,)
            if low <= 0 <= high and (gap == 0 or count == 0):
                yield head
        # place the next candidate of the deepest frame that has one left
        while frames:
            candidates, count, low, high = frames[-1]
            first = next(candidates, 0)
            if first:
                parts[-1] = first
                max_value, low, high = first - gap, low - first, high - first
                break
            frames.pop()
            parts.pop()
            if gap == 0 and low <= 0 <= high:
                yield tuple(parts)
        else:
            return


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

    Every part is at least 1, so no partition listed holds more than
    min(k1 + k2, n) parts; past ``MAX_ENUMERATION_WORK`` the listing is
    refused with ``ValueError`` before the first pick, since each part
    placed costs memory in the walk and in the record.
    """
    r, n, n2, k2 = query.r, query.n, query.n2, query.k2
    depth = min(query.k1 + k2, n)
    if depth > MAX_ENUMERATION_WORK:
        subject = f"listing of partitions of up to {depth} parts"
        raise _exceeds(subject, MAX_ENUMERATION_WORK)
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


def _walk(n: int, k: int, gap: int) -> tuple[int, int]:
    """One kind's picks at ``gap`` as (k, t): k parts picked in one of C(t, k) ways.

    At gap 0 these are the multisets of at most k parts from 1..N, C(N+k, k)
    of them; at gap 1 the sets of exactly k distinct parts, C(N, k).
    """
    return k, n + k - gap * k


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
        subject = f"enumeration of {pairs} pairs of picks drawing {parts} parts"
        raise _exceeds(subject, MAX_ENUMERATION_WORK)


def _kind_sums(n: int, k: int, gap: int) -> list[int]:
    """The totals of one kind's picks at ``gap``, in the order ``_picks`` walks them.

    The totals depend only on the kind's own (N, k), not on r or on the
    other kind, so an oracle grid can list each kind once and share the
    list between rows; nothing here keeps it.
    """
    return [sum(parts) for parts in _picks(n, k, 0, n * k, gap)]


def _tally(first: Sequence[int], second: Sequence[int]) -> list[int]:
    """The enumeration row of two kinds' pick totals, unchecked.

    ``first`` lists the first kind's totals already multiplied by r, and
    ``second`` the second kind's.  Every pair of picks is counted on its
    own, at first + second, one increment each, into a row that runs up to
    the greatest pair.  A kind with no pick, an empty list, gives the row
    [0].  Nothing is checked here, and the lists are only read, so they may
    be shared between rows: ``_row`` admits each public row before its
    tally, and the oracle verifiers admit a whole grid at once.
    """
    if not (first and second):
        return [0]
    counts = [0] * (max(first) + max(second) + 1)
    for a in first:
        for b in second:
            counts[a + b] += 1
    return counts


def _row(gap: int, r: int, n1: int, n2: int, k1: int, k2: int) -> list[int]:
    """The enumeration row at ``gap``: its admission, then its ``_tally``.

    Gap 0 gives ``pbar_enumerate_totals`` and gap 1 ``qbar_enumerate_totals``.
    At gap 1 a kind with k > N has no pick, and the row is [0].  Otherwise
    the row's span is checked against ``MAX_DENSE_DEGREE`` and its walk
    sized by ``_check_walk`` before either kind is listed, so an oversized
    row is refused before its first pick.  Then ``_kind_sums`` lists both
    kinds, and the tally counts every pair of picks.
    """
    _check_bounds(r, n1, n2, k1, k2)
    if gap and (k1 > n1 or k2 > n2):
        return [0]
    # each kind's greatest total: its k parts at the top of 1..N
    top = r * (n1 * k1 - gap * comb(k1, 2)) + n2 * k2 - gap * comb(k2, 2)
    _check_dense(top)
    _check_walk(_walk(n1, k1, gap), _walk(n2, k2, gap))
    first = [r * s for s in _kind_sums(n1, k1, gap)]
    return _tally(first, _kind_sums(n2, k2, gap))


def pbar_enumerate_totals(r: int, n1: int, n2: int, k1: int, k2: int) -> list[int]:
    """Counts of two-kind partitions for every target, by explicit enumeration.

    Entry ``n`` of the result is the number of two-kind partitions of ``n``
    under the bounds; the list covers 0 through r*N1*k1 + N2*k2.  This is the
    bulk form of the enumeration oracle: it walks every admissible multiset
    pair and tallies by total, with no polynomial arithmetic.  ``_picks``
    walks the multisets of at most k parts from 1..N, C(N+k, k) per kind.
    """
    return _row(0, r, n1, n2, k1, k2)


def qbar_enumerate_totals(r: int, n1: int, n2: int, k1: int, k2: int) -> list[int]:
    """Distinct-part analogue of ``pbar_enumerate_totals``.

    The list covers 0 through the largest achievable total (at least 0); all
    entries are 0 when no selection of exactly k1 and k2 distinct parts
    exists.  ``_picks`` walks the sets of exactly k distinct parts from 1..N,
    C(N, k) per kind.
    """
    return _row(1, r, n1, n2, k1, k2)
