"""Span tracing of qpartitions from outside, and the per-layer metrics it yields.

``install()`` rebinds the public functions of each layer to wrappers that
record one span per call: name, start, end, parent span and request id.
The library is not edited; functions imported by name are rebound in every
qpartitions module that holds them, and ``IntPolynomial`` methods are
replaced on the class.  ``run_identity`` is wrapped rather than the
``verify_*`` functions, because the verifier registry holds direct
references to those.

Spans are kept in flat arrays in memory and written to one file when the
worker ends (``Recorder.write``); ``Summary`` turns span files into the
per-layer metrics.  A span's self time is its duration minus the durations
of its children; calls are strictly nested in one thread, so the children
never overlap.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict

IDENTITY_IDS = (
    "thm2.1", "thm2.2", "thm2.3", "thm2.4", "thm2.5", "thm2.6",
    "thm3.1", "thm3.3", "cor3.2", "eq2", "eq3",
)

# Span names; each is traced around the function of the same layer.
SPANS = (
    "polynomial.mul",
    "polynomial.add",
    "polynomial.shift",
    "polynomial.inflate",
    "polynomial.coeff",
    "polynomial.is_self_reciprocal",
    "qbinomial.qbinom",
    "partitions.p",
    "partitions.convolution",
    "partitions.pbar_gf",
    "partitions.pbar_enumerate",
    "partitions.qbar_enumerate",
    "partitions.pbar_enumerate_totals",
    "partitions.qbar_enumerate_totals",
    "cli.main",
) + tuple(f"identities.{i}" for i in IDENTITY_IDS)
_SPAN_ID = {name: i for i, name in enumerate(SPANS)}

# (metric, unit, better, the end-to-end metric and workload it should move).
LAYER_METRICS = (
    ("polynomial.mul.calls", "count", "lower", "requests_per_s, latency_tail_ms on verify-poly; no change elsewhere"),
    ("polynomial.mul.self_s", "s", "lower", "requests_per_s, latency_tail_ms on verify-poly; no change elsewhere"),
    ("polynomial.mul.coeff_products", "count", "lower", "requests_per_s, latency_tail_ms on verify-poly"),
    ("polynomial.mul.max_len", "count", "lower", "latency_tail_ms on verify-poly"),
    ("polynomial.add.calls", "count", "lower", "latency_tail_ms on cli-oneshot"),
    ("polynomial.add.self_s", "s", "lower", "latency_tail_ms on cli-oneshot"),
    ("polynomial.add.coeffs", "count", "lower", "latency_tail_ms on cli-oneshot"),
    ("polynomial.other.self_s", "s", "lower", "requests_per_s on verify-oracle"),
    ("qbinomial.qbinom.calls", "count", "lower", "requests_per_s on verify-oracle"),
    ("qbinomial.qbinom.self_s", "s", "lower", "requests_per_s on verify-oracle"),
    ("qbinomial.qbinom.coeffs_returned", "count", "lower", "peak_rss_mb on cli-oneshot"),
    ("qbinomial.qbinom.distinct_share", "ratio", "lower", "names the reuse a memo-dependent gain relies on"),
    ("partitions.p.calls", "count", "lower", "requests_per_s on verify-oracle, latency_p50_ms on cli-oneshot"),
    ("partitions.p.self_s", "s", "lower", "requests_per_s on verify-oracle, latency_p50_ms on cli-oneshot"),
    ("partitions.convolution.self_s", "s", "lower", "requests_per_s on verify-oracle, latency_p50_ms on cli-oneshot"),
    ("partitions.pbar_gf.self_s", "s", "lower", "requests_per_s, peak_rss_mb on verify-poly"),
    ("partitions.pbar_gf.hit_share", "ratio", "higher", "requests_per_s, peak_rss_mb on verify-poly"),
    ("partitions.enumerate.self_s", "s", "lower", "requests_per_s on verify-oracle"),
    ("partitions.enumerate.items", "count", "lower", "requests_per_s on verify-oracle"),
) + tuple(
    (f"identities.{i}.self_s", "s", "lower", "requests_per_s on verify-poly and verify-oracle")
    for i in IDENTITY_IDS
) + (
    ("identities.checked_per_s", "1/s", "higher", "requests_per_s on verify-poly and verify-oracle"),
    ("cli.main.self_s", "s", "lower", "latency_p50_ms, setup_s on cli-oneshot; no change on verify-*"),
    ("cli.process_overhead_s", "s", "lower", "latency_p50_ms, setup_s on cli-oneshot; no change on verify-*"),
    ("trace.overhead", "ratio", "lower", "none: traced wall time over untraced wall time for the same requests"),
)

# Which spans each self-time metric sums.
_SELF_GROUPS = {
    "polynomial.mul.self_s": ("polynomial.mul",),
    "polynomial.add.self_s": ("polynomial.add",),
    "polynomial.other.self_s": (
        "polynomial.shift", "polynomial.inflate", "polynomial.coeff",
        "polynomial.is_self_reciprocal",
    ),
    "qbinomial.qbinom.self_s": ("qbinomial.qbinom",),
    "partitions.p.self_s": ("partitions.p",),
    "partitions.convolution.self_s": ("partitions.convolution",),
    "partitions.pbar_gf.self_s": ("partitions.pbar_gf",),
    "partitions.enumerate.self_s": (
        "partitions.pbar_enumerate", "partitions.qbar_enumerate",
        "partitions.pbar_enumerate_totals", "partitions.qbar_enumerate_totals",
    ),
    "cli.main.self_s": ("cli.main",),
    **{f"identities.{i}.self_s": (f"identities.{i}",) for i in IDENTITY_IDS},
}


class Recorder:
    """Spans of one worker process, kept in flat arrays until ``write``."""

    def __init__(self) -> None:
        self.start = array("d")
        self.end = array("d")
        self.name = array("B")
        self.parent = array("i")
        self.request = array("i")
        self.request_id = -1
        self.counters: dict[str, float] = defaultdict(int)
        self.qbinom_distinct: dict[tuple[int, int, int], int] = {}
        self._stack = [-1]

    def wrap(self, span: str, fn, after=None):
        """A wrapper of ``fn`` recording one span per call; ``after(args, result)`` counts."""
        name_id = _SPAN_ID[span]
        return self._wrapper(lambda args: name_id, fn, after)

    def _wrapper(self, name_of, fn, after):
        start, end, names, parents, requests = (
            self.start, self.end, self.name, self.parent, self.request
        )
        stack, clock, recorder = self._stack, time.perf_counter, self

        def traced(*args, **kwargs):
            idx = len(start)
            names.append(name_of(args))
            parents.append(stack[-1])
            requests.append(recorder.request_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> tuple[list[float], list[float], list[int], float]:
        """Self time, total time and calls per span name, and the top-level ``cli.main`` time.

        Spans are stored in the order they started, so one walk with a
        stack of open spans finds each span's children without a per-span
        table: a span is finished once a later span names an older parent.
        """
        start, end, name, parent = self.start, self.end, self.name, self.parent
        self_s = [0.0] * len(SPANS)
        total_s = [0.0] * len(SPANS)
        calls = [0] * len(SPANS)
        main, main_top_s = _SPAN_ID["cli.main"], 0.0
        open_spans: list[list] = []  # [index, duration, time covered by children]

        def close(entry) -> None:
            self_s[name[entry[0]]] += entry[1] - entry[2]

        for i in range(len(start)):
            up = parent[i]
            while open_spans and open_spans[-1][0] != up:
                close(open_spans.pop())
            duration = end[i] - start[i]
            if open_spans:
                open_spans[-1][2] += duration
            elif name[i] == main:
                main_top_s += duration
            calls[name[i]] += 1
            total_s[name[i]] += duration
            open_spans.append([i, duration, 0.0])
        for entry in open_spans:
            close(entry)
        return self_s, total_s, calls, main_top_s

    def write(self, path: str) -> None:
        """Write a JSON header line, then the columns start, end, name, parent, request."""
        self_s, total_s, calls, main_top_s = self.self_times()
        hits, misses = pbar_gf_cache_info()
        header = {
            "spans": SPANS,
            "count": len(self.start),
            "self_s": self_s,
            "total_s": total_s,
            "calls": calls,
            "main_top_s": main_top_s,
            "counters": dict(self.counters),
            "qbinom_distinct": len(self.qbinom_distinct),
            "qbinom_coeffs_returned": sum(self.qbinom_distinct.values()),
            "pbar_gf_hits": hits,
            "pbar_gf_misses": misses,
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for column in (self.start, self.end, self.name, self.parent, self.request):
                column.tofile(out)


def _rebind(original, replacement) -> None:
    """Point every qpartitions module attribute bound to ``original`` at ``replacement``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("qpartitions"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(recorder: Recorder) -> None:
    """Wrap each layer's public functions; call after ``import qpartitions.cli``."""
    import qpartitions.cli as cli
    import qpartitions.identities as identities
    import qpartitions.partitions as partitions
    import qpartitions.qbinomial as qbinomial
    from qpartitions.polynomial import IntPolynomial

    counters = recorder.counters

    def _len(x) -> int:
        return len(x.coeffs) if isinstance(x, IntPolynomial) else 1

    def count_mul(args, result):
        la, lb = _len(args[0]), _len(args[1])
        counters["mul_products"] += la * lb
        counters["mul_max_len"] = max(counters["mul_max_len"], la, lb)

    def count_add(args, result):
        counters["add_coeffs"] += max(_len(args[0]), _len(args[1]))

    for attr, span, after in (
        ("__mul__", "polynomial.mul", count_mul),
        ("__add__", "polynomial.add", count_add),
    ):
        traced = recorder.wrap(span, getattr(IntPolynomial, attr), after)
        setattr(IntPolynomial, attr, traced)
        setattr(IntPolynomial, "__r" + attr[2:], traced)
    for attr in ("shift", "inflate", "coeff", "is_self_reciprocal"):
        setattr(
            IntPolynomial, attr,
            recorder.wrap(f"polynomial.{attr}", getattr(IntPolynomial, attr)),
        )

    distinct = recorder.qbinom_distinct

    def count_qbinom(args, result):
        distinct.setdefault((args[0], args[1], args[2] if len(args) > 2 else 1), len(result.coeffs))

    def count_items(args, result):
        counters["enumerate_items"] += len(result)

    def count_totals(args, result):
        counters["enumerate_items"] += sum(result)

    for module, attr, span, after in (
        (qbinomial, "qbinom", "qbinomial.qbinom", count_qbinom),
        (partitions, "p", "partitions.p", None),
        (partitions, "pbar_convolution", "partitions.convolution", None),
        (partitions, "pbar_gf", "partitions.pbar_gf", None),
        (partitions, "pbar_enumerate", "partitions.pbar_enumerate", count_items),
        (partitions, "qbar_enumerate", "partitions.qbar_enumerate", count_items),
        (partitions, "pbar_enumerate_totals", "partitions.pbar_enumerate_totals", count_totals),
        (partitions, "qbar_enumerate_totals", "partitions.qbar_enumerate_totals", count_totals),
        (cli, "main", "cli.main", None),
    ):
        original = getattr(module, attr)
        _rebind(original, recorder.wrap(span, original, after))

    def count_checked(args, result):
        counters["identities_checked"] += result.checked

    identity_span = {i: _SPAN_ID[f"identities.{i}"] for i in IDENTITY_IDS}
    original = identities.run_identity
    _rebind(original, recorder._wrapper(lambda args: identity_span[args[0]], original, count_checked))
    # The unsigned thm3.3 check is called directly, outside the registry.
    original = identities.verify_thm33
    _rebind(original, recorder.wrap("identities.thm3.3", original, count_checked))


def pbar_gf_cache_info():
    """Hits and misses of the library's pbar_gf memo, from its public ``cache_info``."""
    from qpartitions.partitions import pbar_gf

    info = getattr(pbar_gf, "__wrapped__", pbar_gf).cache_info()
    return info.hits, info.misses


class Summary:
    """Per-layer totals accumulated over the span files of one traced run."""

    def __init__(self) -> None:
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(float)
        self.spans = 0

    def add(self, path: str) -> float:
        """Fold in the header of one span file; returns its top-level ``cli.main`` time."""
        with open(path, "rb") as f:
            header = json.loads(f.readline())
        if tuple(header["spans"]) != SPANS:
            raise ValueError(f"{path}: span table does not match this tracer")
        self.spans += header["count"]
        for span, self_s, total_s, calls in zip(
            SPANS, header["self_s"], header["total_s"], header["calls"]
        ):
            self.self_s[span] += self_s
            self.total_s[span] += total_s
            self.calls[span] += calls
        for key, value in header["counters"].items():
            if key == "mul_max_len":
                self.counters[key] = max(self.counters[key], value)
            else:
                self.counters[key] += value
        for key in ("qbinom_distinct", "qbinom_coeffs_returned", "pbar_gf_hits", "pbar_gf_misses"):
            self.counters[key] += header[key]
        return header["main_top_s"]

    def metrics(self, process_overhead_s: float, overhead: float) -> dict[str, float]:
        c = self.counters
        out = {name: sum(self.self_s[s] for s in spans) for name, spans in _SELF_GROUPS.items()}
        qbinom_calls = self.calls["qbinomial.qbinom"]
        # Identity spans never nest in one another, so their totals add up.
        identity_s = sum(self.total_s[f"identities.{i}"] for i in IDENTITY_IDS)
        gf_lookups = c["pbar_gf_hits"] + c["pbar_gf_misses"]
        out.update({
            "polynomial.mul.calls": self.calls["polynomial.mul"],
            "polynomial.mul.coeff_products": c["mul_products"],
            "polynomial.mul.max_len": c["mul_max_len"],
            "polynomial.add.calls": self.calls["polynomial.add"],
            "polynomial.add.coeffs": c["add_coeffs"],
            "qbinomial.qbinom.calls": qbinom_calls,
            "qbinomial.qbinom.coeffs_returned": c["qbinom_coeffs_returned"],
            "qbinomial.qbinom.distinct_share": c["qbinom_distinct"] / qbinom_calls if qbinom_calls else 0.0,
            "partitions.p.calls": self.calls["partitions.p"],
            "partitions.pbar_gf.hit_share": c["pbar_gf_hits"] / gf_lookups if gf_lookups else 0.0,
            "partitions.enumerate.items": c["enumerate_items"],
            "identities.checked_per_s": (
                c["identities_checked"] / identity_s if identity_s else 0.0
            ),
            "cli.process_overhead_s": process_overhead_s,
            "trace.overhead": overhead,
        })
        return {name: out[name] for name, _unit, _better, _moves in LAYER_METRICS}
