"""Command-line front end: compute, enumerate, verify, and tabulate.

Exit codes: 0 success (or verification pass), 1 verification failure or
route disagreement, 2 usage error.  Results go to standard out, diagnostics
to standard error.  Counts and parameters in JSON output are decimal
strings, since counts outgrow 64-bit integers for large parameters; only
``verify`` reports carry ``checked`` and counterexample ``params`` as JSON
integers.

Each subcommand handler computes its answer and returns an ``Output``; only
``main`` decides what is printed, so both renderings stay lazy and
``--quiet`` builds neither.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, NamedTuple

from ._ids import IDENTITY_IDS
from .partitions import (
    TwoKindPartition,
    TwoKindQuery,
    p,
    partition_p,
    pbar_convolution,
    pbar_enumerate,
    pbar_genfun,
    qbar_enumerate,
    qbar_genfun,
)
from .polynomial import _exceeds
from .qbinomial import qbinom

if TYPE_CHECKING:
    from .identities import VerificationReport


class Output(NamedTuple):
    """A handler's answer: its exit code and the two ways to render it.

    ``record`` builds the JSON record and ``lines`` yields the text lines;
    ``main`` uses at most one of them.  ``warning`` goes to standard error
    after the output.
    """

    code: int
    record: Callable[[], object]
    lines: Iterable[str]
    warning: str | None = None


_COUNT_PARAMS = {
    "p": ("N", "k", "n"),
    "partition": ("n",),
    "pbar": ("r", "n1", "n2", "k1", "k2", "n"),
    "qbar": ("r", "n1", "n2", "k1", "k2", "n"),
}

# Every count route, by function and method; each takes the values named in
# _COUNT_PARAMS.  The bodies look the library functions up when called, so
# that a test or a tracer can rebind them on this module.
_ROUTES: dict[str, dict[str, Callable[[dict[str, int]], int]]] = {
    "p": {
        "genfun": lambda v: p(v["N"], v["k"], v["n"]),
        "enumerate": lambda v: len(
            pbar_enumerate(TwoKindQuery(1, 0, v["N"], 0, v["k"], v["n"]))
        ),
    },
    "partition": {
        "genfun": lambda v: partition_p(v["n"]),
        "enumerate": lambda v: len(
            pbar_enumerate(TwoKindQuery(1, 0, v["n"], 0, v["n"], v["n"]))
        ),
    },
    "pbar": {
        "genfun": lambda v: pbar_genfun(TwoKindQuery(**v)),
        "convolution": lambda v: pbar_convolution(TwoKindQuery(**v)),
        "enumerate": lambda v: len(pbar_enumerate(TwoKindQuery(**v))),
    },
    "qbar": {
        "genfun": lambda v: qbar_genfun(TwoKindQuery(**v)),
        "enumerate": lambda v: len(qbar_enumerate(TwoKindQuery(**v))),
    },
}

# Every grid bound a verifier takes; ``verify`` has one --*-max flag for each.
_GRID_BOUNDS = ("m_max", "n_max", "k_max", "r_max", "param_max")

_MAX_TEXT_FAILURES = 10

# The most rows one ``table`` may tabulate.  Every row is kept for the JSON
# record: on two cores with Python 3.11, 10**6 rows of ``table p`` took about
# 3 s and 119 MB, and 5 s and 486 MB as JSON.
MAX_TABLE_ROWS = 10**5


def _json_default(item) -> dict[str, list[str]]:
    """JSON record of one partition, built only when the encoder reaches it."""
    if not isinstance(item, TwoKindPartition):
        raise TypeError(f"{type(item).__name__} is not JSON serializable")
    return {
        "first": [str(part) for part in item.first_kind],
        "second": [str(part) for part in item.second_kind],
    }


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_json_default)


def _strings(values: Mapping[str, int]) -> dict[str, str]:
    return {name: str(value) for name, value in values.items()}


def _require_params(args, function: str) -> dict[str, int]:
    wanted = _COUNT_PARAMS[function]
    values = {}
    for name in wanted:
        value = getattr(args, name)
        if value is None:
            flags = ", ".join(f"--{w}" for w in wanted)
            raise ValueError(f"{function} requires {flags}")
        values[name] = value
    for name in ("N", "k", "r", "n1", "n2", "k1", "k2", "n"):
        if name not in wanted and getattr(args, name, None) is not None:
            raise ValueError(f"--{name} is not valid for {function}")
    return values


def _cmd_gauss(args) -> Output:
    poly = qbinom(args.top, args.bottom, args.step)
    record = lambda: {
        "top": str(args.top),
        "bottom": str(args.bottom),
        "step": str(args.step),
        "polynomial": str(poly),
        "coeffs": poly.coeffs_as_strings(),
    }
    return Output(0, record, map(str, (poly,)))


def _cmd_count(args) -> Output:
    function, method = args.function, args.method
    values = _require_params(args, function)
    routes = _ROUTES[function]
    if method != "all" and method not in routes:
        raise ValueError(f"method {method!r} is not valid for {function}")
    wanted = tuple(routes) if method == "all" else (method,)
    results = {name: routes[name](values) for name in wanted}
    head = lambda: {"function": function, "method": method, "params": _strings(values)}
    if method != "all":
        value = results[method]
        return Output(0, lambda: {**head(), "count": str(value)}, map(str, (value,)))
    record = lambda: {**head(), "counts": _strings(results)}
    lines = (f"{name}: {value}" for name, value in results.items())
    if len(set(results.values())) == 1:
        return Output(0, record, lines)
    detail = ", ".join(f"{name}={value}" for name, value in results.items())
    return Output(1, record, lines, f"route disagreement: {detail}")


def _cmd_enumerate(args) -> Output:
    function = args.function
    values = _require_params(args, function)
    listing = (pbar_enumerate if function == "pbar" else qbar_enumerate)(
        TwoKindQuery(**values)
    )
    record = lambda: {
        "function": function,
        "params": _strings(values),
        "count": str(len(listing)),
        "partitions": listing,
    }
    return Output(0, record, (item.render() for item in listing))


def _report_lines(reports: list[VerificationReport]) -> Iterable[str]:
    for report in reports:
        yield report.summary()
        for failure in report.failures[:_MAX_TEXT_FAILURES]:
            yield f"  params={failure.params} lhs={failure.lhs} rhs={failure.rhs}"
        hidden = len(report.failures) - _MAX_TEXT_FAILURES
        if hidden > 0:
            yield f"  ... and {hidden} more"


def _cmd_verify(args) -> Output:
    # imported here, so that no other command loads the verifiers
    from .identities import _REGISTRY, run_identity

    overrides = {name: getattr(args, name) for name in _GRID_BOUNDS}
    if args.identity != "all":
        # ``all`` hands each identity the flags it takes; one id takes only its own
        _, accepted = _REGISTRY[args.identity]
        for name, value in overrides.items():
            if value is not None and name not in accepted:
                flag = name.replace("_", "-")
                raise ValueError(f"--{flag} is not valid for {args.identity}")
    ids = IDENTITY_IDS if args.identity == "all" else (args.identity,)
    reports = [run_identity(identity_id, **overrides) for identity_id in ids]
    passed = all(r.passed for r in reports)
    if args.identity == "all":
        record = lambda: {"pass": passed, "reports": [r.as_dict() for r in reports]}
    else:
        record = reports[0].as_dict
    return Output(0 if passed else 1, record, _report_lines(reports))


_RANGE = re.compile(r"(\d+)\.\.(\d+)")


def _parse_range(text: str) -> range:
    match = _RANGE.fullmatch(text)
    if not match:
        raise ValueError(f"invalid range {text!r}, expected A..B")
    lo, hi = int(match.group(1)), int(match.group(2))
    if lo > hi:
        raise ValueError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _cmd_table(args) -> Output:
    function = args.function
    span = _parse_range(args.n)
    if len(span) > MAX_TABLE_ROWS:
        raise _exceeds(f"table of {len(span)} rows", MAX_TABLE_ROWS)
    fixed = _require_params(args, function)
    del fixed["n"]  # the range text; each row supplies its own n
    if function == "partition":
        # p(n) = p(b, b, n) for every n <= b: the one row [2b, b] serves a..b
        genfun, bounds = _ROUTES["p"]["genfun"], {"N": span[-1], "k": span[-1]}
    else:
        genfun, bounds = _ROUTES[function]["genfun"], fixed
    rows = [(n, genfun({**bounds, "n": n})) for n in span]
    record = lambda: {
        "function": function,
        "params": _strings(fixed),
        "rows": [{"n": str(n), "count": str(v)} for n, v in rows],
    }
    sep = "," if args.format == "csv" else " "
    return Output(0, record, (f"{n}{sep}{v}" for n, v in [("n", "count"), *rows]))


def _add_count_params(parser: argparse.ArgumentParser) -> None:
    for name in ("N", "k", "r", "n1", "n2", "k1", "k2"):
        parser.add_argument(f"--{name}", type=int, default=None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpartitions",
        description="Exact restricted-partition counts, enumerations, and identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, formats=("text", "json")):
        # each subcommand offers only the formats its handler renders
        child = sub.add_parser(name, help=help)
        child.add_argument(
            "--format", choices=formats, default="text", help="output format"
        )
        child.add_argument(
            "--quiet", action="store_true", help="suppress normal output"
        )
        child.set_defaults(handler=handler)
        return child

    gauss = command("gauss", _cmd_gauss, "print a Gaussian polynomial")
    gauss.add_argument("--top", type=int, required=True)
    gauss.add_argument("--bottom", type=int, required=True)
    gauss.add_argument("--step", type=int, default=1)

    count = command("count", _cmd_count, "evaluate a counting function")
    count.add_argument("function", choices=("p", "pbar", "qbar", "partition"))
    _add_count_params(count)
    count.add_argument("--n", type=int, default=None)
    count.add_argument(
        "--method",
        choices=("genfun", "convolution", "enumerate", "all"),
        default="genfun",
    )

    enum = command("enumerate", _cmd_enumerate, "list matching partitions")
    enum.add_argument("function", choices=("pbar", "qbar"))
    _add_count_params(enum)
    enum.add_argument("--n", type=int, default=None)

    verify = command("verify", _cmd_verify, "verify an identity over a grid")
    verify.add_argument("identity", choices=IDENTITY_IDS + ("all",))
    for name in _GRID_BOUNDS:
        verify.add_argument(f"--{name.replace('_', '-')}", dest=name, type=int)

    table = command(
        "table",
        _cmd_table,
        "tabulate a counting function over a range",
        ("text", "json", "csv"),
    )
    table.add_argument("function", choices=("p", "pbar", "qbar", "partition"))
    _add_count_params(table)
    table.add_argument("--n", type=str, default=None, required=True, metavar="A..B")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        output = args.handler(args)
    except ValueError as exc:
        # every request that cannot be served as posed, from this module's
        # own checks or from the library's argument validation
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.quiet:
        if args.format == "json":
            print(_dump_json(output.record()))
        else:
            for line in output.lines:
                print(line)
    if output.warning:
        print(output.warning, file=sys.stderr)
    return output.code


if __name__ == "__main__":
    sys.exit(main())
