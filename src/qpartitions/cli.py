"""Command-line front end: compute, enumerate, verify, and tabulate.

Exit codes: 0 success (or verification pass), 1 verification failure or
route disagreement, 2 usage error.  Results go to standard out, diagnostics
to standard error.  All numeric JSON output uses decimal strings, since
counts outgrow 64-bit integers for large parameters.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Callable

from .identities import IDENTITY_IDS, VerificationReport, run_identity
from .partitions import (
    TwoKindQuery,
    p,
    partition_p,
    pbar_convolution,
    pbar_enumerate,
    pbar_genfun,
    qbar_enumerate,
    qbar_genfun,
)
from .qbinomial import qbinom


class UsageError(Exception):
    """A request that cannot be served as posed; maps to exit code 2."""


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

_MAX_TEXT_FAILURES = 10


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit(args, text: str) -> None:
    if not args.quiet:
        print(text)


def _require_params(args, function: str) -> dict[str, int]:
    wanted = _COUNT_PARAMS[function]
    values = {}
    for name in wanted:
        value = getattr(args, name)
        if value is None:
            flags = ", ".join(f"--{w}" for w in wanted)
            raise UsageError(f"{function} requires {flags}")
        values[name] = value
    for name in ("N", "k", "r", "n1", "n2", "k1", "k2", "n"):
        if name not in wanted and getattr(args, name, None) is not None:
            raise UsageError(f"--{name} is not valid for {function}")
    return values


def _no_csv(args) -> None:
    if args.format == "csv":
        raise UsageError("csv format is only available for the table command")


def _cmd_gauss(args) -> int:
    _no_csv(args)
    try:
        poly = qbinom(args.top, args.bottom, args.step)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.format == "json":
        _emit(
            args,
            _dump_json(
                {
                    "top": str(args.top),
                    "bottom": str(args.bottom),
                    "step": str(args.step),
                    "polynomial": str(poly),
                    "coeffs": poly.coeffs_as_strings(),
                }
            ),
        )
    else:
        _emit(args, str(poly))
    return 0


def _cmd_count(args) -> int:
    _no_csv(args)
    function = args.function
    values = _require_params(args, function)
    methods = tuple(_ROUTES[function])
    if args.method != "all" and args.method not in methods:
        raise UsageError(f"method {args.method!r} is not valid for {function}")
    wanted = methods if args.method == "all" else (args.method,)
    try:
        results = {method: _ROUTES[function][method](values) for method in wanted}
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    params_out = {name: str(v) for name, v in values.items()}
    if args.method == "all":
        if args.format == "json":
            _emit(
                args,
                _dump_json(
                    {
                        "function": function,
                        "method": "all",
                        "params": params_out,
                        "counts": {m: str(v) for m, v in results.items()},
                    }
                ),
            )
        else:
            for method in wanted:
                _emit(args, f"{method}: {results[method]}")
        if len(set(results.values())) != 1:
            detail = ", ".join(f"{m}={v}" for m, v in results.items())
            print(f"route disagreement: {detail}", file=sys.stderr)
            return 1
        return 0

    value = results[args.method]
    if args.format == "json":
        _emit(
            args,
            _dump_json(
                {
                    "function": function,
                    "method": args.method,
                    "params": params_out,
                    "count": str(value),
                }
            ),
        )
    else:
        _emit(args, str(value))
    return 0


def _cmd_enumerate(args) -> int:
    _no_csv(args)
    function = args.function
    values = _require_params(args, function)
    try:
        query = TwoKindQuery(**values)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    listing = pbar_enumerate(query) if function == "pbar" else qbar_enumerate(query)
    if args.format == "json":
        _emit(
            args,
            _dump_json(
                {
                    "function": function,
                    "params": {name: str(v) for name, v in values.items()},
                    "count": str(len(listing)),
                    "partitions": [
                        {
                            "first": [str(part) for part in item.first_kind],
                            "second": [str(part) for part in item.second_kind],
                        }
                        for item in listing
                    ],
                }
            ),
        )
    else:
        for item in listing:
            _emit(args, item.render())
    return 0


def _print_report(args, report: VerificationReport) -> None:
    if args.format == "json":
        return
    _emit(args, report.summary())
    for failure in report.failures[:_MAX_TEXT_FAILURES]:
        _emit(args, f"  params={failure.params} lhs={failure.lhs} rhs={failure.rhs}")
    hidden = len(report.failures) - _MAX_TEXT_FAILURES
    if hidden > 0:
        _emit(args, f"  ... and {hidden} more")


def _cmd_verify(args) -> int:
    _no_csv(args)
    overrides = {
        "m_max": args.m_max,
        "n_max": args.n_max,
        "k_max": args.k_max,
        "r_max": args.r_max,
        "param_max": args.param_max,
    }
    ids = IDENTITY_IDS if args.identity == "all" else (args.identity,)
    try:
        reports = [run_identity(identity_id, **overrides) for identity_id in ids]
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.format == "json":
        if len(reports) == 1:
            _emit(args, _dump_json(reports[0].as_dict()))
        else:
            _emit(
                args,
                _dump_json(
                    {
                        "pass": all(r.passed for r in reports),
                        "reports": [r.as_dict() for r in reports],
                    }
                ),
            )
    else:
        for report in reports:
            _print_report(args, report)
    return 0 if all(r.passed for r in reports) else 1


_RANGE = re.compile(r"(\d+)\.\.(\d+)")


def _parse_range(text: str) -> range:
    match = _RANGE.fullmatch(text)
    if not match:
        raise UsageError(f"invalid range {text!r}, expected A..B")
    lo, hi = int(match.group(1)), int(match.group(2))
    if lo > hi:
        raise UsageError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _cmd_table(args) -> int:
    function = args.function
    span = _parse_range(args.n)
    fixed = _require_params(args, function)
    del fixed["n"]  # the range text; each row supplies its own n
    genfun = _ROUTES[function]["genfun"]
    try:
        rows = [(n, genfun({**fixed, "n": n})) for n in span]
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    if args.format == "json":
        _emit(
            args,
            _dump_json(
                {
                    "function": function,
                    "params": {name: str(v) for name, v in fixed.items()},
                    "rows": [{"n": str(n), "count": str(v)} for n, v in rows],
                }
            ),
        )
    elif args.format == "csv":
        lines = ["n,count"] + [f"{n},{v}" for n, v in rows]
        _emit(args, "\n".join(lines))
    else:
        _emit(args, "n count")
        for n, v in rows:
            _emit(args, f"{n} {v}")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default="text",
        help="output format (csv is table-only)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress normal output"
    )


def _add_count_params(parser: argparse.ArgumentParser) -> None:
    for name in ("N", "k", "r", "n1", "n2", "k1", "k2"):
        parser.add_argument(f"--{name}", type=int, default=None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpartitions",
        description="Exact restricted-partition counts, enumerations, and identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gauss = sub.add_parser("gauss", help="print a Gaussian polynomial")
    gauss.add_argument("--top", type=int, required=True)
    gauss.add_argument("--bottom", type=int, required=True)
    gauss.add_argument("--step", type=int, default=1)
    _add_common(gauss)
    gauss.set_defaults(handler=_cmd_gauss)

    count = sub.add_parser("count", help="evaluate a counting function")
    count.add_argument("function", choices=("p", "pbar", "qbar", "partition"))
    _add_count_params(count)
    count.add_argument("--n", type=int, default=None)
    count.add_argument(
        "--method",
        choices=("genfun", "convolution", "enumerate", "all"),
        default="genfun",
    )
    _add_common(count)
    count.set_defaults(handler=_cmd_count)

    enum = sub.add_parser("enumerate", help="list matching partitions")
    enum.add_argument("function", choices=("pbar", "qbar"))
    _add_count_params(enum)
    enum.add_argument("--n", type=int, default=None)
    _add_common(enum)
    enum.set_defaults(handler=_cmd_enumerate)

    verify = sub.add_parser("verify", help="verify an identity over a grid")
    verify.add_argument("identity", choices=IDENTITY_IDS + ("all",))
    verify.add_argument("--m-max", dest="m_max", type=int, default=None)
    verify.add_argument("--n-max", dest="n_max", type=int, default=None)
    verify.add_argument("--k-max", dest="k_max", type=int, default=None)
    verify.add_argument("--r-max", dest="r_max", type=int, default=None)
    verify.add_argument("--param-max", dest="param_max", type=int, default=None)
    _add_common(verify)
    verify.set_defaults(handler=_cmd_verify)

    table = sub.add_parser("table", help="tabulate a counting function over a range")
    table.add_argument("function", choices=("p", "pbar", "qbar", "partition"))
    _add_count_params(table)
    table.add_argument("--n", type=str, default=None, required=True, metavar="A..B")
    _add_common(table)
    table.set_defaults(handler=_cmd_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
