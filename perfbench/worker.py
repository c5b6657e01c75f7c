"""Worker processes the benchmark drives; run from the checkout root with PYTHONPATH=src.

``worker.py session [--trace FILE]``
    One library session.  Prints ``ready`` once qpartitions is imported,
    then answers one JSON request per stdin line with one JSON line, until
    stdin closes.  Requests are ``{"op": "run_identity", "id": ..., "kw": {...}}``
    or ``{"op": "thm3.3-unsigned"}``.  ``{"op": "probe"}`` times one pass of
    the benchmark's reference work here and answers ``{"probe_s": ...}``.

``worker.py cli --trace FILE --request-id I -- ARGV...``
    One traced command-line request: ``qpartitions.cli.main(ARGV)`` in this
    fresh interpreter, exiting with its code.  Untraced command-line
    requests run ``python -m qpartitions`` directly instead.

With ``--trace`` the layer wrappers are installed before the first request
and the spans are written to FILE when the worker ends.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

import qpartitions.cli
import reference
from qpartitions import identities


def _answer(request: dict) -> dict:
    if request["op"] == "probe":
        return {"probe_s": reference.probe()}
    if request["op"] == "run_identity":
        report = identities.run_identity(request["id"], **request["kw"])
    else:
        report = identities.verify_thm33(signed=False)
    return {
        "identity_id": report.identity_id,
        "checked": report.checked,
        "passed": report.passed,
        "failures": len(report.failures),
    }


def _session(recorder) -> None:
    print("ready", flush=True)
    for request_id, line in enumerate(sys.stdin):
        if recorder is not None:
            recorder.request_id = request_id
        try:
            reply = _answer(json.loads(line))
        except Exception:  # reported to the harness, which counts it as failed
            reply = {"error": traceback.format_exc()}
        print(json.dumps(reply), flush=True)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("session", "cli"))
    parser.add_argument("--trace", default=None)
    parser.add_argument("--request-id", type=int, default=0)
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])

    recorder = None
    if args.trace:
        import tracer

        recorder = tracer.Recorder()
        tracer.install(recorder)
        recorder.request_id = args.request_id
    try:
        if args.mode == "session":
            _session(recorder)
            return 0
        return qpartitions.cli.main(argv[split + 1:])
    finally:
        if recorder is not None:
            sys.stdout.flush()
            recorder.write(args.trace)


if __name__ == "__main__":
    sys.exit(main())
