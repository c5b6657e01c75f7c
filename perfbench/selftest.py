"""Self-test of the benchmark: its oracles, its checks, its contract, tiny runs.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks the oracles against known values, shows that a wrong or quietly
shrunk answer is counted as failed, checks the tracer's self-time walk
against a direct computation, checks that ``BENCHMARK.json`` names the
metrics and workloads this code reports, runs every workload at a tiny size
with and without tracing, and checks that the benchmark refuses to run
without the library.  It takes well under a minute and is not part of the
test suite.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import oracles
import run
import tracer
import workloads

ROOT = Path.cwd()


def check_oracles() -> None:
    assert oracles.partition_number(100) == 190569292
    assert oracles.pbar(2, 2, 3, 2, 2, 4) == 6
    assert oracles.corollary_terms(6) == [1, 7, 3]
    assert sum(oracles.corollary_terms(40)) == oracles.partition_number(40)
    assert oracles.gaussian_coeffs(4, 2, 1) == [1, 1, 2, 1, 1]
    assert oracles.gaussian_coeffs(3, 1, 2) == [1, 0, 1, 0, 1]
    assert oracles.qbar(1, 4, 3, 2, 1, 6) == 4
    # The unsigned thm3.3 grid at its defaults, as the library's own suite reports it.
    assert oracles.grid_size("thm3.3", {"n_max": 5, "k_max": 6}) == 357


def check_checks() -> None:
    """Wrong answers, shrunk grids and crashes are failures, not passes."""
    good = workloads._identity("eq2", m_max=4, n_max=5)
    reply = {"identity_id": "eq2", "checked": 30, "passed": True, "failures": 0}
    assert workloads.check(good, reply) is None
    assert workloads.check(good, {**reply, "checked": 29}) is not None
    assert workloads.check(good, {**reply, "passed": False}) is not None
    assert workloads.check(good, {"error": "Traceback\nValueError: boom\n"}) == "ValueError: boom"
    unsigned = {"kind": "thm3.3-unsigned", "params": {}, "op": "thm3.3-unsigned"}
    reply = {"identity_id": "thm3.3", "checked": 357, "passed": False, "failures": 315}
    assert workloads.check(unsigned, reply) is None
    assert workloads.check(unsigned, {**reply, "passed": True}) is not None

    count = workloads._count("partition", {"n": 10})
    assert workloads.check(count, (0, b'{"count":"42"}')) is None
    assert workloads.check(count, (0, b'{"count":"41"}')) is not None
    assert workloads.check(count, (2, b"")) is not None
    assert workloads.check(count, (0, b"not json")) is not None
    assert workloads.check(good, {"identity_id": "eq2"}) is not None


def check_self_times() -> None:
    """The worker's one-pass self times match a direct sum over children."""
    rng = random.Random(3)
    recorder = tracer.Recorder()
    clock = [0.0]

    def tick() -> float:
        clock[0] += rng.random()
        return clock[0]

    def span(depth: int, parent: int) -> None:
        i = len(recorder.start)
        recorder.name.append(rng.randrange(len(tracer.SPANS)))
        recorder.parent.append(parent)
        recorder.request.append(0)
        recorder.start.append(tick())
        recorder.end.append(0.0)
        for _ in range(rng.randint(0, 3) if depth < 4 else 0):
            span(depth + 1, i)
        recorder.end[i] = tick()

    for _ in range(50):
        span(0, -1)
    self_s, _total_s, _calls, _main_s = recorder.self_times()
    n = len(recorder.start)
    children = [0.0] * n
    for i in range(n):
        if recorder.parent[i] >= 0:
            children[recorder.parent[i]] += recorder.end[i] - recorder.start[i]
    expected = [0.0] * len(tracer.SPANS)
    for i in range(n):
        expected[recorder.name[i]] += recorder.end[i] - recorder.start[i] - children[i]
    assert all(abs(a - b) < 1e-9 for a, b in zip(self_s, expected))


def check_contract() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        metric[:3] for metric in tracer.LAYER_METRICS
    ]


def check_tiny_runs() -> None:
    for workload in workloads.WHY:
        for trace, names in ((0, run.END_TO_END), (1, tracer.LAYER_METRICS)):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=170,
            )
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, result
            assert list(result["metrics"]) == [metric[0] for metric in names]
            print(f"  {workload} --trace {trace}: {result['attempted']} requests, all correct")


def check_refuses_without_library() -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-poly", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout


def main() -> int:
    for step in (check_oracles, check_checks, check_self_times, check_contract,
                 check_refuses_without_library, check_tiny_runs):
        print(step.__name__)
        step()
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
