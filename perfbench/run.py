"""qpartitions benchmark: one closed-loop client, one worker, answers checked.

Run from the root of a checkout (the directory holding ``src/qpartitions``):

    python3 perfbench/run.py --workload cli-oneshot --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.  ``--trace 1``
runs the same workload with span wrappers installed in the worker, prints
the per-layer metrics, and replays the traced requests untraced to report
the tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A full record of the run, with the machine,
the seed and the generated request mix, is written to
``.perfbench_out/``.  The workloads and metrics are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"

# (name, unit, better); the bounds live in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("requests_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
SETUP_STARTS = 21
# The machine's speed drifts: a fixed loop can take twice as long from one
# minute to the next, and slow bursts come and go within a second.  So
# before every request, one pass of reference.reference_work() is timed in
# a process like the one that serves it: in the session worker, or in a
# fresh interpreter before a one-off process or a setup start.  Request i's
# latency is scaled by REFERENCE_S over the mean of passes i-2 .. i+2: two
# before it, the one just before it and the two just after it.  Setup
# starts are scaled by REFERENCE_S over the mean of their passes.  The
# times read as on a machine where one pass takes REFERENCE_S.  The mean,
# not the median, so that short bursts count in the passes as much as in
# the requests.  Passes timed in the harness process itself tracked the
# requests' speed worse than no passes at all.
REFERENCE_S = 0.009
PROBE_WINDOW = 5
# Requests that have to be slower than the tail latency.
TAIL_BEYOND = 10
# Every run ends well inside the three minutes a run may take.
DEADLINE_S = 170


class WorkerError(Exception):
    """The worker died or answered something that is not a reply."""


class CliClient:
    """Each request is a fresh ``python -m qpartitions`` process (or traced worker)."""

    def __init__(self, root: Path, env: dict, out_dir: Path, trace_dir: Path | None):
        self.root, self.env, self.trace_dir = root, env, trace_dir
        self.stderr_path = out_dir / "worker.stderr"
        self.peak_rss_kb = 0
        self.traced: list[tuple[Path, float]] = []

    def probe(self) -> float:
        return fresh_probe(self.root, self.env)

    def send(self, request: dict):
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "qpartitions", *request["argv"]]
        else:
            trace = self.trace_dir / f"request-{len(self.traced)}.spans"
            cmd = [sys.executable, str(WORKER), "cli", "--trace", str(trace),
                   "--request-id", str(len(self.traced)), "--", *request["argv"]]
        start = time.perf_counter()
        with open(self.stderr_path, "wb") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                    env=self.env, cwd=self.root)
            try:
                out = proc.stdout.read()
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        latency = time.perf_counter() - start
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if self.trace_dir is not None:
            self.traced.append((trace, latency))
        return (proc.returncode, out)


class SessionClient:
    """One long-lived library session answering JSON lines."""

    def __init__(self, root: Path, env: dict, out_dir: Path, trace_file: Path | None):
        cmd = [sys.executable, str(WORKER), "session"]
        if trace_file is not None:
            cmd += ["--trace", str(trace_file)]
        self._stderr = open(out_dir / "worker.stderr", "wb")
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=self._stderr, env=env, cwd=root, text=True)
        self.peak_rss_kb = 0
        if self.proc.stdout.readline().strip() != "ready":
            self.stop()
            raise WorkerError("session worker did not start")

    def probe(self) -> float:
        """One pass of the reference work, timed inside the worker."""
        reply = self.send({"op": "probe"})
        if "probe_s" not in reply:
            raise WorkerError("session worker failed the probe")
        return reply["probe_s"]

    def send(self, request: dict):
        line = json.dumps({key: request[key] for key in ("op", "id", "kw") if key in request})
        try:
            self.proc.stdin.write(line + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError as exc:
            raise WorkerError("session worker is gone") from exc
        reply = self.proc.stdout.readline()
        if not reply:
            raise WorkerError("session worker ended without a reply")
        return json.loads(reply)

    def finish(self) -> None:
        """Close stdin, let the worker write its spans, and collect its rusage."""
        self.proc.stdin.close()
        self.proc.stdout.read()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = usage.ru_maxrss
        self._stderr.close()
        if self.proc.returncode != 0:
            raise WorkerError(f"session worker exited with {self.proc.returncode}")

    def stop(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()
        self._stderr.close()


def closed_loop(client, rounds, seconds: float | None = None, limit: int | None = None,
                probes: list[float] | None = None):
    """Send requests one after another: whole rounds until ``seconds`` pass, or ``limit`` requests.

    Returns the records ``(request, latency_s, reply, error)`` and the wall
    time of the loop.  With ``probes``, the client times one pass of the
    reference work before each request and the time is appended there.
    """
    records = []
    began = time.perf_counter()
    for batch in rounds:
        if seconds is not None and time.perf_counter() - began >= seconds:
            break
        for request in batch:
            if limit is not None and len(records) >= limit:
                return records, time.perf_counter() - began
            start = time.perf_counter()
            try:
                if probes is not None:
                    probes.append(client.probe())
                    start = time.perf_counter()
                reply, error = client.send(request), None
            except WorkerError as exc:
                reply, error = None, str(exc)
            records.append((request, time.perf_counter() - start, reply, error))
            if error is not None:
                return records, time.perf_counter() - began
    return records, time.perf_counter() - began


def run_workload(workload, seed, tiny, root, env, out_dir, seconds=None, limit=None, trace=None,
                 probes=None):
    """One fresh worker (or one per request) driven by the closed loop."""
    stream = workloads.rounds(workload, seed, tiny)
    if workload in workloads.SESSION:
        client = SessionClient(root, env, out_dir, trace)
        try:
            records, wall = closed_loop(client, stream, seconds, limit, probes)
            client.finish()
        finally:
            client.stop()
    else:
        client = CliClient(root, env, out_dir, trace)
        records, wall = closed_loop(client, stream, seconds, limit, probes)
    return client, records, wall


def failures(records) -> list[str]:
    """Reasons, one per failed request; answers are checked here, outside the timed loop."""
    out = []
    for request, _latency, reply, error in records:
        reason = error if error is not None else workloads.check(request, reply)
        if reason is not None:
            out.append(f"{request['kind']} {request['params']}: {reason}")
    return out


def fresh_probe(root: Path, env: dict) -> float:
    """One pass of the reference work, timed inside a fresh interpreter."""
    proc = subprocess.run([sys.executable, str(HERE / "reference.py")], env=env, cwd=root,
                          capture_output=True, text=True, check=True)
    return float(proc.stdout)


def measure_setup(root: Path, env: dict) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters finishing ``import qpartitions.cli``, and their probes."""
    cmd = [sys.executable, "-c", "import qpartitions.cli"]
    # The first start may compile bytecode; users pay that once, not per start.
    subprocess.run(cmd, env=env, cwd=root, check=True)
    times, probes = [], []
    for _ in range(SETUP_STARTS):
        probes.append(fresh_probe(root, env))
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=root, check=True)
        times.append(time.perf_counter() - start)
    return times, probes


def latency_summary(latencies: list[float]) -> dict:
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n - 1)
    return {
        "p50_ms": statistics.median(ordered) * 1000,
        "tail_ms": ordered[n - 1 - beyond] * 1000,
        "tail_percentile": 100 * (n - beyond) / n,
        "tail_samples_beyond": beyond,
        "samples": n,
    }


def git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "qpartitions").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def machine(root: Path) -> dict:
    return {
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "platform": platform.platform(),
    }


def untraced(args, root, env, out_dir) -> tuple[dict, dict, list]:
    setup, setup_probes = measure_setup(root, env)
    probes: list[float] = []
    client, records, wall = run_workload(
        args.workload, args.seed, args.tiny, root, env, out_dir, seconds=args.seconds,
        probes=probes)
    latencies = [r[1] for r in records]
    half = PROBE_WINDOW // 2
    # A worker that dies in its first probe leaves no pass; its one record
    # is then failed and is left unscaled.
    windows = [
        probes[max(0, i - half):i + half + 1] or [REFERENCE_S] for i in range(len(latencies))
    ]
    scaled = [x * REFERENCE_S / statistics.fmean(w) for x, w in zip(latencies, windows)]
    raw, latency = latency_summary(latencies), latency_summary(scaled)
    metrics = {
        "setup_s": statistics.median(setup) * REFERENCE_S / statistics.fmean(setup_probes),
        # The loop's wall time less the probes is the time spent in requests.
        "requests_per_s": len(records) / sum(scaled),
        "latency_p50_ms": latency["p50_ms"],
        "latency_tail_ms": latency["tail_ms"],
        "peak_rss_mb": client.peak_rss_kb / 1024,
    }
    unscaled = {
        "setup_s": statistics.median(setup),
        "requests_per_s": len(records) / sum(latencies),
        "latency_p50_ms": raw["p50_ms"],
        "latency_tail_ms": raw["tail_ms"],
    }
    detail = {"time_scale": sum(scaled) / sum(latencies), "unscaled": unscaled,
              "probes_s": probes, "setup_starts_s": setup, "setup_probes_s": setup_probes,
              "wall_s": wall, "latency": latency,
              "latencies_s": latencies, "scaled_latencies_s": scaled}
    return metrics, detail, records


def traced(args, root, env, out_dir) -> tuple[dict, dict, list]:
    trace_dir = out_dir / f"trace-{args.workload}"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    session = args.workload in workloads.SESSION
    trace = trace_dir / "session.spans" if session else trace_dir
    client, records, wall = run_workload(
        args.workload, args.seed, args.tiny, root, env, out_dir, seconds=args.seconds, trace=trace)
    _, replayed, replay_wall = run_workload(
        args.workload, args.seed, args.tiny, root, env, out_dir, limit=len(records))

    summary = tracer.Summary()
    process_overhead_s = 0.0
    detail = {"traced_wall_s": wall, "untraced_wall_s": replay_wall}
    if session:
        summary.add(str(trace))
    else:
        # The slowest quarter of one-off requests are the large Gaussian fills.
        cut = sorted(latency for _, latency in client.traced)[3 * len(client.traced) // 4]
        slow, slow_overhead_s = tracer.Summary(), 0.0
        for path, latency in client.traced:
            overhead_s = latency - summary.add(str(path))
            process_overhead_s += overhead_s
            if latency >= cut:
                slow.add(str(path))
                slow_overhead_s += overhead_s
        detail["self_time_share_slowest_quarter"] = self_time_shares(
            slow.metrics(slow_overhead_s, 0.0))
    metrics = summary.metrics(process_overhead_s, wall / replay_wall)
    detail.update({"spans": summary.spans, "self_time_share": self_time_shares(metrics),
                   "trace_dir": str(trace_dir.relative_to(root))})
    return metrics, detail, records + replayed


def self_time_shares(metrics: dict[str, float]) -> dict[str, float]:
    """Each self time (process overhead included) as a share of their sum, largest first."""
    parts = {k: v for k, v in metrics.items() if k.endswith("self_s") or k == "cli.process_overhead_s"}
    total = sum(parts.values())
    return {k: v / total for k, v in sorted(parts.items(), key=lambda kv: -kv[1]) if v > 0}


def _over_deadline(signum, frame):
    raise TimeoutError(f"run took more than {DEADLINE_S} s")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small request sizes, for the self-test")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "qpartitions" / "cli.py").is_file():
        print("error: run from a qpartitions checkout (src/qpartitions not found)", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _over_deadline)
    signal.alarm(DEADLINE_S)

    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    measure = traced if args.trace else untraced
    metrics, detail, records = measure(args, root, env, out_dir)
    signal.alarm(0)

    failed = failures(records)
    sent = [r[0] for r in records]
    units = (
        {name: unit for name, unit, _ in END_TO_END} if not args.trace
        else {name: unit for name, unit, _better, _moves in tracer.LAYER_METRICS}
    )
    record = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(root),
        "mix": workloads.mix(sent),
        "attempted": len(records),
        "failed": len(failed),
        "failed_share": len(failed) / len(records),
        "failures": failed[:20],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        **detail,
    }
    record_name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / record_name).write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}: {record['why']}")
    print("machine " + json.dumps(record["machine"]))
    print(f"seed {args.seed}, {args.seconds:g} s, mix " + json.dumps(record["mix"]))
    for name, entry in record["metrics"].items():
        print(f"  {name:36s} {entry['value']:>16.6g} {entry['unit']}")
    print(f"  {'failed_share':36s} {record['failed_share']:>16.6g} ratio"
          f" ({len(failed)} of {len(records)})")
    if not args.trace:
        lat = detail["latency"]
        print(f"  latency_tail_ms is p{lat['tail_percentile']:.1f}, "
              f"{lat['tail_samples_beyond']} of {lat['samples']} samples beyond it")
        unscaled = ", ".join(f"{k} {v:.6g}" for k, v in detail["unscaled"].items())
        print(f"  request times scaled by {detail['time_scale']:.4f} overall; "
              f"unscaled: {unscaled}")
    else:
        for key in ("self_time_share", "self_time_share_slowest_quarter"):
            if key in detail:
                print(f"  {key}: " + ", ".join(
                    f"{k} {v:.1%}" for k, v in list(detail[key].items())[:5]))
    for reason in failed[:5]:
        print(f"  FAILED {reason}")
    print(f"record {out_dir.name}/{record_name}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
