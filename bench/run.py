#!/usr/bin/env python3
"""parteq benchmark: run one workload, check every output, print its metrics.

Usage, from the repository root:

    python3 bench/run.py --workload verify-grid --seed 1 --seconds 30 --trace 0

Workloads are verify-grid, map-stream and series-deep (see workloads.py
and bench/README.md). With --trace 0 the run reports the end-to-end
metrics, with times scaled to a reference machine speed (speed.py); with
--trace 1 it also runs the same ops with spans around every layer and
reports the per-layer metrics instead, writing the spans to bench/out/. Stdlib only, one process, one thread; the setup_s probe
starts short-lived interpreters one at a time and waits for each.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give the environment,
the run settings, the exact counts and every metric with its unit. The
exit status is 0 when every gate passed and every exact count repeated,
1 when one did not, and 2 when the benchmark cannot run here (no
src/parteq next to it, or inputs that break their own definitions).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

WARMUP_ROUNDS = 1  # discarded: the first round in a process runs measurably slower
MIN_ROUNDS = 3
TRACED_ROUNDS = 2  # the second must repeat the first's exact counts
SETUP_RUNS = 15  # after one discarded run that may still compile bytecode

# Runs in a fresh interpreter; the speed probe is imported only after the
# timed region so that its imports do not count as parteq's.
SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import parteq, parteq.cli
parteq.cli.build_parser()
elapsed = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
import speed
print(elapsed * speed.NOMINAL_S / speed.probe_seconds(3))
print(parteq.__file__)
"""

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p99_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=["verify-grid", "map-stream", "series-deep"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measured time per run, after warm-up")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (SRC / "parteq" / "__init__.py").is_file():
        print(f"error: no parteq sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import parteq

    if Path(parteq.__file__).resolve().parent != (SRC / "parteq").resolve():
        print(f"error: imported parteq from {parteq.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import inputs
    import speed
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    problems = inputs.check_map_ops(workload.ops) if isinstance(workload, workloads.MapStream) else []
    if problems:
        print("error: generated inputs break their definitions:", *problems[:5], sep="\n  ", file=sys.stderr)
        return 2

    pace = speed.Speed()
    rounds = [workload.round(True, pace) for _ in range(WARMUP_ROUNDS)]
    deadline = time.perf_counter() + args.seconds
    timed = [workload.round(False, pace)]
    # The workload's own peak: later rounds repeat the same work, and only
    # the harness's latency lists, whose length depends on machine speed, grow.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run_timed(workload, pace, deadline, timed)
    rounds += timed
    drift = []
    if args.trace:
        metrics, units, traced, layer_counts = run_traced(workload, pace, timed, args)
        rounds += traced
        drift += [c for c in layer_counts if c != layer_counts[0]]
    else:
        metrics = end_to_end(timed)
        metrics["setup_s"] = measure_setup()
        metrics["peak_rss_mb"] = peak_rss_mb
        units = END_TO_END_UNITS

    drift += [r.counts for r in rounds if r.counts and r.counts != rounds[0].counts]
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    for message in [m for r in rounds for m in r.errors][:5]:
        print(f"FAILED: {message}", file=sys.stderr)
    if drift:
        print(f"FAILED: exact counts drifted between rounds, for example to {drift[0]}", file=sys.stderr)

    print("env " + json.dumps(environment(args, len(timed), pace)))
    print("counts per round " + json.dumps(rounds[0].counts))
    if not args.trace:
        latencies = op_latencies(timed)
        beyond = sum(x > metrics["op_p99_ms"] / 1000 for x in latencies)
        print(f"latency samples {len(latencies)} ops x {len(timed)} rounds, ops beyond p99 {beyond}")
        raw = end_to_end(timed, raw=True)
        print("as measured, before scaling to reference speed: "
              + ", ".join(f"{name} {value:.6g} {units[name]}" for name, value in raw.items()))
    print(f"{'failed_ratio':36s} {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    for name, value in metrics.items():
        print(f"{name:36s} {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0 and not drift,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_timed(workload, pace, deadline: float, rounds: list) -> None:
    """Add rounds until `deadline` has passed and there are MIN_ROUNDS of them."""
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        rounds.append(workload.round(False, pace))


def op_latencies(timed: list, raw: bool = False) -> list[float]:
    """Each op's median latency over the timed rounds, at reference speed or as measured.

    Every round runs the same ops in the same order, so an op's median
    over rounds is its latency with passing interference removed; the
    pooled samples' p99 was mostly such interference.
    """
    per_round = [r.raw_latencies if raw else r.latencies for r in timed]
    complete = [lat for lat in per_round if len(lat) == max(map(len, per_round))]
    return [statistics.median(op) for op in zip(*complete)]


def end_to_end(timed: list, raw: bool = False) -> dict[str, float]:
    """Throughput and latency percentiles at reference speed, or as measured with raw=True."""
    latencies = op_latencies(timed, raw)
    if len(latencies) < 2:  # every op failed before it could be timed; the run reports correct: false
        latencies = [0.0, 0.0]
    return {
        "ops_per_s": statistics.median(r.attempted / (r.raw_busy_s if raw else r.busy_s) for r in timed),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_p99_ms": 1000 * statistics.quantiles(latencies, n=100)[98],
    }


def run_traced(workload, pace, timed: list, args) -> tuple[dict, dict, list, list]:
    """TRACED_ROUNDS more rounds with every layer wrapped.

    Returns the per-layer metrics of the last traced round, their units,
    the traced rounds and each traced round's layer counts.
    """
    import tracing

    # No probes inside a traced sweep: their time would land in the spans they interrupt.
    traced_pace = type(pace)(interrupt=False)
    tracer = tracing.Tracer()
    tracer.install()
    traced, layer_counts = [], []
    try:
        for _ in range(TRACED_ROUNDS):
            tracer.reset()
            traced.append(workload.round(False, traced_pace))
            layer_counts.append(tracer.counts())
    finally:
        tracer.uninstall()
    last = traced[-1]
    overhead = last.busy_s / statistics.median(r.busy_s for r in timed)
    metrics = tracer.metrics(last.raw_busy_s, overhead, last.stdout_bytes)
    tracer.write(OUT / f"{args.workload}.trace.json",
                 {"env": environment(args, len(timed), pace), "counts": layer_counts[-1], "metrics": metrics})
    return metrics, tracing.METRICS, traced, layer_counts


def measure_setup() -> float:
    """Median time to import parteq and parteq.cli and build the parser, in fresh interpreters.

    The time is taken inside each interpreter, so interpreter start-up,
    the larger and noisier part of a process launch, is left out, and
    scaled to reference speed by a probe run in the same interpreter.
    """
    times = []
    for i in range(SETUP_RUNS + 1):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(Path(__file__).resolve().parent)],
            capture_output=True, text=True, timeout=60, check=True, cwd=ROOT,
        )
        seconds, path = proc.stdout.split("\n")[:2]
        if Path(path).resolve().parent != (SRC / "parteq").resolve():
            raise RuntimeError(f"setup probe imported parteq from {path}")
        if i:
            times.append(float(seconds))
    return statistics.median(times)


def environment(args, repeats: int, pace) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "repeats": repeats,
        "warmup_discarded": WARMUP_ROUNDS,
        "speed_scale_median": statistics.median(pace.scales),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD's commit read from .git without running git; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over src/parteq/*.py, which names the code under test where no commit is known."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "parteq").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
