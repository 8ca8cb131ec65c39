"""Run one workload in this process and print its raw results as one JSON line.

Started by ``run.py`` as the single child process of a benchmark run, so that
its peak resident memory is the workload's own.  Tracebacks of failed items
go to stderr; stdout carries only the result line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --size full|tiny
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import eaqec  # noqa: E402
from metrics import PROBE_ORTHOGONAL_N, PROBE_RANKS  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import SIZES, WORKLOADS, make_items, measure, run_pass  # noqa: E402


def _quantile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(passes) -> dict[str, float]:
    """Median pass wall time and this process's peak resident memory."""
    return {
        "wall_s": statistics.median(p.wall for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def item_latency(passes) -> dict[str, float]:
    """Item latency percentiles over every item of every pass."""
    times = [t for p in passes for t in p.item_times]
    return {"item_p50_ms": 1e3 * _quantile(times, 0.5), "item_p90_ms": 1e3 * _quantile(times, 0.9)}


def traced_layers(items: list, seconds: float) -> tuple[list, dict, Tracer]:
    """Untraced and traced passes in turn, so both see the same machine speed;
    per-layer metrics are medians over the traced passes."""
    tracer = Tracer()
    untraced, traced = [], []
    start = perf_counter()
    while True:
        untraced.append(run_pass(items))
        with tracer:
            traced.append(run_pass(items, tracer))
        elapsed = perf_counter() - start
        if elapsed + 2 * statistics.median(p.wall for p in untraced + traced) > seconds:
            break
    per_pass = [layer_metrics(tracer.spans[slice(*p.span_range)]) for p in traced]
    metrics = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
    metrics["enumerator.krawtchouk.hit_ratio"] = statistics.median(
        p.krawtchouk_hit_ratio for p in traced
    )
    wall = statistics.median(p.wall for p in traced)
    untraced_wall = statistics.median(p.wall for p in untraced)
    metrics["trace.wall_s"] = wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = wall - untraced_wall
    return untraced + traced, metrics, tracer


def _random_group(rng: random.Random, n: int, rank: int):
    while True:
        group = eaqec.canonicalize(
            [eaqec.PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n)) for _ in range(rank)], n
        )
        if group.rank == rank:
            return group


def _median_call_time(fn, min_total: float = 0.2) -> float:
    """Median call time over repeats filling ``min_total`` seconds (at least one)."""
    times: list[float] = []
    while not times or (sum(times) < min_total and len(times) < 1000):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def probes(seed: int) -> tuple[dict[str, float], int, int]:
    """Layer probes on seeded random groups: enumeration rate by rank at n = 15
    and orthogonal-group time at two sizes.  Returns (metrics, attempted, failed)."""
    rng = random.Random(seed)
    out: dict[str, float] = {}
    failed = 0
    for rank in PROBE_RANKS:
        group = _random_group(rng, 15, rank)
        failed += eaqec.weight_enumerator(group).order != 1 << rank
        secs = _median_call_time(lambda: eaqec.weight_enumerator(group))
        out[f"enumerator.probe.r{rank}.elements_per_s"] = (1 << rank) / secs
    for n in PROBE_ORTHOGONAL_N:
        group = _random_group(rng, n, n)
        failed += eaqec.orthogonal_group(group).rank != n
        secs = _median_call_time(lambda: eaqec.orthogonal_group(group))
        out[f"pauli.probe.orthogonal_group.n{n}.s"] = secs
    return out, len(PROBE_RANKS) + len(PROBE_ORTHOGONAL_N), failed


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "eaqec").glob("*.py")):
        src.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "bitwise_count": hasattr(np, "bitwise_count"),
        "commit": _git_commit(),
        "src_sha256": src.hexdigest()[:16],
    }


def run(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    eaqec.registry()  # set-up, measured separately as setup_s
    items = make_items(name, seed, SIZES[size])
    if trace:
        passes, metrics, tracer = traced_layers(items, seconds)
        probe_metrics, probe_attempted, probe_failed = probes(seed)
        metrics.update(probe_metrics)
        out = BENCH / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"trace-{name}-seed{seed}-{size}.jsonl")
    else:
        passes = measure(items, seconds)
        metrics = end_to_end(passes)
        probe_attempted = probe_failed = 0
    digests = {p.digest for p in passes}
    return {
        # one extra operation: every pass must give the same outputs
        "attempted": sum(p.attempted for p in passes) + probe_attempted + 1,
        "failed": sum(p.failed for p in passes) + probe_failed + int(len(digests) != 1),
        "metrics": metrics,
        "passes": len(passes),
        "item_times": [p.item_times for p in passes],
        "item_latency": item_latency(passes),
        "digest": sorted(digests)[0],
        "env": environment(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
