"""eaqec benchmark: one workload, one closed-loop run, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the library is imported from
``src/``).  The run measures set-up time in fresh interpreters, then starts
one child process (``worker.py``) that runs the workload for about ``S``
seconds.  With ``--trace 0`` it reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  It prints a readable
summary and, as its last stdout line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every run is also appended, with
machine details, to ``perfbench/out/results.jsonl``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from metrics import END_TO_END_UNITS, PER_LAYER_UNITS, WORKLOAD_NAMES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

SETUP_REPEATS = {"full": 10, "tiny": 2}

SETUP_CODE = """\
import json, time
t0 = time.perf_counter()
import eaqec
t1 = time.perf_counter()
eaqec.registry()
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "registry_s": t2 - t1}))
"""


def _child_env() -> dict[str, str]:
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def measure_setup(repeats: int) -> dict[str, float]:
    """Median over fresh interpreters of ``import eaqec`` plus the first
    ``registry()``, after one discarded warm-up start."""
    walls, imports, registries = [], [], []
    for i in range(repeats + 1):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=_child_env(),
            capture_output=True, text=True, timeout=120, check=True,
        )
        wall = perf_counter() - t0
        if i == 0:
            continue
        inner = json.loads(proc.stdout)
        walls.append(wall)
        imports.append(inner["import_s"])
        registries.append(inner["registry_s"])
    return {
        "setup_s": statistics.median(walls),
        "setup.import_s": statistics.median(imports),
        "setup.registry_s": statistics.median(registries),
    }


def run_worker(workload: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--size", size],
        stdout=subprocess.PIPE, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_digest(workload: str, seed: int, size: str, digest: str) -> bool:
    """Outputs for a seed must repeat from run to run: compare with the digest
    an earlier run in this checkout stored, or store this one."""
    path = OUT / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    key = f"{workload}/{size}/seed{seed}"
    if key in known:
        return known[key] == digest
    known[key] = digest
    path.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    return True


def run(workload: str, seed: int, seconds: float, trace: int, size: str = "full") -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    if not (ROOT / "src" / "eaqec" / "__init__.py").is_file():
        raise FileNotFoundError(f"no eaqec sources under {ROOT / 'src'}")
    OUT.mkdir(exist_ok=True)
    setup = measure_setup(SETUP_REPEATS[size])
    raw = run_worker(workload, seed, seconds, trace, size)
    raw["metrics"].update(setup)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    metrics = {name: {"value": raw["metrics"][name], "unit": unit} for name, unit in units.items()}
    digest_ok = check_digest(workload, seed, size, raw["digest"])
    attempted = raw["attempted"] + 1
    failed = raw["failed"] + int(not digest_ok)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "size": size, "passes": raw["passes"], "digest": raw["digest"],
        "env": raw["env"], "attempted": attempted, "failed": failed, "metrics": metrics,
        "item_latency": raw["item_latency"], "item_times": raw["item_times"],
    }
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    env = raw["env"]
    print(
        f"eaqec benchmark: workload={workload} seed={seed} trace={trace} "
        f"passes={raw['passes']} digest={raw['digest'][:16]}\n"
        f"  nproc={env['nproc']} cpu={env['cpu']!r} python={env['python']} "
        f"numpy={env['numpy']} bitwise_count={env['bitwise_count']} "
        f"commit={env['commit'][:12]} src={env['src_sha256']}"
    )
    for name, m in metrics.items():
        print(f"  {name:<52} {m['value']:>16.6g} {m['unit']}")
    for name, value in raw["item_latency"].items():
        print(f"  {name:<52} {value:>16.6g} ms (not gated)")
    print(f"  {'error_rate':<52} {failed / attempted:>16.6g} ({failed} of {attempted} failed)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None, size: str = "full") -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace, size)
    except (OSError, RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
