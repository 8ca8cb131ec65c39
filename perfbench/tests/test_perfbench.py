"""The benchmark's own tests: metric names and units, tracer hygiene, and the
failure exit without sources.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import metrics  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_catalog_matches_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(metrics.WORKLOAD_NAMES)
    assert list(metrics.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == metrics.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == metrics.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", metrics.WORKLOAD_NAMES)
def test_tiny_run_emits_every_named_metric(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    assert run.main(argv, size="tiny") == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in want}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def _attribute_snapshot() -> dict:
    modules = {name: importlib.import_module(name) for name in tracer.MODULES}
    return {
        (name, attr): value
        for name, module in modules.items()
        for attr, value in vars(module).items()
    }


def test_traced_run_restores_every_attribute():
    before = _attribute_snapshot()
    items = workloads.make_items("code-checks", 1, workloads.SIZES["tiny"])
    with tracer.Tracer() as tr:
        assert importlib.import_module("eaqec.codes").canonicalize is not before[
            ("eaqec.codes", "canonicalize")
        ]
        workloads.run_pass(items, tr)
    assert {s.name for s in tr.spans} >= {"pauli.canonicalize", "codes.min_distance"}
    with pytest.raises(ZeroDivisionError):
        with tracer.Tracer():
            1 / 0
    after = _attribute_snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_tracing_never_writes_stdout(tmp_path):
    items = workloads.make_items("lp-bounds", 2, workloads.SIZES["tiny"])
    items = [item for item in items if item[0] == "general"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        passes, layer, tr = worker.traced_layers(items, 0.1)
        tr.write(tmp_path / "spans.jsonl")
    assert out.getvalue() == ""
    assert layer["lpbound.lp_feasible_general.calls"] > 0
    assert layer["lpbound.solves_per_cell"] == 3.0  # [[3,1;1]]: d = 1, 2 feasible, 3 not


def test_self_time_subtracts_direct_children():
    spans = [
        tracer.Span(0, -1, "lpbound.build_table", 0.0, 10.0),
        tracer.Span(1, 0, "lpbound.lp_upper_bound", 1.0, 7.0),
        tracer.Span(2, 1, "lpbound.lp_feasible", 2.0, 5.0, {"feasible": False}),
    ]
    layer = tracer.layer_metrics(spans)
    assert layer["lpbound.build_table.self_s"] == 4.0
    assert layer["lpbound.lp_upper_bound.self_s"] == 3.0
    assert layer["lpbound.lp_feasible.s_infeasible"] == 3.0
    assert layer["lpbound.solves_per_cell"] == 1.0


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=skip)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "lp-bounds", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
