"""The package's public surface and the committed benchmark records."""

import json
import re
import shlex
from pathlib import Path

import eaqec
from eaqec.cli import main

ROOT = Path(__file__).resolve().parent.parent


def test_all_names_resolve_and_star_import_succeeds():
    missing = [name for name in eaqec.__all__ if not hasattr(eaqec, name)]
    assert missing == []
    assert len(set(eaqec.__all__)) == len(eaqec.__all__)
    namespace = {}
    exec("from eaqec import *", namespace)
    assert set(eaqec.__all__) <= namespace.keys()


def test_bench_records_are_complete_and_consistent():
    """Each ``BENCH_*.json`` names its machine and commits, and each workload
    it summarizes ran at least 3 times per side without a failure, with the
    same output digests on both sides and ordered quartiles."""
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        record = json.loads(path.read_text())
        assert {"nproc", "python", "numpy"} <= record["env"].keys(), path.name
        for side in ("parent", "change"):
            assert re.fullmatch(r"[0-9a-f]{40}", record["commits"][side]), path.name
        assert record["summary"], path.name
        for workload, sides in record["summary"].items():
            where = f"{path.name}: {workload}"
            for side in ("parent", "change"):
                summary = sides[side]
                assert summary["runs"] >= 3, where
                assert summary["failed"] == 0, where
                assert summary["digests"], where
                quartiles = [v["q1_median_q3"] for v in summary.values()
                             if isinstance(v, dict)]
                assert quartiles, where
                for q1, median, q3 in quartiles:
                    assert q1 <= median <= q3, where
            assert sides["parent"]["digests"] == sides["change"]["digests"], where


def test_readme_library_quick_start_prints_what_its_comments_say(capsys):
    """Runs the README's Python block and compares each ``print`` with the
    value its trailing comment shows."""
    block = (ROOT / "README.md").read_text().split("```python\n", 1)[1].split("```", 1)[0]
    shown = [line.rsplit("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    exec(block, {})
    assert capsys.readouterr().out.splitlines() == shown
    assert len(shown) == 4


def test_readme_cli_quick_start_prints_what_it_shows(capsys, monkeypatch, tmp_path):
    """Writes ``five.txt`` from the README's CLI block and runs each shown
    ``$ eaqec`` line through ``main``.  Output shown without ``...`` must be
    the whole output; with it, the lines before ``...`` must start the output
    and the lines after it end it.  A command shown with no output is only
    run."""
    section = (ROOT / "README.md").read_text().split("## Quick start: CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    commands = 0
    for paragraph in block.strip().split("\n\n"):
        prompt, *shown = paragraph.splitlines()
        argv = shlex.split(prompt.removeprefix("$ "), comments=True)
        if argv[0] == "cat":
            Path(argv[1]).write_text("\n".join(shown) + "\n")
            continue
        assert argv[0] == "eaqec", prompt
        assert main(argv[1:]) == 0, prompt
        out = capsys.readouterr().out.splitlines()
        stripped = [line.strip() for line in shown]
        if "..." in stripped:
            cut = stripped.index("...")
            head, tail = shown[:cut], shown[cut + 1 :]
            rest = out[len(head) :]
            assert out[: len(head)] == head and rest[len(rest) - len(tail) :] == tail, prompt
        elif shown:
            assert out == shown, prompt
        commands += 1
    assert commands == 7
