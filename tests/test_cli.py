"""Command-line interface: parsing, dispatch, output determinism, exit codes."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from eaqec import WeightEnumerator
from eaqec import cli as cli_module
from eaqec import lpbound
from eaqec.cli import main
from eaqec.enumerator import IdentityCheck

from conftest import FIVE_QUBIT_GENERATORS

FIVE_QUBIT_TEXT = "5 1\n" + "".join(f"{g}\n" for g in FIVE_QUBIT_GENERATORS)


@pytest.fixture
def five_qubit_file(tmp_path):
    path = tmp_path / "five.txt"
    path.write_text(FIVE_QUBIT_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_child(*argv, unbuffered=False, **streams):
    """Run the CLI in a child interpreter, with stdout block-buffered as by
    default (PYTHONUNBUFFERED removed) unless ``unbuffered``: a buffered
    write error surfaces only at a flush, an unbuffered one at the write."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = str(Path(cli_module.__file__).resolve().parent.parent)
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **streams}
    return subprocess.run(
        [sys.executable, "-m", "eaqec.cli", *argv],
        env=env, text=True, timeout=120, **streams,
    )


needs_dev_full = pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")


# ---------------------------------------------------------------------------
# file parsing


def test_code_file_text_input(capsys, tmp_path, five_qubit_file):
    path = tmp_path / "pair.txt"
    path.write_bytes(b"2 1\nXX\nZI")
    code, out, _ = run(capsys, "distance", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 2, "k": 1, "c": 1, "distance": 1}
    # <XX, ZI> = {II, XX, ZI, YX}
    code, out, _ = run(capsys, "wenum", str(path))
    assert code == 0 and out == "0 1\n1 1\n2 2\n"

    code, out, _ = run(capsys, "distance", five_qubit_file, "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 5, "k": 1, "c": 0, "distance": 3}


def test_code_file_json_detection(capsys, tmp_path):
    path = tmp_path / "pair.json"
    payload = json.dumps({"n": 2, "k": 1, "generators": ["XX", "ZI"]})
    path.write_bytes(b"  " + payload.encode())
    code, out, _ = run(capsys, "wenum", str(path))
    assert code == 0 and out == "0 1\n1 1\n2 2\n"


def test_code_file_with_byte_order_mark_text(capsys, tmp_path):
    # Windows Notepad starts a UTF-8 file with a byte-order mark
    path = tmp_path / "five.txt"
    path.write_bytes(b"\xef\xbb\xbf" + FIVE_QUBIT_TEXT.encode())
    assert run(capsys, "distance", str(path)) == (0, "3\n", "")


def test_code_file_with_byte_order_mark_json(capsys, tmp_path):
    # the mark must not hide the opening brace from JSON detection
    path = tmp_path / "five.json"
    payload = json.dumps({"n": 5, "k": 1, "generators": FIVE_QUBIT_TEXT.split()[2:]})
    path.write_bytes(b"\xef\xbb\xbf" + payload.encode())
    assert run(capsys, "distance", str(path)) == (0, "3\n", "")


def test_code_file_malformed_input(capsys, tmp_path):
    cases = (
        ("missing.txt", None),
        ("long.txt", b"2 1\nXXX"),
        ("binary.txt", b"\xff\xfe"),
        ("overflow.json", b'{"n": 1e400, "k": 1, "generators": []}'),
        ("float.json", b'{"n": 2.5, "k": 1, "generators": ["XX", "ZI"]}'),
        ("bool.json", b'{"n": 2, "k": true, "generators": ["XX", "ZI"]}'),
        ("deep.json", b'{"n": ' + b"[" * 100_000),
        ("digits.json", b'{"n": 1' + b"0" * 5000 + b', "k": 1, "generators": []}'),
    )
    for name, payload in cases:
        path = tmp_path / name
        if payload is not None:
            path.write_bytes(payload)
        code, out, err = run(capsys, "distance", str(path))
        assert code == 2 and out == "", name
        assert err.startswith("error:") and "Traceback" not in err, name
        if name == "long.txt":
            assert "line 2" in err
        if name == "binary.txt":
            assert "UTF-8" in err


# ---------------------------------------------------------------------------
# frozen subcommand outputs


def test_lp_work_stops_at_64_qubits(capsys):
    for argv in (
        ("lp-bound", "--n", "65", "--k", "1"),
        ("lp-bound", "--n", "65", "--k", "1", "--d", "2"),
        ("table", "--nmax", "65"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error:") and "Traceback" not in err, argv
    # 64 qubits still reach the solver; single trial distances stand in for
    # the full bisection, whose one maximisation, at d = 3, takes about 6 s
    # there on a 2-vCPU VM.  d = 1 is settled by the trivial code, and d = 2
    # and d = n by the proved maxima M(n, 2) = 4^(n-1) - 1 and M(n, n) = 3,
    # with no solve
    assert run(capsys, "lp-bound", "--n", "64", "--k", "63", "--d", "1") == (0, "feasible\n", "")
    assert run(capsys, "lp-bound", "--n", "64", "--k", "63", "--d", "2") == (0, "feasible\n", "")
    assert run(capsys, "lp-bound", "--n", "64", "--k", "1", "--d", "64") == (0, "feasible\n", "")
    assert run(capsys, "lp-bound", "--n", "64", "--k", "63", "--d", "64") == (
        0, "infeasible\n", ""
    )


def test_lp_bound_on_every_maximal_cell_to_15_qubits(capsys):
    # `lp-bound` prints each maximal cell's LP bound: the frozen table's
    # upper bound, except at the override cells listed here, where the LP
    # allows d = n at k = 1 and d = 2 at k = n - 1 for even n.  The `--d`
    # verdicts fall as d rises and count up to that bound
    root = Path(__file__).resolve().parent.parent
    frozen = json.loads((root / "artifacts" / "bounds_table_n15.json").read_text())["cells"]
    overrides = {(n, 1): n for n in range(2, 16, 2)} | {(n, n - 1): 2 for n in range(4, 16, 2)}
    assert set(overrides) == {(c["n"], c["k"]) for c in frozen if c["upper_source"] == "override"}
    for cell in frozen:
        n, k = str(cell["n"]), str(cell["k"])
        bound = overrides.get((cell["n"], cell["k"]), cell["upper"])
        assert run(capsys, "lp-bound", "--n", n, "--k", k) == (0, f"{bound}\n", ""), (n, k)
        verdicts = []
        for d in range(1, cell["n"] + 1):
            code, out, err = run(capsys, "lp-bound", "--n", n, "--k", k, "--d", str(d))
            assert code == 0 and err == "" and out in ("feasible\n", "infeasible\n"), (n, k, d)
            verdicts.append(out == "feasible\n")
        assert verdicts == sorted(verdicts, reverse=True) and sum(verdicts) == bound, (n, k)


def test_lp_bound_on_every_partial_cell_to_7_qubits(capsys):
    # `lp-bound --c` prints each pinned partial-entanglement bound, and its
    # `--d` verdicts fall as d rises and count up to that bound
    root = Path(__file__).resolve().parent.parent
    pinned = json.loads((root / "tests" / "data" / "lp_general_n10.json").read_text())
    cells = [row for row in pinned["lp_general"] if row[0] <= 7]
    assert len(cells) == 35
    for n, k, c, bound in cells:
        argv = ("lp-bound", "--n", str(n), "--k", str(k), "--c", str(c))
        assert run(capsys, *argv) == (0, f"{bound}\n", ""), (n, k, c)
        verdicts = []
        for d in range(1, n + 1):
            code, out, err = run(capsys, *argv, "--d", str(d))
            assert code == 0 and err == "" and out in ("feasible\n", "infeasible\n"), (n, k, c, d)
            verdicts.append(out == "feasible\n")
        assert verdicts == sorted(verdicts, reverse=True) and sum(verdicts) == bound, (n, k, c)
    code, out, _ = run(capsys, "lp-bound", "--n", "7", "--k", "2", "--c", "2", "--d", "4",
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 7, "k": 2, "c": 2, "d": 4, "feasible": True}


def test_extend_command(capsys):
    code, out, _ = run(
        capsys, "extend", "--n", "13", "--k", "3", "--c", "10", "--d", "9",
        "--mode", "lengthen",
    )
    assert code == 0 and out == "[[14,3,9;11]]\n"
    code, out, _ = run(
        capsys, "extend", "--n", "13", "--k", "9", "--c", "4", "--d", "4",
        "--mode", "trade",
    )
    assert code == 0 and out == "[[13,8,4;5]]\n"
    code, out, err = run(
        capsys, "extend", "--n", "5", "--k", "1", "--c", "4", "--d", "3",
        "--mode", "trade",
    )
    assert code == 2 and out == "" and err.startswith("error:") and "k >= 1" in err
    code, out, err = run(
        capsys, "extend", "--n", "4", "--k", "0", "--c", "2", "--d", "3",
        "--mode", "lengthen",
    )
    assert code == 2 and out == "" and err.startswith("error:")


def test_distance_from_stdin(capsys, monkeypatch):
    fake = type("FakeStdin", (), {"buffer": io.BytesIO(FIVE_QUBIT_TEXT.encode())})()
    monkeypatch.setattr(sys, "stdin", fake)
    code, out, _ = run(capsys, "distance")
    assert code == 0 and out == "3\n"


# the five-qubit code (c = 0), its dual (k = 0) and a [[5,1;1]] code with
# three isotropic generators; coefficients of each group's weight enumerator
WENUM_CODES = {
    "five": FIVE_QUBIT_TEXT,
    "five-dual": "5 0\nXZIIZ\nIYIZZ\nIZXZI\nIIZXZ\nIZZIY\nZZZZZ\n",
    "c1": "5 1\nXIYZZ\nIXIZZ\nIIZYZ\nIIZIY\nZIZII\n",
}
FIVE_STAB = (1, 0, 0, 0, 15, 0)
FIVE_NORM = (1, 0, 0, 30, 15, 18)
WENUM_PINS = {
    "five": {"stabilizer": FIVE_STAB, "isotropic": FIVE_STAB, "logical": (1, 0, 0, 3, 0, 0),
             "normalizer": FIVE_NORM, "combined": FIVE_NORM},
    "five-dual": {"stabilizer": FIVE_NORM, "isotropic": FIVE_STAB,
                  "logical": (1, 0, 0, 0, 0, 0), "normalizer": FIVE_STAB,
                  "combined": FIVE_NORM},
    "c1": {"stabilizer": (1, 0, 4, 10, 11, 6), "isotropic": (1, 0, 1, 1, 2, 3),
           "logical": (1, 1, 0, 2, 0, 0), "normalizer": (1, 1, 2, 6, 13, 9),
           "combined": (1, 1, 14, 30, 49, 33)},
}


def test_wenum_bytes_for_every_group(capsys, tmp_path):
    for name, text in WENUM_CODES.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        for group, coeffs in WENUM_PINS[name].items():
            code, out, _ = run(capsys, "wenum", str(path), "--group", group)
            assert code == 0
            assert out == "".join(f"{w} {x}\n" for w, x in enumerate(coeffs))
            code, out, _ = run(capsys, "wenum", str(path), "--group", group,
                               "--format", "json")
            assert code == 0
            listed = ",\n".join(f"    {x}" for x in coeffs)
            assert out == (
                f'{{\n  "coefficients": [\n{listed}\n  ],\n  "group": "{group}",\n'
                f'  "n": 5,\n  "order": {sum(coeffs)}\n}}\n'
            )


def test_dual_round_trip_through_cli(capsys, five_qubit_file, tmp_path):
    code, out, _ = run(capsys, "dual", five_qubit_file)
    assert code == 0
    dual_path = tmp_path / "dual.txt"
    dual_path.write_text(out)
    code, out2, _ = run(capsys, "dual", str(dual_path))
    assert code == 0
    # dualizing twice returns the original stabilizer group
    from eaqec import from_generators, parse_code_text

    original = from_generators(*parse_code_text(FIVE_QUBIT_TEXT))
    recovered = from_generators(*parse_code_text(out2))
    assert recovered.stabilizer_group == original.stabilizer_group
    # the dual's logical pair, exactly as symplectic_gram_schmidt splits it
    code, out3, _ = run(capsys, "dual", "--format", "json", str(dual_path))
    assert code == 0
    assert json.loads(out3)["logical_pairs"] == [["XZIIZ", "IYIZZ"]]


def test_verify_mw_failure_sets_exit_code(capsys, five_qubit_file, monkeypatch):
    mismatched = IdentityCheck(
        WeightEnumerator(1, (1, 0)), WeightEnumerator(1, (1, 1))
    )
    matched = IdentityCheck(WeightEnumerator(1, (1, 1)), WeightEnumerator(1, (1, 1)))
    monkeypatch.setattr(
        cli_module,
        "eaqec_identities",
        lambda code, budget_log2=None: (mismatched, matched),
    )
    code, out, _ = run(capsys, "verify-mw", five_qubit_file)
    assert code == 1
    assert "MISMATCH" in out and out.endswith("verification FAILED\n")


def test_registry_command(capsys):
    code, out, _ = run(capsys, "registry", "--nmax", "3")
    assert code == 0
    lines = out.splitlines()
    assert "[[2,1,1;1]] source=construction generators=yes" in lines
    assert all("[[" in line for line in lines)


# ---------------------------------------------------------------------------
# JSON mirrors the text numbers


def test_json_output_matches_text_numbers(capsys, five_qubit_file):
    _, text_out, _ = run(capsys, "distance", five_qubit_file)
    _, json_out, _ = run(capsys, "distance", five_qubit_file, "--format", "json")
    assert json.loads(json_out)["distance"] == int(text_out)

    _, text_out, _ = run(capsys, "lp-bound", "--n", "9", "--k", "4")
    _, json_out, _ = run(capsys, "lp-bound", "--n", "9", "--k", "4", "--format", "json")
    assert json.loads(json_out)["upper_bound"] == int(text_out)

    _, text_out, _ = run(capsys, "wenum", five_qubit_file)
    _, json_out, _ = run(capsys, "wenum", five_qubit_file, "--format", "json")
    text_counts = [int(line.split()[1]) for line in text_out.splitlines()]
    assert json.loads(json_out)["coefficients"] == text_counts

    _, text_out, _ = run(capsys, "table", "--nmax", "3")
    _, json_out, _ = run(capsys, "table", "--nmax", "3", "--format", "json")
    cells = {(c["n"], c["k"]): c for c in json.loads(json_out)["cells"]}
    assert "  n=3 k=1 lower=3(registry) upper=3(trivial)" in text_out.splitlines()
    assert cells[(3, 1)]["lower"] == 3 and cells[(3, 1)]["upper"] == 3

    _, text_out, _ = run(capsys, "registry", "--nmax", "5")
    _, json_out, _ = run(capsys, "registry", "--nmax", "5", "--format", "json")
    entries = json.loads(json_out)["entries"]
    assert len(entries) == len(text_out.splitlines()) > 0
    for e, line in zip(entries, text_out.splitlines()):
        has_gens = "yes" if e["has_generators"] else "no"
        params = f"[[{e['n']},{e['k']},{e['d']};{e['c']}]]"
        assert line == f"{params} source={e['source']} generators={has_gens}"

    extend_args = (
        "extend", "--n", "13", "--k", "9", "--c", "4", "--d", "4", "--mode", "trade"
    )
    _, text_out, _ = run(capsys, *extend_args)
    _, json_out, _ = run(capsys, *extend_args, "--format", "json")
    e = json.loads(json_out)
    assert text_out == f"[[{e['n']},{e['k']},{e['d']};{e['c']}]]\n"
    assert e["mode"] == "trade"

    for d, verdict in (("5", True), ("6", False)):
        lp_args = ("lp-bound", "--n", "7", "--k", "2", "--d", d)
        code, text_out, _ = run(capsys, *lp_args)
        assert code == 0 and text_out == ("feasible\n" if verdict else "infeasible\n")
        code, json_out, _ = run(capsys, *lp_args, "--format", "json")
        assert code == 0 and json.loads(json_out)["feasible"] is verdict

    code, text_out, _ = run(capsys, "verify-mw", five_qubit_file)
    assert code == 0
    code, json_out, _ = run(capsys, "verify-mw", five_qubit_file, "--format", "json")
    payload = json.loads(json_out)
    assert code == 0 and payload["holds"] is True
    text_lines = text_out.splitlines()
    for name, check in payload["checks"].items():
        at = text_lines.index(f"{name}: {'ok' if check['holds'] else 'MISMATCH'}")
        assert text_lines[at + 1].split()[1:] == [str(x) for x in check["direct"]]
        assert text_lines[at + 2].split()[1:] == [str(x) for x in check["transformed"]]

    _, text_out, _ = run(capsys, "dual", five_qubit_file)
    code, json_out, _ = run(capsys, "dual", five_qubit_file, "--format", "json")
    payload = json.loads(json_out)
    assert code == 0 and (payload["n"], payload["k"], payload["c"]) == (5, 0, 1)
    assert len(payload["generators"]) == 6
    from eaqec import from_generators, parse_code_json, parse_code_text

    from_text = from_generators(*parse_code_text(text_out))
    from_json = from_generators(*parse_code_json(json_out))
    assert (from_text.k, from_text.c) == (from_json.k, from_json.c) == (0, 1)
    assert from_text.stabilizer_group == from_json.stabilizer_group


# ---------------------------------------------------------------------------
# errors and the budget knob


def test_supplied_logical_pairs_are_validated(capsys, tmp_path):
    generators = FIVE_QUBIT_TEXT.split()[2:]
    cases = (
        (["XXXXX", "ZZZZZ"], 0, "3\n", ""),
        (["XXXXX", "XXXXX"], 2, "",
         "error: commutation pattern violated between generators 0 and 1\n"),
        (["XXXXX", "YZZZZ"], 2, "",
         "error: commutation pattern violated between generators 1 and 2\n"),
    )
    for pair, status, stdout, stderr in cases:
        path = tmp_path / "five.json"
        path.write_text(json.dumps(
            {"n": 5, "k": 1, "generators": generators, "logical_pairs": [pair]}
        ))
        assert run(capsys, "distance", str(path)) == (status, stdout, stderr)


def test_lp_bound_rejects_removed_integrality_flag(capsys):
    # scripts still passing the deleted flag get a usage error, not a
    # silently different bound; the walk has no start for a flag to set
    for flag in (["--branch-and-bound"], ["--start", "3"]):
        assert main(["lp-bound", "--n", "5", "--k", "2", *flag]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err
        assert "Traceback" not in captured.err


def test_budget_flag(capsys, five_qubit_file, monkeypatch):
    code, out, err = run(capsys, "wenum", five_qubit_file, "--budget", "1")
    assert code == 2 and out == "" and err.startswith("error:")
    code, out, _ = run(capsys, "wenum", five_qubit_file, "--budget", "30")
    assert code == 0 and out.startswith("0 1\n")
    # the flag is the only budget setting: the environment is not read
    monkeypatch.setenv("EAQEC_BUDGET_LOG2", "1")
    code, _, _ = run(capsys, "wenum", five_qubit_file)
    assert code == 0


def test_stdout_write_error_exits_2(capsys, monkeypatch):
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

    for fmt in ("text", "json"):
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = main(["table", "--nmax", "3", "--format", fmt])
        monkeypatch.undo()
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "Broken pipe" in err
        assert "Traceback" not in err


@needs_dev_full
def test_buffered_stdout_error_exits_2():
    # buffered stdout (PYTHONUNBUFFERED unset, the default) holds the table
    # until a flush, so the write error must surface inside main, not at the
    # interpreter's final flush, which would print "Exception ignored" and
    # exit 120
    with open("/dev/full", "w") as full:
        done = run_child("table", "--nmax", "3", stdout=full)
    assert done.returncode == 2
    assert [line for line in done.stderr.splitlines() if line.startswith("error:")] == [
        "error: [Errno 28] No space left on device"
    ]
    assert "Exception ignored" not in done.stderr and "Traceback" not in done.stderr


def test_missing_stdout_exits_2(capsys, monkeypatch):
    # with descriptor 1 closed, Python sets sys.stdout to None
    monkeypatch.setattr(sys, "stdout", None)
    code = main(["lp-bound", "--n", "5", "--k", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


def test_missing_stdin_exits_2(capsys, monkeypatch):
    # with descriptor 0 closed, Python sets sys.stdin to None
    monkeypatch.setattr(sys, "stdin", None)
    for argv in (["distance"], ["wenum", "--format", "json"]):
        assert run(capsys, *argv) == (2, "", "error: the input stream is closed\n"), argv


def test_stderr_write_error_exits_2(monkeypatch):
    class FullDisk:
        def write(self, text):
            raise OSError(28, "No space left on device")

        def flush(self):
            pass

    def interrupted(args):
        raise KeyboardInterrupt

    # the report to stderr fails, but the status stands and nothing escapes
    monkeypatch.setattr(sys, "stderr", FullDisk())
    assert main(["lp-bound", "--n", "5", "--k", "9"]) == 2  # bad input
    monkeypatch.setattr(cli_module, "_cmd_table", interrupted)
    assert main(["table", "--nmax", "4"]) == 130


def test_simplex_iteration_cap_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(lpbound, "_SIMPLEX_ITERATION_CAP", 1)
    code, out, err = run(capsys, "lp-bound", "--n", "5", "--k", "2")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "pivots" in err


def test_keyboard_interrupt_exits_130(capsys, monkeypatch):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli_module, "_cmd_table", interrupted)
    code, out, err = run(capsys, "table", "--nmax", "4")
    assert code == 130 and out == ""
    assert "Traceback" not in err


def test_unknown_subcommand_exits_via_argparse(capsys):
    assert main(["frobnicate"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 'frobnicate'" in captured.err
    assert "Traceback" not in captured.err


def test_help_exits_0_and_prints_help():
    done = run_child("--help")
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout.startswith("usage: eaqec ")
    assert "{dual,wenum,distance,verify-mw,lp-bound,table,registry,extend}" in done.stdout


@needs_dev_full
def test_help_that_cannot_be_written_exits_2():
    # argparse drops a failed write of its help itself (unbuffered stdout),
    # and a buffered write fails only at a flush: either way main must see
    # the error, or the text is lost with exit 0 or 120
    for unbuffered in (False, True):
        for argv in (["--help"], ["table", "--help"]):
            with open("/dev/full", "w") as full:
                done = run_child(*argv, unbuffered=unbuffered, stdout=full)
            assert done.returncode == 2, (argv, unbuffered)
            assert done.stderr == "error: [Errno 28] No space left on device\n"


@needs_dev_full
def test_usage_error_that_cannot_be_written_exits_2():
    for unbuffered in (False, True):
        for argv in (["lp-bound", "--n", "x", "--k", "2"], ["frobnicate"]):
            with open("/dev/full", "w") as full:
                done = run_child(*argv, unbuffered=unbuffered, stderr=full)
            assert done.returncode == 2, (argv, unbuffered)
            assert done.stdout == ""
