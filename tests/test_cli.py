"""Command-line interface: parsing, dispatch, output determinism, exit codes."""

import io
import json
import sys

import pytest

from eaqec import WeightEnumerator
from eaqec import cli as cli_module
from eaqec import lpbound
from eaqec.cli import main
from eaqec.enumerator import IdentityCheck

FIVE_QUBIT_TEXT = "5 1\nXZZXI\nIXZZX\nXIXZZ\nZXIXZ\n"


@pytest.fixture
def five_qubit_file(tmp_path):
    path = tmp_path / "five.txt"
    path.write_text(FIVE_QUBIT_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_code_file_malformed_input(capsys, tmp_path):
    cases = (
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
        path.write_bytes(payload)
        code, out, err = run(capsys, "distance", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err
        if name == "binary.txt":
            assert "UTF-8" in err


# ---------------------------------------------------------------------------
# frozen subcommand outputs


def test_lp_bound_command(capsys):
    code, out, _ = run(capsys, "lp-bound", "--n", "9", "--k", "4")
    assert code == 0 and out == "5\n"


def test_lp_bound_trial_distance(capsys):
    code, out, _ = run(capsys, "lp-bound", "--n", "7", "--k", "2", "--d", "5")
    assert code == 0 and out == "feasible\n"
    code, out, _ = run(capsys, "lp-bound", "--n", "7", "--k", "2", "--d", "6")
    assert code == 0 and out == "infeasible\n"


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


def test_distance_command(capsys, five_qubit_file):
    code, out, _ = run(capsys, "distance", five_qubit_file)
    assert code == 0 and out == "3\n"


def test_distance_from_stdin(capsys, monkeypatch):
    fake = type("FakeStdin", (), {"buffer": io.BytesIO(FIVE_QUBIT_TEXT.encode())})()
    monkeypatch.setattr(sys, "stdin", fake)
    code, out, _ = run(capsys, "distance")
    assert code == 0 and out == "3\n"


def test_wenum_command(capsys, five_qubit_file):
    code, out, _ = run(capsys, "wenum", five_qubit_file, "--group", "normalizer")
    assert code == 0
    assert out == "0 1\n1 0\n2 0\n3 30\n4 15\n5 18\n"


def test_dual_round_trip_through_cli(capsys, five_qubit_file, tmp_path):
    code, out, _ = run(capsys, "dual", five_qubit_file)
    assert code == 0
    dual_path = tmp_path / "dual.txt"
    dual_path.write_text(out)
    code, out2, _ = run(capsys, "dual", str(dual_path))
    assert code == 0
    # dualizing twice returns the original stabilizer group
    from eaqec import build_code, parse_code_text

    original = build_code(*parse_code_text(FIVE_QUBIT_TEXT))
    recovered = build_code(*parse_code_text(out2))
    assert recovered.stabilizer_group == original.stabilizer_group


def test_verify_mw_command(capsys, five_qubit_file):
    code, out, _ = run(capsys, "verify-mw", five_qubit_file)
    assert code == 0
    assert "normalizer-from-stabilizer: ok" in out
    assert "isotropic-from-combined: ok" in out
    assert out.endswith("verification passed\n")


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


def test_table_command_deterministic(capsys):
    code, out1, _ = run(capsys, "table", "--nmax", "4")
    assert code == 0
    code, out2, _ = run(capsys, "table", "--nmax", "4")
    assert out1 == out2
    assert "n\\k" in out1 and "provenance:" in out1
    assert "2-3" in out1  # the open (4, 2) cell


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


def test_dual_json_output(capsys, five_qubit_file):
    code, out, _ = run(capsys, "dual", five_qubit_file, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["n"], payload["k"], payload["c"]) == (5, 0, 1)
    assert len(payload["generators"]) == 6


# ---------------------------------------------------------------------------
# errors and the budget knob


def test_missing_file_is_an_error(capsys):
    code, _, err = run(capsys, "distance", "/nonexistent/code.txt")
    assert code == 2 and "error:" in err


def test_malformed_input_is_an_error(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 1\nXXX\n")
    code, _, err = run(capsys, "distance", str(path))
    assert code == 2
    assert "line 2" in err


def test_branch_and_bound_requires_maximal_entanglement(capsys):
    code, _, err = run(
        capsys, "lp-bound", "--n", "6", "--k", "1", "--c", "1", "--branch-and-bound"
    )
    assert code == 2 and "maximal entanglement" in err


def test_budget_env_var(capsys, five_qubit_file, monkeypatch):
    monkeypatch.setenv("EAQEC_BUDGET_LOG2", "1")
    code, _, err = run(capsys, "wenum", five_qubit_file)
    assert code == 2 and "error:" in err
    # the flag beats the environment
    code, out, _ = run(capsys, "wenum", five_qubit_file, "--budget", "30")
    assert code == 0

    monkeypatch.setenv("EAQEC_BUDGET_LOG2", "not-a-number")
    code, _, err = run(capsys, "wenum", five_qubit_file)
    assert code == 2 and "EAQEC_BUDGET_LOG2" in err


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
    with pytest.raises(SystemExit) as exc_info:
        main(["frobnicate"])
    assert exc_info.value.code == 2
