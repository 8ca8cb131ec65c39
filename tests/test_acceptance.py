"""Acceptance suite: one test per shipped claim, run at full stated load.

Each test function is one criterion; the verbose pytest line for it is the
pass/fail record.  Expected table values are frozen below; everything else is
checked against independent oracles (letter-level scans, polynomial
expansion, group closure).
"""

import json
import random
import time
from pathlib import Path

from eaqec import (
    code_from_entry,
    dual,
    eaqec_identities,
    krawtchouk,
    lp_feasible,
    lp_upper_bound,
    min_distance,
    orthogonal_group,
    registry,
    verify_macwilliams,
    weight_enumerator,
    macwilliams_transform,
    InconsistencyError,
    WeightEnumerator,
)
from eaqec.cli import main

from conftest import krawtchouk_oracle, naive_min_distance, random_code, random_group

# Distance bounds for maximal entanglement, n = 3..15, k = 1..n-1.
# A cell prints as lower-upper; these are the two endpoints.
EXPECTED_UPPER = {
    3: (3, 2),
    4: (3, 3, 1),
    5: (5, 4, 3, 2),
    6: (5, 4, 4, 2, 1),
    7: (7, 5, 4, 3, 2, 2),
    8: (7, 6, 5, 4, 3, 2, 1),
    9: (9, 7, 6, 5, 4, 3, 2, 2),
    10: (9, 8, 7, 6, 5, 4, 3, 2, 1),
    11: (11, 8, 8, 7, 6, 5, 4, 3, 2, 2),
    12: (11, 9, 8, 7, 7, 6, 5, 4, 3, 2, 1),
    13: (13, 10, 9, 8, 7, 7, 6, 5, 4, 3, 2, 2),
    14: (13, 11, 10, 9, 8, 7, 7, 6, 5, 4, 3, 2, 1),
    15: (15, 12, 11, 10, 9, 8, 7, 7, 6, 4, 4, 3, 2, 2),
}
EXPECTED_LOWER = {
    3: (3, 2),
    4: (3, 2, 1),
    5: (5, 3, 2, 2),
    6: (5, 4, 3, 2, 1),
    7: (7, 5, 4, 3, 2, 2),
    8: (7, 6, 5, 4, 3, 2, 1),
    9: (9, 6, 5, 5, 4, 3, 2, 2),
    10: (9, 7, 6, 6, 4, 4, 3, 2, 1),
    11: (11, 8, 7, 6, 6, 5, 3, 3, 2, 2),
    12: (11, 9, 7, 6, 6, 5, 4, 4, 3, 2, 1),
    13: (13, 10, 9, 6, 6, 6, 4, 4, 4, 3, 2, 2),
    14: (13, 10, 9, 7, 6, 6, 6, 5, 4, 3, 3, 2, 1),
    15: (15, 11, 9, 8, 8, 7, 6, 6, 5, 4, 3, 2, 2, 2),
}


def test_criterion_1_table_reproduction(capsys):
    """Every cell of the n <= 15 bounds grid matches, exactly."""
    artifacts = Path(__file__).resolve().parent.parent / "artifacts"
    start = time.time()
    assert main(["table", "--nmax", "15", "--format", "json"]) == 0
    elapsed = time.time() - start
    out = capsys.readouterr().out
    cells = {(c["n"], c["k"]): (c["lower"], c["upper"]) for c in json.loads(out)["cells"]}
    mismatches = []
    for n in range(3, 16):
        for k in range(1, n):
            got = cells[(n, k)]
            want = (EXPECTED_LOWER[n][k - 1], EXPECTED_UPPER[n][k - 1])
            if got != want:
                mismatches.append((n, k, got, want))
    assert not mismatches, f"cells differing from the published grid: {mismatches}"
    # the committed artifacts are what `eaqec table` prints, byte for byte
    assert out.encode() == (artifacts / "bounds_table_n15.json").read_bytes()
    assert main(["table", "--nmax", "15"]) == 0
    assert capsys.readouterr().out.encode() == (artifacts / "bounds_table_n15.txt").read_bytes()
    print(f"criterion 1 (table reproduction, 104 cells in {elapsed:.1f}s): PASS")


def test_criterion_2_macwilliams_property_suite():
    """Transform identity on 200 random subgroups per n in 1..6, and every
    +1 coefficient mutation is detected."""
    rng = random.Random(20260819)
    checked = mutations = 0
    for n in range(1, 7):
        for _ in range(200):
            group = random_group(rng, n)
            assert verify_macwilliams(group)
            checked += 1
            direct = weight_enumerator(group)
            expected = weight_enumerator(orthogonal_group(group))
            for w in range(n + 1):
                coeffs = list(direct.coeffs)
                coeffs[w] += 1
                try:
                    got = macwilliams_transform(
                        WeightEnumerator(n, tuple(coeffs)), group.order
                    )
                except (ValueError, InconsistencyError):
                    mutations += 1
                    continue
                assert got != expected
                mutations += 1
    print(
        f"criterion 2 (transform identity, {checked} groups, "
        f"{mutations} mutations detected): PASS"
    )


def test_criterion_3_eaqec_identity_suite():
    """Both code identities hold coefficientwise: every registry code with
    stored generators, plus 50 random well-formed codes per n in 2..6."""
    checked = 0
    for entry in registry():
        if entry.generators is None:
            continue
        code = code_from_entry(entry)
        normalizer_check, isotropic_check = eaqec_identities(code)
        assert normalizer_check.holds, entry.params_str
        assert isotropic_check.holds, entry.params_str
        checked += 1
    rng = random.Random(404)
    for n in range(2, 7):
        for _ in range(50):
            code = random_code(rng, n)
            normalizer_check, isotropic_check = eaqec_identities(code)
            assert normalizer_check.holds and isotropic_check.holds
            checked += 1
    print(f"criterion 3 (code identities, {checked} codes): PASS")


def test_criterion_4_distance_oracle_equivalence():
    """Enumerated distance equals the full 4^n membership scan, 100 codes."""
    rng = random.Random(77)
    for index in range(100):
        n = rng.randint(2, 6)
        code = random_code(rng, n, k=rng.randint(1, n))
        assert min_distance(code) == naive_min_distance(code), (
            f"code {index}: {code.params_str()}"
        )
    print("criterion 4 (distance oracle equivalence, 100 codes): PASS")


def test_criterion_5_duality_invariants():
    """dual is an involution with the stated parameter swap, 1000 codes."""
    rng = random.Random(55)
    for _ in range(1000):
        n = rng.randint(1, 8)
        code = random_code(rng, n)
        twin = dual(code)
        assert dual(twin) == code
        assert (twin.n, twin.k, twin.c) == (code.n, code.c, code.k)
        assert twin.isotropic_gens == code.isotropic_gens
        assert code.stabilizer_group.rank + twin.stabilizer_group.rank == 2 * n
    print("criterion 5 (duality invariants, 1000 codes): PASS")


def test_criterion_6_lp_soundness_spot_checks():
    """Frozen feasibility verdicts and scan bounds."""
    assert lp_feasible(5, 2, 4) is True
    assert lp_feasible(5, 2, 5) is False
    assert lp_feasible(7, 2, 5) is True
    assert lp_feasible(7, 2, 6) is False
    assert lp_upper_bound(3, 1) == 3
    assert lp_upper_bound(3, 2) == 2
    assert lp_upper_bound(4, 2) == 3
    assert lp_upper_bound(5, 2) == 4
    assert lp_upper_bound(5, 3) == 3
    assert lp_upper_bound(5, 4) == 2
    assert lp_upper_bound(9, 4) == 5
    assert lp_upper_bound(13, 2) == 10
    print("criterion 6 (LP soundness spot checks): PASS")


def test_criterion_7_krawtchouk_correctness():
    """Defining sum equals brute-force polynomial expansion, all n <= 15."""
    checked = 0
    for n in range(16):
        for w in range(n + 1):
            for w_prime in range(n + 1):
                assert krawtchouk(w, w_prime, n) == krawtchouk_oracle(w, w_prime, n)
                checked += 1
    print(f"criterion 7 (Krawtchouk correctness, {checked} values): PASS")
