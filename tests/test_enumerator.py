"""Weight enumerators, Krawtchouk transforms, and the code identities.

Oracles: group closure + letter counting (conftest), direct polynomial
expansion for Krawtchouk values, and closed-form product enumerators for
groups with independent single-qubit factors.
"""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eaqec
from eaqec import (
    BudgetError,
    InconsistencyError,
    PauliOperator,
    WeightEnumerator,
    canonicalize,
    eaqec_identities,
    ea_repetition_code,
    from_generators,
    krawtchouk,
    macwilliams_transform,
    orthogonal_group,
    verify_macwilliams,
    weight_enumerator,
)

from conftest import naive_closure, naive_weight_distribution, random_code, random_group

FIVE_QUBIT_GENERATORS = ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def krawtchouk_oracle(w: int, w_prime: int, n: int) -> int:
    """Coefficient of x^(n-w) y^w in (x + 3y)^(n - w') (x - y)^w', found by
    expanding the product outright."""
    first = [math.comb(n - w_prime, j) * 3**j for j in range(n - w_prime + 1)]
    second = [math.comb(w_prime, j) * (-1) ** j for j in range(w_prime + 1)]
    return _poly_mul(first, second)[w]


# ---------------------------------------------------------------------------
# WeightEnumerator container


def test_weight_enumerator_validation():
    enum = WeightEnumerator(2, (1, 0, 3))
    assert enum.order == 4
    with pytest.raises(ValueError):
        WeightEnumerator(2, (1, 0))  # wrong length
    with pytest.raises(ValueError):
        WeightEnumerator(1, (1, -1))


def test_weight_enumerator_string_round_trip():
    enum = WeightEnumerator(1, (1, 2**70))
    assert WeightEnumerator.from_strings(1, enum.to_strings()) == enum


# ---------------------------------------------------------------------------
# direct enumeration


def test_weight_enumerator_frozen_small_groups():
    x = PauliOperator.from_string("X")
    z = PauliOperator.from_string("Z")
    assert weight_enumerator(canonicalize([x], 1)).coeffs == (1, 1)
    assert weight_enumerator(canonicalize([x, z], 1)).coeffs == (1, 3)
    xx = PauliOperator.from_string("XX")
    zz = PauliOperator.from_string("ZZ")
    assert weight_enumerator(canonicalize([xx, zz], 2)).coeffs == (1, 0, 3)


def test_weight_enumerator_five_qubit_stabilizer():
    gens = [PauliOperator.from_string(s) for s in FIVE_QUBIT_GENERATORS]
    group = canonicalize(gens, 5)
    assert weight_enumerator(group).coeffs == (1, 0, 0, 0, 15, 0)
    assert weight_enumerator(orthogonal_group(group)).coeffs == (1, 0, 0, 30, 15, 18)


def test_weight_enumerator_matches_closure_oracle():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 5)
        group = random_group(rng, n)
        expected = naive_weight_distribution(
            naive_closure(list(group.generators), n), n
        )
        assert weight_enumerator(group).coeffs == expected


def test_weight_enumerator_large_rank_block_path():
    # Groups generated by single-qubit operators have a closed form: a qubit
    # carrying X and Z contributes (1 + 3y), one carrying a single Pauli
    # (1 + y).  The n = 9 group (rank 17) fits one block; the n = 40 group
    # (rank 24) spans sixteen blocks and has X and Z bits on qubits 32..39,
    # both in the block tables and in the generators walked between blocks.
    cases = (
        (9, {q: "XZ" for q in range(8)} | {8: "X"}),
        (40, {q: "XZ" for q in range(32, 40)}
         | {q: "Z" for q in range(4)} | {q: "Y" for q in range(4, 8)}),
    )
    for n, letters in cases:
        gens = [
            PauliOperator(n, (p in "XY") << q, (p in "YZ") << q)
            for q, ps in letters.items()
            for p in ps
        ]
        group = canonicalize(gens, n)
        assert group.rank == len(gens)
        expected = [1]
        for ps in letters.values():
            expected = _poly_mul(expected, [1, 3] if len(ps) == 2 else [1, 1])
        expected += [0] * (n + 1 - len(expected))
        assert weight_enumerator(group).coeffs == tuple(expected)


def test_weight_enumerator_budget():
    rng = random.Random(13)
    group = random_group(rng, 4, max_generators=12)
    assert group.rank > 3
    with pytest.raises(BudgetError):
        weight_enumerator(group, budget_log2=3)


def test_numpy_is_loaded_only_to_enumerate():
    # the registry and the LP bounds stay clear of numpy's import cost
    script = (
        "import sys, eaqec; eaqec.registry(); eaqec.build_table(4); "
        "assert 'numpy' not in sys.modules, 'numpy was imported'"
    )
    src = str(Path(eaqec.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


# ---------------------------------------------------------------------------
# Krawtchouk numbers


def test_krawtchouk_frozen_values():
    assert krawtchouk(1, 2, 5) == 7
    assert krawtchouk(2, 0, 4) == 54
    assert krawtchouk(0, 3, 7) == 1
    # column sums: generating function at x = 1 collapses unless w' = 0
    for n in (1, 4, 6):
        assert sum(krawtchouk(w, 0, n) for w in range(n + 1)) == 4**n
        for wp in range(1, n + 1):
            assert sum(krawtchouk(w, wp, n) for w in range(n + 1)) == 0


def test_krawtchouk_matches_expansion_oracle_small():
    for n in range(7):
        for w in range(n + 1):
            for wp in range(n + 1):
                assert krawtchouk(w, wp, n) == krawtchouk_oracle(w, wp, n)


def test_krawtchouk_range_validation():
    with pytest.raises(ValueError):
        krawtchouk(3, 0, 2)
    with pytest.raises(ValueError):
        krawtchouk(0, -1, 2)


# ---------------------------------------------------------------------------
# the transform


def test_macwilliams_transform_frozen():
    # <X> on one qubit is its own orthogonal group
    assert macwilliams_transform(WeightEnumerator(1, (1, 1)), 2).coeffs == (1, 1)
    # the full one-qubit group maps to the trivial one
    assert macwilliams_transform(WeightEnumerator(1, (1, 3)), 4).coeffs == (1, 0)
    assert macwilliams_transform(WeightEnumerator(1, (1, 0)), 1).coeffs == (1, 3)


def test_macwilliams_transform_rejects_bad_order():
    with pytest.raises(ValueError):
        macwilliams_transform(WeightEnumerator(1, (1, 1)), 4)


def test_macwilliams_transform_detects_non_enumerator():
    # (1, 2) sums to 3, which is no power of two, so no order matches; with a
    # forced order the divisibility check trips instead
    with pytest.raises(InconsistencyError):
        macwilliams_transform(WeightEnumerator(1, (1, 2)), 3)


def test_verify_macwilliams_random_groups():
    rng = random.Random(17)
    for _ in range(80):
        group = random_group(rng, rng.randint(1, 5))
        assert verify_macwilliams(group)


def test_mutated_coefficients_are_detected():
    rng = random.Random(19)
    for _ in range(20):
        n = rng.randint(1, 4)
        group = random_group(rng, n)
        direct = weight_enumerator(group)
        expected = weight_enumerator(orthogonal_group(group))
        for w in range(n + 1):
            coeffs = list(direct.coeffs)
            coeffs[w] += 1
            mutated = WeightEnumerator(n, tuple(coeffs))
            try:
                transformed = macwilliams_transform(mutated, group.order)
            except (ValueError, InconsistencyError):
                continue  # detected by the order or divisibility check
            assert transformed != expected


# ---------------------------------------------------------------------------
# the code identities


def test_identities_five_qubit():
    gens = [PauliOperator.from_string(s) for s in FIVE_QUBIT_GENERATORS]
    code = from_generators(5, 1, gens)
    normalizer_check, isotropic_check = eaqec_identities(code)
    assert normalizer_check.holds and isotropic_check.holds
    assert normalizer_check.direct.coeffs == (1, 0, 0, 30, 15, 18)
    assert isotropic_check.direct.coeffs == (1, 0, 0, 0, 15, 0)


def test_identities_repetition_family():
    for n in range(2, 9):
        normalizer_check, isotropic_check = eaqec_identities(ea_repetition_code(n))
        assert normalizer_check.holds and isotropic_check.holds


def test_identities_random_codes():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(2, 5)
        code = random_code(rng, n)
        normalizer_check, isotropic_check = eaqec_identities(code)
        assert normalizer_check.holds
        assert isotropic_check.holds


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_identities_property(data):
    n = data.draw(st.integers(2, 5))
    k = data.draw(st.integers(0, n))
    c = data.draw(st.integers(0, n - k))
    code = random_code(random.Random(data.draw(st.integers(0, 2**32))), n, k, c)
    normalizer_check, isotropic_check = eaqec_identities(code)
    assert normalizer_check.holds and isotropic_check.holds
