"""Weight enumerators, Krawtchouk transforms, and the code identities.

Oracles: group closure + letter counting and direct polynomial expansion
for Krawtchouk values (conftest), and closed-form product enumerators for
groups with independent single-qubit factors.
"""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eaqec
from eaqec import enumerator
from eaqec import (
    BudgetError,
    InconsistencyError,
    PauliGroup,
    PauliOperator,
    WeightEnumerator,
    canonicalize,
    eaqec_identities,
    ea_repetition_code,
    krawtchouk,
    macwilliams_transform,
    min_distance,
    orthogonal_group,
    verify_macwilliams,
    weight_enumerator,
)
from eaqec.enumerator import (
    _combine,
    _plain_counts,
    _split,
    _split_counts,
    _tally,
    _words,
    _xor_table,
)

from conftest import (
    five_qubit_code,
    krawtchouk_oracle,
    naive_closure,
    naive_weight_distribution,
    poly_mul,
    random_code,
    random_group,
    random_operator,
)


# ---------------------------------------------------------------------------
# WeightEnumerator container


def test_weight_enumerator_validation():
    enum = WeightEnumerator(2, (1, 0, 3))
    assert enum.order == 4
    with pytest.raises(ValueError):
        WeightEnumerator(2, (1, 0))  # wrong length
    with pytest.raises(ValueError, match="need n >= 0, got -1"):
        WeightEnumerator(-1, ())  # order 0, which no group has
    assert WeightEnumerator(0, (1,)).order == 1
    assert WeightEnumerator(64, (1,) + (0,) * 64).order == 1
    with pytest.raises(ValueError):
        WeightEnumerator(1, (1, -1))
    # integers of any kind are stored as Python ints, so the transform keeps
    # its exact arithmetic; a float is rejected before it can reach it
    wide = WeightEnumerator(np.int64(1), [np.int64(1), np.uint8(1)])
    assert wide == WeightEnumerator(1, (1, 1))
    assert all(type(c) is int for c in (wide.n, *wide.coeffs))
    assert macwilliams_transform(wide, 2) == wide  # {I, X} is its own orthogonal
    for bad in ((1, (1.0, 0)), (1.0, (1, 0)), (1, (1, "0"))):
        with pytest.raises(TypeError):
            WeightEnumerator(*bad)


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


def assert_count_is_checked_value(group: PauliGroup, expected: tuple[int, ...]) -> None:
    """The count of ``group`` is ``expected``, and it and its transform,
    both built past the constructor's checks, equal their validated rebuilds
    and hold Python ints; ``==`` alone would pass numpy integers too."""
    count = weight_enumerator(group)
    assert count.coeffs == expected
    for enum in (count, macwilliams_transform(count, group.order)):
        assert enum == WeightEnumerator(enum.n, enum.coeffs)
        assert type(enum.n) is int
        assert all(type(c) is int for c in enum.coeffs)


def test_weight_enumerator_matches_closure_oracle():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 5)
        group = random_group(rng, n)
        expected = naive_weight_distribution(
            naive_closure(list(group.generators), n), n
        )
        assert_count_is_checked_value(group, expected)


def _kernel_blocks(monkeypatch) -> list[int]:
    """Patch the enumeration kernel to record the size of every block it
    counts: one per element of the span of ``walk``, each of m
    representatives (one for the identity coset, ``reps`` None) times the
    table's width."""
    sizes: list[int] = []
    tally = enumerator._tally

    def counting(table, walk, width, reps=None):
        m = 1 if reps is None else reps.shape[1]
        sizes.extend([m * table.shape[1]] * (1 << len(walk)))
        return tally(table, walk, width, reps)

    monkeypatch.setattr(enumerator, "_tally", counting)
    return sizes


def _split_calls(monkeypatch) -> list[tuple]:
    """Patch the split count to record the ``(G_A, G_B, Q)`` of every call."""
    calls: list[tuple] = []
    split_counts = enumerator._split_counts

    def counting(n, in_a, in_b, reps):
        calls.append((in_a, in_b, reps))
        return split_counts(n, in_a, in_b, reps)

    monkeypatch.setattr(enumerator, "_split_counts", counting)
    return calls


def _count_calls(monkeypatch) -> list:
    """Patch the routed count, split or plain, to record every group it counts."""
    groups: list = []
    count = enumerator._count

    def counting(group):
        groups.append(group)
        return count(group)

    monkeypatch.setattr(enumerator, "_count", counting)
    return groups


def test_weight_enumerator_large_rank_split_path(monkeypatch):
    # Groups generated by single-qubit operators have a closed form: a qubit
    # carrying X and Z contributes (1 + 3y), one carrying a single Pauli
    # (1 + y).  Both groups are the product of their parts on the two qubit
    # halves, so the split counts them as one coset (q = 0).  The n = 40
    # group (rank 24) has X and Z bits on qubits 32..39, in the tables of the
    # B half.
    cases = (
        (9, {q: "XZ" for q in range(8)} | {8: "X"}),
        (40, {q: "XZ" for q in range(32, 40)}
         | {q: "Z" for q in range(4)} | {q: "Y" for q in range(4, 8)}),
    )
    sizes = _kernel_blocks(monkeypatch)
    splits = _split_calls(monkeypatch)
    for n, letters in cases:
        gens = [
            PauliOperator(n, (p in "XY") << q, (p in "YZ") << q)
            for q, ps in letters.items()
            for p in ps
        ]
        group = canonicalize(gens, n)
        assert group.rank == len(gens)
        in_a, in_b, reps = _split(group)
        assert len(in_a) + len(in_b) == group.rank and not reps
        expected = [1]
        for ps in letters.values():
            expected = poly_mul(expected, [1, 3] if len(ps) == 2 else [1, 1])
        expected += [0] * (n + 1 - len(expected))
        sizes.clear()
        splits.clear()
        assert weight_enumerator(group).coeffs == tuple(expected)
        assert splits == [(in_a, in_b, reps)]
        assert sum(sizes) == (1 << len(in_a)) + (1 << len(in_b))


def test_weight_enumerator_large_rank_block_path(monkeypatch):
    # Pairs X_i X_{i+24}, Z_i Z_{i+24} straddle the qubit halves of n = 48:
    # no element but the identity lives on one half, so the split cannot
    # shorten the walk and all 2^24 elements go through sixteen blocks of the
    # Gray-code walk, with bits above 32 in the tables and in the generators
    # walked between blocks.  Each pair spans {II, XX, YY, ZZ}: (1 + 3y^2).
    n, m = 48, 12
    gens = [PauliOperator(n, (1 << i) | (1 << (i + 24)), 0) for i in range(m)]
    gens += [PauliOperator(n, 0, (1 << i) | (1 << (i + 24))) for i in range(m)]
    group = canonicalize(gens, n)
    assert group.rank == 2 * m
    in_a, in_b, reps = _split(group)
    assert not in_a and not in_b and len(reps) == 2 * m
    expected = [1]
    for _ in range(m):
        expected = poly_mul(expected, [1, 0, 3])
    expected += [0] * (n + 1 - len(expected))
    sizes = _kernel_blocks(monkeypatch)
    assert weight_enumerator(group).coeffs == tuple(expected)
    assert sizes == [1 << 20] * 16


def test_xor_table_holds_each_span_element_once():
    # 0 to 12 independent words, on both sides of the seed width of the
    # Gray-code accumulate: the 2^t columns are the span, each element once
    rng = random.Random(53)
    for t in range(13):
        n = rng.randint(max(1, (t + 1) // 2), 10)
        group = _random_group_of_rank(rng, n, t)
        table = _xor_table(_words(group.rows, n))
        assert table.shape == (2, 1 << t) and table.dtype == np.uint64
        span = naive_closure(list(group.generators), n)
        assert sorted(zip(*table.tolist())) == sorted((e.u, e.v) for e in span), t


def test_identity_coset_tally_equals_zero_representative():
    # no representatives stands for the identity coset: on a single block it
    # is counted with no shift and no offsets, and through a walk from the
    # identity; both equal the count of an explicit zero representative
    rng = random.Random(59)
    zero = np.zeros((2, 1), dtype=np.uint64)
    for _ in range(30):
        n = rng.randint(1, 8)
        group = random_group(rng, n)
        words = _words(group.rows, n)
        expected = naive_weight_distribution(naive_closure(list(group.generators), n), n)
        for t in {len(words), len(words) // 2}:
            table, walk = _xor_table(words[:t]), words[t:]
            counts = _tally(table, walk, n)
            assert counts.tolist() == _tally(table, walk, n, zero).tolist()
            assert tuple(counts[0].tolist()) == expected


def test_weight_enumerator_budget():
    rng = random.Random(13)
    group = random_group(rng, 4, max_generators=12)
    assert group.rank > 3
    with pytest.raises(BudgetError):
        weight_enumerator(group, budget_log2=3)
    # the budget is taken by its operator.index value
    with pytest.raises(BudgetError, match=r"budget of 2\^3$"):
        weight_enumerator(group, budget_log2=np.int64(3))
    assert weight_enumerator(group, np.int64(group.rank)) == weight_enumerator(group)
    code = ea_repetition_code(5)
    assert min_distance(code, np.int64(2)) == 5
    with pytest.raises(BudgetError):
        min_distance(code, np.int64(1))
    for bad in (2.5, float(group.rank), "3"):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            weight_enumerator(group, bad)
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            min_distance(code, bad)


# ---------------------------------------------------------------------------
# the split count over the two qubit halves


def _random_group_of_rank(rng: random.Random, n: int, rank: int):
    ops: list[PauliOperator] = []
    while (group := canonicalize(ops, n)).rank < rank:
        ops.append(random_operator(rng, n))
    return group


def test_split_counts_match_closure_oracle(monkeypatch):
    # the split is called directly, past the routing rule, so groups of
    # every shape and size are counted through their halves; weight_enumerator
    # is routed through the split too, for the value it builds
    monkeypatch.setattr(enumerator, "_count", lambda g: _split_counts(g.n, *_split(g)))
    rng = random.Random(29)
    for _ in range(80):
        n = rng.randint(1, 6)
        group = random_group(rng, n)
        in_a, in_b, reps = _split(group)
        assert len(in_a) + len(in_b) + len(reps) == group.rank
        half = n // 2
        assert all(set(str(PauliOperator(n, *w))[half:]) <= {"I"} for w in in_a)
        assert all(set(str(PauliOperator(n, *w))[:half]) <= {"I"} for w in in_b)
        expected = naive_weight_distribution(
            naive_closure(list(group.generators), n), n
        )
        assert tuple(_split_counts(n, in_a, in_b, reps)) == expected
        assert_count_is_checked_value(group, expected)


def test_whole_pauli_group_closed_form(monkeypatch):
    # the whole group is the product of its halves: one coset, q = 0.  From
    # n = 7 on, weight_enumerator visits only the 2^a + 2^b elements of the
    # halves (2^14 + 2^16 at n = 15); below that the split's fixed cost
    # exceeds the 4^n elements of the plain walk
    sizes = _kernel_blocks(monkeypatch)
    splits = _split_calls(monkeypatch)
    for n in range(1, 16):
        gens = [PauliOperator(n, 1 << q, 0) for q in range(n)]
        gens += [PauliOperator(n, 0, 1 << q) for q in range(n)]
        group = canonicalize(gens, n)
        expected = tuple(math.comb(n, w) * 3**w for w in range(n + 1))
        in_a, in_b, reps = _split(group)
        assert (len(in_a), len(in_b), len(reps)) == (2 * (n // 2), 2 * (n - n // 2), 0)
        assert tuple(_split_counts(n, in_a, in_b, reps)) == expected
        sizes.clear()
        splits.clear()
        assert weight_enumerator(group).coeffs == expected
        if n >= 7:
            assert splits == [(in_a, in_b, reps)], n
            assert sum(sizes) == (1 << len(in_a)) + (1 << len(in_b)) < 4**n, n
        else:
            assert not splits and sum(sizes) == 4**n, n


def test_chunked_split_matches_plain_walk(monkeypatch):
    # With 2^5-element blocks the representatives of Q go through the split
    # in many chunks, and halves of rank above 5 walk their top generators
    # between blocks; the plain walk is counted first, at full block size.
    rng = random.Random(37)
    for _ in range(30):
        n = rng.randint(8, 14)
        group = _random_group_of_rank(rng, n, rng.randint(n + 3, min(2 * n, 20)))
        expected = _plain_counts(n, _words(group.rows, n))
        in_a, in_b, reps = _split(group)
        with monkeypatch.context() as patch:
            patch.setattr(enumerator, "_BLOCK_LOG2", 5)
            tallies = []
            tally = enumerator._tally

            def counting(table, walk, width, chunk):
                tallies.append(chunk.shape[1])
                return tally(table, walk, width, chunk)

            patch.setattr(enumerator, "_tally", counting)
            assert _split_counts(n, in_a, in_b, reps) == expected
        widest = min(max(len(in_a), len(in_b)), 5)
        chunk = 1 << min(len(reps), 5 - widest)
        assert tallies == [chunk] * ((2 << len(reps)) // chunk)
        assert len(tallies) > 2 or not reps


def test_combine_is_exact_past_int64():
    # two chunks of per-coset counts whose products pass 2^63: the sum of
    # the per-coset convolutions, in Python ints
    chunks = [
        ([[1 << 40, 3 << 40, 0], [1 << 41, 0, 5]], [[1 << 30, 5], [7, 1 << 33]]),
        ([[0, 1, 1 << 50]], [[1 << 50, (1 << 62) - 1]]),
    ]
    expected = [0] * 4
    for count_a, count_b in chunks:
        for row_a, row_b in zip(count_a, count_b):
            for i, conv in enumerate(poly_mul(row_a, row_b)):
                expected[i] += conv
    assert max(expected) > 1 << 63
    halves = [(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)) for a, b in chunks]
    got = _combine(halves, exact=True)
    assert got == expected
    assert all(type(c) is int for c in got)
    small = (np.array([[1, 2]]), np.array([[3, 4, 5]]))
    assert _combine([small], exact=False) == [3, 10, 13, 10]


# ---------------------------------------------------------------------------
# one count per group object


def test_distance_and_identities_share_the_counts(monkeypatch):
    rng = random.Random(41)
    code = random_code(rng, 6, 2, 1)
    counted = _count_calls(monkeypatch)
    eaqec.min_distance(code)
    normalizer_check, isotropic_check = eaqec_identities(code)
    assert normalizer_check.holds and isotropic_check.holds
    groups = (code.normalizer_group, code.isotropic_group,
              code.stabilizer_group, code.combined_group)
    assert len(counted) == 4
    assert [id(g) for g in counted] == [id(g) for g in groups]
    verify_macwilliams(code.stabilizer_group)  # counts the new orthogonal only
    assert len(counted) == 5 and counted[-1] is not code.normalizer_group


def test_five_qubit_flow_counts_two_groups(monkeypatch):
    # c = 0: S' is S_I and L x S_S x S_I is L x S_I, so the distance and both
    # identities count the normalizer and the isotropic group alone
    counted = _count_calls(monkeypatch)
    code = five_qubit_code()
    assert eaqec.min_distance(code) == 3
    assert all(check.holds for check in eaqec_identities(code))
    assert [id(g) for g in counted] == [id(code.normalizer_group), id(code.isotropic_group)]


def test_counted_group_still_checks_the_budget(monkeypatch):
    group = _random_group_of_rank(random.Random(43), 6, 9)
    counted = _count_calls(monkeypatch)
    enum = weight_enumerator(group)
    assert weight_enumerator(group, budget_log2=9) is enum
    with pytest.raises(BudgetError, match=r"2\^9 elements"):
        weight_enumerator(group, budget_log2=8)
    assert len(counted) == 1


def test_equal_group_built_anew_is_counted_again(monkeypatch):
    group = _random_group_of_rank(random.Random(47), 7, 8)
    counted = _count_calls(monkeypatch)
    enum = weight_enumerator(group)
    twin = PauliGroup(group.n, group.rows)
    assert twin == group and twin is not group
    assert weight_enumerator(twin) == enum
    assert len(counted) == 2 and counted[1] is twin


def test_split_and_plain_routes_agree_through_macwilliams(monkeypatch):
    # A group of rank above n + 2 and its orthogonal, of rank below n - 2,
    # are counted by different routes; the MacWilliams identity ties the two
    # counts together, so this checks one route against the other through
    # the theorem rather than the split against itself.
    rng = random.Random(31)
    sizes = _kernel_blocks(monkeypatch)
    splits = _split_calls(monkeypatch)
    split_groups = 0
    for _ in range(40):
        n = rng.randint(8, 14)
        group = _random_group_of_rank(rng, n, rng.randint(n + 3, 2 * n))
        ortho = orthogonal_group(group)
        sizes.clear()
        splits.clear()
        direct = weight_enumerator(group)
        if splits:
            in_a, in_b, reps = splits.pop()
            assert not splits
            visits = (1 << len(reps)) * ((1 << len(in_a)) + (1 << len(in_b)))
            assert sum(sizes) == visits < group.order
            split_groups += 1
        else:
            assert sum(sizes) == group.order
        sizes.clear()
        ortho_enum = weight_enumerator(ortho)
        assert not splits and sum(sizes) == ortho.order  # the plain walk
        assert macwilliams_transform(ortho_enum, ortho.order) == direct
    assert 10 <= split_groups < 40


def test_numpy_is_loaded_only_to_enumerate():
    # the registry and the LP bounds stay clear of numpy's import cost, and
    # of fractions and decimal: every LP certificate is integers
    script = (
        "import sys, eaqec; eaqec.registry(); eaqec.build_table(4); "
        "loaded = {'numpy', 'fractions', 'decimal'} & set(sys.modules); "
        "assert not loaded, f'{sorted(loaded)} imported'"
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


def test_krawtchouk_table_matches_expansion_oracle_large():
    for n in (20, 32, 64):
        table = enumerator._krawtchouk_table(n)
        assert table == [
            [krawtchouk_oracle(w, wp, n) for wp in range(n + 1)] for w in range(n + 1)
        ]
        assert krawtchouk(n // 3, n // 2, n) == table[n // 3][n // 2]


def test_krawtchouk_cache_clear_empties_the_tables():
    krawtchouk(1, 2, 5)
    assert krawtchouk.cache_info().currsize >= 1
    krawtchouk.cache_clear()
    assert krawtchouk.cache_info().currsize == 0
    krawtchouk(1, 2, 5)
    krawtchouk(2, 3, 5)
    info = krawtchouk.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def test_krawtchouk_range_validation():
    with pytest.raises(ValueError):
        krawtchouk(3, 0, 2)
    with pytest.raises(ValueError):
        krawtchouk(0, -1, 2)
    # n stops at 64, as everywhere else, and no table is built past it
    size = krawtchouk.cache_info().currsize
    with pytest.raises(ValueError, match="^need 0 <= w, w' <= n <= 64, got w=0, w'=0, n=65$"):
        krawtchouk(0, 0, 65)
    with pytest.raises(ValueError, match="^need n <= 64, got n=65$"):
        macwilliams_transform(WeightEnumerator(65, (1,) + (0,) * 65), 1)
    assert krawtchouk.cache_info().currsize == size
    assert krawtchouk(0, 0, 0) == krawtchouk(64, 64, 64) == 1


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
    # an all-zero distribution sums to 0, which is no group's order
    with pytest.raises(ValueError, match="at least 1"):
        macwilliams_transform(WeightEnumerator(1, (0, 0)), 0)
    # the order is taken by its index, like the coefficients: a float is
    # refused, and a numpy order gives Python coefficients, also past 64 bits
    pair = WeightEnumerator(1, (1, 1))
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        macwilliams_transform(pair, 2.0)
    # Z_1..Z_20 on 40 qubits, a rank-20 group: its transform overflows int64
    rank20 = WeightEnumerator(40, [math.comb(20, w) for w in range(41)])
    for enum, order in ((pair, 2), (rank20, 1 << 20)):
        out = macwilliams_transform(enum, np.int64(order))
        assert out == macwilliams_transform(enum, order)
        assert all(type(x) is int for x in out.coeffs)


def test_macwilliams_transform_order_is_not_the_coefficient_sum():
    # the trivial group's distribution with one at weight 0 added: the
    # coefficient sum 2 would transform it to (1, 9, 27, 27), the exact
    # distribution of the trivial group's orthogonal, so only the stated
    # order 1 catches the mutation
    mutated = WeightEnumerator(3, (2, 0, 0, 0))
    with pytest.raises(ValueError):
        macwilliams_transform(mutated, 1)
    trivial = canonicalize([], 3)
    assert macwilliams_transform(mutated, 2) == weight_enumerator(
        orthogonal_group(trivial)
    )
    assert macwilliams_transform(mutated, 2).coeffs == (1, 9, 27, 27)


def test_macwilliams_transform_detects_non_enumerator():
    # (1, 2) sums to 3, which is no power of two, so no order matches; with a
    # forced order the divisibility check trips instead
    with pytest.raises(InconsistencyError):
        macwilliams_transform(WeightEnumerator(1, (1, 2)), 3)


# ---------------------------------------------------------------------------
# the code identities


def test_identities_five_qubit():
    code = five_qubit_code()
    normalizer_check, isotropic_check = eaqec_identities(code)
    assert normalizer_check.holds and isotropic_check.holds
    assert normalizer_check.direct.coeffs == (1, 0, 0, 30, 15, 18)
    assert isotropic_check.direct.coeffs == (1, 0, 0, 0, 15, 0)


def test_budget_is_checked_before_any_counting(monkeypatch):
    calls = []
    tally = enumerator._tally

    def counting(*args):
        calls.append(args)
        return tally(*args)

    monkeypatch.setattr(enumerator, "_tally", counting)
    # stabilizer, normalizer, isotropic and combined ranks (8, 2, 0, 10):
    # the combined group is over budget, and nothing is counted first
    code = ea_repetition_code(5)
    ranks = (code.stabilizer_group.rank, code.normalizer_group.rank,
             code.isotropic_group.rank, code.combined_group.rank)
    assert ranks == (8, 2, 0, 10)
    with pytest.raises(BudgetError, match=r"2\^10 elements"):
        eaqec_identities(code, budget_log2=9)
    assert calls == []
    # a rank-3 group on 5 qubits fits a 2^5 budget, its rank-7 orthogonal not
    group = canonicalize(
        [PauliOperator.from_string(s) for s in ("XIIII", "ZIIII", "IXIII")]
    )
    assert (group.rank, orthogonal_group(group).rank) == (3, 7)
    with pytest.raises(BudgetError, match=r"2\^7 elements"):
        verify_macwilliams(group, budget_log2=5)
    assert calls == []


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_identities_property(data):
    n = data.draw(st.integers(2, 5))
    k = data.draw(st.integers(0, n))
    c = data.draw(st.integers(0, n - k))
    code = random_code(random.Random(data.draw(st.integers(0, 2**32))), n, k, c)
    normalizer_check, isotropic_check = eaqec_identities(code)
    assert normalizer_check.holds and isotropic_check.holds
