"""Operator layer: string forms, products, weights, symplectic structure.

Frozen values are worked out by hand from the letter representation; the
randomized checks compare against the letter-level oracles in conftest.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eaqec import (
    MAX_QUBITS,
    DimensionError,
    PauliGroup,
    PauliOperator,
    canonicalize,
    orthogonal_group,
    symplectic_gram_schmidt,
    symplectic_product,
)

from conftest import (
    FIVE_QUBIT_GENERATORS,
    all_operators,
    naive_closure,
    naive_commutes,
    naive_weight,
    random_group,
    random_operator,
)

# single-letter multiplication table, phases dropped
_LETTER_PRODUCT = {
    ("I", "I"): "I", ("I", "X"): "X", ("I", "Y"): "Y", ("I", "Z"): "Z",
    ("X", "I"): "X", ("X", "X"): "I", ("X", "Y"): "Z", ("X", "Z"): "Y",
    ("Y", "I"): "Y", ("Y", "X"): "Z", ("Y", "Y"): "I", ("Y", "Z"): "X",
    ("Z", "I"): "Z", ("Z", "X"): "Y", ("Z", "Y"): "X", ("Z", "Z"): "I",
}


def letter_product(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    return PauliOperator.from_string(
        "".join(_LETTER_PRODUCT[x, y] for x, y in zip(str(a), str(b)))
    )


@st.composite
def operators(draw, max_n: int = 8):
    n = draw(st.integers(1, max_n))
    mask = (1 << n) - 1
    return PauliOperator(n, draw(st.integers(0, mask)), draw(st.integers(0, mask)))


@st.composite
def operator_triples(draw, max_n: int = 8):
    n = draw(st.integers(1, max_n))
    mask = (1 << n) - 1
    return tuple(
        PauliOperator(n, draw(st.integers(0, mask)), draw(st.integers(0, mask)))
        for _ in range(3)
    )


# ---------------------------------------------------------------------------
# PauliOperator


def test_string_round_trip_frozen():
    op = PauliOperator.from_string("XZZXI")
    assert (op.n, op.u, op.v) == (5, 0b01001, 0b00110)
    assert str(op) == "XZZXI"
    assert str(PauliOperator.identity(3)) == "III"
    assert PauliOperator.from_string("Y") == PauliOperator(1, 1, 1)


def test_from_string_rejects_bad_input():
    with pytest.raises(DimensionError):
        PauliOperator.from_string("")
    with pytest.raises(DimensionError):
        PauliOperator.from_string("XW")
    with pytest.raises(DimensionError):
        PauliOperator.from_string("I" * (MAX_QUBITS + 1))
    with pytest.raises(DimensionError):
        PauliOperator(2, 4, 0)  # u out of range
    with pytest.raises(DimensionError):
        PauliOperator(0, 0, 0)


def test_product_frozen():
    x = PauliOperator.from_string("X")
    z = PauliOperator.from_string("Z")
    assert str(x * z) == "Y"
    a = PauliOperator.from_string("XZZXI")
    b = PauliOperator.from_string("IXZZX")
    assert str(a * b) == "XYIYX"
    assert a * a == PauliOperator.identity(5)


def test_product_dimension_mismatch():
    with pytest.raises(DimensionError):
        PauliOperator.from_string("X") * PauliOperator.from_string("XX")
    with pytest.raises(DimensionError, match="^operands act on 1 and 2 qubits$"):
        symplectic_product(PauliOperator.from_string("X"), PauliOperator.from_string("XX"))


def test_weight_frozen():
    assert PauliOperator.from_string("XZZXI").weight == 4
    assert PauliOperator.identity(6).weight == 0
    assert PauliOperator.from_string("YY").weight == 2
    assert PauliOperator.from_string("IZI").weight == 1


def test_symplectic_product_frozen():
    x = PauliOperator.from_string("X")
    y = PauliOperator.from_string("Y")
    z = PauliOperator.from_string("Z")
    assert symplectic_product(x, z) == 1
    assert symplectic_product(x, y) == 1
    assert symplectic_product(y, z) == 1
    assert symplectic_product(x, x) == 0
    a = PauliOperator.from_string("XZZXI")
    b = PauliOperator.from_string("IXZZX")
    assert symplectic_product(a, b) == 0


@settings(max_examples=200)
@given(operator_triples())
def test_operator_algebra_matches_letter_oracle(ops):
    a, b, c = ops
    assert a * b == letter_product(a, b)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a.weight == naive_weight(a)
    assert symplectic_product(a, b) == (0 if naive_commutes(a, b) else 1)
    # bilinearity in the second slot
    assert symplectic_product(a, b * c) == (
        symplectic_product(a, b) ^ symplectic_product(a, c)
    )


# ---------------------------------------------------------------------------
# canonical groups


def test_canonicalize_preserves_span_and_is_deterministic():
    rng = random.Random(2024)
    for _ in range(50):
        n = rng.randint(1, 4)
        ops = [random_operator(rng, n) for _ in range(rng.randint(0, 5))]
        group = canonicalize(ops, n)
        assert naive_closure(list(group.generators), n) == naive_closure(ops, n)
        shuffled = ops[:]
        rng.shuffle(shuffled)
        assert canonicalize(shuffled, n) == group
        assert canonicalize(group.generators, n) == group


def test_canonicalize_empty_needs_dimension():
    group = canonicalize([], 3)
    assert group.n == 3 and group.rank == 0 and group.order == 1
    with pytest.raises(DimensionError):
        canonicalize([])
    with pytest.raises(DimensionError, match="^generator on 2 qubits, expected 3$"):
        canonicalize([PauliOperator.from_string("XX")], 3)


def test_group_reduces_the_rows_it_is_given():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 5)
        ops = [random_operator(rng, n) for _ in range(rng.randint(0, 2 * n + 2))]
        ops += [a * b for a, b in zip(ops, ops[1:])]  # dependent rows
        rows = [op.u | (op.v << n) for op in ops]
        group = PauliGroup(n, rows)
        assert group == canonicalize(ops, n)
        assert hash(group) == hash(canonicalize(ops, n))
        # reduced row-echelon form: pivots (lowest set bits) strictly
        # increase, and no row has a bit in another row's pivot column
        assert all(group.rows)
        pivots = [(row & -row).bit_length() - 1 for row in group.rows]
        assert pivots == sorted(set(pivots))
        for row, p in zip(group.rows, pivots):
            assert all((other >> p) & 1 == 0 for other in group.rows if other != row)
    xx = PauliOperator.from_string("XX")
    assert PauliGroup(2, (0b11, 0b11)) == canonicalize([xx], 2)
    assert PauliGroup(2, ()).rank == 0
    for bad in (-1, 1 << 4):
        with pytest.raises(DimensionError):
            PauliGroup(2, (bad,))
    with pytest.raises(DimensionError):
        PauliGroup(0, ())


def test_group_order_and_elements():
    rng = random.Random(99)
    for _ in range(30):
        n = rng.randint(1, 4)
        group = random_group(rng, n)
        reference = naive_closure(list(group.generators), n)
        assert group.order == len(reference) == 2**group.rank


def test_contains_matches_closure():
    gens = [PauliOperator.from_string(s) for s in FIVE_QUBIT_GENERATORS]
    group = canonicalize(gens, 5)
    reference = naive_closure(gens, 5)
    assert group.contains(PauliOperator.from_string("ZZXIX"))  # product of all four
    hits = sum(1 for op in all_operators(5) if group.contains(op))
    assert hits == len(reference) == 16
    for op in reference:
        assert op in group
    with pytest.raises(DimensionError, match="^operator on 4 qubits, group on 5$"):
        PauliOperator.from_string("XXXX") in group


# ---------------------------------------------------------------------------
# orthogonal group and the symplectic split


def test_orthogonal_group_brute_force():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 3)
        group = random_group(rng, n)
        ortho = orthogonal_group(group)
        assert group.rank + ortho.rank == 2 * n
        expected = {
            op
            for op in all_operators(n)
            if all(naive_commutes(op, g) for g in group.generators)
        }
        assert naive_closure(list(ortho.generators), n) == expected


def test_orthogonal_group_is_an_involution():
    rng = random.Random(6)
    groups = [random_group(rng, rng.randint(1, 5)) for _ in range(25)]
    # the trivial and the whole group at both ends of the qubit range, and
    # n = 64 groups whose syndrome rows reach 256 bits
    for n in (1, MAX_QUBITS):
        groups += [PauliGroup(n, ()), PauliGroup(n, tuple(1 << j for j in range(2 * n)))]
    for rank in (1, 64, 127):
        groups.append(canonicalize([random_operator(rng, MAX_QUBITS) for _ in range(rank)]))
    assert [g.rank for g in groups[-3:]] == [1, 64, 127]
    for group in groups:
        ortho = orthogonal_group(group)
        assert group.rank + ortho.rank == 2 * group.n
        assert all(naive_commutes(a, g) for a in ortho.generators for g in group.generators)
        assert orthogonal_group(ortho) == group


def test_symplectic_gram_schmidt_structure():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 5)
        group = random_group(rng, n)
        pairs, isotropic = symplectic_gram_schmidt(group)
        flat = [op for pair in pairs for op in pair]
        assert len(flat) + len(isotropic) == group.rank
        # commutation pattern: each pair anticommutes internally, everything
        # else commutes
        ops = flat + list(isotropic)
        for i, a in enumerate(ops):
            for j, b in enumerate(ops):
                expected = 1 if abs(i - j) == 1 and min(i, j) % 2 == 0 and max(j, i) < len(flat) else 0
                assert symplectic_product(a, b) == expected
        # the split spans the same group
        assert canonicalize(ops, n) == group
        # isotropic generators commute with the whole group
        for iso in isotropic:
            for g in group.generators:
                assert symplectic_product(iso, g) == 0


def test_symplectic_gram_schmidt_frozen_examples():
    group = canonicalize(
        [PauliOperator.from_string("XX"), PauliOperator.from_string("ZI")], 2
    )
    pairs, isotropic = symplectic_gram_schmidt(group)
    assert len(pairs) == 1 and not isotropic

    group = canonicalize(
        [
            PauliOperator.from_string("XI"),
            PauliOperator.from_string("ZI"),
            PauliOperator.from_string("IZ"),
        ],
        2,
    )
    pairs, isotropic = symplectic_gram_schmidt(group)
    assert len(pairs) == 1 and len(isotropic) == 1
    assert str(isotropic[0]) == "IZ"

    # the exact pairing, not just its shape: each generator is paired with the
    # first later row that anticommutes with it, after the earlier pairs are
    # eliminated; these strings reach the CLI's JSON logical_pairs
    ops = "XIIIX IXIIX IIXIX IIIXX ZIIIZ IZIIZ IIZIZ IIIZZ".split()
    group = canonicalize([PauliOperator.from_string(op) for op in ops], 5)
    pairs, isotropic = symplectic_gram_schmidt(group)
    assert [[str(g), str(h)] for g, h in pairs] == [
        ["XIIIX", "IZIIZ"],
        ["IXIIX", "ZIIIZ"],
        ["XXXIX", "ZZIZZ"],
        ["XXIXX", "ZZZIZ"],
    ]
    assert not isotropic
