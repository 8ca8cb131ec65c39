"""Code structure, duality, distance, the registry, and the file formats."""

import collections
import hashlib
import json
import random
import runpy
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eaqec.codes
import eaqec.pauli
from eaqec import (
    DimensionError,
    EaqecCode,
    EaqecError,
    PauliOperator,
    ParseError,
    StructureError,
    UndefinedDistanceError,
    canonicalize,
    code_from_entry,
    code_to_json_dict,
    dual,
    ea_repetition_code,
    eaqec_identities,
    extend_code,
    format_code_text,
    from_generators,
    min_distance,
    orthogonal_group,
    parse_code_json,
    parse_code_text,
    registry,
    CodeRegistryEntry,
)

from conftest import (
    FIVE_QUBIT_GENERATORS,
    five_qubit_code,
    naive_commutes,
    naive_min_distance,
    random_code,
    random_symplectic_basis,
)


# ---------------------------------------------------------------------------
# structural validation


def test_code_structure_validation():
    xx = PauliOperator.from_string("XX")
    zi = PauliOperator.from_string("ZI")
    ix = PauliOperator.from_string("IX")
    zz = PauliOperator.from_string("ZZ")
    code = EaqecCode(2, ((xx, zi),), (), ((ix, zz),))
    assert (code.n, code.k, code.c) == (2, 1, 1)
    assert code.k == len(code.logical_pairs) and code.c == len(code.symplectic_pairs)
    assert code.stabilizer_group.rank == 2
    assert code.normalizer_group.rank == 2

    # counts don't add up to n
    with pytest.raises(StructureError):
        EaqecCode(2, ((xx, zi),), (), ())
    # a "pair" that actually commutes
    xi = PauliOperator.from_string("XI")
    with pytest.raises(StructureError):
        EaqecCode(2, ((xi, ix),), (), ((ix, zz),))
    # dependent generators with a consistent commutation pattern
    ops = [PauliOperator.from_string(s) for s in ("ZII", "IZI", "ZZI")]
    with pytest.raises(StructureError):
        EaqecCode(3, (), tuple(ops), ())
    # no qubits, and a generator on the wrong qubit count
    with pytest.raises(DimensionError, match=r"^qubit count must be in 1\.\.64, got 0$"):
        EaqecCode(0, (), (), ())
    with pytest.raises(
        DimensionError,
        match=r"^generator PauliOperator\('ZII'\) acts on 3 qubits, code on 2$",
    ):
        EaqecCode(2, (), (ops[0], zz), ())
    # n is taken by its index: a numpy count is stored as a Python int, so the
    # code serializes, and a float is refused
    not_integer = "cannot be interpreted as an integer"
    numpy_code = EaqecCode(np.int64(2), ((xx, zi),), (), ((ix, zz),))
    assert type(numpy_code.n) is int and numpy_code == code
    with pytest.raises(TypeError, match=not_integer):
        EaqecCode(2.0, ((xx, zi),), (), ((ix, zz),))
    five = [PauliOperator.from_string(s) for s in FIVE_QUBIT_GENERATORS]
    derived = from_generators(np.int64(5), np.int64(1), five)
    assert type(derived.n) is int and derived == from_generators(5, 1, five)
    json.dumps(code_to_json_dict(derived))
    for n, k in ((5.0, 1), (5, 1.0)):
        with pytest.raises(TypeError, match=not_integer):
            from_generators(n, k, five)


def full_rank_rule(pairs, isotropic, logical) -> str | None:
    """The error a code's generators must raise, or None if they form a code,
    by the rule that checks independence on every generator: the first
    violation of the commutation pattern, else the rank of all of them."""
    flat = [g for pair in pairs + logical for g in pair]
    gens = flat + list(isotropic)
    for i, g in enumerate(gens):
        for j in range(i + 1, len(gens)):
            want = j == i + 1 and i < len(flat) and i % 2 == 0
            if naive_commutes(g, gens[j]) == want:
                return f"commutation pattern violated between generators {i} and {j}"
    if canonicalize(gens, gens[0].n).rank != len(gens):
        return "generators are not independent"
    return None


def corrupted_code_inputs(rng: random.Random, n: int):
    """Generators of a random [[n, k; c]] code, corrupted half the time by
    one of: a duplicate or zero isotropic generator, an isotropic generator
    replaced by a product of others, or a pair member multiplied by another
    generator.  Returns the corruption's name too ("none" for none)."""
    k = rng.randint(0, n)
    c = rng.randint(0, n - k)
    basis = random_symplectic_basis(rng, n)
    pairs = [list(pair) for pair in basis[:c]]
    logical = [list(pair) for pair in basis[c : c + k]]
    isotropic = [g for g, _ in basis[c + k :]]
    everything = [g for pair in pairs + logical for g in pair] + isotropic
    kinds = []
    if len(isotropic) >= 2:
        kinds.append("duplicate")
    if isotropic:
        kinds.append("zero")
    if isotropic and len(everything) >= 2:
        kinds.append("product")
    if pairs + logical and len(everything) >= 2:
        kinds.append("pair")
    kind = rng.choice(kinds) if kinds and rng.random() < 0.5 else "none"
    if kind == "duplicate":
        i, j = rng.sample(range(len(isotropic)), 2)
        isotropic[j] = isotropic[i]
    elif kind == "zero":
        isotropic[rng.randrange(len(isotropic))] = PauliOperator.identity(n)
    elif kind == "product":
        j = rng.randrange(len(isotropic))
        others = [g for g in everything if g is not isotropic[j]]
        product = PauliOperator.identity(n)
        for g in rng.sample(others, rng.randint(1, min(3, len(others)))):
            product = product * g
        isotropic[j] = product
    elif kind == "pair":
        pair = rng.choice(pairs + logical)
        side = rng.randrange(2)
        other = rng.choice([g for g in everything if g is not pair[side]])
        pair[side] = pair[side] * other
    return kind, tuple(map(tuple, pairs)), tuple(isotropic), tuple(map(tuple, logical))


def test_validation_matches_the_full_rank_rule():
    rng = random.Random(53)
    verdicts = collections.Counter()
    for _ in range(400):
        n = rng.randint(1, 8)
        kind, pairs, isotropic, logical = corrupted_code_inputs(rng, n)
        expected = full_rank_rule(pairs, isotropic, logical)
        if expected is None:
            EaqecCode(n, pairs, isotropic, logical)
        else:
            with pytest.raises(StructureError) as info:
                EaqecCode(n, pairs, isotropic, logical)
            assert str(info.value) == expected
        verdicts[kind, (expected or "ok").split(" between")[0]] += 1
    dependent, pattern = "generators are not independent", "commutation pattern violated"
    outcomes = [("none", "ok"), ("duplicate", dependent), ("zero", dependent),
                ("product", dependent), ("product", pattern), ("pair", pattern),
                ("pair", "ok")]
    assert all(verdicts[outcome] >= 5 for outcome in outcomes), verdicts
    assert sum(v for (_, verdict), v in verdicts.items() if verdict != "ok") >= 150


def test_from_generators_five_qubit():
    code = five_qubit_code()
    assert (code.n, code.k, code.c) == (5, 1, 0)
    assert len(code.isotropic_gens) == 4
    assert len(code.logical_pairs) == 1
    with pytest.raises(StructureError):
        from_generators(
            5, 2, [PauliOperator.from_string(s) for s in FIVE_QUBIT_GENERATORS]
        )
    for k in (-1, 6):
        with pytest.raises(ValueError, match=f"^information qubit count k={k} out of range"):
            from_generators(5, k, [])


def test_from_generators_derives_valid_logical_pairs():
    rng = random.Random(31)
    for _ in range(20):
        code = random_code(rng, rng.randint(2, 5))
        rebuilt = from_generators(code.n, code.k, code.stabilizer_group.generators)
        assert (rebuilt.n, rebuilt.k, rebuilt.c) == (code.n, code.k, code.c)
        assert len(rebuilt.logical_pairs) == code.k
        # same stabilizer, and the derived logicals normalize it
        assert rebuilt.stabilizer_group == code.stabilizer_group
        assert rebuilt.normalizer_group == code.normalizer_group


def count_validations(monkeypatch) -> dict[str, int]:
    """Count ``orthogonal_group`` calls from ``codes`` and constructor checks."""
    calls = {"orthogonal_group": 0, "validate": 0}
    orthogonal_group = eaqec.codes.orthogonal_group
    post_init = EaqecCode.__post_init__

    def counting_orthogonal_group(group):
        calls["orthogonal_group"] += 1
        return orthogonal_group(group)

    def counting_post_init(self):
        calls["validate"] += 1
        post_init(self)

    monkeypatch.setattr(eaqec.codes, "orthogonal_group", counting_orthogonal_group)
    monkeypatch.setattr(EaqecCode, "__post_init__", counting_post_init)
    return calls


def test_from_generators_builds_and_validates_once(monkeypatch):
    gens = [PauliOperator.from_string(s) for s in FIVE_QUBIT_GENERATORS]
    calls = count_validations(monkeypatch)
    code = from_generators(5, 1, gens)
    # derived logical pairs are valid by construction: no constructor checks
    assert calls == {"orthogonal_group": 1, "validate": 0}
    calls.update(orthogonal_group=0, validate=0)
    # supplied logical pairs are untrusted input: checked exactly once
    assert from_generators(5, 1, gens, code.logical_pairs) == code
    assert calls == {"orthogonal_group": 0, "validate": 1}


def test_dual_round_trip_runs_no_validation(monkeypatch):
    code = five_qubit_code()
    calls = count_validations(monkeypatch)
    assert dual(dual(code)) == code
    assert calls == {"orthogonal_group": 0, "validate": 0}


def test_each_group_is_reduced_once(monkeypatch):
    calls = 0
    rref = eaqec.pauli._rref

    def counting_rref(vectors):
        nonlocal calls
        calls += 1
        return rref(vectors)

    monkeypatch.setattr(eaqec.pauli, "_rref", counting_rref)
    group = canonicalize([PauliOperator.from_string(s) for s in FIVE_QUBIT_GENERATORS])
    assert calls == 1
    calls = 0
    orthogonal_group(group)  # the kernel; the syndromes are eliminated unreduced
    assert calls == 1
    # build (the generators, the orthogonal), distance (the isotropic group),
    # both identities, and the dual round trip, which validates nothing: 3
    # reductions
    calls = 0
    code = five_qubit_code()
    min_distance(code)
    eaqec_identities(code)
    assert dual(dual(code)) == code
    assert calls == 3


def assert_views_are_canonical(code: EaqecCode) -> None:
    """Every group view equals the group of its defining generators."""
    n = code.n

    def flat(pairs):
        return [g for pair in pairs for g in pair]

    iso = list(code.isotropic_gens)
    assert code.isotropic_group == canonicalize(iso, n)
    assert code.logical_group == canonicalize(flat(code.logical_pairs), n)
    assert code.stabilizer_group == canonicalize(flat(code.symplectic_pairs) + iso, n)
    assert code.normalizer_group == canonicalize(flat(code.logical_pairs) + iso, n)
    assert code.combined_group == canonicalize(
        flat(code.symplectic_pairs + code.logical_pairs) + iso, n
    )


# ---------------------------------------------------------------------------
# duality


def test_dual_of_five_qubit():
    twin = dual(five_qubit_code())
    assert (twin.n, twin.k, twin.c) == (5, 0, 1)
    with pytest.raises(UndefinedDistanceError):
        min_distance(twin)


def test_unchecked_codes_pass_the_validating_constructor():
    # dual and the derived branch of from_generators skip the constructor's
    # checks; the public constructor must accept every code they build, and
    # every view of each is its canonical group
    rng = random.Random(61)
    for n in range(1, 9):
        for k in range(n + 1):
            for c in range(n - k + 1):
                source = random_code(rng, n, k, c)
                code = from_generators(n, k, source.stabilizer_group.generators)
                assert (code.k, code.c) == (k, c)
                assert code.stabilizer_group == source.stabilizer_group
                twin = dual(code)
                assert (twin.k, twin.c) == (c, k)
                derived = from_generators(n, c, twin.stabilizer_group.generators)
                for built in (code, twin, dual(twin), derived):
                    rebuilt = EaqecCode(
                        n, built.symplectic_pairs, built.isotropic_gens, built.logical_pairs
                    )
                    assert rebuilt == built
                    assert_views_are_canonical(built)
                assert dual(twin) == code


def test_dual_output_bytes_are_pinned():
    digest = hashlib.sha256()
    twins = 0
    for entry in registry():
        if entry.generators is None:
            continue
        twin = dual(code_from_entry(entry))
        digest.update(format_code_text(twin).encode())
        digest.update(
            json.dumps(code_to_json_dict(twin), indent=2, sort_keys=True).encode()
        )
        twins += 1
    assert twins == 22
    assert digest.hexdigest() == (
        "d49e488e8738248a9878eda3e1878c7fd6bf7fd9dd8df98c0ecdba209a42dc7e"
    )


# ---------------------------------------------------------------------------
# distance


def test_min_distance_five_qubit():
    assert min_distance(five_qubit_code()) == 3


def test_min_distance_requires_logical_content():
    code = random_code(random.Random(43), 3, k=0)
    assert naive_min_distance(code) is None
    with pytest.raises(UndefinedDistanceError):
        min_distance(code)


def test_repetition_family_distances():
    for n in (*range(2, 9), 33, 41):
        code = ea_repetition_code(n)
        assert (code.n, code.k, code.c) == (n, 1, n - 1)
        assert min_distance(code) == (n if n % 2 else n - 1)
    with pytest.raises(ValueError):
        ea_repetition_code(1)
    # n is taken by its operator.index value: the all-ones mask of 64 qubits
    # is a Python int, not a numpy shift past bit 63
    code = ea_repetition_code(np.int64(64))
    assert code == ea_repetition_code(64) and type(code.n) is int
    assert min_distance(code) == 63
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        ea_repetition_code(5.0)


def test_dual_repetition_distances():
    for n in (3, 5, 7, 9):
        twin = dual(ea_repetition_code(n))
        assert (twin.n, twin.k, twin.c) == (n, n - 1, 1)
        assert min_distance(twin) == 2


def test_dual_repetition_large_n_bounded_scan():
    # a letter-level oracle for n = 13, 15 that does not go through the
    # enumerator: no weight-1 operator normalizes the stabilizer, some
    # weight-2 operator does, so d = 2
    for n in (13, 15):
        entry = next(
            e
            for e in registry()
            if (e.n, e.k, e.c) == (n, n - 1, 1) and e.generators is not None
        )
        stab_gens = list(code_from_entry(entry).stabilizer_group.generators)

        def normalizes(letters):
            op = PauliOperator.from_string("".join(letters))
            return all(naive_commutes(op, g) for g in stab_gens)

        found_weight_two = False
        for i in range(n):
            for a in ("X", "Y", "Z"):
                letters = ["I"] * n
                letters[i] = a
                assert not normalizes(letters)
        for i in range(n):
            for j in range(i + 1, n):
                for a in ("X", "Y", "Z"):
                    for b in ("X", "Y", "Z"):
                        letters = ["I"] * n
                        letters[i], letters[j] = a, b
                        if normalizes(letters):
                            found_weight_two = True
        assert found_weight_two


# ---------------------------------------------------------------------------
# registry and extension rules


def test_extend_code_frozen_examples():
    lengthened = extend_code(CodeRegistryEntry(13, 3, 10, 9, "literature"), "lengthen")
    assert lengthened.params_str == "[[14,3,9;11]]"
    assert lengthened.source == "extension"
    traded = extend_code(CodeRegistryEntry(13, 9, 4, 4, "literature"), "trade")
    assert traded.params_str == "[[13,8,4;5]]"


def test_extend_code_rejections():
    with pytest.raises(StructureError):
        # k = 0 leaves no logical operator, so no distance to carry over
        extend_code(CodeRegistryEntry(5, 1, 4, 3, "literature"), "trade")
    with pytest.raises(ValueError):
        extend_code(CodeRegistryEntry(3, 1, 2, 3, "literature"), "sideways")


def test_registry_entry_validation():
    # no distance exists without an information qubit
    with pytest.raises(StructureError):
        CodeRegistryEntry(2, 0, 2, 1, "literature")
    with pytest.raises(StructureError):
        CodeRegistryEntry(3, 0, 2, 1, "literature")
    with pytest.raises(StructureError):
        CodeRegistryEntry(4, 2, 3, 2, "literature")  # c > n - k
    with pytest.raises(StructureError):
        CodeRegistryEntry(4, 2, 2, 5, "literature")  # d > n
    with pytest.raises(ValueError):
        CodeRegistryEntry(4, 2, 2, 2, "rumor")
    for n in (0, 65):
        with pytest.raises(DimensionError, match=f"^qubit count must be in 1..64, got {n}$"):
            CodeRegistryEntry(n, 1, 0, 1, "literature")
    for k in (-1, 5):
        with pytest.raises(StructureError, match=f"^k={k} out of range for n=4$"):
            CodeRegistryEntry(4, k, 0, 1, "literature")
    with pytest.raises(DimensionError, match="^registry generators act on the wrong"):
        CodeRegistryEntry(2, 1, 1, 1, "construction", (PauliOperator.from_string("XXX"),))
    with pytest.raises(ValueError, match=r"^\[\[4,2,2;2\]\] has no stored generators$"):
        code_from_entry(CodeRegistryEntry(4, 2, 2, 2, "literature"))
    # n, k, c and d are taken by their index: numpy integers are stored as
    # Python ints, and a float is refused rather than carried into extensions
    entry = CodeRegistryEntry(*map(np.int64, (5, 1, 0, 3)), "literature")
    assert entry == CodeRegistryEntry(5, 1, 0, 3, "literature")
    assert all(type(x) is int for x in (entry.n, entry.k, entry.c, entry.d))
    assert extend_code(entry, "lengthen").params_str == "[[6,1,3;1]]"
    for i in range(4):
        fields = [5, 1, 0, 3]
        fields[i] = float(fields[i])
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            CodeRegistryEntry(*fields, "literature")


def test_registry_grid_coverage_and_known_entries():
    entries = registry()
    params = {(e.n, e.k, e.c, e.d) for e in entries}
    assert (5, 1, 0, 3) in params  # the five-qubit code
    assert (12, 2, 10, 9) in params
    assert (14, 3, 11, 9) in params
    # every maximal-entanglement cell up to n = 15 has some lower bound
    cells = {(e.n, e.k) for e in entries if e.is_maximal_entanglement}
    for n in range(2, 16):
        for k in range(1, n):
            assert (n, k) in cells
    # deterministic ordering
    assert list(entries) == sorted(
        entries, key=lambda e: (e.n, e.k, e.c, e.d, e.source)
    )


def test_registry_audit_reports_every_failure(monkeypatch, capsys):
    # the five-qubit generators recorded with the wrong c: the rebuild raises,
    # and the audit must report it, then print the committed audit of every
    # other entry, byte for byte, with the failure counted in the summary
    root = Path(__file__).resolve().parent.parent
    audit = runpy.run_path(str(root / "scripts" / "check_registry.py"))["main"]
    bad = CodeRegistryEntry(
        5, 1, 4, 3, "construction",
        tuple(PauliOperator.from_string(s) for s in FIVE_QUBIT_GENERATORS),
    )
    entries = (bad, *registry())
    monkeypatch.setitem(audit.__globals__, "registry", lambda: entries)
    assert audit() == 1
    summary = (
        "{} entries rebuilt and verified, 147 cross-checked against LP bounds, {} failures\n"
    )
    committed = (root / "artifacts" / "registry_audit.txt").read_bytes().decode()
    assert committed.endswith(summary.format(22, 0))
    assert capsys.readouterr().out == (
        "FAIL [[5,1,3;4]] (construction): stored generators for [[5,1,3;4]] produce c=0\n"
        + committed.removesuffix(summary.format(22, 0))
        + summary.format(23, 1)
    )


# ---------------------------------------------------------------------------
# file formats


def test_parse_code_text_examples():
    n, k, gens = parse_code_text("2 1\nXX\nZI")
    assert (n, k) == (2, 1)
    assert [str(g) for g in gens] == ["XX", "ZI"]

    n, k, gens = parse_code_text("5 1\nXZZXI\nIXZZX\nXIXZZ\nZXIXZ")
    assert (n, k) == (5, 1)
    assert [str(g) for g in gens] == list(FIVE_QUBIT_GENERATORS)

    # both readers take the largest n, and k = n
    assert parse_code_text("64 64\n" + "X" * 64)[:2] == (64, 64)
    assert parse_code_json(json.dumps({"n": 64, "k": 64, "generators": ["X" * 64]}))[:2] == (64, 64)


def test_parse_code_text_comments_and_blank_lines():
    text = "# repetition-ish\n\n2 1  # header\nXX # gen\n\nZI\n"
    assert parse_code_text(text) == parse_code_text("2 1\nXX\nZI")


def test_parse_code_text_error_positions():
    cases = (  # text, line, column, message
        ("2 1\nXXX", 2, 3, "generator has 3 characters, expected n=2"),
        ("3 1\nXX", 2, 3, "generator has 2 characters, expected n=3"),
        ("2 1\nXW", 2, 2, "invalid Pauli character 'W'"),
        ("# c\n\n2 1  # h\nXZ\n\nZz\n", 6, 2, "invalid Pauli character 'z'"),
        ("two 1\nXX", 1, None, "header must be two integers 'n k'"),
        ("2 1 0\nXX", 1, None, "header must be two integers 'n k'"),
        ("2 3\nXX", 1, None, "k must be in 0..n, got 3"),
        ("2 -1\nXX", 1, None, "k must be in 0..n, got -1"),
        ("\n0 0\n", 2, None, "n must be in 1..64, got 0"),
        ("65 1\nXX", 1, None, "n must be in 1..64, got 65"),
        ("65 99\n" + "X" * 65, 1, None, "n must be in 1..64, got 65"),
        ("# nothing here\n", None, None, "no header line found"),
    )
    for text, line, column, message in cases:
        with pytest.raises(ParseError) as exc_info:
            parse_code_text(text)
        assert (exc_info.value.line, exc_info.value.column) == (line, column), text
        assert str(exc_info.value) == str(ParseError(message, line, column))


def test_text_round_trip_is_canonical():
    rng = random.Random(47)
    for _ in range(20):
        code = random_code(rng, rng.randint(1, 5))
        n, k, gens = parse_code_text(format_code_text(code))
        assert (n, k) == (code.n, code.k)
        reparsed = from_generators(n, k, gens)
        assert reparsed.stabilizer_group == code.stabilizer_group
        assert format_code_text(reparsed) == format_code_text(code)


def test_json_round_trip_with_logical_pairs():
    code = five_qubit_code()
    payload = json.dumps(code_to_json_dict(code))
    n, k, gens, logical = parse_code_json(payload)
    rebuilt = from_generators(n, k, gens, logical)
    assert rebuilt == code
    assert code_to_json_dict(rebuilt) == code_to_json_dict(code)


def test_parse_code_json_rejections():
    with pytest.raises(ParseError):
        parse_code_json("not json")
    with pytest.raises(ParseError):
        parse_code_json("[1, 2]")
    with pytest.raises(ParseError):
        parse_code_json('{"n": 2, "generators": ["XX"]}')  # k missing
    with pytest.raises(ParseError):
        parse_code_json('{"n": 2, "k": 1, "generators": "XX"}')
    with pytest.raises(ParseError):
        parse_code_json('{"n": 2, "k": 1, "generators": ["XXX"]}')
    with pytest.raises(ParseError):
        parse_code_json('{"n": 2, "k": 1, "generators": ["XX"], "logical_pairs": ["IX"]}')
    for payload in (
        '{"n": 2, "k": 1, "generators": [5]}',
        '{"n": 2, "k": 1, "generators": ["XX"], "logical_pairs": [["IX", null]]}',
        '{"n": 2, "k": 1, "generators": ["XW"]}',
        '{"n": 2, "k": 1, "generators": [""]}',
        '{"n": 2, "k": 1, "generators": ["XX"], "logical_pairs": [["IX", "IW"]]}',
        '{"n": 2, "k": 1, "generators": ["XX"], "logical_pairs": [["IX", "I"]]}',
        '{"n": 0, "k": 0, "generators": []}',
        '{"n": 65, "k": 1, "generators": []}',
        '{"n": 2, "k": 3, "generators": ["XX"]}',
        '{"n": 2, "k": -1, "generators": ["XX"]}',
    ):
        with pytest.raises(ParseError) as exc_info:
            parse_code_json(payload)
        assert exc_info.value.line is None, payload


def test_both_readers_share_the_content_rules():
    # JSON gives the text reader's message without a line, after the path of
    # the generator at fault, and checks n and k before the generators
    for text, entry in (
        ("2 1\nXXX", "generators[0]: "),
        ("3 1\nZZZ\nXX", "generators[1]: "),
        ("2 1\nXW", "generators[0]: "),
        ("2 3\nXXX", ""),
        ("0 0", ""),
        ("65 1", ""),
    ):
        with pytest.raises(ParseError) as from_text:
            parse_code_text(text)
        with pytest.raises(ParseError) as from_json:
            parse_code_json(_code_json(text))
        assert str(from_json.value) == entry + str(from_text.value).split(": ", 1)[1], text
    payload = {"n": 2, "k": 1, "generators": ["XX"], "logical_pairs": [["IX", "IW"]]}
    with pytest.raises(ParseError) as exc_info:
        parse_code_json(json.dumps(payload))
    assert str(exc_info.value) == "logical_pairs[0][1]: invalid Pauli character 'W'"


@st.composite
def _code_text(draw):
    """Text-format input with a well-formed header and Pauli lines, which
    parses and sometimes describes a valid code."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(0, n))
    gens = draw(st.lists(st.text("IXYZ", min_size=n, max_size=n), max_size=2 * n))
    return "\n".join([f"{n} {k}", *gens]) + "\n"


def _code_json(text):
    n, k, *gens = text.split()
    return json.dumps({"n": int(n), "k": int(k), "generators": gens})


def _parsed_code(parse, text):
    """The code ``parse`` reads from ``text``, or None when parsing or
    ``from_generators`` rejects it; ``parse`` may raise only ParseError."""
    try:
        n, k, gens, *logical = parse(text)
    except ParseError:
        return None
    try:
        return from_generators(n, k, gens, *logical)
    except EaqecError:
        return None


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), _code_text(), _code_text().map(_code_json)))
def test_parsers_raise_only_parse_error_and_round_trip(text):
    for parse in (parse_code_text, parse_code_json):
        code = _parsed_code(parse, text)
        if code is None:
            continue
        n, k, gens = parse_code_text(format_code_text(code))
        again = from_generators(n, k, gens)
        assert (again.n, again.k) == (code.n, code.k)
        assert again.stabilizer_group == code.stabilizer_group


def test_from_generators_rejects_inconsistent_logical_pairs():
    xx = PauliOperator.from_string("XX")
    zi = PauliOperator.from_string("ZI")
    ix = PauliOperator.from_string("IX")
    with pytest.raises(StructureError):
        # supplied logical pair commutes internally
        from_generators(2, 1, [xx, zi], [(ix, ix * xx)])


# ---------------------------------------------------------------------------
# property checks


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_duality_properties(data):
    n = data.draw(st.integers(1, 6))
    k = data.draw(st.integers(0, n))
    c = data.draw(st.integers(0, n - k))
    code = random_code(random.Random(data.draw(st.integers(0, 2**32))), n, k, c)
    twin = dual(code)
    assert dual(twin) == code
    assert (twin.k, twin.c) == (code.c, code.k)
    assert code.stabilizer_group.rank + twin.stabilizer_group.rank == 2 * n
