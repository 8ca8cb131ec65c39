"""Code structure, duality, distance, the registry, and the file formats."""

import json
import random

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
    all_operators,
    naive_closure,
    naive_commutes,
    naive_weight,
    random_code,
)

FIVE_QUBIT_GENERATORS = ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")


def five_qubit_code() -> EaqecCode:
    return from_generators(
        5, 1, [PauliOperator.from_string(s) for s in FIVE_QUBIT_GENERATORS]
    )


def naive_min_distance(code: EaqecCode) -> int | None:
    """Minimum weight over operators commuting with every stabilizer
    generator, excluding the isotropic subgroup — by scanning all 4^n."""
    stab_gens = list(code.stabilizer_group.generators)
    iso = naive_closure(list(code.isotropic_group.generators), code.n)
    best = None
    for op in all_operators(code.n):
        if op in iso:
            continue
        if all(naive_commutes(op, g) for g in stab_gens):
            w = naive_weight(op)
            if best is None or w < best:
                best = w
    return best


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


def test_from_generators_five_qubit():
    code = five_qubit_code()
    assert (code.n, code.k, code.c) == (5, 1, 0)
    assert len(code.isotropic_gens) == 4
    assert len(code.logical_pairs) == 1
    with pytest.raises(StructureError):
        from_generators(
            5, 2, [PauliOperator.from_string(s) for s in FIVE_QUBIT_GENERATORS]
        )


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


def test_from_generators_builds_and_validates_once(monkeypatch):
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
    gens = [PauliOperator.from_string(s) for s in FIVE_QUBIT_GENERATORS]
    from_generators(5, 1, gens)
    assert calls == {"orthogonal_group": 1, "validate": 1}


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
    orthogonal_group(group)  # the swapped generators, then the kernel
    assert calls == 2
    # build, distance, both identities and the dual round trip: 9 reductions
    calls = 0
    code = five_qubit_code()
    min_distance(code)
    eaqec_identities(code)
    assert dual(dual(code)) == code
    assert calls <= 9


# ---------------------------------------------------------------------------
# duality


def test_dual_parameter_map_and_involution():
    rng = random.Random(37)
    for _ in range(50):
        code = random_code(rng, rng.randint(1, 6))
        twin = dual(code)
        assert (twin.n, twin.k, twin.c) == (code.n, code.c, code.k)
        assert twin.isotropic_gens == code.isotropic_gens
        assert dual(twin) == code
        # generator-count duality: ranks of the two stabilizers sum to 2n
        assert (
            code.stabilizer_group.rank + twin.stabilizer_group.rank == 2 * code.n
        )


def test_dual_of_five_qubit():
    twin = dual(five_qubit_code())
    assert (twin.n, twin.k, twin.c) == (5, 0, 1)
    with pytest.raises(UndefinedDistanceError):
        min_distance(twin)


# ---------------------------------------------------------------------------
# distance


def test_min_distance_five_qubit():
    assert min_distance(five_qubit_code()) == 3


def test_min_distance_matches_naive_scan():
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randint(2, 4)
        code = random_code(rng, n, k=rng.randint(1, n))
        assert min_distance(code) == naive_min_distance(code)


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


def test_dual_repetition_distances():
    for n in (3, 5, 7, 9):
        twin = dual(ea_repetition_code(n))
        assert (twin.n, twin.k, twin.c) == (n, n - 1, 1)
        assert min_distance(twin) == 2


def test_dual_repetition_large_n_bounded_scan():
    # for n = 13, 15 the full enumeration is big, so check d = 2 directly:
    # no weight-1 operator normalizes the stabilizer, some weight-2 does
    for n in (13, 15):
        entry = next(
            e
            for e in registry()
            if (e.n, e.k, e.c) == (n, n - 1, 1) and e.generators is not None
        )
        code = code_from_entry(entry)
        normalizer = code.normalizer_group
        found_weight_two = False
        for i in range(n):
            for a in ("X", "Y", "Z"):
                letters = ["I"] * n
                letters[i] = a
                assert PauliOperator.from_string("".join(letters)) not in normalizer
        for i in range(n):
            for j in range(i + 1, n):
                for a in ("X", "Y", "Z"):
                    for b in ("X", "Y", "Z"):
                        letters = ["I"] * n
                        letters[i], letters[j] = a, b
                        if PauliOperator.from_string("".join(letters)) in normalizer:
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


def test_registry_generators_rebuild_small():
    for entry in registry():
        if entry.generators is None or entry.n > 9:
            continue
        code = code_from_entry(entry)
        assert (code.n, code.k, code.c) == (entry.n, entry.k, entry.c)
        assert min_distance(code) >= entry.d


# ---------------------------------------------------------------------------
# file formats


def test_parse_code_text_examples():
    n, k, gens = parse_code_text("2 1\nXX\nZI")
    assert (n, k) == (2, 1)
    assert [str(g) for g in gens] == ["XX", "ZI"]

    n, k, gens = parse_code_text("5 1\nXZZXI\nIXZZX\nXIXZZ\nZXIXZ")
    assert (n, k) == (5, 1)
    assert [str(g) for g in gens] == list(FIVE_QUBIT_GENERATORS)


def test_parse_code_text_comments_and_blank_lines():
    text = "# repetition-ish\n\n2 1  # header\nXX # gen\n\nZI\n"
    assert parse_code_text(text) == parse_code_text("2 1\nXX\nZI")


def test_parse_code_text_error_positions():
    with pytest.raises(ParseError) as exc_info:
        parse_code_text("2 1\nXXX")
    assert exc_info.value.line == 2 and exc_info.value.column == 3

    with pytest.raises(ParseError) as exc_info:
        parse_code_text("3 1\nXX")
    assert exc_info.value.line == 2 and exc_info.value.column == 3

    with pytest.raises(ParseError) as exc_info:
        parse_code_text("2 1\nXW")
    assert exc_info.value.line == 2 and exc_info.value.column == 2

    with pytest.raises(ParseError) as exc_info:
        parse_code_text("two 1\nXX")
    assert exc_info.value.line == 1

    with pytest.raises(ParseError):
        parse_code_text("2 3\nXX")  # k > n
    with pytest.raises(ParseError):
        parse_code_text("# nothing here\n")


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
