"""Entanglement-assisted stabilizer codes, their duals, and the code registry.

An ``[[n, k, d; c]]`` code uses n channel qubits and c ebits to protect k
information qubits with minimum distance d.  Its simplified stabilizer group
splits as S' = S_S x S_I: c hyperbolic generator pairs (the entangled part
S_S) and s = n - k - c commuting isotropic generators (S_I).  The symplectic
orthogonal of S' is L x S_I where the logical group L carries k further
hyperbolic pairs.  Maximal entanglement means c = n - k, i.e. S_I is trivial;
c = 0 recovers a standard stabilizer code.

The dual of a code swaps the roles of the entangled stabilizer pairs and the
logical pairs, turning an ``[[n, k, d; c]]`` code into an ``[[n, c, d'; k]]``
code with the same isotropic subgroup.  Applying it twice gives back the
original code exactly.

The minimum distance is the smallest weight of an operator in (L x S_I) \\ S_I:
an undetectable error that acts nontrivially on the information qubits.

The registry collects known codes: families with explicit, reconstructible
generators (the entanglement-assisted repetition codes, their duals, the
five-qubit code), individually published code parameters, and a grid of the
best published distance lower bounds for maximal-entanglement codes up to
n = 15.  Two extension rules generate further codes from any known one:
lengthening ([[n, k, d; c]] -> [[n+1, k, d; c+1]]) and trading an information
qubit for an ebit ([[n, k, d; c]] -> [[n, k-1, d'; c+1]] with d' >= d).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable, Sequence

from .enumerator import weight_enumerator
from .errors import (
    DimensionError,
    ParseError,
    StructureError,
    UndefinedDistanceError,
)
from .pauli import (
    MAX_QUBITS,
    PauliGroup,
    PauliOperator,
    canonicalize,
    orthogonal_group,
    symplectic_gram_schmidt,
    symplectic_product,
)

Pair = tuple[PauliOperator, PauliOperator]


@dataclass(frozen=True)
class EaqecCode:
    """An entanglement-assisted stabilizer code, stored by generator structure.

    ``symplectic_pairs`` are the hyperbolic pairs of the entangled stabilizer
    part, ``isotropic_gens`` the commuting generators, and ``logical_pairs``
    the hyperbolic pairs of the logical group.  Nothing else is stored: the
    ebit count ``c`` and the information qubit count ``k`` are the numbers of
    symplectic and logical pairs, and the groups are derived from the
    generators.  Construction validates the counts (k + c + s = n for s
    isotropic generators), the full commutation pattern (each pair
    anticommutes internally, all other generator products commute), and the
    independence of the generators.
    """

    n: int
    symplectic_pairs: tuple[Pair, ...]
    isotropic_gens: tuple[PauliOperator, ...]
    logical_pairs: tuple[Pair, ...]

    def __post_init__(self) -> None:
        n, k, c = self.n, self.k, self.c
        if not 1 <= n <= MAX_QUBITS:
            raise DimensionError(f"qubit count must be in 1..{MAX_QUBITS}, got {n}")
        s = len(self.isotropic_gens)
        if k + c + s != n:
            raise StructureError(
                f"generator counts do not fit: k={k}, c={c}, {s} isotropic "
                f"generators, but k + c + s must equal n={n}"
            )
        pairs = self.symplectic_pairs + self.logical_pairs
        gens: list[PauliOperator] = [g for pair in pairs for g in pair]
        gens += list(self.isotropic_gens)
        for g in gens:
            if g.n != n:
                raise DimensionError(f"generator {g!r} acts on {g.n} qubits, code on {n}")
        npaired = 2 * len(pairs)
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                want = 1 if (i < npaired and j == i + 1 and i % 2 == 0) else 0
                if symplectic_product(gens[i], gens[j]) != want:
                    raise StructureError(
                        f"commutation pattern violated between generators {i} and {j}"
                    )
        if self.combined_group.rank != len(gens):
            raise StructureError("generators are not independent")

    @property
    def k(self) -> int:
        """Information qubits: the number of logical pairs."""
        return len(self.logical_pairs)

    @property
    def c(self) -> int:
        """Ebits: the number of symplectic pairs."""
        return len(self.symplectic_pairs)

    # --- group views -------------------------------------------------------

    @cached_property
    def stabilizer_group(self) -> PauliGroup:
        """S' = S_S x S_I, the full simplified stabilizer."""
        flat = [g for pair in self.symplectic_pairs for g in pair]
        return canonicalize(flat + list(self.isotropic_gens), self.n)

    @cached_property
    def isotropic_group(self) -> PauliGroup:
        return canonicalize(self.isotropic_gens, self.n)

    @cached_property
    def logical_group(self) -> PauliGroup:
        return canonicalize([g for pair in self.logical_pairs for g in pair], self.n)

    @cached_property
    def normalizer_group(self) -> PauliGroup:
        """L x S_I, the symplectic orthogonal of the simplified stabilizer."""
        flat = [g for pair in self.logical_pairs for g in pair]
        return canonicalize(flat + list(self.isotropic_gens), self.n)

    @cached_property
    def combined_group(self) -> PauliGroup:
        """L x S_S x S_I, everything commuting with the isotropic subgroup.

        Its generators are exactly the code's, so validation reads its rank.
        """
        flat = [g for pair in self.logical_pairs + self.symplectic_pairs for g in pair]
        return canonicalize(flat + list(self.isotropic_gens), self.n)

    def params_str(self, d: int | None = None) -> str:
        mid = f"{self.k},{d}" if d is not None else f"{self.k},?"
        return f"[[{self.n},{mid};{self.c}]]"


def from_generators(
    n: int,
    k: int,
    generators: Iterable[PauliOperator],
    logical_pairs: Sequence[Pair] | None = None,
) -> EaqecCode:
    """Build an ``[[n, k; c]]`` code from its simplified stabilizer generators.

    The entanglement count c is inferred by splitting the generated group into
    hyperbolic pairs and an isotropic remainder; the generator rank must then
    equal n - k + c.  Supplied ``logical_pairs`` are validated against the
    stabilizer by the code's constructor.  Otherwise they are derived from the
    symplectic orthogonal of the stabilizer: its rank is 2n - (n - k + c), and
    its radical S ∩ S^⊥ is the isotropic subgroup, so it splits into
    (n + k - c - (n - k - c)) / 2 = k hyperbolic pairs over that subgroup.
    """
    if not 0 <= k <= n:
        raise ValueError(f"information qubit count k={k} out of range for n={n}")
    group = canonicalize(generators, n)
    pairs, iso = symplectic_gram_schmidt(group)
    c = len(pairs)
    if group.rank != n - k + c:
        raise StructureError(
            f"rank {group.rank} stabilizer with {c} hyperbolic pairs does not "
            f"match n - k + c = {n - k + c} for [[{n},{k};{c}]]"
        )
    if logical_pairs is None:
        logical_pairs, _ = symplectic_gram_schmidt(orthogonal_group(group))
    return EaqecCode(n, pairs, iso, tuple(logical_pairs))


def dual(code: EaqecCode) -> EaqecCode:
    """Swap entangled stabilizer pairs with logical pairs.

    Maps ``[[n, k, d; c]]`` to ``[[n, c, d'; k]]`` with the isotropic subgroup
    unchanged; applying it twice returns the original code exactly.
    """
    return EaqecCode(code.n, code.logical_pairs, code.isotropic_gens, code.symplectic_pairs)


def min_distance(code: EaqecCode, budget_log2: int | None = None) -> int:
    """Minimum weight over (L x S_I) \\ S_I, from two weight enumerators.

    S_I is a subgroup of L x S_I, so the normalizer's count of weight-w
    elements exceeds the isotropic group's exactly when the difference set
    holds an operator of weight w; the distance is the smallest such w >= 1.
    Raises :class:`UndefinedDistanceError` when k = 0 (the difference set is
    empty) and :class:`BudgetError` when 2^(n + k - c) exceeds the budget.
    """
    if code.k == 0:
        raise UndefinedDistanceError(
            "code has no information qubits, so no operator set defines a distance"
        )
    normalizer = weight_enumerator(code.normalizer_group, budget_log2).coeffs
    isotropic = weight_enumerator(code.isotropic_group, budget_log2).coeffs
    return next(w for w in range(1, code.n + 1) if normalizer[w] > isotropic[w])


# ---------------------------------------------------------------------------
# registry of known codes and the extension rules


_SOURCES = ("literature", "construction", "extension")


@dataclass(frozen=True)
class CodeRegistryEntry:
    """A known ``[[n, k, d; c]]`` code: d is an achievable distance for the
    parameters, hence a lower bound on the optimum.  A distance needs at
    least one information qubit, so k >= 1.  ``generators`` is set only where
    the construction is explicit enough to rebuild the code."""

    n: int
    k: int
    c: int
    d: int
    source: str
    generators: tuple[PauliOperator, ...] | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_QUBITS:
            raise DimensionError(f"qubit count must be in 1..{MAX_QUBITS}, got {self.n}")
        if not 0 <= self.k <= self.n:
            raise StructureError(f"k={self.k} out of range for n={self.n}")
        if self.k == 0:
            raise StructureError("k=0 leaves no information qubit: a distance needs k >= 1")
        if not 0 <= self.c <= self.n - self.k:
            raise StructureError(
                f"ebit count c={self.c} out of range for [[{self.n},{self.k}]]"
            )
        if not 1 <= self.d <= self.n:
            raise StructureError(f"distance d={self.d} out of range for n={self.n}")
        if self.source not in _SOURCES:
            raise ValueError(f"unknown source {self.source!r}, expected one of {_SOURCES}")
        if self.generators is not None:
            for g in self.generators:
                if g.n != self.n:
                    raise DimensionError("registry generators act on the wrong qubit count")

    @property
    def params_str(self) -> str:
        return f"[[{self.n},{self.k},{self.d};{self.c}]]"

    @property
    def is_maximal_entanglement(self) -> bool:
        return self.c == self.n - self.k


def extend_code(entry: CodeRegistryEntry, mode: str) -> CodeRegistryEntry:
    """Apply one extension rule to a known code.

    ``lengthen`` maps [[n, k, d; c]] to [[n+1, k, d; c+1]]; ``trade`` maps it
    to [[n, k-1, d; c+1]], where the recorded d remains valid as a lower
    bound.  Trading the last information qubit raises :class:`StructureError`
    from the entry's constructor, since a k = 0 code has no distance.
    Generators are not carried over: the rules assert existence, not an
    explicit construction.
    """
    if mode == "lengthen":
        return CodeRegistryEntry(entry.n + 1, entry.k, entry.c + 1, entry.d, "extension")
    if mode == "trade":
        return CodeRegistryEntry(entry.n, entry.k - 1, entry.c + 1, entry.d, "extension")
    raise ValueError(f"unknown extension mode {mode!r}, expected 'lengthen' or 'trade'")


def ea_repetition_code(n: int) -> EaqecCode:
    """The maximal-entanglement repetition code on n qubits.

    Its logical group is spanned by the all-X operator together with the all-Z
    operator (odd n: every nonidentity logical has weight n) or the Z-string
    on the first n - 1 qubits (even n: the best achievable weight is n - 1).
    The stabilizer is the symplectic orthogonal of that logical group, which
    splits into n - 1 hyperbolic pairs: an [[n, 1, n; n-1]] code for odd n and
    an [[n, 1, n-1; n-1]] code for even n.
    """
    if n < 2:
        raise ValueError("repetition code needs n >= 2")
    mask = (1 << n) - 1
    all_x = PauliOperator(n, mask, 0)
    z_part = PauliOperator(n, 0, mask if n % 2 else mask >> 1)
    logical = canonicalize([all_x, z_part], n)
    stab = orthogonal_group(logical)
    return from_generators(n, 1, stab.generators)


_FIVE_QUBIT_GENERATORS = ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")

# Individually published maximal-entanglement codes with no reconstructible
# generators here: (n, k, d, c), bracket order [[n,k,d;c]].
_CONSTRUCTION_CODES: tuple[tuple[int, int, int, int], ...] = (
    # derived from classical quaternary codes
    (7, 2, 5, 5), (9, 4, 5, 5), (9, 5, 4, 4), (10, 4, 6, 6), (11, 5, 6, 6),
    (11, 4, 6, 7), (11, 6, 5, 5), (12, 2, 9, 10), (12, 8, 4, 4), (12, 5, 6, 7),
    (13, 2, 10, 11), (13, 3, 9, 10), (13, 6, 6, 7), (14, 7, 6, 7), (14, 8, 5, 6),
    (15, 9, 5, 6), (15, 8, 6, 7),
    # circulant constructions
    (7, 3, 4, 4), (8, 2, 6, 6), (10, 3, 6, 7), (11, 3, 7, 8), (15, 5, 8, 10),
    (15, 6, 7, 9),
    # obtained by adding ebits to standard stabilizer codes
    (6, 2, 4, 4), (8, 4, 4, 4), (9, 6, 3, 3), (10, 6, 4, 4), (10, 7, 3, 3),
    (11, 8, 3, 3), (12, 6, 5, 6), (12, 7, 4, 5), (12, 9, 3, 3), (13, 5, 6, 8),
    (13, 9, 4, 4), (13, 10, 3, 3), (14, 11, 3, 3), (15, 4, 8, 11), (15, 10, 4, 5),
)

# Codes published as applications of the extension rules: (n, k, d, c).
_EXTENSION_CODES: tuple[tuple[int, int, int, int], ...] = (
    (14, 3, 9, 11), (14, 9, 4, 5), (13, 8, 4, 5), (14, 10, 3, 4), (14, 6, 6, 8),
)

# Best published distance lower bounds for maximal-entanglement codes,
# row n -> values for k = 1 .. n-1.
_KNOWN_LOWER_BOUNDS: dict[int, tuple[int, ...]] = {
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


@cache
def registry() -> tuple[CodeRegistryEntry, ...]:
    """All known codes: explicit families, published parameters, and the
    lower-bound grid.  Deterministically ordered by (n, k, c, d, source)."""
    entries: list[CodeRegistryEntry] = []
    for n in range(2, 16):
        code = ea_repetition_code(n)
        d = n if n % 2 else n - 1
        entries.append(
            CodeRegistryEntry(n, 1, n - 1, d, "construction",
                              code.stabilizer_group.generators)
        )
        if n % 2 and n >= 3:
            # the dual repetition code [[n, n-1, 2; 1]]
            dual_code = dual(code)
            entries.append(
                CodeRegistryEntry(n, n - 1, 1, 2, "construction",
                                  dual_code.stabilizer_group.generators)
            )
    entries.append(
        CodeRegistryEntry(
            5, 1, 0, 3, "construction",
            tuple(PauliOperator.from_string(s) for s in _FIVE_QUBIT_GENERATORS),
        )
    )
    for n, k, d, c in _CONSTRUCTION_CODES:
        entries.append(CodeRegistryEntry(n, k, c, d, "construction"))
    for n, k, d, c in _EXTENSION_CODES:
        entries.append(CodeRegistryEntry(n, k, c, d, "extension"))
    for n, row in _KNOWN_LOWER_BOUNDS.items():
        for k, d in enumerate(row, start=1):
            entries.append(CodeRegistryEntry(n, k, n - k, d, "literature"))
    entries.sort(key=lambda e: (e.n, e.k, e.c, e.d, e.source))
    return tuple(entries)


def code_from_entry(entry: CodeRegistryEntry) -> EaqecCode:
    """Rebuild the code behind a registry entry from its stored generators."""
    if entry.generators is None:
        raise ValueError(f"{entry.params_str} has no stored generators")
    code = from_generators(entry.n, entry.k, entry.generators)
    if code.c != entry.c:
        raise StructureError(
            f"stored generators for {entry.params_str} produce c={code.c}"
        )
    return code


# ---------------------------------------------------------------------------
# code file formats


def parse_code_text(text: str) -> tuple[int, int, tuple[PauliOperator, ...]]:
    """Parse the text code format: a header line ``n k``, then one Pauli
    string per line.  ``#`` starts a comment; blank lines are skipped."""
    n = k = None
    gens: list[PauliOperator] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            parts = line.split()
            if len(parts) != 2:
                raise ParseError("header must be two integers 'n k'", lineno)
            try:
                n, k = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError("header must be two integers 'n k'", lineno) from None
            if not 1 <= n <= MAX_QUBITS:
                raise ParseError(f"n must be in 1..{MAX_QUBITS}, got {n}", lineno)
            if not 0 <= k <= n:
                raise ParseError(f"k must be in 0..n, got {k}", lineno)
            continue
        if len(line) != n:
            raise ParseError(
                f"generator has {len(line)} characters, expected n={n}",
                lineno, len(line) + 1 if len(line) < n else n + 1,
            )
        for col, ch in enumerate(line, start=1):
            if ch not in "IXYZ":
                raise ParseError(f"invalid Pauli character {ch!r}", lineno, col)
        gens.append(PauliOperator.from_string(line))
    if n is None:
        raise ParseError("no header line found")
    return n, k, tuple(gens)


def format_code_text(code: EaqecCode) -> str:
    """Serialize a code to the text format using canonical stabilizer
    generators, so parsing the output reproduces the same group."""
    lines = [f"{code.n} {code.k}"]
    lines += [str(g) for g in code.stabilizer_group.generators]
    return "\n".join(lines) + "\n"


def parse_code_json(
    text: str,
) -> tuple[int, int, tuple[PauliOperator, ...], tuple[Pair, ...] | None]:
    """Parse the JSON code format: an object with ``n``, ``k``,
    ``generators`` (Pauli strings) and optional ``logical_pairs``."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from None
    except (RecursionError, ValueError) as exc:  # nesting depth, integer digit limit
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ParseError("top-level JSON value must be an object")
    try:
        n, k, raw_gens = obj["n"], obj["k"], obj["generators"]
    except KeyError as exc:
        raise ParseError(f"missing field: {exc}") from None
    for name, value in (("n", n), ("k", k)):
        if type(value) is not int:  # bool is an int subclass; floats truncate
            raise ParseError(
                f"'{name}' must be a JSON integer, got {type(value).__name__}"
            )
    if not isinstance(raw_gens, list):
        raise ParseError("'generators' must be a list of Pauli strings")

    def _parse_op(s: object) -> PauliOperator:
        if not isinstance(s, str):
            raise ParseError(f"expected a Pauli string, got {s!r}")
        try:
            op = PauliOperator.from_string(s)
        except DimensionError as exc:
            raise ParseError(str(exc)) from None
        if op.n != n:
            raise ParseError(f"generator {s!r} has {op.n} characters, expected n={n}")
        return op

    gens = tuple(_parse_op(s) for s in raw_gens)
    logical = None
    if "logical_pairs" in obj and obj["logical_pairs"] is not None:
        raw_pairs = obj["logical_pairs"]
        if not isinstance(raw_pairs, list) or any(
            not isinstance(p, list) or len(p) != 2 for p in raw_pairs
        ):
            raise ParseError("'logical_pairs' must be a list of [g, h] string pairs")
        logical = tuple((_parse_op(g), _parse_op(h)) for g, h in raw_pairs)
    if not 1 <= n <= MAX_QUBITS or not 0 <= k <= n:
        raise ParseError(f"parameters out of range: n={n}, k={k}")
    return n, k, gens, logical


def code_to_json_dict(code: EaqecCode) -> dict:
    """JSON-ready dict mirroring the text format plus the logical pairs."""
    return {
        "n": code.n,
        "k": code.k,
        "c": code.c,
        "generators": [str(g) for g in code.stabilizer_group.generators],
        "logical_pairs": [[str(g), str(h)] for g, h in code.logical_pairs],
    }
