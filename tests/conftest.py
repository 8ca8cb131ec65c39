"""Shared test helpers.

The oracles here deliberately avoid the library's packed-integer machinery:
group closure by repeated multiplication, weights by counting non-I letters in
the string form, commutation by comparing letters position by position.  Any
agreement between these and the fast paths is therefore meaningful.

Random codes are built by symplectic transvections: starting from the standard
basis pairs (Z_i, X_i), each transvection x -> x * v^<x, v> preserves every
pairwise product, so the transported pairs remain a symplectic basis and any
split of them into entangled / logical / isotropic parts is a well-formed code.
"""

from __future__ import annotations

import random

from eaqec import EaqecCode, PauliGroup, PauliOperator, canonicalize, symplectic_product

LETTERS = "IXYZ"


# ---------------------------------------------------------------------------
# independent oracles


def naive_closure(generators, n=None) -> set[PauliOperator]:
    """Every product of the generators, built one generator at a time."""
    if n is None:
        if not generators:
            raise ValueError("need n for an empty generating set")
        n = generators[0].n
    elements = {PauliOperator.identity(n)}
    for g in generators:
        if g not in elements:
            elements |= {e * g for e in elements}
    return elements


def naive_weight(op: PauliOperator) -> int:
    return sum(1 for ch in str(op) if ch != "I")


def naive_weight_distribution(elements, n: int) -> tuple[int, ...]:
    coeffs = [0] * (n + 1)
    for e in elements:
        coeffs[naive_weight(e)] += 1
    return tuple(coeffs)


def naive_commutes(a: PauliOperator, b: PauliOperator) -> bool:
    """Two Pauli strings commute iff they differ on an even number of
    positions where both are non-identity."""
    clashes = sum(
        1 for x, y in zip(str(a), str(b)) if x != "I" and y != "I" and x != y
    )
    return clashes % 2 == 0


def all_operators(n: int):
    """All 4^n phase-free operators on n qubits."""
    for bits in range(4**n):
        t = bits
        s = []
        for _ in range(n):
            s.append(LETTERS[t & 3])
            t >>= 2
        yield PauliOperator.from_string("".join(s))


# ---------------------------------------------------------------------------
# random structures


def random_operator(rng: random.Random, n: int) -> PauliOperator:
    return PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n))


def random_group(rng: random.Random, n: int, max_generators: int | None = None) -> PauliGroup:
    count = rng.randint(0, 2 * n if max_generators is None else max_generators)
    return canonicalize([random_operator(rng, n) for _ in range(count)], n)


def _transvect(op: PauliOperator, v: PauliOperator) -> PauliOperator:
    return op * v if symplectic_product(op, v) else op


def random_symplectic_basis(rng: random.Random, n: int):
    pairs = [
        (PauliOperator(n, 0, 1 << i), PauliOperator(n, 1 << i, 0)) for i in range(n)
    ]
    for _ in range(4 * n):
        v = random_operator(rng, n)
        if v.is_identity:
            continue
        pairs = [(_transvect(g, v), _transvect(h, v)) for g, h in pairs]
    rng.shuffle(pairs)
    return pairs


def random_code(
    rng: random.Random, n: int, k: int | None = None, c: int | None = None
) -> EaqecCode:
    if k is None:
        k = rng.randint(0, n)
    if c is None:
        c = rng.randint(0, n - k)
    pairs = random_symplectic_basis(rng, n)
    entangled = tuple(pairs[:c])
    logical = tuple(pairs[c : c + k])
    isotropic = tuple(g for g, _ in pairs[c + k :])
    return EaqecCode(n, entangled, isotropic, logical)
