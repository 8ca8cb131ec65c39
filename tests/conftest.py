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

import math
import random

from eaqec import (
    EaqecCode,
    PauliGroup,
    PauliOperator,
    canonicalize,
    from_generators,
    symplectic_product,
)

LETTERS = "IXYZ"

# the [[5,1,3]] code's stabilizer, written out here so the tests do not read
# the registry's copy
FIVE_QUBIT_GENERATORS = ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")


def five_qubit_code() -> EaqecCode:
    return from_generators(
        5, 1, [PauliOperator.from_string(s) for s in FIVE_QUBIT_GENERATORS]
    )


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


def naive_min_distance(code: EaqecCode) -> int | None:
    """Minimum weight over operators commuting with every stabilizer
    generator, excluding the isotropic subgroup — by scanning all 4^n."""
    stab_gens = list(code.stabilizer_group.generators)
    iso = naive_closure(list(code.isotropic_group.generators), code.n)
    best = None
    for op in all_operators(code.n):
        w = naive_weight(op)
        if best is not None and w >= best or op in iso:
            continue
        if all(naive_commutes(op, g) for g in stab_gens):
            best = w
    return best


def all_operators(n: int):
    """All 4^n phase-free operators on n qubits."""
    for bits in range(4**n):
        t = bits
        s = []
        for _ in range(n):
            s.append(LETTERS[t & 3])
            t >>= 2
        yield PauliOperator.from_string("".join(s))


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    """Product of two polynomials given by their coefficient lists."""
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
    return poly_mul(first, second)[w]


def farkas_accepts(num_vars, equalities, floors, y) -> bool:
    """Whether the integers y, one per row (the equalities a.x = b, then the
    floors a.x >= b), prove that no x >= 0 meets the rows: y >= 0 on the
    floors, sum_i y_i a_i <= 0 in every column and sum_i y_i b_i > 0.  Such
    an x would give 0 >= (sum_i y_i a_i).x >= sum_i y_i b_i > 0."""
    rows = [*equalities, *floors]
    if len(y) != len(rows) or not all(isinstance(v, int) for v in y):
        return False
    if any(v < 0 for v in y[len(equalities) :]):
        return False
    columns = (sum(v * a[col] for v, (a, _) in zip(y, rows)) for col in range(num_vars))
    return all(s <= 0 for s in columns) and sum(v * b for v, (_, b) in zip(y, rows)) > 0


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
