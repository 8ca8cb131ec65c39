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


def point_accepts(num_vars, equalities, floors, x, det) -> bool:
    """Whether the integers x, one per variable, over the integer det > 0
    meet the rows: x >= 0, a.x = b det on the equalities and a.x >= b det on
    the floors, so that x / det is a nonnegative point of a.x = b and
    a.x >= b."""
    if len(x) != num_vars or not all(isinstance(v, int) for v in (*x, det)):
        return False
    if det <= 0 or any(v < 0 for v in x):
        return False
    excess = [sum(c * v for c, v in zip(a, x)) - b * det for a, b in (*equalities, *floors)]
    split = len(equalities)
    return all(e == 0 for e in excess[:split]) and all(e >= 0 for e in excess[split:])


def maximum_accepts(num_vars, floors, objective, vertex, dual) -> bool:
    """Whether the integer certificates of a maximisation of objective.x over
    the floors a.x >= b, x >= 0, prove its value: the vertex (x, det) meets
    the floors (``point_accepts``), the dual (y, e) has y >= 0, e > 0 and
    sum_j y_j a_j <= -e objective in every column, and the two values
    objective.x / det and sum_j -y_j b_j / e are equal.  Any feasible x'
    then has objective.x' <= -(sum_j y_j a_j).x' / e <= sum_j -y_j b_j / e,
    by weak duality, so the vertex is optimal.  On the maximal-entanglement
    floors 3^w C(n, w) + sum_w' K_w(w') B_w' >= 0 with the objective
    sum B, y is a Delsarte polynomial: sum_w y_w K_w(w') <= -e for every
    variable weight w', and sum_w y_w K_w(0) / e is the maximum."""
    (x, det), (y, e) = vertex, dual
    if not point_accepts(num_vars, [], floors, x, det):
        return False
    if len(y) != len(floors) or len(objective) != num_vars:
        return False
    if not all(isinstance(v, int) for v in (*y, e)):
        return False
    if e <= 0 or any(v < 0 for v in y):
        return False
    columns = [sum(v * a[col] for v, (a, _) in zip(y, floors)) for col in range(num_vars)]
    if any(s > -e * c for s, c in zip(columns, objective)):
        return False
    primal = sum(c * v for c, v in zip(objective, x))
    return primal * e == -sum(v * b for v, (_, b) in zip(y, floors)) * det


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
