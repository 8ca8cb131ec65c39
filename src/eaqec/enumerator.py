"""Weight enumerators of Pauli subgroups and the MacWilliams transform.

The weight enumerator of a subgroup V of the phase-free Pauli group is the
integer vector (A_0, ..., A_n) where A_w counts the elements of V of weight w.
All arithmetic here is exact: coefficients are Python integers and the
transform divides with an explicit divisibility check.

The transform itself is the quaternary MacWilliams identity.  In polynomial
form, with W_V(x, y) = sum_w A_w x^(n-w) y^w,

    W_V(x, y) = (1 / |V'|) * W_V'(x + 3y, x - y)

for V' the symplectic orthogonal of V.  Coefficientwise this reads

    A_w = (1 / |V'|) * sum_w' K_w(w', n) B_w'

where K_w(w', n) is the quaternary Krawtchouk polynomial and B the enumerator
of V'.  For an entanglement-assisted code the identity specializes to the two
group pairs exposed by :func:`eaqec_identities`.

Enumeration counts group elements with one numpy kernel for all n <= 64:
XOR tables of the low generators' X and Z halves, seeded with a coset
representative and shifted block by block through a Gray-code walk over the
remaining generators, with the weight of each element read off as the
popcount of X | Z.

A large group G of rank r is counted over the qubit halves A = [0, n//2) and
B = [n//2, n).  G_A and G_B, the elements of G supported on one half, have
ranks a and b; Q holds q = r - a - b coset representatives of G / (G_A x G_B).
Weight is additive over the halves, so each coset h + G_A x G_B is counted as
the convolution of the kernel's counts of h_A + G_A and h_B + G_B.  This is
still direct counting, with no transform, so the identities below compare
two independent counts.  The split is taken when
2^q (2^a + 2^b + _COSET_COST) < 2^r and every element is walked otherwise;
the whole Pauli group, with q = 0, is the extreme case.  The enumeration
budget caps the rank r (log2 of the group's order), not the number of
elements the kernel visits.

numpy is imported only inside the functions that count, so importing the
package, the registry and the LP bounds never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from .errors import BudgetError, InconsistencyError
from .pauli import PauliGroup, _lsb

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from .codes import EaqecCode

#: Default cap on the rank, log2 of the order, of a group to enumerate.
DEFAULT_BUDGET_LOG2 = 30

_BLOCK_LOG2 = 20

#: Fixed cost of one coset of the split count, in element visits.  Two kernel
#: calls and the convolution took about 45 us per coset and the plain walk
#: about 13 ns per element (2-vCPU x86 VM, numpy 2.4), so a coset costs about
#: as much as walking 2^12 elements.
_COSET_COST = 1 << 12


@dataclass(frozen=True)
class WeightEnumerator:
    """Exact weight distribution of a Pauli subgroup on ``n`` qubits."""

    n: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.n + 1:
            raise ValueError(f"need {self.n + 1} coefficients, got {len(self.coeffs)}")
        if any(c < 0 for c in self.coeffs):
            raise ValueError("weight enumerator coefficients must be nonnegative")

    @property
    def order(self) -> int:
        """Total element count: sum of the coefficients, 2**rank for a group."""
        return sum(self.coeffs)


def _check_budget(rank: int, budget_log2: int | None) -> None:
    budget = DEFAULT_BUDGET_LOG2 if budget_log2 is None else budget_log2
    if rank > budget:
        raise BudgetError(
            f"group has 2^{rank} elements, more than the enumeration budget of 2^{budget}"
        )


def _weight_blocks(
    gens: Sequence[tuple[int, int]], u: int = 0, v: int = 0
) -> Iterator[np.ndarray]:
    """Yield the Pauli weights of all elements of the coset (u, v) + span(gens).

    ``gens`` are independent raw ``(u, v)`` words.  The low
    ``b = min(len(gens), _BLOCK_LOG2)`` of them are expanded into XOR tables
    of their X and Z halves, seeded with the coset representative, one
    ``uint64`` word per element and half.  Each block XORs one element of the
    span of the remaining generators into both tables (a Gray-code walk, one
    generator per step) and counts the set bits of X | Z.  The yielded
    ``uint8`` array is reused by the next block.
    """
    import numpy as np

    b = min(len(gens), _BLOCK_LOG2)
    size = 1 << b
    xs = np.zeros(size, dtype=np.uint64)
    zs = np.zeros(size, dtype=np.uint64)
    xs[0] = u
    zs[0] = v
    for j, (gu, gv) in enumerate(gens[:b]):
        half = 1 << j
        np.bitwise_xor(xs[:half], np.uint64(gu), out=xs[half : 2 * half])
        np.bitwise_xor(zs[:half], np.uint64(gv), out=zs[half : 2 * half])
    bx = np.empty_like(xs)
    bz = np.empty_like(zs)
    weights = np.empty(size, dtype=np.uint8)
    du = dv = 0
    for hi in range(1 << (len(gens) - b)):
        if hi:
            gu, gv = gens[b + _lsb(hi)]
            du ^= gu
            dv ^= gv
        np.bitwise_xor(xs, np.uint64(du), out=bx)
        np.bitwise_xor(zs, np.uint64(dv), out=bz)
        np.bitwise_or(bx, bz, out=bx)
        yield np.bitwise_count(bx, out=weights)


def _tally(gens: Sequence[tuple[int, int]], width: int, u: int = 0, v: int = 0) -> np.ndarray:
    """Weight counts 0..width of the coset (u, v) + span(gens), as int64."""
    import numpy as np

    tally = np.zeros(width + 1, dtype=np.int64)
    for weights in _weight_blocks(gens, u, v):
        tally += np.bincount(weights, minlength=width + 1)
    return tally


def _echelon(vecs: Iterable[int], cols: int) -> tuple[list[int], list[int]]:
    """Sequential GF(2) elimination of independent rows on the columns ``cols``.

    Returns ``(kept, vanished)``: the reduced rows whose restriction to
    ``cols`` is independent of the earlier ones, and the reduced rows that
    vanish there.  Both consist of elements of the span, together they are a
    basis of it, and ``vanished`` is a basis of its intersection with the rows
    that are zero on ``cols``.
    """
    kept: list[tuple[int, int]] = []  # (pivot column, row)
    vanished = []
    for vec in vecs:
        for p, row in kept:
            if (vec >> p) & 1:
                vec ^= row
        if vec & cols:
            kept.append((_lsb(vec & cols), vec))
        else:
            vanished.append(vec)
    return [row for _, row in kept], vanished


def _words(rows: Iterable[int], n: int) -> list[tuple[int, int]]:
    """Packed ``u | (v << n)`` rows as raw ``(u, v)`` words."""
    mask = (1 << n) - 1
    return [(row & mask, row >> n) for row in rows]


def _split(group: PauliGroup) -> tuple[list[tuple[int, int]], ...]:
    """Split ``group`` over the qubit halves A = [0, n//2) and B = [n//2, n).

    Returns ``(G_A, G_B, Q)`` as raw ``(u, v)`` words: bases of the subgroups
    supported on A and on B, and coset representatives of G / (G_A x G_B).
    """
    n = group.n
    low = (1 << (n // 2)) - 1
    high = ((1 << n) - 1) ^ low
    cols_a = low | (low << n)
    cols_b = high | (high << n)
    rows = list(group.rows)
    in_a = _echelon(rows, cols_b)[1]
    in_b = _echelon(rows, cols_a)[1]
    reps = _echelon(in_a + in_b + rows, cols_a | cols_b)[0][len(in_a) + len(in_b) :]
    return tuple(_words(part, n) for part in (in_a, in_b, reps))


def _split_counts(
    n: int,
    in_a: Sequence[tuple[int, int]],
    in_b: Sequence[tuple[int, int]],
    reps: Sequence[tuple[int, int]],
) -> list[int]:
    """Weight distribution of the group split as ``(G_A, G_B, Q)`` by :func:`_split`.

    For each coset h + (G_A x G_B), walked in Gray-code order over the span of
    Q, the weights of h_A + G_A and h_B + G_B are tallied separately; weight
    is additive over the halves, so their convolution counts the coset.
    """
    import numpy as np

    half = n // 2
    low = (1 << half) - 1
    high = ((1 << n) - 1) ^ low
    # Python ints: one coset's counts reach 2^(a + b), past int64 at a + b >= 63
    total = np.zeros(n + 1, dtype=object)
    u = v = 0
    for i in range(1 << len(reps)):
        if i:
            ru, rv = reps[_lsb(i)]
            u ^= ru
            v ^= rv
        count_a = _tally(in_a, half, u & low, v & low)
        count_b = _tally(in_b, n - half, u & high, v & high)
        total += np.convolve(count_a.astype(object), count_b.astype(object))
    return total.tolist()


def weight_enumerator(group: PauliGroup, budget_log2: int | None = None) -> WeightEnumerator:
    """Exact weight distribution of ``group``, counted element by element.

    Raises :class:`BudgetError` when the rank exceeds the enumeration budget
    (default ``2**30`` elements).  The count is split over the two qubit
    halves when that visits fewer elements, counting the fixed cost of each
    coset (see :data:`_COSET_COST`); otherwise every element is walked.
    """
    _check_budget(group.rank, budget_log2)
    n = group.n
    order = group.order
    if order > _COSET_COST:  # smaller groups cannot pay for even one coset
        in_a, in_b, reps = _split(group)
        cost = (1 << len(reps)) * ((1 << len(in_a)) + (1 << len(in_b)) + _COSET_COST)
        if cost < order:
            return WeightEnumerator(n, tuple(_split_counts(n, in_a, in_b, reps)))
    tally = _tally(_words(group.rows, n), n)
    return WeightEnumerator(n, tuple(tally.tolist()))


@lru_cache(maxsize=None)
def krawtchouk(w: int, w_prime: int, n: int) -> int:
    """Quaternary Krawtchouk polynomial K_w(w', n), as an exact integer.

    Equals the coefficient of x^(n-w) y^w in (x + 3y)^(n-w') (x - y)^w'.
    """
    if n < 0 or not 0 <= w <= n or not 0 <= w_prime <= n:
        raise ValueError(f"need 0 <= w, w' <= n, got w={w}, w'={w_prime}, n={n}")
    return sum(
        (-1) ** u * 3 ** (w - u) * math.comb(w_prime, u) * math.comb(n - w_prime, w - u)
        for u in range(w + 1)
    )


def macwilliams_transform(enum: WeightEnumerator, group_order: int) -> WeightEnumerator:
    """Apply the quaternary MacWilliams transform and divide by ``group_order``.

    ``enum`` should be the weight distribution of a group of order
    ``group_order`` (the divisor is passed explicitly to keep this a pure
    arithmetic map); the result is then the distribution of its symplectic
    orthogonal.  Raises ``ValueError`` when the order does not match the
    coefficient sum, and :class:`InconsistencyError` when some transformed
    coefficient is not a nonnegative integer, which proves the input was not a
    subgroup's weight distribution.
    """
    if group_order != enum.order:
        raise ValueError(
            f"group order {group_order} does not match coefficient sum {enum.order}"
        )
    n = enum.n
    out = []
    for w in range(n + 1):
        total = sum(krawtchouk(w, wp, n) * enum.coeffs[wp] for wp in range(n + 1))
        q, rem = divmod(total, group_order)
        if rem or q < 0:
            raise InconsistencyError(
                f"transformed coefficient at weight {w} is {total}/{group_order}, "
                "not a nonnegative integer"
            )
        out.append(q)
    return WeightEnumerator(n, tuple(out))


def verify_macwilliams(group: PauliGroup, budget_log2: int | None = None) -> bool:
    """Check the MacWilliams identity for ``group`` against its orthogonal.

    Enumerates both groups exactly and compares the transform of the
    orthogonal's distribution with the direct one, coefficient by coefficient.
    """
    from .pauli import orthogonal_group

    ortho = orthogonal_group(group)
    _check_budget(group.rank, budget_log2)
    _check_budget(ortho.rank, budget_log2)
    direct = weight_enumerator(group, budget_log2)
    ortho_enum = weight_enumerator(ortho, budget_log2)
    return macwilliams_transform(ortho_enum, ortho.order) == direct


class IdentityCheck(NamedTuple):
    """Both sides of one MacWilliams identity: enumerated vs transformed."""

    direct: WeightEnumerator
    transformed: WeightEnumerator

    @property
    def holds(self) -> bool:
        return self.direct == self.transformed


def eaqec_identities(
    code: "EaqecCode", budget_log2: int | None = None
) -> tuple[IdentityCheck, IdentityCheck]:
    """Evaluate both entanglement-assisted MacWilliams identities for ``code``.

    The first check ties the normalizer-side group L x S_I to the simplified
    stabilizer S_S x S_I; the second ties the isotropic subgroup S_I to the
    combined group L x S_S x S_I.  Each check carries the directly enumerated
    distribution and the one obtained by transforming the partner group, so
    equality of the pair is the identity itself.
    """
    stab = code.stabilizer_group
    normalizer = code.normalizer_group
    iso = code.isotropic_group
    combined = code.combined_group
    for g in (stab, normalizer, iso, combined):
        _check_budget(g.rank, budget_log2)
    normalizer_check = IdentityCheck(
        direct=weight_enumerator(normalizer, budget_log2),
        transformed=macwilliams_transform(weight_enumerator(stab, budget_log2), stab.order),
    )
    isotropic_check = IdentityCheck(
        direct=weight_enumerator(iso, budget_log2),
        transformed=macwilliams_transform(
            weight_enumerator(combined, budget_log2), combined.order
        ),
    )
    return normalizer_check, isotropic_check
