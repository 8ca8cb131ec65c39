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

Enumeration visits every group element with one numpy kernel for all
n <= 64: XOR tables of the low generators' X and Z halves, shifted block by
block through a Gray-code walk over the remaining generators, with the weight
of each element read off as the popcount of X | Z.

numpy is imported by the two functions that enumerate, so importing the
package, the registry and the LP bounds never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

from .errors import BudgetError, InconsistencyError
from .pauli import PauliGroup, _lsb

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from .codes import EaqecCode

#: Default cap on log2(number of elements) a single enumeration may visit.
DEFAULT_BUDGET_LOG2 = 30

_BLOCK_LOG2 = 20


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

    def to_strings(self) -> list[str]:
        """Coefficients as decimal strings (the JSON wire form; exact at any size)."""
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_strings(cls, n: int, coeffs: Sequence[str]) -> "WeightEnumerator":
        return cls(n, tuple(int(c) for c in coeffs))


def _check_budget(rank: int, budget_log2: int | None) -> int:
    budget = DEFAULT_BUDGET_LOG2 if budget_log2 is None else budget_log2
    if rank > budget:
        raise BudgetError(
            f"group has 2^{rank} elements, more than the enumeration budget of 2^{budget}"
        )
    return budget


def _weight_blocks(group: PauliGroup) -> Iterator[np.ndarray]:
    """Yield the Pauli weights of all ``2**rank`` elements of ``group`` in blocks.

    The low ``b = min(rank, _BLOCK_LOG2)`` generators are expanded into XOR
    tables of their X and Z halves, one ``uint64`` word per element and half.
    Each block XORs one element of the span of the remaining generators into
    both tables (a Gray-code walk, one generator per step) and counts the set
    bits of X | Z.  The yielded ``uint8`` array is reused by the next block.
    """
    import numpy as np

    gens = group.generators
    b = min(len(gens), _BLOCK_LOG2)
    size = 1 << b
    xs = np.zeros(size, dtype=np.uint64)
    zs = np.zeros(size, dtype=np.uint64)
    for j, g in enumerate(gens[:b]):
        half = 1 << j
        np.bitwise_xor(xs[:half], np.uint64(g.u), out=xs[half : 2 * half])
        np.bitwise_xor(zs[:half], np.uint64(g.v), out=zs[half : 2 * half])
    bx = np.empty_like(xs)
    bz = np.empty_like(zs)
    weights = np.empty(size, dtype=np.uint8)
    u = v = 0
    for hi in range(1 << (len(gens) - b)):
        if hi:
            g = gens[b + _lsb(hi)]
            u ^= g.u
            v ^= g.v
        np.bitwise_xor(xs, np.uint64(u), out=bx)
        np.bitwise_xor(zs, np.uint64(v), out=bz)
        np.bitwise_or(bx, bz, out=bx)
        yield np.bitwise_count(bx, out=weights)


def weight_enumerator(group: PauliGroup, budget_log2: int | None = None) -> WeightEnumerator:
    """Exact weight distribution of ``group``, visiting all ``2**rank`` elements.

    Raises :class:`BudgetError` when the rank exceeds the enumeration budget
    (default ``2**30`` elements).  A caller holding the orthogonal group's
    enumerator can fall back on :func:`macwilliams_transform` instead.
    """
    import numpy as np

    n = group.n
    _check_budget(group.rank, budget_log2)
    tally = np.zeros(n + 1, dtype=np.int64)
    for weights in _weight_blocks(group):
        tally += np.bincount(weights, minlength=n + 1)
    return WeightEnumerator(n, tuple(int(t) for t in tally))


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
