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

The Krawtchouk values are kept as one cached table per n <= ``MAX_QUBITS``
(a larger n is rejected before any table is built), whose row w holds
K_w(0..n).  Column w' has the generating function (1 + 3y)^(n-w') (1 - y)^w'
in y, so column 0 is 3^w C(n, w) and the recurrence
(1 + 3y) K(., w' + 1) = (1 - y) K(., w') builds each row from the one above
in O(n) steps, the table in O(n^2).  The transform takes one row's dot
product with B per weight, and the LP rows of :mod:`eaqec.lpbound` slice the
same rows.

Enumeration counts group elements with one numpy kernel for all n <= 64:
an XOR table of the low generators' X and Z halves, broadcast against a set
of coset representatives shifted block by block through a Gray-code walk
over the remaining generators, with the weight of each element read off as
the popcount of X | Z and each coset's weights counted by one offset
``bincount`` per block.  A whole group is the one coset of the identity,
and when its table holds every generator that coset is the table itself:
one OR, one popcount and one ``bincount``, with no shift and no offsets.
The table of up to eight generators is one running XOR of the generators
taken in Gray-code order, and each further generator doubles it: a group
of rank at most 8 is counted in six numpy calls, and one of rank 9 to 20
in three more plus one per generator above 8.  Below about 2^12 elements
those calls, not the elements, set the time.

A large group G of rank r is counted over the qubit halves A = [0, n//2) and
B = [n//2, n).  G_A and G_B, the elements of G supported on one half, have
ranks a and b; Q holds q = r - a - b coset representatives of G / (G_A x G_B).
Weight is additive over the halves, so each coset h + G_A x G_B is counted as
the convolution of the counts of h_A + G_A and h_B + G_B.  The kernel counts
all 2^q representatives at once against each half's table, in chunks, and one
integer product of the two halves' per-coset counts sums the convolutions.
This is still direct counting, with no transform, so the identities below
compare two independent counts.  The split is taken when
2^q (2^a + 2^b) + C < 2^r, where C = :data:`_SPLIT_COST` is the fixed cost
of one split count in element visits, and every element is walked otherwise;
the whole Pauli group, with q = 0, is the extreme case.  The enumeration
budget caps the rank r (log2 of the group's order), not the number of
elements the kernel visits.

:func:`weight_enumerator` counts each group object once and keeps the result
on it, so a code's distance and its identities share the counts of its
normalizer and isotropic groups.

numpy is imported only inside the functions that count, so importing the
package, the registry and the LP bounds never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import index, mul
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from .errors import BudgetError, InconsistencyError
from .pauli import MAX_QUBITS, PauliGroup, _echelon, _lsb, _unchecked

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from .codes import EaqecCode

#: Default cap on the rank, log2 of the order, of a group to enumerate.
DEFAULT_BUDGET_LOG2 = 30

_BLOCK_LOG2 = 20

#: Widths up to which :func:`_xor_table` builds a table in one running XOR.
_SEED_LOG2 = 8

#: Fixed cost of one split count, in element visits.  Its echelon forms,
#: tables, matrix product and anti-diagonal sums took about 40 us (quartiles
#: 32-53 us) more than a plain walk of the same group, in which the walk
#: visits about 2^13 elements at 3.5-9 ns each (the 806 groups of one seed-101
#: ``code-checks`` pass, 2-vCPU x86 VM, numpy 2.4).  Of the powers of two,
#: 2^13 also gave the least total time over those groups.
_SPLIT_COST = 1 << 13


@dataclass(frozen=True)
class WeightEnumerator:
    """Exact weight distribution of a Pauli subgroup on ``n`` qubits.

    ``n`` and the coefficients are stored as a Python int and a tuple of
    them: any integer, numpy's included, is taken by its ``operator.index``
    value, and anything else raises ``TypeError``.
    """

    n: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        n, coeffs = index(self.n), tuple(map(index, self.coeffs))
        vars(self).update(n=n, coeffs=coeffs)
        if n < 0:
            raise ValueError(f"need n >= 0, got {n}")
        if len(coeffs) != n + 1:
            raise ValueError(f"need {n + 1} coefficients, got {len(coeffs)}")
        if min(coeffs) < 0:
            raise ValueError("weight enumerator coefficients must be nonnegative")

    @property
    def order(self) -> int:
        """Total element count: sum of the coefficients, 2**rank for a group."""
        return sum(self.coeffs)


def _check_budget(rank: int, budget_log2: int | None) -> None:
    budget = DEFAULT_BUDGET_LOG2 if budget_log2 is None else index(budget_log2)
    if rank > budget:
        raise BudgetError(
            f"group has 2^{rank} elements, more than the enumeration budget of 2^{budget}"
        )


@lru_cache(maxsize=None)
def _ruler(t: int) -> np.ndarray:
    """The word entering the Gray-code walk over t words at each of its 2^t
    steps, as an index into ``[0, *words]``: 0 at step 0, and 1 + lsb(i) at
    step i.  Cached read-only, one array per width."""
    import numpy as np

    ruler = np.zeros(1 << t, dtype=np.intp)
    for j in range(t):
        ruler[1 << j :: 2 << j] = j + 1
    ruler.flags.writeable = False
    return ruler


def _xor_table(words: Sequence[tuple[int, int]]) -> np.ndarray:
    """X and Z halves of every element of the span of ``words``, each once.

    A ``uint64`` array of shape (2, 2^len(words)): row 0 holds the X bits and
    row 1 the Z bits.  The span of the first ``_SEED_LOG2`` words is one
    running XOR of the words in Gray-code order (:func:`_ruler`), so column i
    is the element of Gray code i ^ (i >> 1); each further word doubles the
    table, its new half the old one XOR the word.  Every caller uses the
    columns as a set.
    """
    import numpy as np

    t = min(len(words), _SEED_LOG2)
    columns = np.array([(0, 0), *words], dtype=np.uint64)
    seed = np.take(columns.T, _ruler(t), axis=1)
    np.bitwise_xor.accumulate(seed, axis=1, out=seed)
    if len(words) == t:
        return seed
    table = np.empty((2, 1 << len(words)), dtype=np.uint64)
    table[:, : seed.shape[1]] = seed
    for j, word in enumerate(columns[t + 1 :].reshape(-1, 2, 1), t):
        half = 1 << j
        np.bitwise_xor(table[:, :half], word, out=table[:, half : 2 * half])
    return table


def _tables(
    gens: Sequence[tuple[int, int]],
) -> tuple[np.ndarray, Sequence[tuple[int, int]]]:
    """XOR table of the low ``min(len(gens), _BLOCK_LOG2)`` generators, and the rest."""
    t = min(len(gens), _BLOCK_LOG2)
    return _xor_table(gens[:t]), gens[t:]


def _gray_shifts(
    walk: Sequence[tuple[int, int]], reps: np.ndarray
) -> Iterator[np.ndarray]:
    """Yield ``reps`` times each element of the span of ``walk``, in Gray-code
    order: one word of ``walk`` enters the shift per step."""
    import numpy as np

    yield reps
    du = dv = 0
    for i in range(1, 1 << len(walk)):
        gu, gv = walk[_lsb(i)]
        du ^= gu
        dv ^= gv
        yield reps ^ np.array([[du], [dv]], dtype=np.uint64)


def _tally(
    table: np.ndarray,
    walk: Sequence[tuple[int, int]],
    width: int,
    reps: np.ndarray | None = None,
) -> np.ndarray:
    """Weight counts 0..width of each coset reps[:, i] + span, as integers.

    The span is that of the generators expanded in ``table`` (from
    :func:`_tables`) and the raw ``(u, v)`` words ``walk``; ``reps`` holds m
    coset representatives as X and Z rows, and row i counts the coset of
    reps[:, i].  ``None`` stands for the identity coset, the span itself, in
    one row.  Each block shifts the representatives by one element of the
    span of ``walk`` (:func:`_gray_shifts`), broadcasts them against the
    table, takes the weights as the set bits of X | Z, and counts them with
    one ``bincount``, the weights of row i offset by i (width + 1).  The
    first block allocates every buffer and the later ones reuse them.  The
    identity coset of a single block, the table itself, is counted with no
    shift and no offsets.
    """
    import numpy as np

    if reps is None:
        if not walk:
            weights = np.bitwise_count(np.bitwise_or(table[0], table[1]))
            return np.bincount(weights, minlength=width + 1)[None]
        reps = np.zeros((2, 1), dtype=np.uint64)
    m, bins = reps.shape[1], width + 1
    offsets = np.arange(0, m * bins, bins)[:, None]
    both = weights = binned = counts = None  # allocated by the first block
    for shifted in _gray_shifts(walk, reps):
        both = np.bitwise_xor(shifted[:, :, None], table[:, None, :], out=both)
        np.bitwise_or(both[0], both[1], out=both[0])
        weights = np.bitwise_count(both[0], out=weights)
        binned = np.add(offsets, weights, out=binned)
        block = np.bincount(binned.ravel(), minlength=m * bins)
        counts = block if counts is None else np.add(counts, block, out=counts)
    return counts.reshape(m, bins)


def _plain_counts(n: int, words: Sequence[tuple[int, int]]) -> list[int]:
    """Weight distribution of span(words), every element walked."""
    return _tally(*_tables(words), n)[0].tolist()


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

    The representatives h of the cosets h + (G_A x G_B) are the span of Q,
    taken in chunks of 2^s: an XOR table of the low s words of Q, shifted by
    each element of the span of the others, with s as large as keeps a chunk
    times either half's table within 2^_BLOCK_LOG2 elements.  For each chunk,
    one :func:`_tally` per half counts h_A + G_A and h_B + G_B for every h,
    and :func:`_combine` adds up the convolutions of the two halves' counts.
    """
    import numpy as np

    half = n // 2
    low = (1 << half) - 1
    mask_a, mask_b = np.uint64(low), np.uint64(((1 << n) - 1) ^ low)
    table_a, walk_a = _tables(in_a)
    table_b, walk_b = _tables(in_b)
    s = _BLOCK_LOG2 - (max(table_a.shape[1], table_b.shape[1]).bit_length() - 1)
    halves = (
        (
            _tally(table_a, walk_a, half, chunk & mask_a),
            _tally(table_b, walk_b, n - half, chunk & mask_b),
        )
        for chunk in _gray_shifts(reps[s:], _xor_table(reps[:s]))
    )
    # Python ints from rank 63 on: the counts of one product entry reach 2^rank
    return _combine(halves, exact=len(in_a) + len(in_b) + len(reps) >= 63)


def _combine(halves: Iterable[tuple[np.ndarray, np.ndarray]], exact: bool) -> list[int]:
    """Sum the convolutions of per-coset counts of the two qubit halves.

    ``halves`` yields pairs (C_A, C_B) with one row per coset: C_A[i, x]
    elements of weight x on A and C_B[i, y] of weight y on B.  Weight is
    additive over the halves, so the total at weight w is the sum of the
    products P = C_A^T C_B over x + y = w, the anti-diagonals of P.  ``exact``
    takes the products in Python ints, for totals that may pass 2^63.
    """
    import numpy as np

    products = 0
    for count_a, count_b in halves:
        if exact:
            count_a, count_b = count_a.astype(object), count_b.astype(object)
        products = products + count_a.T @ count_b
    rows, cols = products.shape
    # rows of length rows + cols, read back at length rows + cols - 1: row x
    # moves x places right, so each column gathers one anti-diagonal
    padded = np.zeros((rows, rows + cols), dtype=products.dtype)
    padded[:, :cols] = products
    sheared = padded.ravel()[: rows * (rows + cols - 1)].reshape(rows, rows + cols - 1)
    return sheared.sum(axis=0).tolist()


def _count(group: PauliGroup) -> list[int]:
    """Weight distribution of ``group``: split over the qubit halves when that
    visits fewer elements after the fixed cost :data:`_SPLIT_COST`, every
    element walked otherwise."""
    n = group.n
    order = group.order
    if order > _SPLIT_COST:  # smaller groups cannot pay for a split at all
        in_a, in_b, reps = _split(group)
        if (1 << len(reps)) * ((1 << len(in_a)) + (1 << len(in_b))) + _SPLIT_COST < order:
            return _split_counts(n, in_a, in_b, reps)
    return _plain_counts(n, _words(group.rows, n))


def weight_enumerator(group: PauliGroup, budget_log2: int | None = None) -> WeightEnumerator:
    """Exact weight distribution of ``group``, counted element by element.

    Raises :class:`BudgetError` when the rank exceeds the enumeration budget
    (default ``2**30`` elements), on every call.  The count is made once per
    group object and kept on it, as ``PauliGroup.generators`` is: a code's
    distance and identities share the counts of its groups, while an equal
    group built anew is counted again.
    """
    _check_budget(group.rank, budget_log2)
    memo = vars(group)  # frozen fields alone define equality and hash
    enum = memo.get("_weight_enumerator")
    if enum is None:  # n + 1 counts of weights of n bits, Python ints by ``tolist``
        enum = _unchecked(WeightEnumerator, n=group.n, coeffs=tuple(_count(group)))
        memo["_weight_enumerator"] = enum
    return enum


@lru_cache(maxsize=None)
def _krawtchouk_table(n: int) -> list[list[int]]:
    """Row w holds the quaternary Krawtchouk values K_w(0..n) on n qubits.

    By the recurrence in the module docstring, K_w(0) = 3^w C(n, w) and
    K_w(w' + 1) = K_w(w') - K_(w-1)(w') - 3 K_(w-1)(w' + 1).  Every caller
    shares the cached lists, so none may modify them.
    """
    table = [[1] * (n + 1)]
    for w in range(1, n + 1):
        prev, row = table[-1], [3**w * math.comb(n, w)]
        for wp in range(n):
            row.append(row[wp] - prev[wp] - 3 * prev[wp + 1])
        table.append(row)
    return table


def krawtchouk(w: int, w_prime: int, n: int) -> int:
    """Quaternary Krawtchouk polynomial K_w(w', n), as an exact integer.

    Equals the coefficient of x^(n-w) y^w in (x + 3y)^(n-w') (x - y)^w', read
    from the table of n.  ``cache_clear`` and ``cache_info`` are the tables'.
    """
    if n > MAX_QUBITS or not 0 <= w <= n or not 0 <= w_prime <= n:
        raise ValueError(
            f"need 0 <= w, w' <= n <= {MAX_QUBITS}, got w={w}, w'={w_prime}, n={n}"
        )
    return _krawtchouk_table(n)[w][w_prime]


krawtchouk.cache_clear = _krawtchouk_table.cache_clear  # type: ignore[attr-defined]
krawtchouk.cache_info = _krawtchouk_table.cache_info  # type: ignore[attr-defined]


def macwilliams_transform(enum: WeightEnumerator, group_order: int) -> WeightEnumerator:
    """Apply the quaternary MacWilliams transform and divide by ``group_order``.

    ``enum`` should be the weight distribution of a group of order
    ``group_order`` (the divisor is passed explicitly to keep this a pure
    arithmetic map); the result is then the distribution of its symplectic
    orthogonal.  Raises ``ValueError`` when n exceeds ``MAX_QUBITS`` or the
    order is below 1 or does not match the coefficient sum, and
    :class:`InconsistencyError` when some transformed coefficient is not a
    nonnegative integer, which proves the input was not a subgroup's weight
    distribution.  The order is an argument rather than the coefficient sum
    because a mutated distribution can pass every other check at its own
    sum: (2, 0, 0, 0), the trivial group's on three qubits with one added at
    weight 0, transforms at order 2 to (1, 9, 27, 27), exactly the trivial
    group's orthogonal.  The order is taken by ``operator.index``.
    """
    group_order = index(group_order)
    if enum.n > MAX_QUBITS:
        raise ValueError(f"need n <= {MAX_QUBITS}, got n={enum.n}")
    if group_order < 1:
        raise ValueError(f"group order must be at least 1, got {group_order}")
    if group_order != enum.order:
        raise ValueError(
            f"group order {group_order} does not match coefficient sum {enum.order}"
        )
    n = enum.n
    out = []
    for w, row in enumerate(_krawtchouk_table(n)):
        total = sum(map(mul, row, enum.coeffs))
        q, rem = divmod(total, group_order)
        if rem or q < 0:
            raise InconsistencyError(
                f"transformed coefficient at weight {w} is {total}/{group_order}, "
                "not a nonnegative integer"
            )
        out.append(q)
    # n + 1 quotients, each checked a nonnegative Python int above
    return _unchecked(WeightEnumerator, n=n, coeffs=tuple(out))


def verify_macwilliams(group: PauliGroup, budget_log2: int | None = None) -> bool:
    """Check the MacWilliams identity for ``group`` against its orthogonal.

    Enumerates both groups exactly and compares the transform of the
    orthogonal's distribution with the direct one, coefficient by coefficient.
    """
    from .pauli import orthogonal_group

    ortho = orthogonal_group(group)
    _check_budget(group.rank, budget_log2)
    _check_budget(ortho.rank, budget_log2)
    return _identity(group, ortho, budget_log2).holds


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
    return (
        _identity(normalizer, stab, budget_log2),
        _identity(iso, combined, budget_log2),
    )


def _identity(
    group: PauliGroup, partner: PauliGroup, budget_log2: int | None
) -> IdentityCheck:
    """The MacWilliams identity between ``group`` and its symplectic
    orthogonal ``partner``: the count of ``group`` against the transform of
    the count of ``partner``."""
    return IdentityCheck(
        direct=weight_enumerator(group, budget_log2),
        transformed=macwilliams_transform(
            weight_enumerator(partner, budget_log2), partner.order
        ),
    )
