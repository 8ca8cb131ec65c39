"""Bit-packed n-qubit Pauli operators and GF(2) symplectic linear algebra.

Phases are ignored throughout: an n-qubit Pauli operator is a pair of bit
vectors (u, v) packed into Python integers, where bit i of u means an X factor
on qubit i and bit i of v means a Z factor (both set = Y).  Multiplication is
componentwise XOR, so the phase-free Pauli group on n qubits is the vector
space GF(2)^(2n).

Row vectors used by the linear algebra here pack an operator as ``u | (v << n)``:
column c < n is the X bit of qubit c and column n + c is the Z bit.  Echelon
forms always process columns in that fixed order, so canonical generator
matrices are unique per group.  A :class:`PauliGroup` stores only ``n`` and
that reduced row-echelon basis of packed rows; its operators, rank and order
are derived from the rows.

Two operators commute iff their symplectic inner product

    <a, b> = a.u . b.v + b.u . a.v   (mod 2)

vanishes.  The form is alternating (<a, a> = 0) and bilinear.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import index
from typing import Iterable, TypeVar

from .errors import DimensionError

MAX_QUBITS = 64

_T = TypeVar("_T")

_CHAR_TO_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_TO_CHAR = {v: k for k, v in _CHAR_TO_BITS.items()}


def _unchecked(cls: type[_T], **fields: object) -> _T:
    """An instance of the frozen dataclass ``cls`` with ``fields`` as its
    attributes, skipping its constructor's checks: every derived value, from
    operator products to the codes that ``dual`` and ``from_generators``
    derive, is built here.  Each call site states why its fields are valid."""
    obj = object.__new__(cls)
    vars(obj).update(fields)
    return obj


def _check_qubit_count(n: int) -> None:
    """Reject a qubit count outside 1..MAX_QUBITS with ``DimensionError``."""
    if not 1 <= n <= MAX_QUBITS:
        raise DimensionError(f"qubit count must be in 1..{MAX_QUBITS}, got {n}")


@dataclass(frozen=True)
class PauliOperator:
    """A phase-free Pauli operator on ``n`` qubits.

    ``u`` holds the X bits and ``v`` the Z bits, one bit per qubit, qubit 0 in
    the least significant position.  The fields are stored as Python ints:
    any integer, numpy's included, is taken by its ``operator.index`` value,
    and anything else raises ``TypeError``.
    """

    n: int
    u: int
    v: int

    def __post_init__(self) -> None:
        n, u, v = index(self.n), index(self.u), index(self.v)
        vars(self).update(n=n, u=u, v=v)
        _check_qubit_count(n)
        mask = (1 << n) - 1
        if not 0 <= u <= mask or not 0 <= v <= mask:
            raise DimensionError(f"bit vectors out of range for n={n}")

    @classmethod
    def identity(cls, n: int) -> "PauliOperator":
        return cls(n, 0, 0)

    @classmethod
    def from_string(cls, text: str) -> "PauliOperator":
        """Parse a string of I/X/Y/Z characters, qubit 0 first."""
        if not text:
            raise DimensionError("empty Pauli string")
        u = v = 0
        for i, ch in enumerate(text):
            try:
                ub, vb = _CHAR_TO_BITS[ch]
            except KeyError:
                raise DimensionError(f"invalid Pauli character {ch!r} at position {i}") from None
            u |= ub << i
            v |= vb << i
        return cls(len(text), u, v)

    def __str__(self) -> str:
        return "".join(
            _BITS_TO_CHAR[(self.u >> i) & 1, (self.v >> i) & 1] for i in range(self.n)
        )

    def __repr__(self) -> str:
        return f"PauliOperator({str(self)!r})"

    def __mul__(self, other: "PauliOperator") -> "PauliOperator":
        if self.n != other.n:
            raise DimensionError(f"cannot multiply operators on {self.n} and {other.n} qubits")
        # the XOR of two checked operators on the same n qubits stays in range
        return _unchecked(PauliOperator, n=self.n, u=self.u ^ other.u, v=self.v ^ other.v)

    @property
    def weight(self) -> int:
        """Number of qubits acted on by a non-identity factor."""
        return (self.u | self.v).bit_count()

    @property
    def is_identity(self) -> bool:
        return self.u == 0 and self.v == 0


def symplectic_product(a: PauliOperator, b: PauliOperator) -> int:
    """Symplectic inner product: 0 when the operators commute, 1 otherwise."""
    if a.n != b.n:
        raise DimensionError(f"operands act on {a.n} and {b.n} qubits")
    return ((a.u & b.v) ^ (b.u & a.v)).bit_count() & 1


# ---------------------------------------------------------------------------
# packed row vectors


def _vec(op: PauliOperator) -> int:
    return op.u | (op.v << op.n)


def _op(n: int, vec: int) -> PauliOperator:
    """The operator of the packed row ``vec``, without the constructor's checks.

    Every caller passes a row of a :class:`PauliGroup` on n qubits or an XOR
    of such rows.  The group checked n against 1..MAX_QUBITS and each row
    against [0, 4^n), and XOR stays in that range, so ``vec & mask`` and
    ``vec >> n`` are Python ints in [0, 2^n).
    """
    return _unchecked(PauliOperator, n=n, u=vec & ((1 << n) - 1), v=vec >> n)


def _swap_halves(vec: int, n: int) -> int:
    """Exchange the u and v halves, turning the symplectic form into a dot product."""
    mask = (1 << n) - 1
    return ((vec & mask) << n) | (vec >> n)


def _lsb(x: int) -> int:
    return (x & -x).bit_length() - 1


def _echelon(vectors: Iterable[int], cols: int) -> tuple[list[int], list[int]]:
    """GF(2) elimination of ``vectors``, in order, on the columns ``cols`` (-1: all).

    Returns ``(kept, vanished)``: the reduced rows independent of the earlier
    ones on ``cols``, in input order, and the reduced rows zero there.
    Together they are a basis of the span, and ``vanished`` is a basis of its
    intersection with the vectors zero on ``cols``.  A kept row's pivot is its
    lowest bit in ``cols``, so clearing a row's pivot bits lowest first ends.
    """
    kept: dict[int, int] = {}  # pivot bit -> row, in insertion order
    pivots = 0  # mask of the pivot bits
    vanished = []
    for vec in vectors:
        while hit := vec & pivots:
            vec ^= kept[hit & -hit]
        if low := vec & cols:
            low &= -low
            kept[low] = vec
            pivots |= low
        else:
            vanished.append(vec)
    return list(kept.values()), vanished


def _rref(vectors: Iterable[int]) -> list[int]:
    """Reduced row-echelon basis of the span, rows sorted by pivot column.

    The rows :func:`_echelon` keeps on every column have distinct lowest
    bits, their pivots.  One back-substitution, from the highest pivot down,
    then clears every pivot column above its own row.
    """
    rows = {row & -row: row for row in _echelon(vectors, -1)[0]}  # pivot bit -> row
    pivots = sum(rows)  # distinct bits, so their sum is their union
    for p in sorted(rows, reverse=True):
        row = rows[p]
        hit = (row & pivots) ^ p  # pivots above p, whose rows are reduced
        while hit:
            low = hit & -hit
            row ^= rows[low]
            hit ^= low
        rows[p] = row
    return [rows[p] for p in sorted(rows)]


@dataclass(frozen=True)
class PauliGroup:
    """A subgroup of the phase-free Pauli group, stored by its canonical basis.

    ``rows`` is the reduced row-echelon basis of the subgroup as a GF(2) row
    space of packed ``u | (v << n)`` vectors (columns ordered u bits then v
    bits).  The constructor reduces whatever rows it is given, so dependent or
    unreduced rows are accepted and two equal subgroups always compare equal
    structurally.  The generators as operators, the rank and the order are
    derived from ``rows``.  Use :func:`canonicalize` to build one from
    operators.  As in :class:`PauliOperator`, ``n`` and the rows are taken
    by their ``operator.index`` values.
    """

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        n, rows = index(self.n), tuple(map(index, self.rows))
        _check_qubit_count(n)
        limit = 1 << (2 * n)
        for row in rows:
            if not 0 <= row < limit:
                raise DimensionError(f"row {row} out of range for n={n}")
        vars(self).update(n=n, rows=tuple(_rref(rows)))

    @cached_property
    def generators(self) -> tuple[PauliOperator, ...]:
        return tuple(_op(self.n, r) for r in self.rows)

    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def order(self) -> int:
        return 1 << self.rank

    def contains(self, op: PauliOperator) -> bool:
        """Whether ``op`` is in the group: its row vanishes against the basis."""
        if op.n != self.n:
            raise DimensionError(f"operator on {op.n} qubits, group on {self.n}")
        return bool(_echelon((*self.rows, _vec(op)), -1)[1])

    def __contains__(self, op: PauliOperator) -> bool:
        return self.contains(op)


def canonicalize(generators: Iterable[PauliOperator], n: int | None = None) -> PauliGroup:
    """Build the subgroup generated by ``generators`` in canonical form.

    Dependent generators are dropped.  ``n`` is required when the generator
    list is empty and must otherwise agree with the operators.
    """
    ops = list(generators)
    if n is None:
        if not ops:
            raise DimensionError("qubit count required for an empty generator list")
        n = ops[0].n
    rows = []
    for g in ops:
        if g.n != n:
            raise DimensionError(f"generator on {g.n} qubits, expected {n}")
        rows.append(g.u | (g.v << n))
    return PauliGroup(n, tuple(rows))


def orthogonal_group(group: PauliGroup) -> PauliGroup:
    """The set of operators commuting with every element of ``group``.

    Ranks are complementary: rank + orthogonal rank = 2n.  Computed as one
    elimination: row j holds the unit vector e_j shifted up by the rank r
    and, in its low r bits, its syndrome, whose bit i is <e_j, g_i> for the
    canonical generator g_i, that is bit j of g_i with its halves swapped.
    The rows whose syndromes vanish under :func:`_echelon` on the low r
    columns, shifted back down, are a basis of the orthogonal group.
    """
    n = group.n
    rank = group.rank
    rows = [1 << (j + rank) for j in range(2 * n)]
    for i, g in enumerate(group.rows):
        bits = _swap_halves(g, n)
        while bits:
            rows[_lsb(bits)] |= 1 << i
            bits &= bits - 1
    vanished = _echelon(rows, (1 << rank) - 1)[1]
    return PauliGroup(n, tuple(row >> rank for row in vanished))


def symplectic_gram_schmidt(
    group: PauliGroup,
) -> tuple[tuple[tuple[PauliOperator, PauliOperator], ...], tuple[PauliOperator, ...]]:
    """Split a group into hyperbolic pairs and an isotropic remainder.

    Scans the canonical generators left to right.  The first later generator
    anticommuting with the current one becomes its partner; the pair is then
    eliminated from every remaining generator, so the remainder commutes with
    both.  Generators that never find a partner commute with everything kept
    and form the isotropic part.  With c pairs and s isotropic generators,
    2c + s equals the rank, and the output spans the original group.  The
    scan runs on packed rows, the parity of ``a & swapped(b)`` being <a, b>;
    every row it keeps is an XOR of the group's rows, so :func:`_op` builds
    the operators at the end.
    """
    n = group.n
    work = list(group.rows)
    pairs: list[tuple[int, int]] = []
    isotropic: list[int] = []
    while work:
        g = work.pop(0)
        g_sw = _swap_halves(g, n)
        for i, h in enumerate(work):
            if (h & g_sw).bit_count() & 1:
                break
        else:
            isotropic.append(g)
            continue
        h = work.pop(i)
        h_sw = _swap_halves(h, n)
        work = [
            e ^ (g if (e & h_sw).bit_count() & 1 else 0) ^ (h if (e & g_sw).bit_count() & 1 else 0)
            for e in work
        ]
        pairs.append((g, h))
    return (
        tuple((_op(n, g), _op(n, h)) for g, h in pairs),
        tuple(_op(n, g) for g in isotropic),
    )
