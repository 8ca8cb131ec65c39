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
from typing import Iterable, Iterator, Sequence

from .errors import DimensionError

MAX_QUBITS = 64

_CHAR_TO_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_TO_CHAR = {v: k for k, v in _CHAR_TO_BITS.items()}


@dataclass(frozen=True)
class PauliOperator:
    """A phase-free Pauli operator on ``n`` qubits.

    ``u`` holds the X bits and ``v`` the Z bits, one bit per qubit, qubit 0 in
    the least significant position.
    """

    n: int
    u: int
    v: int

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_QUBITS:
            raise DimensionError(f"qubit count must be in 1..{MAX_QUBITS}, got {self.n}")
        mask = (1 << self.n) - 1
        if not 0 <= self.u <= mask or not 0 <= self.v <= mask:
            raise DimensionError(f"bit vectors out of range for n={self.n}")

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
        return PauliOperator(self.n, self.u ^ other.u, self.v ^ other.v)

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
    mask = (1 << n) - 1
    return PauliOperator(n, vec & mask, vec >> n)


def _swap_halves(vec: int, n: int) -> int:
    """Exchange the u and v halves, turning the symplectic form into a dot product."""
    mask = (1 << n) - 1
    return ((vec & mask) << n) | (vec >> n)


def _vec_product(a: int, b_swapped: int) -> int:
    return (a & b_swapped).bit_count() & 1


def _lsb(x: int) -> int:
    return (x & -x).bit_length() - 1


def _rref(vectors: Iterable[int]) -> list[int]:
    """Reduced row-echelon basis of the span, rows sorted by pivot column."""
    basis: list[tuple[int, int]] = []  # (pivot column, row), kept fully reduced
    for vec in vectors:
        for p, row in basis:
            if (vec >> p) & 1:
                vec ^= row
        if vec == 0:
            continue
        p = _lsb(vec)
        basis = [(q, row ^ vec if (row >> p) & 1 else row) for q, row in basis]
        basis.append((p, vec))
        basis.sort()
    return [row for _, row in basis]


def _reduce(vec: int, basis: Sequence[int]) -> int:
    """Reduce ``vec`` against RREF ``basis``; zero result means membership."""
    for row in basis:
        if (vec >> _lsb(row)) & 1:
            vec ^= row
    return vec


@dataclass(frozen=True)
class PauliGroup:
    """A subgroup of the phase-free Pauli group, stored by its canonical basis.

    ``rows`` is the reduced row-echelon basis of the subgroup as a GF(2) row
    space of packed ``u | (v << n)`` vectors (columns ordered u bits then v
    bits).  The constructor reduces whatever rows it is given, so dependent or
    unreduced rows are accepted and two equal subgroups always compare equal
    structurally.  The generators as operators, the rank and the order are
    derived from ``rows``.  Use :func:`canonicalize` to build one from
    operators.
    """

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_QUBITS:
            raise DimensionError(f"qubit count must be in 1..{MAX_QUBITS}, got {self.n}")
        rows = tuple(self.rows)
        limit = 1 << (2 * self.n)
        for row in rows:
            if not 0 <= row < limit:
                raise DimensionError(f"row {row} out of range for n={self.n}")
        object.__setattr__(self, "rows", tuple(_rref(rows)))

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
        if op.n != self.n:
            raise DimensionError(f"operator on {op.n} qubits, group on {self.n}")
        return _reduce(_vec(op), self.rows) == 0

    def __contains__(self, op: PauliOperator) -> bool:
        return self.contains(op)

    def elements(self) -> Iterator[PauliOperator]:
        """Iterate all 2**rank elements (intended for small groups)."""
        acc = 0
        yield _op(self.n, 0)
        for i in range(1, 1 << self.rank):
            acc ^= self.rows[_lsb(i)]
            yield _op(self.n, acc)


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
    for g in ops:
        if g.n != n:
            raise DimensionError(f"generator on {g.n} qubits, expected {n}")
    return PauliGroup(n, tuple(_vec(g) for g in ops))


def orthogonal_group(group: PauliGroup) -> PauliGroup:
    """The set of operators commuting with every element of ``group``.

    Ranks are complementary: rank + orthogonal rank = 2n.  Computed as the
    GF(2) nullspace of the generator matrix with u/v halves swapped.
    """
    n = group.n
    ncols = 2 * n
    rows = _rref(_swap_halves(v, n) for v in group.rows)
    pivots = {_lsb(r) for r in rows}
    kernel = []
    for col in range(ncols):
        if col in pivots:
            continue
        vec = 1 << col
        for r in rows:
            if (r >> col) & 1:
                vec |= 1 << _lsb(r)
        kernel.append(vec)
    return PauliGroup(n, tuple(kernel))


def symplectic_gram_schmidt(
    group: PauliGroup,
) -> tuple[tuple[tuple[PauliOperator, PauliOperator], ...], tuple[PauliOperator, ...]]:
    """Split a group into hyperbolic pairs and an isotropic remainder.

    Scans the canonical generators left to right.  The first later generator
    anticommuting with the current one becomes its partner; the pair is then
    eliminated from every remaining generator, so the remainder commutes with
    both.  Generators that never find a partner commute with everything kept
    and form the isotropic part.  With c pairs and s isotropic generators,
    2c + s equals the rank, and the output spans the original group.
    """
    n = group.n
    work = list(group.rows)
    swapped = [_swap_halves(v, n) for v in work]
    pairs: list[tuple[PauliOperator, PauliOperator]] = []
    isotropic: list[PauliOperator] = []
    while work:
        g = work.pop(0)
        g_sw = swapped.pop(0)
        partner = None
        for i, h in enumerate(work):
            if _vec_product(h, g_sw):
                partner = i
                break
        if partner is None:
            isotropic.append(_op(n, g))
            continue
        h = work.pop(partner)
        h_sw = swapped.pop(partner)
        for i, e in enumerate(work):
            e ^= g * _vec_product(e, h_sw) ^ h * _vec_product(e, g_sw)
            work[i] = e
            swapped[i] = _swap_halves(e, n)
        pairs.append((_op(n, g), _op(n, h)))
    return tuple(pairs), tuple(isotropic)
