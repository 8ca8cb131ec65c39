"""Linear-programming distance bounds for entanglement-assisted codes.

For an [[n, k, d; c]] code let S be the weight distribution of the
stabilizer S_S x S_I, of order |S| = 2^(n-k+c), and C that of the combined
group L x S_S x S_I, of order |C| = 2^(n+k+c).  Their symplectic complements
are the normalizer L x S_I and the isotropic subgroup S_I, and the
MacWilliams identities give those distributions N and I as

    |S| N_w = sum_w' K_w(w', n) S_w',    |C| I_w = sum_w' K_w(w', n) C_w'

with K the quaternary Krawtchouk polynomials.  Every normalizer element of
weight below d lies in S_I, so a code of distance d has N_w = I_w for
1 <= w < d.  If no nonnegative real distributions satisfy that for a trial
distance d, no such code exists; the smallest infeasible d minus one is an
upper bound on the achievable distance.  Adding a trial constraint only
shrinks the feasible set, so a single ascending scan locates the threshold.

The systems carry the free variables only.  Leading coefficients are 1 and
are substituted in, and N and I are linear in S and C, so they enter as rows
(through :func:`_dual_form`) rather than as variables:

- at maximal entanglement (c = n - k) S_I is trivial, C is the whole Pauli
  group and N is the logical distribution B; :func:`_maximal_rows` solves
  for A_1..A_n, the stabilizer distribution, in n + 1 rows;
- for 0 < c < n - k, :func:`_general_rows` solves for S_1..S_n and C_1..C_n
  in 5n + 2 rows.

Each docstring says why the rows it leaves out are implied.

Everything is solved exactly, in integers: a phase-one simplex with Bland's
rule and fraction-free pivoting (Edmonds, J. Res. NBS 71B, 1967; the scheme
of Avis's lrs), described at :func:`_solve_feasibility`.  Verdicts carry no
floating-point caveats, and a feasible point is the same rational vertex a
``fractions.Fraction`` tableau reaches.  The rational relaxation is sound for
upper bounds: any true code gives an integer solution.

:func:`build_table` assembles the full bounds grid: upper bounds from the LP
scan plus the even-n overrides, lower bounds from the code registry closed
under the two extension rules.
"""

from __future__ import annotations

import operator
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cached_property
from typing import Literal, Sequence

from .codes import registry
from .enumerator import krawtchouk
from .errors import BudgetError, EaqecError

Sense = Literal["<=", "=", ">="]
Row = tuple[Sequence[int], Sense, int]

_SIMPLEX_ITERATION_CAP = 1_000_000

def _solve_feasibility(num_vars: int, rows: Sequence[Row]) -> list[Fraction] | None:
    """Exact phase-one simplex: a nonnegative rational point satisfying all
    rows, or None when the system is infeasible.

    Coefficients and right-hand sides must be integers; anything else raises
    ``TypeError`` rather than being rounded.  The tableau is a matrix T of
    integers over a common denominator ``det``, the last pivot (1 at the
    start): the true tableau is T / det.  A pivot on p = T[r][e] keeps row r
    and maps every other row, the objective included, to
    ``(x * p - f * y) // det``, where f is that row's entry in column e and y
    the pivot row's entry; then ``det = p``.  The division is exact because
    every entry of T is a minor of the initial matrix, and det stays positive
    because the ratio test only picks positive pivots, so every sign the
    pivot rules read is the sign of the true tableau entry.  The ratio test
    compares r_i / a_i by cross-multiplying.

    Bland's smallest-index rule for both the entering column and ratio-test
    ties guarantees termination; artificial columns never re-enter.  The
    search stops as soon as the artificial objective reaches zero.
    """
    # Normalize to nonnegative right-hand sides.
    norm: list[tuple[list[int], str, int]] = []
    for coeffs, sense, rhs in rows:
        dense = [operator.index(c) for c in coeffs]
        rhs = operator.index(rhs)
        if rhs < 0:
            dense = [-c for c in dense]
            rhs = -rhs
            sense = {"<=": ">=", ">=": "<=", "=": "="}[sense]
        norm.append((dense, sense, rhs))

    n_ineq = sum(1 for _, sense, _ in norm if sense != "=")
    art_start = num_vars + n_ineq

    # Artificial columns are numbered from art_start but not stored: they
    # never re-enter, so no pivot rule reads them.
    tableau: list[list[int]] = []
    basis: list[int] = []
    slack_at = num_vars
    art_at = art_start
    for dense, sense, rhs in norm:
        row = dense + [0] * n_ineq + [rhs]
        if sense != "=":
            row[slack_at] = 1 if sense == "<=" else -1
            if sense == "<=":
                basis.append(slack_at)
            slack_at += 1
        if sense != "<=":
            basis.append(art_at)
            art_at += 1
        tableau.append(row)

    # Phase-one objective: minimize the sum of artificials.  The objective row
    # holds reduced costs; its last entry is minus the current objective value.
    obj = [0] * (art_start + 1)
    for i, b in enumerate(basis):
        if b >= art_start:
            row = tableau[i]
            for j in range(art_start):
                obj[j] -= row[j]
            obj[-1] -= row[-1]

    det = 1
    if obj[-1] == 0:
        return _extract_point(num_vars, tableau, basis, det)

    for _ in range(_SIMPLEX_ITERATION_CAP):
        enter = next((j for j in range(art_start) if obj[j] < 0), -1)
        if enter < 0:
            return None if obj[-1] else _extract_point(num_vars, tableau, basis, det)
        pivot_row = -1
        for i, row in enumerate(tableau):
            a = row[enter]
            if a > 0:
                if pivot_row < 0:
                    pivot_row = i
                    continue
                best = tableau[pivot_row]
                lhs = row[-1] * best[enter]
                rhs = best[-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[pivot_row]):
                    pivot_row = i
        if pivot_row < 0:
            raise EaqecError(
                "exact simplex found no positive entry in an entering column; a "
                "sum of nonnegative artificials cannot be unbounded below"
            )
        prow = tableau[pivot_row]
        piv = prow[enter]
        for i, row in enumerate(tableau):
            if i != pivot_row:
                tableau[i] = _eliminate(row, prow, piv, det, enter)
        obj = _eliminate(obj, prow, piv, det, enter)
        det = piv
        basis[pivot_row] = enter
        if obj[-1] == 0:
            return _extract_point(num_vars, tableau, basis, det)
    raise BudgetError(f"exact simplex exceeded {_SIMPLEX_ITERATION_CAP} pivots")


def _eliminate(row: list[int], prow: list[int], piv: int, det: int, enter: int) -> list[int]:
    """One fraction-free update of ``row`` against the pivot row."""
    f = row[enter]
    if f:
        return [(x * piv - f * y) // det for x, y in zip(row, prow)]
    if piv == det:
        return row
    return [x * piv // det for x in row]


def _extract_point(
    num_vars: int, tableau: list[list[int]], basis: list[int], det: int
) -> list[Fraction]:
    point = [Fraction(0)] * num_vars
    for i, b in enumerate(basis):
        if b < num_vars:
            point[b] = Fraction(tableau[i][-1], det)
    return point


def _dual_form(n: int, w: int) -> tuple[list[int], int]:
    """The weight-w transform of a distribution X with X_0 = 1, as the pair
    (coefficients of X_1..X_n, constant K_w(0)).

    For X the distribution of a group V, the value is |V| Y_w with Y the
    distribution of V's symplectic complement.
    """
    return [krawtchouk(w, wp, n) for wp in range(1, n + 1)], krawtchouk(w, 0, n)


# ---------------------------------------------------------------------------
# the two systems: maximal entanglement, and 0 < c < n - k


def _maximal_rows(n: int, k: int, d: int) -> list[Row]:
    """The feasibility system for a trial distance d at maximal entanglement.

    The variables are A_1..A_n, the stabilizer distribution with A_0 = 1
    substituted in.  The logical distribution B is the linear form
    4^(n-k) B_w = K_w(0) + sum_w' K_w(w') A_w'.  The n + 1 rows are

        sum_{w>=1} A_w = 4^(n-k) - 1
        4^(n-k) B_w = 0  for 1 <= w < d,   >= 0  for d <= w <= n

    and the simplex keeps A >= 0.  The other constraints on the two
    distributions are implied, because sum_w K_w(w') = 4^n [w' = 0]:
    K_0(w') = 1 turns the sum row into B_0 = 1, and summing the forms over w
    leaves 4^n A_0, so sum_w B_w = 4^k.  Each cap A_w <= 4^(n-k) and
    B_w <= 4^k then follows from its sum and nonnegativity.  c is pinned to
    n - k.
    """
    rows: list[Row] = [([1] * n, "=", 4 ** (n - k) - 1)]
    for w in range(1, n + 1):
        coeffs, const = _dual_form(n, w)
        rows.append((coeffs, "=" if w < d else ">=", -const))
    return rows


def _general_rows(n: int, k: int, c: int, d: int) -> list[Row]:
    """The partial-entanglement system over S_1..S_n then C_1..C_n.

    S_0 = C_0 = 1 are substituted in, and the complement distributions are
    the forms |S| N_w = K_w(0) + sum_w' K_w(w') S_w' and likewise |C| I_w
    from C.  The rows are the two sums and, for each w = 1..n, five more:

        sum_{w>=1} S_w = |S| - 1,   sum_{w>=1} C_w = |C| - 1
        I_w >= 0
        N_w - I_w = 0  for w < d,   >= 0  from d on
        C_w >= N_w,   S_w >= I_w,   C_w >= S_w

    each multiplied through to integers using |C| / |S| = 4^k; the last
    three are the coefficientwise dominance of nested groups.  The rest of
    the four-block system is implied, by the argument at
    :func:`_maximal_rows`: the forms give N_0 = I_0 = 1 and the sums of N and
    I, N >= 0 follows from N >= I >= 0, every cap from its sum and
    nonnegativity, and dominance at w = 0 reads 1 >= 1.
    """
    stab_order = 1 << (n - k + c)
    comb_order = 1 << (n + k + c)
    scale = comb_order // stab_order  # 4^k
    zeros = [0] * n
    forms = [_dual_form(n, w) for w in range(1, n + 1)]
    rows: list[Row] = [
        ([1] * n + zeros, "=", stab_order - 1),
        (zeros + [1] * n, "=", comb_order - 1),
    ]
    for coeffs, const in forms:  # |C| I_w
        rows.append((zeros + coeffs, ">=", -const))
    for w, (coeffs, const) in enumerate(forms, 1):  # |C| (N_w - I_w)
        row = [scale * x for x in coeffs] + [-x for x in coeffs]
        rows.append((row, "=" if w < d else ">=", const - scale * const))
    for w, (coeffs, const) in enumerate(forms, 1):
        neg = [-x for x in coeffs]
        row = neg + zeros  # |S| (C_w - N_w)
        row[n + w - 1] = stab_order
        rows.append((row, ">=", const))
        row = zeros + neg  # |C| (S_w - I_w)
        row[w - 1] = comb_order
        rows.append((row, ">=", const))
        row = [0] * (2 * n)  # C_w - S_w
        row[w - 1], row[n + w - 1] = -1, 1
        rows.append((row, ">=", 0))
    return rows


# ---------------------------------------------------------------------------
# feasibility, the bound scan and the overrides


def lp_feasible(n: int, k: int, d: int) -> bool:
    """Whether the rational relaxation for trial distance d has a solution
    (see :func:`_maximal_rows`).

    A False verdict proves no [[n, k, d; n-k]] code exists.
    """
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    if not 1 <= d <= n:
        raise ValueError(f"need 1 <= d <= n, got d={d}")
    return _solve_feasibility(n, _maximal_rows(n, k, d)) is not None


def lp_feasible_general(n: int, k: int, c: int, d: int) -> bool:
    """Feasibility for partial entanglement, over the stabilizer and combined
    distributions (see :func:`_general_rows`).

    The normalizer and isotropic distributions are their transforms; the
    distance condition pins the two together below the trial distance, and
    subgroup containment adds coefficientwise dominance between nested
    groups.  At c = n - k the isotropic group is trivial and the system
    degenerates to :func:`lp_feasible`, which is used directly.
    """
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    if not 0 < c <= n - k:
        raise ValueError(f"need 0 < c <= n - k, got c={c}")
    if not 1 <= d <= n:
        raise ValueError(f"need 1 <= d <= n, got d={d}")
    if c == n - k:
        return lp_feasible(n, k, d)
    return _solve_feasibility(2 * n, _general_rows(n, k, c, d)) is not None


def lp_upper_bound(n: int, k: int, c: int | None = None) -> int:
    """Largest d not excluded: the smallest infeasible trial distance minus 1.

    Scans d = 1, 2, ... with :func:`lp_feasible_general` (adding a trial
    constraint only shrinks the feasible region, so the first infeasible d
    settles the rest) and returns n if every trial distance up to n stays
    feasible.  ``c`` defaults to maximal entanglement n - k.
    """
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    if c is None:
        c = n - k
    for d in range(1, n + 1):
        if not lp_feasible_general(n, k, c, d):
            return d - 1
    return n


def apply_overrides(n: int, k: int, lp_bound: int) -> int:
    """Cap an LP upper bound with the known nonexistence results.

    Codes meeting d = n at k = 1 and d = 2 at k = n - 1 exist only for odd n,
    so even-n bounds in those columns cap at n - 1 and 1; every bound also
    caps at n trivially.

    Proof of the two caps.  Two single-qubit Paulis that are both
    non-identity and differ anticommute, so two n-qubit Paulis that are
    non-identity and differ on every qubit have symplectic product n mod 2.
    A symplectic pair needs product 1, so such a pair forces odd n.

    - k = 1, d = n: S_I is trivial, so the three non-identity logicals a, b
      and ab all have full weight.  Then a and b are non-identity on every
      qubit, and differ there because ab is non-identity too.
    - k = n - 1, d = 2: the stabilizer is one symplectic pair g, h, and every
      weight-1 Pauli must anticommute with g or h.  On each qubit the linear
      map P -> (<P, g>, <P, h>) then sends X, Y and Z to nonzero values, so
      it is injective, which needs g and h non-identity and different there.
    """
    bound = min(lp_bound, n)
    if k == 1 and n % 2 == 0:
        bound = min(bound, n - 1)
    if k == n - 1 and n % 2 == 0:
        bound = min(bound, 1)
    return bound


# ---------------------------------------------------------------------------
# bounds table


@dataclass(frozen=True)
class BoundsCell:
    n: int
    k: int
    lower: int
    upper: int
    lower_source: str  # registry | extension | trivial
    upper_source: str  # lp | override | trivial


@dataclass(frozen=True)
class BoundsTable:
    """Distance bounds for every maximal-entanglement cell 1 <= k < n <= n_max."""

    n_max: int
    cells: tuple[BoundsCell, ...]

    @cached_property
    def _by_cell(self) -> dict[tuple[int, int], BoundsCell]:
        return {(cell.n, cell.k): cell for cell in self.cells}

    def cell(self, n: int, k: int) -> BoundsCell:
        return self._by_cell[(n, k)]

    def to_text(self) -> str:
        lines: list[str] = []
        for block_start in range(1, self.n_max, 7):
            ks = list(range(block_start, min(block_start + 7, self.n_max)))
            if lines:
                lines.append("")
            lines.append("n\\k " + "".join(f"{k:>6}" for k in ks))
            for n in range(block_start + 1, self.n_max + 1):
                row = [f"{n:>3} "]
                for k in ks:
                    if k < n:
                        cell = self.cell(n, k)
                        text = (
                            str(cell.lower)
                            if cell.lower == cell.upper
                            else f"{cell.lower}-{cell.upper}"
                        )
                    else:
                        text = ""
                    row.append(f"{text:>6}")
                lines.append("".join(row).rstrip())
        lines.append("")
        lines.append("provenance:")
        for cell in self.cells:
            lines.append(
                f"  n={cell.n} k={cell.k} lower={cell.lower}({cell.lower_source})"
                f" upper={cell.upper}({cell.upper_source})"
            )
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {"n_max": self.n_max, "cells": [asdict(cell) for cell in self.cells]}


def _registry_lower_bounds(n_max: int) -> dict[tuple[int, int], tuple[int, str]]:
    """Best registry distance per maximal-entanglement cell, then the closure
    under lengthening (n-1, k) -> (n, k) and trading (n, k+1) -> (n, k)."""
    best: dict[tuple[int, int], tuple[int, str]] = {}
    for entry in registry():
        if entry.n > n_max or entry.k >= entry.n:
            continue
        if not entry.is_maximal_entanglement:
            continue  # the extension rules preserve n - k - c, so only
            # maximal-entanglement seeds can reach maximal-entanglement cells
        cur = best.get((entry.n, entry.k))
        if cur is None or entry.d > cur[0]:
            best[(entry.n, entry.k)] = (entry.d, "registry")
    out: dict[tuple[int, int], tuple[int, str]] = {}
    for n in range(2, n_max + 1):
        for k in range(n - 1, 0, -1):
            value, source = 1, "trivial"
            seeded = best.get((n, k))
            if seeded and seeded[0] > value:
                value, source = seeded[0], "registry"
            for derived in (out.get((n - 1, k)), out.get((n, k + 1))):
                if derived and derived[0] > value:
                    value, source = derived[0], "extension"
            out[(n, k)] = (value, source)
    return out


def build_table(n_max: int) -> BoundsTable:
    """Assemble the bounds grid for all cells 1 <= k < n <= n_max.

    Upper bounds: one LP scan per cell, capped by :func:`apply_overrides`.  A
    scan that never hits infeasibility proves nothing, so its d <= n result is
    tagged trivial.  Lower bounds: the registry closed under the extension
    rules, defaulting to the always-achievable d = 1.
    """
    if n_max < 2:
        raise ValueError(f"need n_max >= 2, got {n_max}")
    lower = _registry_lower_bounds(n_max)
    cells = []
    for n in range(2, n_max + 1):
        for k in range(1, n):
            lp = lp_upper_bound(n, k)
            upper = apply_overrides(n, k, lp)
            if upper < lp:
                upper_source = "override"
            elif upper == n:
                upper_source = "trivial"
            else:
                upper_source = "lp"
            low, low_source = lower[(n, k)]
            cells.append(BoundsCell(n, k, low, upper, low_source, upper_source))
    return BoundsTable(n_max, tuple(cells))
