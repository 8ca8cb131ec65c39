"""Linear-programming distance bounds for maximal-entanglement codes.

For an [[n, k, d; n-k]] code the isotropic subgroup is trivial, the distance
is the minimum weight over the nonidentity logical group elements, and the two
weight distributions (A for the stabilizer side, B for the logical side) must
satisfy, with |S_S| = 4^(n-k) and |L| = 4^k:

    A_0 = B_0 = 1
    A_w >= 0, B_w >= 0                      for w = 1..n
    A_w <= |S_S|, B_w <= |L|                for w = 1..n
    sum_w A_w = |S_S|,  sum_w B_w = |L|
    B_w = (1/|S_S|) sum_w' K_w(w', n) A_w'  for w = 0..n
    B_w = 0                                 for w = 1..d-1

If no real nonnegative solution exists for some trial distance d, no code with
that d exists; the smallest infeasible d minus one is an upper bound on the
achievable distance.  Adding a trial constraint only shrinks the feasible set,
so a single ascending scan locates the threshold.

Everything is solved in exact rational arithmetic (a phase-one simplex over
``fractions.Fraction`` with Bland's rule), so verdicts carry no floating-point
caveats.  The rational relaxation is sound for upper bounds: any true code
gives an integer solution.  A branch-and-bound search for integer solutions is
available behind a flag for instances where the relaxation is too weak.

:func:`build_table` assembles the full bounds grid: upper bounds from the LP
scan plus the even-n overrides, lower bounds from the code registry closed
under the two extension rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Literal, Sequence

from .codes import CodeRegistryEntry, registry
from .enumerator import krawtchouk
from .errors import BudgetError

Sense = Literal["<=", "=", ">="]
Row = tuple[Sequence[int], Sense, int]

DEFAULT_NODE_LIMIT = 100_000

_SIMPLEX_ITERATION_CAP = 1_000_000


def _solve_feasibility(num_vars: int, rows: Sequence[Row]) -> list[Fraction] | None:
    """Exact phase-one simplex: a nonnegative rational point satisfying all
    rows, or None when the system is infeasible.

    Bland's smallest-index rule for both the entering column and ratio-test
    ties guarantees termination; artificial columns never re-enter.  The
    search stops as soon as the artificial objective reaches zero.
    """
    zero = Fraction(0)
    one = Fraction(1)
    # Normalize to nonnegative right-hand sides.
    norm: list[tuple[list[Fraction], str, Fraction]] = []
    for coeffs, sense, rhs in rows:
        dense = [Fraction(c) for c in coeffs]
        frhs = Fraction(rhs)
        if frhs < 0:
            dense = [-c for c in dense]
            frhs = -frhs
            sense = {"<=": ">=", ">=": "<=", "=": "="}[sense]
        norm.append((dense, sense, frhs))

    n_ineq = sum(1 for _, sense, _ in norm if sense != "=")
    n_art = sum(1 for _, sense, _ in norm if sense != "<=")
    total = num_vars + n_ineq + n_art
    art_start = num_vars + n_ineq

    tableau: list[list[Fraction]] = []
    basis: list[int] = []
    slack_at = num_vars
    art_at = art_start
    for dense, sense, frhs in norm:
        row = dense + [zero] * (total - num_vars) + [frhs]
        if sense != "=":
            row[slack_at] = one if sense == "<=" else -one
            if sense == "<=":
                basis.append(slack_at)
            slack_at += 1
        if sense != "<=":
            row[art_at] = one
            basis.append(art_at)
            art_at += 1
        tableau.append(row)

    # Phase-one objective: minimize the sum of artificials.  The objective row
    # holds reduced costs; its last entry is minus the current objective value.
    obj = [zero] * (total + 1)
    for i, b in enumerate(basis):
        if b >= art_start:
            row = tableau[i]
            for j in range(total + 1):
                if j < art_start and row[j]:
                    obj[j] -= row[j]
            obj[-1] -= row[-1]

    if obj[-1] == 0:
        return _extract_point(num_vars, tableau, basis)

    for _ in range(_SIMPLEX_ITERATION_CAP):
        enter = -1
        for j in range(art_start):  # artificials never re-enter
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            return None if obj[-1] != 0 else _extract_point(num_vars, tableau, basis)
        pivot_row = -1
        best_ratio: Fraction | None = None
        for i, row in enumerate(tableau):
            a = row[enter]
            if a > 0:
                ratio = row[-1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[pivot_row])
                ):
                    best_ratio = ratio
                    pivot_row = i
        if pivot_row < 0:
            # Unbounded below cannot happen for a sum of nonnegative variables.
            return None
        prow = tableau[pivot_row]
        piv = prow[enter]
        if piv != 1:
            prow = [x / piv for x in prow]
            tableau[pivot_row] = prow
        nz = [j for j, x in enumerate(prow) if x]
        for row in tableau:
            if row is prow:
                continue
            f = row[enter]
            if f:
                for j in nz:
                    row[j] -= f * prow[j]
        f = obj[enter]
        if f:
            for j in nz:
                obj[j] -= f * prow[j]
        basis[pivot_row] = enter
        if obj[-1] == 0:
            return _extract_point(num_vars, tableau, basis)
    raise BudgetError(f"exact simplex exceeded {_SIMPLEX_ITERATION_CAP} pivots")


def _unit(num_vars: int, idx: int) -> list[int]:
    row = [0] * num_vars
    row[idx] = 1
    return row


def _extract_point(
    num_vars: int, tableau: list[list[Fraction]], basis: list[int]
) -> list[Fraction]:
    point = [Fraction(0)] * num_vars
    for i, b in enumerate(basis):
        if b < num_vars:
            point[b] = tableau[i][-1]
    return point


@dataclass(frozen=True)
class LpInstance:
    """The feasibility system for a trial distance d at maximal entanglement.

    Variables are A_0..A_n then B_0..B_n, exactly the two enumerators named in
    the constraint list; c is pinned to n - k.
    """

    n: int
    k: int
    d: int

    def __post_init__(self) -> None:
        if not 1 <= self.k < self.n:
            raise ValueError(f"need 1 <= k < n, got k={self.k}, n={self.n}")
        if not 1 <= self.d <= self.n:
            raise ValueError(f"need 1 <= d <= n, got d={self.d}")

    @property
    def c(self) -> int:
        return self.n - self.k

    @property
    def num_vars(self) -> int:
        return 2 * (self.n + 1)

    def rows(self) -> list[Row]:
        n, k, d = self.n, self.k, self.d
        stab_order = 4 ** (n - k)
        logical_order = 4**k
        a = lambda w: w
        b = lambda w: n + 1 + w
        num = self.num_vars

        rows: list[Row] = [(_unit(num, a(0)), "=", 1), (_unit(num, b(0)), "=", 1)]
        for w in range(1, n + 1):
            rows.append((_unit(num, a(w)), "<=", stab_order))
            rows.append((_unit(num, b(w)), "<=", logical_order))
        sum_a = [1] * (n + 1) + [0] * (n + 1)
        sum_b = [0] * (n + 1) + [1] * (n + 1)
        rows.append((sum_a, "=", stab_order))
        rows.append((sum_b, "=", logical_order))
        for w in range(n + 1):
            row = [0] * num
            for wp in range(n + 1):
                row[a(wp)] = krawtchouk(w, wp, n)
            row[b(w)] = -stab_order
            rows.append((row, "=", 0))
        for w in range(1, d):
            rows.append((_unit(num, b(w)), "=", 0))
        return rows


def lp_feasible(n: int, k: int, d: int) -> bool:
    """Whether the rational relaxation for trial distance d has a solution.

    A False verdict proves no [[n, k, d; n-k]] code exists.
    """
    inst = LpInstance(n, k, d)
    return _solve_feasibility(inst.num_vars, inst.rows()) is not None


def integer_feasible(
    n: int, k: int, d: int, node_limit: int = DEFAULT_NODE_LIMIT
) -> bool | None:
    """Branch-and-bound search for an integer solution of the same system.

    Returns True when an all-integer point is found, False when the search
    space is exhausted (proving integer infeasibility), and None when the node
    limit stops the search first — inconclusive, so callers must treat it as
    feasible to stay sound.
    """
    inst = LpInstance(n, k, d)
    base = inst.rows()
    num = inst.num_vars
    stack: list[list[Row]] = [[]]
    nodes = 0
    while stack:
        extra = stack.pop()
        nodes += 1
        if nodes > node_limit:
            return None
        point = _solve_feasibility(num, base + extra)
        if point is None:
            continue
        frac_idx = next((i for i, x in enumerate(point) if x.denominator != 1), None)
        if frac_idx is None:
            return True
        floor = point[frac_idx].numerator // point[frac_idx].denominator
        stack.append(extra + [(_unit(num, frac_idx), ">=", floor + 1)])
        stack.append(extra + [(_unit(num, frac_idx), "<=", floor)])
    return False


def lp_upper_bound(
    n: int,
    k: int,
    c: int | None = None,
    *,
    branch_and_bound: bool = False,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> int:
    """Largest d not excluded: the smallest infeasible trial distance minus 1.

    Scans d = 1, 2, ... (adding a trial constraint only shrinks the feasible
    region, so the first infeasible d settles the rest) and returns n if every
    trial distance up to n stays feasible.  ``c`` defaults to maximal
    entanglement n - k, which uses :func:`lp_feasible`; a smaller c scans
    with :func:`lp_feasible_general`.  With ``branch_and_bound`` (maximal
    entanglement only) the scan also stops at a proven integer infeasibility.
    """
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    if c is None:
        c = n - k
    maximal = c == n - k
    if branch_and_bound and not maximal:
        raise ValueError("branch-and-bound requires maximal entanglement (c = n - k)")
    for d in range(1, n + 1):
        if not (lp_feasible(n, k, d) if maximal else lp_feasible_general(n, k, c, d)):
            return d - 1
        if branch_and_bound and integer_feasible(n, k, d, node_limit) is False:
            return d - 1
    return n


def apply_overrides(n: int, k: int, lp_bound: int) -> int:
    """Cap an LP upper bound with the known nonexistence results.

    Codes meeting d = n at k = 1 and d = 2 at k = n - 1 exist only for odd n,
    so even-n bounds in those columns cap at n - 1 and 1; every bound also
    caps at n trivially.
    """
    bound = min(lp_bound, n)
    if k == 1 and n % 2 == 0:
        bound = min(bound, n - 1)
    if k == n - 1 and n % 2 == 0:
        bound = min(bound, 1)
    return bound


# ---------------------------------------------------------------------------
# the general system for 0 < c < n - k


def lp_feasible_general(n: int, k: int, c: int, d: int) -> bool:
    """Feasibility for partial entanglement, linking all four enumerators.

    Variable blocks are the distributions of S_I, of the stabilizer
    S_S x S_I, of the normalizer L x S_I, and of the combined group
    L x S_S x S_I.  Each block carries the nonnegativity, cap, total-sum, and
    leading-coefficient constraints of its group; the two MacWilliams
    identities link stabilizer to normalizer and combined to isotropic.  The
    distance condition pins the normalizer and isotropic counts together below
    the trial distance, and subgroup containment adds coefficientwise
    dominance between nested blocks.  At c = n - k the isotropic block is
    trivial and the system degenerates to :func:`lp_feasible`, which is used
    directly.
    """
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    if not 0 < c <= n - k:
        raise ValueError(f"need 0 < c <= n - k, got c={c}")
    if not 1 <= d <= n:
        raise ValueError(f"need 1 <= d <= n, got d={d}")
    if c == n - k:
        return lp_feasible(n, k, d)

    s = n - k - c
    width = n + 1
    orders = [1 << s, 1 << (n - k + c), 1 << (n + k - c), 1 << (n + k + c)]
    iso = lambda w: w
    stab = lambda w: width + w
    norm = lambda w: 2 * width + w
    comb = lambda w: 3 * width + w
    blocks = [iso, stab, norm, comb]
    num = 4 * width

    rows: list[Row] = []
    for blk, order in zip(blocks, orders):
        rows.append((_unit(num, blk(0)), "=", 1))
        total = [0] * num
        for w in range(width):
            total[blk(w)] = 1
            if w >= 1:
                rows.append((_unit(num, blk(w)), "<=", order))
        rows.append((total, "=", order))
    for w in range(width):
        row = [0] * num
        for wp in range(width):
            row[stab(wp)] = krawtchouk(w, wp, n)
        row[norm(w)] = -orders[1]
        rows.append((row, "=", 0))
    for w in range(width):
        row = [0] * num
        for wp in range(width):
            row[comb(wp)] = krawtchouk(w, wp, n)
        row[iso(w)] = -orders[3]
        rows.append((row, "=", 0))
    for w in range(1, d):
        row = [0] * num
        row[norm(w)] = 1
        row[iso(w)] = -1
        rows.append((row, "=", 0))
    for w in range(width):
        for lo, hi in ((iso, norm), (norm, comb), (iso, stab), (stab, comb)):
            row = [0] * num
            row[hi(w)] = 1
            row[lo(w)] = -1
            rows.append((row, ">=", 0))
    return _solve_feasibility(num, rows) is not None


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
        return {
            "n_max": self.n_max,
            "cells": [
                {
                    "n": cell.n,
                    "k": cell.k,
                    "lower": cell.lower,
                    "upper": cell.upper,
                    "lower_source": cell.lower_source,
                    "upper_source": cell.upper_source,
                }
                for cell in self.cells
            ],
        }


def _registry_lower_bounds(n_max: int) -> dict[tuple[int, int], tuple[int, str]]:
    """Best registry distance per maximal-entanglement cell, then the closure
    under lengthening (n-1, k) -> (n, k) and trading (n, k+1) -> (n, k)."""
    best: dict[tuple[int, int], tuple[int, str]] = {}
    for entry in registry():
        if entry.n > n_max or entry.k < 1 or entry.k >= entry.n:
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
