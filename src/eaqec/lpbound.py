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
upper bound on the achievable distance.  Raising d only fixes more variables
at 0, so feasibility is monotone in d and a feasible d with an infeasible
d + 1 settles the bound.  :func:`lp_upper_bound` walks to such a pair from a
starting guess, and :func:`build_table` guesses each cell from its
neighbour, which settles every cell of n <= 20 in one or two solves.

The systems are posed on the complement side, where the distance condition
removes variables instead of adding rows.  Leading coefficients are 1 and
are substituted in, and the direct distributions are linear in the
complement ones, so they enter as rows (through :func:`_dual_form`):

- at maximal entanglement (c = n - k) S_I is trivial and N is the logical
  distribution B; :func:`_maximal_rows` solves for B_d..B_n;
- for 0 < c < n - k, :func:`_general_rows` solves for I_1..I_n and the
  excess M_d..M_n = N - I of the normalizer.

Both return the one row form the solver takes: equalities, and floors
a.x >= b that hold at the origin (b <= 0); any other a.x >= b would be the
equality a.x - t = b over one more variable t >= 0.  Every floor here holds
strictly, as the direct distributions at the origin are proportional to the
3^w C(n, w) Paulis of each weight, so its slack starts in the basis.  Each
docstring says why the rows it leaves out are implied.

Everything is solved exactly, in integers: a phase-one simplex with Bland's
rule and fraction-free pivoting on the compact (dictionary) tableau (Edmonds,
J. Res. NBS 71B, 1967; Avis's lrs), described at :func:`_solve_feasibility`.
Verdicts carry no floating-point caveats, and a feasible point is the same
rational vertex a ``fractions.Fraction`` tableau reaches.  The rational
relaxation is sound for upper bounds: any true code gives an integer solution.

:func:`build_table` assembles the full bounds grid: upper bounds from the LP
walk plus the even-n overrides, lower bounds from the code registry closed
under the two extension rules.
"""

from __future__ import annotations

import operator
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .codes import registry
from .enumerator import krawtchouk
from .errors import BudgetError, EaqecError

Row = tuple[Sequence[int], int]

_SIMPLEX_ITERATION_CAP = 1_000_000

def _solve_feasibility(
    num_vars: int, equalities: Sequence[Row], floors: Sequence[Row]
) -> list[Fraction] | None:
    """Exact phase-one simplex: a nonnegative rational point x with a.x = b
    for every equality (a, b) and a.x >= b for every floor (a, b), or None.

    Every floor must hold at the origin, b <= 0 (else ``ValueError``), and
    enters as -a.x + s = -b with its slack s basic; each equality, negated if
    b < 0, starts on an artificial.  Rows need ``num_vars`` coefficients
    (else ``ValueError``) and integers throughout (else ``TypeError``;
    nothing is rounded).

    The tableau is compact, lrs's dictionary form: a row holds one entry per
    nonbasic variable (``nonbasic[j]`` is column j's; variables are numbered
    x, slacks, artificials) and its right-hand side.  A basic column is a
    unit vector and is not stored, so a slack or artificial is stored only
    once it has left the basis.  Entries are integers over ``det``, the last
    pivot (1 at first).  A pivot on p = T[r][e] maps every other row, the
    objective too, to ``(x * p - f * y) // det`` (f its entry in column e, y
    row r's), then puts -f in column e; row r puts ``det`` there.  Then
    ``det = p``, and the two variables swap in ``basis`` and ``nonbasic``.
    Each integer is the full tableau's, det times the true entry and a minor
    of the initial matrix, so the division is exact; det stays positive, as
    the cross-multiplied ratio test picks only positive pivots.

    Bland's rule (smallest variable, for entering and ratio-test ties) makes
    it terminate; it stops once the artificial objective reaches zero.  A
    departed artificial never re-enters but keeps its column, so the final
    objective row holds every slack's and artificial's reduced cost.
    """
    for coeffs, _ in (*equalities, *floors):
        if len(coeffs) != num_vars:
            raise ValueError(f"a row has {len(coeffs)} coefficients for {num_vars} variables")
    art_start = num_vars + len(floors)
    tableau: list[list[int]] = []
    for coeffs, rhs in equalities:
        sign = -1 if operator.index(rhs) < 0 else 1
        tableau.append([sign * operator.index(a) for a in coeffs] + [sign * rhs])
    for coeffs, rhs in floors:
        if operator.index(rhs) > 0:
            raise ValueError(f"a floor must hold at the origin, got right-hand side {rhs}")
        tableau.append([-operator.index(a) for a in coeffs] + [-rhs])
    # Each equality starts on its artificial, each floor on its slack.
    basis = [art_start + i for i in range(len(equalities))] + list(range(num_vars, art_start))
    nonbasic = list(range(num_vars))

    # Phase-one objective: minimize the sum of artificials.  The objective row
    # holds reduced costs; its last entry is minus the current objective value.
    obj = [-sum(col) for col in zip([0] * (num_vars + 1), *tableau[: len(equalities)])]

    det = 1
    pivots = 0
    while obj[-1]:
        if pivots == _SIMPLEX_ITERATION_CAP:
            raise BudgetError(f"exact simplex exceeded {_SIMPLEX_ITERATION_CAP} pivots")
        entering = [(var, j) for j, var in enumerate(nonbasic) if var < art_start and obj[j] < 0]
        if not entering:
            return None
        enter = min(entering)[1]
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
        prow[enter] = det
        det = piv
        basis[pivot_row], nonbasic[enter] = nonbasic[enter], basis[pivot_row]
        pivots += 1

    point = [Fraction(0)] * num_vars
    for i, b in enumerate(basis):
        if b < num_vars:
            point[b] = Fraction(tableau[i][-1], det)
    return point


def _eliminate(row: list[int], prow: list[int], piv: int, det: int, enter: int) -> list[int]:
    """One fraction-free update of ``row``; column ``enter`` passes to the leaving variable."""
    f = row[enter]
    row = [(x * piv - f * y) // det for x, y in zip(row, prow)]
    row[enter] = -f
    return row


def _dual_form(n: int, w: int) -> tuple[list[int], int]:
    """The weight-w transform of the distribution X of a group V, X_0 = 1, as
    (coefficients of X_1..X_n, constant K_w(0)); its value is |V| Y_w, with Y
    the distribution of V's symplectic complement."""
    return [krawtchouk(w, wp, n) for wp in range(1, n + 1)], krawtchouk(w, 0, n)


# ---------------------------------------------------------------------------
# the two systems: maximal entanglement, and 0 < c < n - k


def _maximal_rows(n: int, k: int, d: int) -> tuple[list[Row], list[Row]]:
    """The feasibility system for a trial distance d at maximal entanglement.

    The variables are B_d..B_n, the logical distribution with B_0 = 1
    substituted in and B_w = 0 below d left out.  The stabilizer
    distribution A is the linear form 4^k A_w = K_w(0) + sum_w' K_w(w') B_w'.
    The rows are one equality and n floors,

        sum_{w>=d} B_w = 4^k - 1
        4^k A_w >= 0  for 1 <= w <= n

    and the simplex keeps B >= 0.  The other constraints on the two
    distributions are implied, because sum_w K_w(w') = 4^n [w' = 0]:
    K_0(w') = 1 turns the sum row into A_0 = 1, and summing the forms over w
    leaves 4^n B_0, so sum_w A_w = 4^(n-k).  Each cap A_w <= 4^(n-k) and
    B_w <= 4^k then follows from its sum and nonnegativity.
    """
    floors: list[Row] = []
    for w in range(1, n + 1):
        coeffs, const = _dual_form(n, w)
        floors.append((coeffs[d - 1 :], -const))
    return [([1] * (n - d + 1), 4**k - 1)], floors


def _general_rows(n: int, k: int, c: int, d: int) -> tuple[list[Row], list[Row]]:
    """The partial-entanglement system over I_1..I_n then M_d..M_n.

    I is the isotropic distribution and M = N - I the normalizer's excess
    over it: M >= 0 is the dominance N >= I of nested groups, and a code of
    distance d has N_w = I_w below d, so M_1..M_(d-1) are not variables.
    With I_0 = N_0 = 1 substituted in, the direct distributions are the forms
    |N| S_w = K_w(0) + sum_w' K_w(w') (I + M)_w' and |I| C_w = K_w(0) +
    sum_w' K_w(w') I_w'.  The rows are two sums and, for each w = 1..n,
    three dominance floors, scaled to integers using |N| / |I| = 4^k:

        sum_{w>=1} I_w = |I| - 1,   sum_{w>=1} I_w + sum_{w>=d} M_w = |N| - 1
        S_w >= I_w,   C_w >= N_w,   C_w >= S_w

    Each dominance row holds strictly at the origin: normalized, its
    right-hand side is -K_w(0) or -(4^k - 1) K_w(0).

    The rest of the four-block system is implied: S >= 0 follows from
    S >= I >= 0, C >= 0 from C >= N = I + M >= 0, and, by the argument at
    :func:`_maximal_rows`, the two sums give S_0 = C_0 = 1 and the sums of S
    and C, every cap follows from its sum and nonnegativity, and dominance
    at w = 0 reads 1 >= 1.  The transform squares to 4^n times the identity,
    so (I, M) -> (S, C) is invertible: posed over S and C, the system has
    the same feasible set and verdict.
    """
    iso_order = 1 << (n - k - c)
    norm_order = 1 << (n + k - c)
    scale = norm_order // iso_order - 1  # 4^k - 1
    excess = n - d + 1
    equalities: list[Row] = [
        ([1] * n + [0] * excess, iso_order - 1),
        ([1] * (n + excess), norm_order - 1),
    ]
    floors: list[Row] = []
    for w in range(1, n + 1):
        coeffs, const = _dual_form(n, w)
        tail = coeffs[d - 1 :]
        row = coeffs + tail  # |N| (S_w - I_w)
        row[w - 1] -= norm_order
        floors.append((row, -const))
        row = coeffs + [0] * excess  # |I| (C_w - N_w)
        row[w - 1] -= iso_order
        if w >= d:
            row[n + w - d] -= iso_order
        floors.append((row, -const))
        row = [scale * x for x in coeffs] + [-x for x in tail]  # |N| (C_w - S_w)
        floors.append((row, -scale * const))
    return equalities, floors


# ---------------------------------------------------------------------------
# feasibility, the bound walk and the overrides


def lp_feasible(n: int, k: int, d: int) -> bool:
    """Whether the rational relaxation for trial distance d has a solution
    (see :func:`_maximal_rows`).

    A False verdict proves no [[n, k, d; n-k]] code exists.
    """
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    if not 1 <= d <= n:
        raise ValueError(f"need 1 <= d <= n, got d={d}")
    return _solve_feasibility(n - d + 1, *_maximal_rows(n, k, d)) is not None


def lp_feasible_general(n: int, k: int, c: int, d: int) -> bool:
    """Feasibility for partial entanglement, over the isotropic and
    normalizer distributions (see :func:`_general_rows`).

    At c = n - k the isotropic group is trivial and the system degenerates
    to :func:`lp_feasible`, which is used directly.
    """
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    if not 0 < c <= n - k:
        raise ValueError(f"need 0 < c <= n - k, got c={c}")
    if not 1 <= d <= n:
        raise ValueError(f"need 1 <= d <= n, got d={d}")
    if c == n - k:
        return lp_feasible(n, k, d)
    return _solve_feasibility(2 * n - d + 1, *_general_rows(n, k, c, d)) is not None


def lp_upper_bound(n: int, k: int, c: int | None = None, *, start: int = 1) -> int:
    """Largest d not excluded: the smallest infeasible trial distance minus 1.

    Feasibility is monotone in d, since the d + 1 system is the d system with
    one more variable fixed at 0, so a feasible d and an infeasible d + 1
    settle the bound.  The walk solves with :func:`lp_feasible_general` at
    ``start``, then steps up while the trial distance stays feasible, or down
    while it does not, until it holds such a pair.  It returns n if every
    trial distance up to n is feasible, and 0 if d = 1 is not.

    ``start`` is a guess at the bound, such as a neighbouring cell's: a good
    one settles the cell in two solves, a wrong one costs a step per unit of
    error, and no guess changes the result.  The default 1 is the ascending
    scan d = 1, 2, ...  It must be an int in 1..n (else ``ValueError``).
    ``c`` defaults to maximal entanglement n - k.
    """
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    if not isinstance(start, int) or not 1 <= start <= n:
        raise ValueError(f"need an int start with 1 <= start <= n, got start={start!r}, n={n}")
    if c is None:
        c = n - k
    # the largest d known feasible and the smallest known infeasible
    feasible, infeasible = 0, n + 1
    d = start
    while infeasible - feasible > 1:
        if lp_feasible_general(n, k, c, d):
            feasible, d = d, d + 1
        else:
            infeasible, d = d, d - 1
    return feasible


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

    Upper bounds: one :func:`lp_upper_bound` walk per cell, capped by
    :func:`apply_overrides`.  A walk that never hits infeasibility proves
    nothing, so its d <= n result is tagged trivial.  Each walk starts from a
    neighbour's LP bound: bound(n - 1, k) + 1 for k <= n - 2, and
    bound(n, n - 2) for k = n - 1.  The guess sets only where the walk
    starts, and every cell of n <= 20 then takes one or two solves.  Lower
    bounds: the registry closed under the extension rules, defaulting to the
    always-achievable d = 1.
    """
    if n_max < 2:
        raise ValueError(f"need n_max >= 2, got {n_max}")
    lower = _registry_lower_bounds(n_max)
    cells = []
    above: list[int] = []  # the LP bounds of row n - 1, by k
    for n in range(2, n_max + 1):
        row: list[int] = []
        for k in range(1, n):
            if k < n - 1:
                start = above[k - 1] + 1
            else:
                start = row[-1] if row else 1  # n = 2 has no neighbour
            lp = lp_upper_bound(n, k, start=start)
            row.append(lp)
            upper = apply_overrides(n, k, lp)
            if upper < lp:
                upper_source = "override"
            elif upper == n:
                upper_source = "trivial"
            else:
                upper_source = "lp"
            low, low_source = lower[(n, k)]
            cells.append(BoundsCell(n, k, low, upper, low_source, upper_source))
        above = row
    return BoundsTable(n_max, tuple(cells))
