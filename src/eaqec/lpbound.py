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
at 0, so feasibility is monotone in d, and :func:`_walk` climbs from a
trial distance proved feasible until the next one is not.

No solve is made where a proof already gives the verdict.  d = 1 is always
feasible, by the trivial code (:func:`lp_feasible_general`), so every walk
has a floor of at least 1.  At maximal entanglement a cell's bound lies
between two neighbours', bound(n - 1, k) <= bound(n, k) <= bound(n, k - 1):
a point of (n - 1, k, d) padded with B_n = 0 is a point of (n, k, d)
(lengthening), and a point of (n, k, d) scaled by
(4^(k-1) - 1) / (4^k - 1) is a point of (n, k - 1, d) (trading), as
:func:`build_table` proves.  These are the extension rules of Brun, Devetak
& Hsieh (Science 314, 2006) and Lai & Brun (PRA 88, 012320, 2013), read on
the LP's points.  :func:`lp_upper_bound` climbs from the floor 1 with no
ceiling, and :func:`build_table` inside that bracket, which settles every
cell of n <= 20 in one or two solves and a closed one in none.

The systems are posed on the complement side, where the distance condition
removes variables instead of adding rows.  Leading coefficients are 1 and
are substituted in, and the direct distributions are linear in the
complement ones, so they enter as rows, read off the Krawtchouk table
(constant K_w(0), coefficients K_w(1..n)):

- at maximal entanglement (c = n - k) S_I is trivial and N is the logical
  distribution B; :func:`_maximal_rows` solves for B_d..B_n;
- for 0 < c < n - k, :func:`_general_rows` solves for I_1..I_n and the
  excess M_d..M_n = N - I of the normalizer.

Both return the one row form the solver takes, rows that hold at the
origin: equalities a.x = b with b >= 0 (a builder negates any other) and
floors a.x >= b with b <= 0; any other a.x >= b is the equality a.x - t = b
over one more variable t >= 0.  Every floor here holds strictly, as the
direct distributions at the origin are proportional to the 3^w C(n, w)
Paulis of each weight, so its slack starts in the basis.  Each docstring
says why the rows it leaves out are implied.

Everything is solved exactly, in integers: a phase-one simplex with Bland's
rule and fraction-free pivoting on the compact (dictionary) tableau (Edmonds,
J. Res. NBS 71B, 1967; Avis's lrs), described at :func:`_solve_feasibility`.
Verdicts carry no floating-point caveats, and each comes with an integer
certificate that a few lines of integer arithmetic check: a feasible verdict
with its vertex, reduced integers x over one denominator det > 0, and an
infeasible one with a Farkas vector.  The rational relaxation is sound for
upper bounds: any true code gives an integer solution.

:func:`build_table` assembles the full bounds grid: upper bounds from the LP
walk plus the even-n overrides, lower bounds from the code registry closed
under the two extension rules.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property
from operator import index
from typing import Sequence

from .codes import registry
from .enumerator import _krawtchouk_table
from .errors import BudgetError
from .pauli import MAX_QUBITS

Row = tuple[Sequence[int], int]

_SIMPLEX_ITERATION_CAP = 1_000_000

def _solve_feasibility(
    num_vars: int, equalities: Sequence[Row], floors: Sequence[Row]
) -> tuple[tuple[list[int], int] | None, list[int] | None, int]:
    """Exact phase-one simplex: a nonnegative rational vertex x / det with
    a.x = b det for every equality (a, b) and a.x >= b det for every floor
    (a, b), or else a Farkas vector y proving there is none, returned with
    the number of pivots taken as ``((x, det), None, pivots)`` or
    ``(None, y, pivots)``.  The vertex is integers x over det > 0 with
    gcd(det, *x) = 1.

    Every row must hold at the origin, b >= 0 on an equality and b <= 0 on a
    floor (else ``ValueError``): each equality starts on an artificial, each
    floor as -a.x + s = -b on its slack s.  Nothing else is checked: both
    builders emit rows of ``num_vars`` Python ints from indexed cell values,
    and the tests check every pinned solve's certificate on those rows.

    The tableau is compact, lrs's dictionary form: a row holds one entry per
    nonbasic variable (``nonbasic[j]`` is column j's; variables are numbered
    x, slacks, artificials) and its right-hand side.  A basic column is a
    unit vector and is not stored, so a slack or artificial is stored only
    once it has left the basis.  Rows 0..m-1 are the constraints and row m
    the phase-one objective, the sum of the artificials: its reduced costs
    and minus its value.  Entries are integers over ``det``, the last pivot
    (1 at first).  A pivot on p = T[r][e] maps every other row, the
    objective too, to ``(x * p - f * y) // det`` (f its entry in column e, y
    row r's), then puts -f in column e; row r puts ``det`` there.  Then
    ``det = p``, and the two variables swap in ``basis`` and ``nonbasic``.
    Each integer is the full tableau's, det times the true entry and a minor
    of the initial matrix, so the division is exact; det stays positive, as
    the cross-multiplied ratio test, over rows 0..m-1, picks only positive
    pivots.

    Bland's rule (smallest variable, for entering and ratio-test ties) makes
    it terminate; it stops once the artificial objective reaches zero, with
    det times each basic variable's value in its row's right-hand side and
    the nonbasic ones at 0: that is x, divided with det by their gcd.  A
    departed artificial never re-enters but keeps its column, so row m ends
    holding every slack's and artificial's reduced cost.

    When no variable can enter and the objective is still positive, the
    phase-one duals pi prove infeasibility.  Artificial i's reduced cost is
    1 - pi_i and slack j's is -pi_j, and row m holds det times each.  So y,
    one integer per row in the order given, is det - r on equality i, with r
    artificial i's entry (0 while basic), and slack j's entry r >= 0 (0 while
    basic) on floor j, divided by their gcd.  Then y >= 0 on the floors,
    sum_i y_i a_i <= 0 in every column, as no x can enter, and
    sum_i y_i b_i > 0, a positive multiple of the objective.  Any x >= 0
    meeting the rows would give 0 >= (sum_i y_i a_i).x >= sum_i y_i b_i > 0.

    The ratio test always finds a pivot row.  As the entering variable
    rises to t, row i's basic variable is its right-hand side minus t times
    its entry, and det > 0 makes the entries' signs true.  Were none
    positive, every t >= 0 would be feasible, and the objective, a sum of
    nonnegative artificials, would fall without bound along that ray.
    """
    art_start = num_vars + len(floors)
    tableau = [[*coeffs, rhs] for coeffs, rhs in equalities]
    tableau += [[-a for a in coeffs] + [-rhs] for coeffs, rhs in floors]
    if any(row[-1] < 0 for row in tableau):
        raise ValueError("every row must hold at the origin")
    # Each equality starts on its artificial, each floor on its slack.
    basis = [art_start + i for i in range(len(equalities))] + list(range(num_vars, art_start))
    nonbasic = list(range(num_vars))
    m = len(tableau)
    obj = [-sum(col) for col in zip([0] * (num_vars + 1), *tableau[: len(equalities)])]
    tableau.append(obj)

    det = 1
    pivots = 0
    while obj[-1]:
        if pivots == _SIMPLEX_ITERATION_CAP:
            raise BudgetError(f"exact simplex exceeded {_SIMPLEX_ITERATION_CAP} pivots")
        entering = [(var, j) for j, var in enumerate(nonbasic) if var < art_start and obj[j] < 0]
        if not entering:
            farkas = [det] * len(equalities) + [0] * len(floors)
            for j, var in enumerate(nonbasic):
                if var >= art_start:
                    farkas[var - art_start] -= obj[j]
                elif var >= num_vars:
                    farkas[len(equalities) + var - num_vars] = obj[j]
            g = math.gcd(*farkas)
            return None, [y // g for y in farkas], pivots
        enter = min(entering)[1]
        pivot_row = -1
        for i, row in enumerate(tableau[:m]):
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
        prow = tableau[pivot_row]
        piv = prow[enter]
        for row in tableau:  # in place, so obj stays row m
            if row is not prow:
                f = row[enter]
                row[:] = [(x * piv - f * y) // det for x, y in zip(row, prow)]
                row[enter] = -f
        prow[enter] = det
        det = piv
        basis[pivot_row], nonbasic[enter] = nonbasic[enter], basis[pivot_row]
        pivots += 1

    x = [0] * num_vars
    for i, b in enumerate(basis):
        if b < num_vars:
            x[b] = tableau[i][-1]
    g = math.gcd(det, *x)
    return ([v // g for v in x], det // g), None, pivots


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
    floors = [(row[d:], -row[0]) for row in _krawtchouk_table(n)[1:]]
    return [([1] * (n - d + 1), 4**k - 1)], floors


def _general_rows(n: int, k: int, c: int, d: int) -> tuple[list[Row], list[Row]]:
    """The partial-entanglement system over I_1..I_n then M_d..M_n.

    I is the isotropic distribution and M = N - I the normalizer's excess
    over it: M >= 0 is the dominance N >= I of nested groups, and a code of
    distance d has N_w = I_w below d, so M_1..M_(d-1) are not variables.
    With I_0 = N_0 = 1 substituted in, the direct distributions are the forms
    |N| S_w = K_w(0) + sum_w' K_w(w') (I + M)_w' and |I| C_w = K_w(0) +
    sum_w' K_w(w') I_w'.  The rows are two sums and 3n - d + 1 dominance
    floors, scaled to integers using |N| / |I| = 4^k:

        sum_{w>=1} I_w = |I| - 1,   sum_{w>=1} I_w + sum_{w>=d} M_w = |N| - 1
        S_w >= I_w,   C_w >= S_w    for 1 <= w <= n
        C_w >= N_w                  for d <= w <= n

    Each dominance row holds strictly at the origin: normalized, its
    right-hand side is -K_w(0) or -(4^k - 1) K_w(0).

    Below d, C_w >= N_w is implied: there N_w = I_w, and 4^k times the row
    |I| (C_w - N_w) >= -K_w(0) is the sum of the rows |N| (S_w - I_w) >=
    -K_w(0) and |N| (C_w - S_w) >= -(4^k - 1) K_w(0), right-hand side
    included.  The rest of the four-block system is implied too: S >= 0
    follows from S >= I >= 0, C >= 0 from C >= N = I + M >= 0 at w >= d and
    from C >= S >= I >= 0 below d, and, by the argument at
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
    for w, krow in enumerate(_krawtchouk_table(n)[1:], 1):
        const, coeffs, tail = krow[0], krow[1:], krow[d:]
        row = coeffs + tail  # |N| (S_w - I_w)
        row[w - 1] -= norm_order
        floors.append((row, -const))
        if w >= d:
            row = coeffs + [0] * excess  # |I| (C_w - N_w)
            row[w - 1] -= iso_order
            row[n + w - d] -= iso_order
            floors.append((row, -const))
        row = [scale * x for x in coeffs] + [-x for x in tail]  # |N| (C_w - S_w)
        floors.append((row, -scale * const))
    return equalities, floors


# ---------------------------------------------------------------------------
# feasibility, the bound walk and the overrides


def _check_cell(n: int, k: int, c: int, d: int | None = None) -> tuple:
    """n, k, c and d by ``operator.index``, so only Python ints reach the row
    builders.  Reject a cell outside 1 <= k < n <= MAX_QUBITS and
    0 < c <= n - k, and a d given outside 1 <= d <= n, with ``ValueError``."""
    n, k, c, d = index(n), index(k), index(c), d if d is None else index(d)
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    if n > MAX_QUBITS:
        raise ValueError(f"need n <= {MAX_QUBITS}, got n={n}")
    if not 0 < c <= n - k:
        raise ValueError(f"need 0 < c <= n - k, got c={c}")
    if d is not None and not 1 <= d <= n:
        raise ValueError(f"need 1 <= d <= n, got d={d}")
    return n, k, c, d


def lp_feasible_general(n: int, k: int, c: int, d: int) -> bool:
    """Whether the rational relaxation for trial distance d has a solution:
    :func:`_maximal_rows` at c = n - k, :func:`_general_rows` below it.

    A False verdict proves no [[n, k, d; c]] code exists.  At d = 1 the
    verdict is True without a solve.

    Proof that d = 1 is feasible.  The trivial [[n, k, 1; c]] code exists
    for every 1 <= k < n and 0 < c <= n - k: k bare qubits, c qubits each
    sharing an ebit, stabilized by X and Z, and s = n - k - c qubits
    stabilized by Z.  A code's own distributions satisfy its cell's rows at
    d = its distance, as the rows are MacWilliams identities and
    nonnegativity (``test_real_codes_are_feasible_points`` checks this on
    random codes), and d = 1 fixes no variable, so they are a point of the
    d = 1 system.
    """
    n, k, c, d = _check_cell(n, k, c, d)
    if d == 1:
        return True
    if c == n - k:
        return _solve_feasibility(n - d + 1, *_maximal_rows(n, k, d))[0] is not None
    return _solve_feasibility(2 * n - d + 1, *_general_rows(n, k, c, d))[0] is not None


def lp_feasible(n: int, k: int, d: int) -> bool:
    """:func:`lp_feasible_general` at maximal entanglement, c = n - k."""
    return lp_feasible_general(n, k, n - k, d)


def _walk(n: int, k: int, c: int, feasible: int, infeasible: int) -> int:
    """The LP bound of a cell, given a trial distance ``feasible`` >= 1
    proved feasible and a larger ``infeasible`` known to be infeasible
    (n + 1 for none).

    Feasibility is monotone in d, since the d + 1 system is the d system
    with one more variable fixed at 0.  The walk climbs from feasible + 1
    with :func:`lp_feasible_general` until a trial distance is infeasible
    or reaches ``infeasible``; the one below it is the bound.  A bracket
    given closed takes no solve.
    """
    d = feasible + 1
    while d < infeasible and lp_feasible_general(n, k, c, d):
        d += 1
    return d - 1


def lp_upper_bound(n: int, k: int, c: int | None = None) -> int:
    """Largest d not excluded: the smallest infeasible trial distance minus 1,
    or n if every trial distance up to n is feasible.

    The walk of :func:`_walk` climbs from the floor d = 1, which the trivial
    code proves feasible (see :func:`lp_feasible_general`), so the bound is
    at least 1.  ``c`` defaults to maximal entanglement n - k.
    """
    n, k, c, _ = _check_cell(n, k, n - k if c is None else c)
    return _walk(n, k, c, 1, n + 1)


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
    best: dict[tuple[int, int], int] = {}
    for entry in registry():
        if entry.n > n_max:
            continue
        if not entry.is_maximal_entanglement:
            continue  # the extension rules preserve n - k - c, so only
            # maximal-entanglement seeds can reach maximal-entanglement cells
        best[(entry.n, entry.k)] = max(entry.d, best.get((entry.n, entry.k), 1))
    out: dict[tuple[int, int], tuple[int, str]] = {}
    for n in range(2, n_max + 1):
        for k in range(n - 1, 0, -1):
            value = best.get((n, k), 1)
            source = "registry" if value > 1 else "trivial"
            for derived in (out.get((n - 1, k)), out.get((n, k + 1))):
                if derived and derived[0] > value:
                    value, source = derived[0], "extension"
            out[(n, k)] = (value, source)
    return out


def build_table(n_max: int) -> BoundsTable:
    """Assemble the bounds grid for all cells 1 <= k < n <= n_max.

    Upper bounds: one :func:`_walk` per cell, capped by
    :func:`apply_overrides`.  A walk that never hits infeasibility proves
    nothing, so its d <= n result is tagged trivial.  Each walk climbs
    inside the bracket bound(n - 1, k) <= bound(n, k) <= bound(n, k - 1) of
    the two LP bounds already found, from the floor bound(n - 1, k), or
    from the floor 1 of the trivial code for k = n - 1, which has no
    (n - 1, k) cell.  Every cell of n <= 20 then takes one or two solves,
    and a closed bracket none.
    Lower bounds: the registry closed under the extension rules, defaulting
    to the always-achievable d = 1.

    Proof of the two lifts, on the maximal-entanglement rows of
    :func:`_maximal_rows`, where 4^k A_w = K_w(0) + sum_w' K_w(w') B_w' must
    be nonnegative and sum B_w = 4^k - 1.

    - Lengthening.  Pad a point B of (n - 1, k, d) with B_n = 0.  The sum is
      unchanged, and adding a qubit outside every support splits the
      Krawtchouk values as K_w(w'; n) = K_w(w'; n - 1) + 3 K_(w-1)(w'; n - 1),
      so the padded point has 4^k A'_w = 4^k (A_w + 3 A_(w-1)) >= 0.  So
      every d feasible at (n - 1, k) is feasible at (n, k).
    - Trading.  Scale a point B of (n, k, d) by
      lambda = (4^(k-1) - 1) / (4^k - 1), in [0, 1).  The sum becomes
      4^(k-1) - 1, and 4^(k-1) A'_w = (1 - lambda) K_w(0) + lambda 4^k A_w
      >= 0, since K_w(0) = 3^w C(n, w).  So every d feasible at (n, k) is
      feasible at (n, k - 1), and bound(n, k - 1) + 1 is infeasible at
      (n, k).
    """
    n_max = index(n_max)
    if n_max < 2:
        raise ValueError(f"need n_max >= 2, got {n_max}")
    if n_max > MAX_QUBITS:
        raise ValueError(f"need n_max <= {MAX_QUBITS}, got {n_max}")
    lower = _registry_lower_bounds(n_max)
    cells = []
    above: list[int] = []  # the LP bounds of row n - 1, by k
    for n in range(2, n_max + 1):
        row: list[int] = []
        for k in range(1, n):
            # bound(n - 1, k), or 1 by the trivial code, is feasible here and
            # bound(n, k - 1) + 1 is not
            feasible = above[k - 1] if k < n - 1 else 1
            infeasible = row[-1] + 1 if row else n + 1
            lp = _walk(n, k, n - k, feasible, infeasible)
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
