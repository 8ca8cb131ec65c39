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
at 0, so feasibility is monotone in d.

No solve is made where a proof already gives the verdict.  d = 1 is always
feasible, by the trivial code (:func:`lp_feasible_general`).  At maximal
entanglement only the sum row's right-hand side, 4^k - 1, depends on k, so
one maximisation M(n, d) of sum_{w>=d} B_w over the other rows decides
every k at once: (n, k, d) is feasible iff M(n, d) >= 4^k - 1, and
bound(n, k) = max{d : M(n, d) >= 4^k - 1}.  :func:`_maximum` proves
M(n, 2) = 4^(n-1) - 1 and M(n, n) = 3, so only 3 <= d < n take a solve;
:func:`build_table` reads each row's bounds off these thresholds, and
:func:`lp_upper_bound` bisects d.  The extension rules of Brun, Devetak &
Hsieh (Science 314, 2006) and Lai & Brun (PRA 88, 012320, 2013) become
remarks on M: trading changes only the threshold, and lengthening gives
M(n - 1, d) <= M(n, d).  This is the Delsarte LP read as in Delsarte
(Philips Res. Rep. Suppl. 10, 1973) and Ashikhmin & Litsyn (IEEE TIT 45(4),
1999).  Below maximal entanglement :func:`_walk` climbs from d = 1 until a
trial distance is infeasible.

The systems are posed on the complement side, where the distance condition
removes variables instead of adding rows.  Leading coefficients are 1 and
are substituted in, and the direct distributions are linear in the
complement ones, so they enter as rows, read off the Krawtchouk table
(constant K_w(0), coefficients K_w(1..n)):

- at maximal entanglement (c = n - k) S_I is trivial and N is the logical
  distribution B; :func:`_maximal_rows` gives the floors over B_d..B_n;
- for 0 < c < n - k, :func:`_general_rows` solves for I_1..I_n and the
  excess M_d..M_n = N - I of the normalizer.

Both return floors, the one row form the solver takes: a.x >= b with
b <= 0, which hold at the origin.  Every dominance and transform floor
holds strictly there, as the direct distributions at the origin are
proportional to the 3^w C(n, w) Paulis of each weight, so its slack starts
in the basis.  Each docstring says why the rows it leaves out are implied.
A verdict is a maximisation of sum x over the floors from the origin: a
cell is feasible iff that maximum reaches its target, 4^k - 1 at maximal
entanglement and |N| - 1 below it, since the floors are convex and hold at
the origin, so a point scaled by target / maximum <= 1 is a point with the
target's sum.  Below maximal entanglement the ratio of the two sums is the
homogeneous row that turns them into floors (:func:`_general_rows`).

Everything is solved exactly, in integers: a simplex with Bland's rule and
fraction-free pivoting on the compact (dictionary) tableau (Edmonds, J. Res.
NBS 71B, 1967; Avis's lrs), described at :func:`_maximise`, from the origin
in one mode.  Verdicts carry no floating-point caveats, and each solve comes
with integer certificates that a few lines of integer arithmetic check: a
vertex, reduced integers x over one denominator det > 0, and, on a solve
that ends below its target or has none, an optimal dual of equal value,
which proves the maximum.  A feasible verdict is its vertex scaled to the
target; an infeasible one is its dual.  The rational relaxation is sound
for upper bounds: any true code gives an integer solution.

:func:`build_table` assembles the full bounds grid: upper bounds from the
thresholds plus the even-n overrides, lower bounds from the code registry
closed under the two extension rules.
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

def _maximise(
    num_vars: int, floors: Sequence[Row], objective: Sequence[int], stop: int | None = None
) -> tuple:
    """Exact simplex from the origin: maximise ``objective``.x over the
    floors a.x >= b, x >= 0, until the value reaches ``stop`` or, with no
    stop, until it is optimal.  Returns ``((x, det), (y, e), pivots)``.

    The vertex x / det meets every floor.  The dual, integers y over their
    own denominator e > 0, is optimal when the solve ends below ``stop``
    (always, with no stop), and then a proof: y >= 0,
    sum_j y_j a_j <= -e c in every column, c the objective, and
    sum_j -y_j b_j / e = c.x / det, so for any feasible x',
    c.x' <= -(sum_j y_j a_j).x' / e <= sum_j -y_j b_j / e, by weak duality,
    which a few integer products check.  A solve stopped at c.x >= stop det
    has proved that value reachable, and its y proves nothing.  The
    caller's floors must bound the objective.

    The vertex is integers x over det > 0 with gcd(det, *x) = 1, and so is
    the dual over e.  Every floor must hold at the origin, b <= 0 (else
    ``ValueError``), and starts as -a.x + s = -b on its slack s.  Nothing
    else is checked: both builders emit rows of ``num_vars`` Python ints
    from indexed cell values, and the tests check every pinned solve's
    certificate on those rows.

    The tableau is compact, lrs's dictionary form: a row holds one entry per
    nonbasic variable (``nonbasic[j]`` is column j's; variables are numbered
    x, then slacks) and its right-hand side.  A basic column is a unit
    vector and is not stored, so a slack is stored only once it has left the
    basis.  Rows 0..m-1 are the floors and row m the objective to minimise,
    -c.x: its reduced costs and minus its value, det c.x.  Entries are
    integers over ``det``, the last pivot (1 at first).  A pivot on
    p = T[r][e] maps every other row, the objective too, to
    ``(x * p - f * y) // det`` (f its entry in column e, y row r's), then
    puts -f in column e; row r puts ``det`` there.  Then ``det = p``, and
    the two variables swap in ``basis`` and ``nonbasic``.  Each integer is
    the full tableau's, det times the true entry and a minor of the initial
    matrix, so the division is exact; det stays positive, as the
    cross-multiplied ratio test picks only positive pivots.  It scans row m
    too, whose entry in the entering column is negative, so never a pivot.

    Bland's rule (smallest variable, for entering and ratio-test ties) makes
    it terminate.  It stops once row m's value reaches stop det, or once no
    variable can enter, with det times each basic variable's value in its
    row's right-hand side and the nonbasic ones at 0: that is x, divided
    with det by their gcd.  The pivot cap binds on a pivot past it, never on
    a solve that ends within it.

    Row m gives the duals: slack j's reduced cost is -pi_j, and row m holds
    det times it, so y_j is slack j's entry (0 while basic) over det.  At
    the optimum no variable can enter, so every reduced cost is at least 0:
    y >= 0, and x_i's, -c_i - sum_j y_j a_ji / det, in every column.  Row
    m's right-hand side is det c.x = sum_j -y_j b_j.

    The ratio test always finds a pivot row.  As the entering variable
    rises to t, row i's basic variable is its right-hand side minus t times
    its entry, and det > 0 makes the entries' signs true.  Were none
    positive, every t >= 0 would be feasible, and the objective would grow
    without bound along that ray, which the caller's floors forbid.
    """
    tableau = [[-a for a in coeffs] + [-rhs] for coeffs, rhs in floors]
    if any(row[-1] < 0 for row in tableau):
        raise ValueError("every floor must hold at the origin")
    top = num_vars + len(floors)
    basis = list(range(num_vars, top))
    nonbasic = list(range(num_vars))
    obj = [-c for c in objective] + [0]
    tableau.append(obj)

    det = 1
    pivots = 0
    while stop is None or obj[-1] < stop * det:
        enter, best = -1, top
        for j, var in enumerate(nonbasic):
            if var < best and obj[j] < 0:
                enter, best = j, var
        if enter < 0:
            break
        if pivots == _SIMPLEX_ITERATION_CAP:
            raise BudgetError(f"exact simplex exceeded {_SIMPLEX_ITERATION_CAP} pivots")
        pivot_row, piv, rhs = -1, 0, 1  # a ratio every positive entry beats
        for i, row in enumerate(tableau):
            a = row[enter]
            if a > 0:
                lhs, cross = row[-1] * piv, rhs * a
                if lhs < cross or (lhs == cross and basis[i] < basis[pivot_row]):
                    pivot_row, piv, rhs = i, a, row[-1]
        prow = tableau[pivot_row]
        for row in tableau:  # in place, so obj stays row m
            if row is not prow:
                f = row[enter]
                row[:] = [(x * piv - f * y) // det for x, y in zip(row, prow)]
                row[enter] = -f
        prow[enter] = det
        det = piv
        basis[pivot_row], nonbasic[enter] = nonbasic[enter], basis[pivot_row]
        pivots += 1

    x, y = [0] * num_vars, [0] * len(floors)
    for i, var in enumerate(basis):
        if var < num_vars:
            x[var] = tableau[i][-1]
    for j, var in enumerate(nonbasic):
        if var >= num_vars:
            y[var - num_vars] = obj[j]
    g, e = math.gcd(det, *x), math.gcd(det, *y)
    return ([v // g for v in x], det // g), ([v // e for v in y], det // e), pivots


# ---------------------------------------------------------------------------
# the two systems: maximal entanglement, and 0 < c < n - k


def _maximal_rows(n: int, d: int) -> list[Row]:
    """The n floors of a trial distance d at maximal entanglement.

    The variables are B_d..B_n, the logical distribution with B_0 = 1
    substituted in and B_w = 0 below d left out.  The stabilizer
    distribution A is the linear form 4^k A_w = K_w(0) + sum_w' K_w(w') B_w',
    and the floors are 4^k A_w >= 0 for 1 <= w <= n; the simplex keeps
    B >= 0.  A cell (n, k, d) adds the one equality sum_{w>=d} B_w = 4^k - 1,
    its only number that depends on k, which :func:`_maximum` reads as a
    threshold.  The other constraints on the two distributions are implied,
    because sum_w K_w(w') = 4^n [w' = 0]: K_0(w') = 1 turns the sum row into
    A_0 = 1, and summing the forms over w leaves 4^n B_0, so
    sum_w A_w = 4^(n-k).  Each cap A_w <= 4^(n-k) and B_w <= 4^k then
    follows from its sum and nonnegativity.
    """
    return [(row[d:], -row[0]) for row in _krawtchouk_table(n)[1:]]


def _maximum(n: int, d: int) -> tuple[int, int]:
    """M(n, d), the largest sum_{w>=d} B_w over the floors of
    :func:`_maximal_rows`, as integers (total, det) with M = total / det, for
    2 <= d <= n: one :func:`_maximise` with no stop, or none at either end.

    The cell (n, k, d) is feasible iff M(n, d) >= 4^k - 1.  Its floors hold
    at the origin, since K_w(0) = 3^w C(n, w) > 0, and they are convex, so a
    point with sum M scaled by (4^k - 1) / M <= 1 stays a point, now with
    sum 4^k - 1; a point with that sum needs M >= 4^k - 1.  The floors' forms
    sum to 4^n - 1 - sum B, since sum_w K_w(w') = 4^n [w' = 0], so M is
    finite.  M does not depend on k, and it falls as d rises: the d + 1
    floors are the d floors with B_d fixed at 0.

    Proof that M(n, 2) = 4^(n-1) - 1.  The generating function
    sum_w K_w(w') z^w = (1 + 3z)^(n-w') (1 - z)^w' gives, at z = 1 and in
    its derivative there, sum_{w>=1} K_w(w') = -1 and
    sum_{w>=1} w K_w(w') = 0 for every w' >= 2, and
    sum_{w>=1} (n - w) K_w(0) = n 4^n - n - 3n 4^(n-1) = n (4^(n-1) - 1).
    So the dual y_w = n - w over e = n has sum_w y_w K_w(w') = -n <= -e on
    every column and value 4^(n-1) - 1.  The vertex
    B_w = (3^w + 3 (-1)^w) C(n, w) / 4 for w >= 2, an integer since
    3^w = (-1)^w mod 4, is a quarter of the full space's distribution plus
    three quarters of the parity one (-1)^w C(n, w), which extends to w = 0
    and 1 as 1 and 0.  The transform of 3^w C(n, w) is 4^n [w = 0] and that
    of (-1)^w C(n, w) is 4^n [w = n], the coefficients of (4z)^n, so the
    vertex meets every floor, and its sum is (4^n - 4) / 4.

    Proof that M(n, n) = 3.  The vertex B_n = 3 meets every floor, as
    3^w C(n, w) + 3 (-1)^w C(n, w) >= 0 for w >= 1.  The dual is the w = 1
    floor alone, y_1 = 1 over e = n: K_1(n) = -n, and its value is
    K_1(0) / n = 3.
    """
    if d == 2:
        return 4 ** (n - 1) - 1, 1
    if d == n:
        return 3, 1
    (x, det), _, _ = _maximise(n - d + 1, _maximal_rows(n, d), [1] * (n - d + 1))
    return sum(x), det


def _general_rows(n: int, k: int, c: int, d: int) -> list[Row]:
    """The 3n - d + 3 floors of a partial-entanglement cell, over I_1..I_n
    then M_d..M_n.

    I is the isotropic distribution and M = N - I the normalizer's excess
    over it: M >= 0 is the dominance N >= I of nested groups, and a code of
    distance d has N_w = I_w below d, so M_1..M_(d-1) are not variables.
    With I_0 = N_0 = 1 substituted in, the direct distributions are the forms
    |N| S_w = K_w(0) + sum_w' K_w(w') (I + M)_w' and |I| C_w = K_w(0) +
    sum_w' K_w(w') I_w'.  The cell is the two sums
    sum_{w>=1} I_w = |I| - 1 and sum_{w>=1} I_w + sum_{w>=d} M_w = |N| - 1
    with the dominance floors, scaled to integers using |N| / |I| = 4^k,

        S_w >= I_w,   C_w >= S_w    for 1 <= w <= n
        C_w >= N_w                  for d <= w <= n

    each holding strictly at the origin: normalized, its right-hand side is
    -K_w(0) or -(4^k - 1) K_w(0).  The two sums are posed by their ratio,
    (|N| - |I|) sum I = (|I| - 1) sum M, a homogeneous row, so it is the two
    floors of right-hand side 0 that close the list; the sum of I + M is the
    objective that :func:`lp_feasible_general` maximises.  A point with
    both sums meets the ratio.  A point with the ratio and
    sum (I + M) = |N| - 1 has (|N| - 1) sum I = (|I| - 1)(|N| - 1), so it
    has both sums.  The objective is bounded: summing the forms over
    w >= 1 gives sum_{w>=1} |N| S_w = 4^n - 1 - sum (I + M), as
    sum_{w>=1} K_w(w') is 4^n - 1 at w' = 0 and -1 after, and S >= I >= 0.

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
    ratio = [norm_order - iso_order] * n + [1 - iso_order] * excess
    floors += [(ratio, 0), ([-x for x in ratio], 0)]
    return floors


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
    M(n, d) >= 4^k - 1 (:func:`_maximum`) at c = n - k, and below it
    max sum (I + M) >= |N| - 1 over the floors of :func:`_general_rows`.

    A False verdict proves no [[n, k, d; c]] code exists.  At d = 1 the
    verdict is True without a solve.

    Proof of the partial verdict.  A point of the cell has the sum
    |N| - 1, so the maximum reaches it.  The floors hold at the origin and
    are convex, the ratio pair being homogeneous, so a point whose sum is
    the maximum, scaled by (|N| - 1) / maximum <= 1, meets them with sum
    |N| - 1, and the ratio then gives it both sums of the cell.  The
    maximisation stops once it reaches |N| - 1, the vertex proving the
    verdict True; below it, the solve ends at the optimum, whose dual
    proves it False.  The objective is sum (I + M), not sum I: at
    s = n - k - c = 0 the target of sum I, |I| - 1, is 0, which the origin
    already reaches.

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
        total, det = _maximum(n, d)
        return total >= (4**k - 1) * det
    num_vars, target = 2 * n - d + 1, (1 << (n + k - c)) - 1
    (x, det), _, _ = _maximise(num_vars, _general_rows(n, k, c, d), [1] * num_vars, target)
    return sum(x) >= target * det


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

    Both searches start from the floor d = 1, which the trivial code proves
    feasible (see :func:`lp_feasible_general`), so the bound is at least 1.
    Below maximal entanglement the walk of :func:`_walk` climbs from it.  At
    c = n - k, M(n, d) falls as d rises (:func:`_maximum`), so the bound is
    bisected between a feasible and an infeasible d; a maximisation costs
    about the same at any d.  The first trial is n - k + 2, one past the
    Singleton distance, which was infeasible at every cell with n <= 30, so
    a cell such as k = n - 1 takes one maximisation.  Any first trial gives
    the same bound.  ``c`` defaults to maximal entanglement n - k.
    """
    n, k, c, _ = _check_cell(n, k, n - k if c is None else c)
    if c < n - k:
        return _walk(n, k, c, 1, n + 1)
    low, high, d = 1, n + 1, min(n, n - k + 2)  # d = low feasible, d = high not
    while high - low > 1:
        low, high = (d, high) if lp_feasible_general(n, k, c, d) else (low, d)
        d = (low + high) // 2
    return low


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
        # the extension rules preserve n - k - c, so only maximal-entanglement
        # seeds can reach maximal-entanglement cells
        if entry.n <= n_max and entry.is_maximal_entanglement:
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

    Upper bounds: each row n reads the thresholds
    bound(n, k) = max{d : M(n, d) >= 4^k - 1} off M(n, 2..n), one
    :func:`_maximum` per (n, d), so 3 <= d < n take one solve each and
    every k shares them.  Each bound is capped by :func:`apply_overrides`;
    one that no maximisation excludes proves nothing, so its d <= n result
    is tagged trivial.
    Lower bounds: the registry closed under the extension rules, defaulting
    to the always-achievable d = 1.

    Why the thresholds are the LP bounds.  The floors of (n, d) hold at the
    origin and are convex, so the sums sum_{w>=d} B_w of their points fill
    [0, M(n, d)], and (n, k, d) is feasible iff M(n, d) >= 4^k - 1.  M falls
    as d rises, the d + 1 floors being the d floors with B_d = 0, so the
    feasible d are 1..bound(n, k); d = 1 is feasible by the trivial code,
    and d = 2 by M(n, 2) = 4^(n-1) - 1.  The extension rules become remarks
    on M.  Trading a logical qubit changes only the threshold, as M does not
    depend on k.  Lengthening pads a point of (n - 1, d) with B_n = 0, which
    keeps its sum: adding a qubit outside every support splits
    K_w(w'; n) = K_w(w'; n - 1) + 3 K_(w-1)(w'; n - 1), so each padded floor
    is a floor of n - 1 plus three times the one below it, and
    M(n - 1, d) <= M(n, d).
    """
    n_max = index(n_max)
    if n_max < 2:
        raise ValueError(f"need n_max >= 2, got {n_max}")
    if n_max > MAX_QUBITS:
        raise ValueError(f"need n_max <= {MAX_QUBITS}, got {n_max}")
    lower = _registry_lower_bounds(n_max)
    cells = []
    for n in range(2, n_max + 1):
        maxima = [_maximum(n, d) for d in range(2, n + 1)]
        for k in range(1, n):
            lp = 1 + sum(total >= (4**k - 1) * det for total, det in maxima)
            upper = apply_overrides(n, k, lp)
            upper_source = "override" if upper < lp else "trivial" if upper == n else "lp"
            low, low_source = lower[(n, k)]
            cells.append(BoundsCell(n, k, low, upper, low_source, upper_source))
    return BoundsTable(n_max, tuple(cells))
