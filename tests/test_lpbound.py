"""Exact simplex, the LP systems, and the bounds table.

Oracles: the original ``fractions.Fraction`` phase-one simplex, kept here
verbatim as a reference whose verdicts the maximisations must match, and the
original full systems over all two (maximal entanglement) or four (partial)
weight distributions, which the reduced systems' points are lifted back into
with ``krawtchouk``.
"""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eaqec import (
    apply_overrides,
    build_table,
    krawtchouk,
    lp_feasible,
    lp_feasible_general,
    lp_upper_bound,
    min_distance,
    weight_enumerator,
)
from eaqec import lpbound
from eaqec.errors import BudgetError
from eaqec.lpbound import _general_rows, _maximal_rows, _maximise, _maximum

from conftest import maximum_accepts, point_accepts, random_code


def assert_satisfies(point, rows):
    assert all(x >= 0 for x in point)
    for coeffs, sense, rhs in rows:
        value = sum(Fraction(c) * x for c, x in zip(coeffs, point))
        if sense == "=":
            assert value == rhs
        elif sense == "<=":
            assert value <= rhs
        else:
            assert value >= rhs


def general_rows(equalities, floors):
    """Equalities a.x = b and floors a.x >= b in ``fraction_simplex``'s form,
    each floor written as -a.x <= -b, so its slack starts in the basis there
    too."""
    return [(a, "=", b) for a, b in equalities] + [
        ([-x for x in a], "<=", -b) for a, b in floors
    ]


def maximal_system(n, k, d):
    """The cell (n, k, d) as one feasibility system: the floors of
    ``_maximal_rows`` and the sum B_d + ... + B_n = 4^k - 1."""
    return [([1] * (n - d + 1), 4**k - 1)], _maximal_rows(n, d)


def partial_system(n, k, c, d):
    """The partial cell (n, k, c, d) as one feasibility system over
    I_1..I_n then M_d..M_n: its two sums, sum I = |I| - 1 and
    sum (I + M) = |N| - 1, and the dominance floors of ``_general_rows``,
    without the ratio pair that stands in for the sums there."""
    excess = n - d + 1
    equalities = [
        ([1] * n + [0] * excess, (1 << (n - k - c)) - 1),
        ([1] * (n + excess), (1 << (n + k - c)) - 1),
    ]
    return equalities, _general_rows(n, k, c, d)[:-2]


def maximise(n, d):
    """The solve behind M(n, d): (vertex, dual, pivots)."""
    return _maximise(n - d + 1, _maximal_rows(n, d), [1] * (n - d + 1))


def partial_solve(n, k, c, d):
    """The stopped maximisation behind a partial verdict: sum (I + M) over
    the floors of ``_general_rows``, stopped at |N| - 1."""
    num_vars = 2 * n - d + 1
    return _maximise(num_vars, _general_rows(n, k, c, d), [1] * num_vars, (1 << (n + k - c)) - 1)


def scaled(vertex, target):
    """The vertex (x, det) of a maximisation of sum x, scaled to the sum
    ``target`` as the point target x / sum x, or None if its value is below
    the target."""
    x, det = vertex
    if sum(x) < target * det:
        return None
    return [Fraction(target * v, sum(x)) for v in x]


def partial_point(n, k, c, d):
    """A point of the partial cell: its stopped maximisation's vertex scaled
    to sum (I + M) = |N| - 1, or None if the maximum falls short."""
    return scaled(partial_solve(n, k, c, d)[0], (1 << (n + k - c)) - 1)


def is_sublist(small, big):
    """Whether ``small`` is ``big`` with some rows left out, in order."""
    rest = iter(big)
    return all(row in rest for row in small)


# ---------------------------------------------------------------------------
# reference oracles

_REFERENCE_ITERATION_CAP = 1_000_000


def fraction_simplex(num_vars, rows):
    """The original exact phase-one simplex over ``Fraction``, one gcd per
    operation: the reference the integer tableau must match point for point."""
    zero = Fraction(0)
    one = Fraction(1)
    # Normalize to nonnegative right-hand sides.
    norm = []
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

    tableau = []
    basis = []
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
        return _fraction_point(num_vars, tableau, basis)

    for _ in range(_REFERENCE_ITERATION_CAP):
        enter = -1
        for j in range(art_start):  # artificials never re-enter
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            return None if obj[-1] != 0 else _fraction_point(num_vars, tableau, basis)
        pivot_row = -1
        best_ratio = None
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
            return _fraction_point(num_vars, tableau, basis)
    raise BudgetError(f"exact simplex exceeded {_REFERENCE_ITERATION_CAP} pivots")


def _fraction_point(num_vars, tableau, basis):
    point = [Fraction(0)] * num_vars
    for i, b in enumerate(basis):
        if b < num_vars:
            point[b] = tableau[i][-1]
    return point


def _unit(num_vars, idx):
    row = [0] * num_vars
    row[idx] = 1
    return row


def full_maximal_rows(n, k, d):
    """The original system over A_0..A_n then B_0..B_n: unit leading
    coefficients, caps, both sums, every transform row, B_w = 0 below d."""
    stab_order = 4 ** (n - k)
    logical_order = 4**k
    num = 2 * (n + 1)
    a = lambda w: w
    b = lambda w: n + 1 + w
    rows = [(_unit(num, a(0)), "=", 1), (_unit(num, b(0)), "=", 1)]
    for w in range(1, n + 1):
        rows.append((_unit(num, a(w)), "<=", stab_order))
        rows.append((_unit(num, b(w)), "<=", logical_order))
    rows.append(([1] * (n + 1) + [0] * (n + 1), "=", stab_order))
    rows.append(([0] * (n + 1) + [1] * (n + 1), "=", logical_order))
    for w in range(n + 1):
        row = [0] * num
        for wp in range(n + 1):
            row[a(wp)] = krawtchouk(w, wp, n)
        row[b(w)] = -stab_order
        rows.append((row, "=", 0))
    for w in range(1, d):
        rows.append((_unit(num, b(w)), "=", 0))
    return rows


def full_general_rows(n, k, c, d):
    """The original four-block system over the isotropic, stabilizer,
    normalizer and combined distributions, in that order."""
    s = n - k - c
    width = n + 1
    orders = [1 << s, 1 << (n - k + c), 1 << (n + k - c), 1 << (n + k + c)]
    iso = lambda w: w
    stab = lambda w: width + w
    norm = lambda w: 2 * width + w
    comb = lambda w: 3 * width + w
    num = 4 * width
    rows = []
    for blk, order in zip((iso, stab, norm, comb), orders):
        rows.append((_unit(num, blk(0)), "=", 1))
        total = [0] * num
        for w in range(width):
            total[blk(w)] = 1
            if w >= 1:
                rows.append((_unit(num, blk(w)), "<=", order))
        rows.append((total, "=", order))
    for partner, image, order in ((stab, norm, orders[1]), (comb, iso, orders[3])):
        for w in range(width):
            row = [0] * num
            for wp in range(width):
                row[partner(wp)] = krawtchouk(w, wp, n)
            row[image(w)] = -order
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
    return rows


def transform(dist, order):
    """The complement's distribution, by the MacWilliams identity."""
    n = len(dist) - 1
    return [
        sum(krawtchouk(w, wp, n) * dist[wp] for wp in range(n + 1)) / order
        for w in range(n + 1)
    ]


def lift_general(n, k, c, d, point):
    """I, S, N, C recovered from a point over I_1..I_n, M_d..M_n."""
    iso = [Fraction(1)] + point[:n]
    norm = iso[:d] + [x + m for x, m in zip(iso[d:], point[n:])]
    stab = transform(norm, 1 << (n + k - c))
    comb = transform(iso, 1 << (n - k - c))
    return iso + stab + norm + comb


# ---------------------------------------------------------------------------
# the solver itself


def test_solver_handles_inequalities_and_negative_rhs():
    # x0 <= 3 and x1 <= 5 are the floors -x0 >= -3 and -x1 >= -5: maximising
    # x1 leaves x0 at 0, and the dual is the second floor alone
    assert _maximise(2, [([-1, 0], -3), ([0, -1], -5)], [0, 1]) == (([0, 5], 1), ([0, 1], 1), 1)
    # a floor through the origin keeps its slack in the basis, and x1 <= x0
    # binds at the optimum of x1 under x0 + x1 <= 2
    assert _maximise(2, [([1, -1], 0), ([-1, -1], -2)], [0, 1]) == (([1, 1], 1), ([1, 1], 2), 2)
    # a floor that fails at the origin would start the solve infeasible
    with pytest.raises(ValueError, match="hold at the origin"):
        _maximise(1, [([1], 2)], [1])


def test_solver_trivial_system():
    assert _maximise(3, [], [0, 0, 0]) == (([0, 0, 0], 1), ([], 1), 0)


def _random_rows(m, rhs):
    return st.lists(
        st.tuples(st.lists(st.integers(-5, 5), min_size=m, max_size=m), rhs), max_size=6
    )


_bounded_system = st.integers(1, 4).flatmap(
    lambda m: st.tuples(
        st.just(m),
        _random_rows(m, st.integers(-8, 0)),
        st.lists(st.integers(-3, 5), min_size=m, max_size=m),
        st.integers(0, 8),
        st.none() | st.integers(-4, 40),
    )
)


@settings(max_examples=300, deadline=None)
@given(_bounded_system)
def test_solver_maximises_with_an_accepted_dual_on_small_systems(system):
    # from the origin, on random floors with x_1 + ... + x_m <= cap added to
    # bound the objective, and a random stop.  The vertex and dual are each
    # in lowest terms.  A solve that reaches its stop returns a vertex that
    # meets the floors; any other returns a vertex and dual accepted with
    # equal values, which proves the vertex optimal, and below the stop,
    # with no reference solver.  The stopped solve follows the unstopped
    # one's pivots, and reaches its stop iff the optimum does
    num_vars, floors, objective, cap, stop = system
    floors = floors + [([-1] * num_vars, -cap)]
    vertex, dual, pivots = _maximise(num_vars, floors, objective, stop)
    (x, det), (y, e) = vertex, dual
    assert math.gcd(det, *x) == 1 == math.gcd(e, *y)
    value = sum(c * v for c, v in zip(objective, x))
    reached = stop is not None and value >= stop * det
    if reached:
        assert point_accepts(num_vars, [], floors, x, det)
    else:
        assert maximum_accepts(num_vars, floors, objective, vertex, dual)
    best, best_dual, most = _maximise(num_vars, floors, objective)
    assert pivots <= most
    if stop is not None:
        optimum = sum(c * v for c, v in zip(objective, best[0]))
        assert reached == (optimum >= stop * best[1])
    if not reached:
        assert (vertex, dual, pivots) == (best, best_dual, most)


def _count_pivots(monkeypatch, certificates=None):
    """Patch the solver to append each solve's pivot count to the returned
    list.  Every verdict's certificate must be accepted on the rows as
    built.  A solve with no stop, or one ending below its stop, must have
    its vertex and dual accepted with equal values by ``maximum_accepts``.
    A partial cell's stop is |N| - 1, and its rows are the ones
    ``_general_rows`` built last: a solve that reaches the stop must have
    its vertex, scaled to that sum, meet the cell's two sum equalities and
    its floors (``point_accepts``).  ``certificates`` collects each solve's
    rows, objective and stop with its vertex and dual, and the partial
    cell (n, k, c, d) or None."""
    pivots = []
    built = []
    solve, rows = lpbound._maximise, lpbound._general_rows

    def building_rows(n, k, c, d):
        built.append((n, k, c, d))
        return rows(n, k, c, d)

    def counting_solve(num_vars, floors, objective, stop=None):
        vertex, dual, count = solve(num_vars, floors, objective, stop)
        x, det = vertex
        assert math.gcd(det, *x) == 1
        cell = None
        if stop is not None:
            cell = n, k, c, d = built[-1]
            assert floors == rows(*cell) and objective == [1] * num_vars
            assert stop == (1 << (n + k - c)) - 1
        if stop is not None and sum(x) >= stop * det:
            equalities = partial_system(*cell)[0]
            assert point_accepts(num_vars, equalities, floors, [stop * v for v in x], sum(x))
        else:
            assert maximum_accepts(num_vars, floors, objective, vertex, dual)
        if certificates is not None:
            certificates.append((num_vars, floors, objective, stop, vertex, dual, cell))
        pivots.append(count)
        return vertex, dual, count

    monkeypatch.setattr(lpbound, "_maximise", counting_solve)
    monkeypatch.setattr(lpbound, "_general_rows", building_rows)
    return pivots


def test_solver_matches_fraction_reference_on_every_scan_solve(monkeypatch):
    certificates = []
    pivots = _count_pivots(monkeypatch, certificates)
    for n in range(2, 10):
        for k in range(1, n):
            lp_upper_bound(n, k)
            for c in range(1, n - k) if n <= 5 else ():
                lp_upper_bound(n, k, c)
            # the trivial code settles d = 1 in every cell, with no solve
            assert all(lp_feasible_general(n, k, c, 1) for c in range(1, n - k + 1))
    # the scans, solve for solve and pivot for pivot: the partial cells' 29
    # stopped maximisations, and the maximal cells' bisections, 67
    # maximisations whose vertex and dual were accepted with equal values
    maximal = [p for p, cert in zip(pivots, certificates) if cert[3] is None]
    assert (len(pivots), sum(pivots)) == (96, 389)
    assert (len(maximal), sum(maximal)) == (67, 266)
    # the reference's verdict on every system the scans posed, each M(n, d)
    # deciding every k of its row, and on every cell's d = 1 system, which
    # the trivial code settles with no solve
    systems = []
    for num_vars, floors, _, stop, (x, det), _, cell in certificates:
        if cell is None:
            n = len(floors)
            d = n - num_vars + 1
            systems += [(maximal_system(n, k, d), sum(x) >= (4**k - 1) * det) for k in range(1, n)]
        else:
            systems.append((partial_system(*cell), sum(x) >= stop * det))
    for n in range(2, 10):
        for k in range(1, n):
            systems.append((maximal_system(n, k, 1), True))
            systems += [(partial_system(n, k, c, 1), True) for c in range(1, n - k) if n <= 5]
    for (equalities, floors), verdict in systems:
        num_vars = len(floors[0][0])
        point = fraction_simplex(num_vars, general_rows(equalities, floors))
        assert (point is not None) == verdict


def test_simplex_iteration_cap_boundary(monkeypatch):
    # a maximisation that is optimal after exactly the cap's pivots returns
    # its vertex and dual, and so does one that reaches its stop on the
    # cap's last pivot, short of the optimum
    stopped = lambda: partial_solve(9, 2, 3, 4)
    assert stopped()[2] < _maximise(14, _general_rows(9, 2, 3, 4), [1] * 14)[2]
    for solve in (lambda: maximise(9, 5), stopped):
        monkeypatch.setattr(lpbound, "_SIMPLEX_ITERATION_CAP", 1_000_000)
        vertex, dual, pivots = solve()
        assert pivots >= 2
        monkeypatch.setattr(lpbound, "_SIMPLEX_ITERATION_CAP", pivots)
        assert solve() == (vertex, dual, pivots)
        monkeypatch.setattr(lpbound, "_SIMPLEX_ITERATION_CAP", pivots - 1)
        with pytest.raises(BudgetError, match=f"{pivots - 1} pivots"):
            solve()


# ---------------------------------------------------------------------------
# the maximal-entanglement system


def test_lp_cell_validation():
    with pytest.raises(ValueError, match="need 1 <= k < n"):
        lp_feasible(5, 5, 2)
    with pytest.raises(ValueError, match="need 1 <= k < n"):
        lp_feasible(5, 0, 2)
    with pytest.raises(ValueError, match="need 1 <= k < n"):
        lp_upper_bound(5, 0)
    with pytest.raises(ValueError, match="need 1 <= d <= n"):
        lp_feasible(5, 2, 0)
    with pytest.raises(ValueError, match="need 1 <= d <= n"):
        lp_feasible(5, 2, 6)
    # LP work stops where codes do, at 64 qubits
    for call in (
        lambda: lp_feasible(65, 1, 2),
        lambda: lp_feasible_general(65, 1, 1, 2),
        lambda: lp_upper_bound(65, 1),
    ):
        with pytest.raises(ValueError, match="^need n <= 64, got n=65$"):
            call()
    with pytest.raises(ValueError, match="^need n_max <= 64, got 65$"):
        build_table(65)
    assert lp_feasible(64, 1, 64)
    # a partial cell with c, k or d out of range
    for (k, c, d), message in (
        ((2, 0, 2), "^need 0 < c <= n - k, got c=0$"),
        ((2, 4, 2), "^need 0 < c <= n - k, got c=4$"),
        ((0, 2, 2), "^need 1 <= k < n, got k=0, n=5$"),
        ((2, 3, 6), "^need 1 <= d <= n, got d=6$"),
    ):
        with pytest.raises(ValueError, match=message):
            lp_feasible_general(5, k, c, d)
    # numpy integers are taken by their index, floats are refused
    assert lp_upper_bound(np.int64(10), np.int64(9)) == 2 == lp_upper_bound(10, 9)
    for n, k, c in ((7, 1, 3), (5, 2, 3), (9, 4, 2)):
        for d in range(1, n + 1):
            cell = map(np.int64, (n, k, c, d))
            assert lp_feasible_general(*cell) is lp_feasible_general(n, k, c, d)
    table = build_table(np.int64(9))
    assert type(table.n_max) is int and table == build_table(9)
    json.dumps(table.to_json_dict())
    not_integer = "cannot be interpreted as an integer"
    for call in (
        lambda: lp_upper_bound(10.0, 9),
        lambda: lp_feasible(5, 2, 3.0),
        lambda: lp_feasible_general(5, 2, 1.0, 3),
        lambda: build_table(9.0),
    ):
        with pytest.raises(TypeError, match=not_integer):
            call()


def test_maximal_point_solves_full_system():
    # the maximisation's vertex scaled by (4^k - 1) / M is a point of the
    # cell, and lifted to A and B it solves the full two-enumerator system
    for n, k, d in ((5, 2, 3), (5, 2, 4), (7, 2, 5), (9, 4, 5), (11, 1, 9)):
        equalities, floors = maximal_system(n, k, d)
        assert len(floors) == n
        assert all(len(coeffs) == n - d + 1 for coeffs, _ in equalities + floors)
        point = scaled(maximise(n, d)[0], 4**k - 1)
        assert point is not None
        assert_satisfies(point, general_rows(equalities, floors))
        b = [Fraction(1)] + [Fraction(0)] * (d - 1) + point
        assert_satisfies(transform(b, 4**k) + b, full_maximal_rows(n, k, d))


def test_proved_ends_of_the_maximum():
    # M(n, 2) = 4^(n-1) - 1 and M(n, n) = 3 take no solve; the certificates
    # their proofs give are accepted in integers on the rows as built, for
    # every n the LP takes, and for n <= 12 a phase-two solve agrees
    for n in range(2, 65):
        low = [(3**w + 3 * (-1) ** w) * math.comb(n, w) for w in range(2, n + 1)]
        assert all(v % 4 == 0 for v in low)
        ends = [
            (2, ([v // 4 for v in low], 1), ([n - w for w in range(1, n + 1)], n)),
            (n, ([3], 1), ([1] + [0] * (n - 1), n)),
        ]
        for d, vertex, dual in ends:
            num_vars = n - d + 1
            floors = _maximal_rows(n, d)
            assert maximum_accepts(num_vars, floors, [1] * num_vars, vertex, dual), (n, d)
            assert _maximum(n, d) == (sum(vertex[0]), 1) == ((4 ** (n - 1) - 1, 1) if d == 2 else (3, 1))
            if n <= 12:
                (x, det), _, _ = maximise(n, d)
                assert sum(x) == sum(vertex[0]) * det, (n, d)


def test_lp_verdicts_match_full_system():
    for n in range(2, 8):
        for k in range(1, n):
            for d in range(1, n + 1):
                full = fraction_simplex(2 * (n + 1), full_maximal_rows(n, k, d))
                assert lp_feasible(n, k, d) == (full is not None), (n, k, d)


def test_seeded_walk_matches_ascending_scan():
    # the verdicts for d = 1..n never increase, so the bound is their sum:
    # feasible at the bound and infeasible above it.  Any proved floor below
    # the bound and any ceiling above it give the same bound as the climb
    # from d = 1 with no ceiling
    cells = [(n, k, n - k) for n in range(2, 10) for k in range(1, n)]
    cells += [(n, k, c) for n in range(3, 7) for k in range(1, n) for c in range(1, n - k)]
    for n, k, c in cells:
        bound = lp_upper_bound(n, k, c)
        verdicts = [lp_feasible_general(n, k, c, d) for d in range(1, n + 1)]
        assert verdicts == sorted(verdicts, reverse=True), (n, k, c)
        assert sum(verdicts) == bound, (n, k, c)
        for floor in range(1, bound + 1):
            for ceiling in range(bound + 1, n + 2):
                assert lpbound._walk(n, k, c, floor, ceiling) == bound, (n, k, c, floor, ceiling)


def test_build_table_settles_each_cell_in_two_solves(monkeypatch):
    # each cell's bound b rests on two maximisations of its row,
    # M(n, b) >= 4^k - 1 > M(n, b + 1), and every k of the row shares them:
    # the table makes one per (n, d) with 3 <= d < n, as M(n, 2) and
    # M(n, n) are proved
    certificates = []
    solves = _count_pivots(monkeypatch, certificates)
    table = build_table(9)
    assert (len(solves), sum(solves)) == (21, 72)
    rows = sorted((cert[0], len(cert[1])) for cert in certificates)  # (n - d + 1, n)
    assert rows == sorted((n - d + 1, n) for n in range(4, 10) for d in range(3, n))
    for cell in table.cells:
        n, k = cell.n, cell.k
        lp = lp_upper_bound(n, k)
        total, det = _maximum(n, lp)
        assert total >= (4**k - 1) * det, (n, k)
        if lp < n:
            total, det = _maximum(n, lp + 1)
            assert total < (4**k - 1) * det, (n, k)
    # build_table(15) makes 78 maximisations with no stop, each one's
    # vertex and dual accepted in integers with equal values
    solves.clear()
    certificates.clear()
    build_table(15)
    assert (len(solves), sum(solves)) == (78, 452)
    assert all(cert[3] is None for cert in certificates)
    # a dual with an entry negated is not accepted
    num_vars, floors, objective, _, vertex, (y, e), _ = certificates[-1]
    j = next(j for j, v in enumerate(y) if v)
    negated = y[:j] + [-y[j]] + y[j + 1 :]
    assert not maximum_accepts(num_vars, floors, objective, vertex, (negated, e))
    # nor is a vertex over twice its det, which halves its value
    (x, det) = vertex
    assert not maximum_accepts(num_vars, floors, objective, (x, 2 * det), (y, e))


def test_lengthening_and_trading_lift_feasible_points():
    # each of the 307 feasible points with n <= 12, the maximisations'
    # vertices scaled to 4^k - 1, padded with B_(n+1) = 0, satisfies the
    # (n + 1, k, d) rows, and scaled by lambda = (4^(k-1) - 1) / (4^k - 1)
    # the (n, k - 1, d) rows, checked exactly by substitution
    lifted = 0
    for n in range(2, 13):
        vertices = [maximise(n, d)[0] for d in range(1, n + 1)]
        for k in range(1, n):
            for d, vertex in enumerate(vertices, 1):
                point = scaled(vertex, 4**k - 1)
                if point is None:
                    break
                assert_satisfies(point + [0], general_rows(*maximal_system(n + 1, k, d)))
                lifted += 1
                if k > 1:
                    scale = Fraction(4 ** (k - 1) - 1, 4**k - 1)
                    traded = [scale * x for x in point]
                    assert_satisfies(traded, general_rows(*maximal_system(n, k - 1, d)))
    assert lifted == 307
    # the same lifts of the 375 feasible partial points with 3 <= n <= 9,
    # the stopped maximisations' vertices scaled to |N| - 1, over I_1..I_n
    # then M_d..M_n: I and M padded with 0 at weight n + 1 satisfy the
    # (n + 1, k, c + 1, d) rows, and I kept with M scaled by lambda the
    # (n, k - 1, c + 1, d) rows
    lifted = 0
    for n in range(3, 10):
        for k in range(1, n):
            for c in range(1, n - k):
                for d in range(1, n + 1):
                    point = partial_point(n, k, c, d)
                    if point is None:
                        break
                    iso, excess = point[:n], point[n:]
                    lengthened = iso + [0] + excess + [0]
                    rows = partial_system(n + 1, k, c + 1, d)
                    assert_satisfies(lengthened, general_rows(*rows))
                    lifted += 1
                    if k > 1:
                        scale = Fraction(4 ** (k - 1) - 1, 4**k - 1)
                        traded = iso + [scale * x for x in excess]
                        rows = partial_system(n, k - 1, c + 1, d)
                        assert_satisfies(traded, general_rows(*rows))
    assert lifted == 375
    # so at maximal entanglement trading only raises the threshold 4^k - 1,
    # and lengthening never lowers the maximum: M(n - 1, d) <= M(n, d) on
    # every (n, d) with n <= 20, and M falls as d rises
    maxima = {(n, d): _maximum(n, d) for n in range(2, 21) for d in range(2, n + 1)}
    for (n, d), (total, det) in maxima.items():
        if d < n:
            shorter, shorter_det = maxima[(n - 1, d)]
            assert shorter * det <= total * shorter_det, (n, d)
            above, above_det = maxima[(n, d + 1)]
            assert above * det <= total * above_det, (n, d)
    for cell in build_table(20).cells:
        assert 1 <= cell.lower <= cell.upper <= cell.n, (cell.n, cell.k)


def test_apply_overrides():
    # even n caps the single-information-qubit column at n - 1
    assert apply_overrides(4, 1, 4) == 3
    assert apply_overrides(4, 1, 2) == 2
    # and the k = n - 1 column at 1
    assert apply_overrides(4, 3, 2) == 1
    # odd n passes through
    assert apply_overrides(5, 1, 5) == 5
    assert apply_overrides(5, 4, 2) == 2
    # everything caps at n
    assert apply_overrides(5, 2, 9) == 5


def _paulis(n):
    """Every n-qubit Pauli as (x bits, z bits), with its weight."""
    ops = [(x, z) for x in range(1 << n) for z in range(1 << n)]
    return [(op, bin(op[0] | op[1]).count("1")) for op in ops]


def _anticommute(a, b):
    return bin(a[0] & b[1] ^ a[1] & b[0]).count("1") % 2 == 1


def full_weight_logical_pair_exists(n):
    """Whether a symplectic pair a, b has a, b and ab all of weight n: the
    logicals of an [[n,1,n;n-1]] code, whose isotropic group is trivial.
    Any symplectic pair extends to a symplectic basis, so a pair is a code."""
    full = [op for op, weight in _paulis(n) if weight == n]
    return any(
        _anticommute(a, b) and bin((a[0] ^ b[0]) | (a[1] ^ b[1])).count("1") == n
        for a in full
        for b in full
    )


def distance_two_stabilizer_pair_exists(n):
    """Whether a symplectic pair g, h anticommutes, between them, with every
    weight-1 Pauli: the stabilizer of an [[n,n-1,2;1]] code, whose
    normalizer is everything that commutes with both."""
    paulis = _paulis(n)
    singles = [op for op, weight in paulis if weight == 1]
    hits = {
        op: sum(1 << i for i, one in enumerate(singles) if _anticommute(op, one))
        for op, _ in paulis
    }
    every = (1 << len(singles)) - 1
    return any(_anticommute(g, h) and hits[g] | hits[h] == every for g in hits for h in hits)


def test_apply_overrides_caps_match_exhaustive_search():
    # the two even-n caps, checked by searching every pair of Paulis; the
    # odd n are the positive controls, where the same search finds a code
    for n in (2, 3, 4, 5):
        k1_dn = full_weight_logical_pair_exists(n)
        k_last_d2 = distance_two_stabilizer_pair_exists(n)
        assert k1_dn == k_last_d2 == (n % 2 == 1), n
        for k in range(1, n):
            cap = n
            if k == 1 and not k1_dn:
                cap = n - 1
            if k == n - 1 and not k_last_d2:
                cap = min(cap, 1)
            assert apply_overrides(n, k, n) == cap, (n, k)


# ---------------------------------------------------------------------------
# the general system


def test_general_system_matches_maximal_at_boundary():
    # at c = n - k the isotropic group is trivial, so the partial builder's
    # floors pose the maximal cell too, and its stopped maximisation's
    # verdict is the threshold M(n, d) >= 4^k - 1.  There s = 0, so sum I
    # has target |I| - 1 = 0, which the origin meets: an objective of sum I
    # would call every d feasible
    for n in range(2, 10):
        for k in range(1, n):
            for d in range(1, n + 1):
                general = partial_point(n, k, n - k, d)
                assert (general is not None) == lp_feasible(n, k, d), (n, k, d)


def test_real_codes_are_feasible_points():
    # a code's own distributions at d = its distance satisfy its cell's rows
    # exactly, in integers: no row may cut off a code that exists
    rng = random.Random(7)
    for n in range(2, 9):
        for k in range(1, n):
            for c in range(1, n - k + 1):
                bound = lp_upper_bound(n, k, c)
                for _ in range(3):
                    code = random_code(rng, n, k, c)
                    d = min_distance(code)
                    norm = weight_enumerator(code.normalizer_group).coeffs
                    if c == n - k:  # B_d..B_n
                        point, (equalities, floors) = norm[d:], maximal_system(n, k, d)
                    else:  # I_1..I_n, then M_d..M_n = N - I
                        iso = weight_enumerator(code.isotropic_group).coeffs
                        point = iso[1:] + tuple(x - y for x, y in zip(norm[d:], iso[d:]))
                        equalities = partial_system(n, k, c, d)[0]
                        floors = _general_rows(n, k, c, d)
                    assert point_accepts(len(point), equalities, floors, point, 1)
                    assert bound >= d, (n, k, c)


def test_general_rows_shape_and_lift():
    # every feasible reduced point, lifted to I, S, N, C, solves the full
    # four-block system, and every verdict matches the full system's.  The
    # full system is solved at a cell's first infeasible d; each later d's
    # full system holds the previous one's rows, so it is infeasible too.
    # Below d the floor C_w >= N_w is left out: there N_w = I_w, and 4^k
    # times it is the sum of the kept S_w >= I_w and C_w >= S_w floors.
    # The two sums enter as the floors r.x >= 0 and -r.x >= 0 of their
    # ratio, r = (|N| - |I|) sum I - (|I| - 1) sum M, which close the list
    for n in range(3, 6):
        for k in range(1, n):
            for c in range(1, n - k):
                full_infeasible = False
                iso_order = 1 << (n - k - c)
                for d in range(1, n + 1):
                    equalities, dominance = partial_system(n, k, c, d)
                    floors = _general_rows(n, k, c, d)
                    num_vars = 2 * n - d + 1
                    assert (len(dominance), len(floors)) == (3 * n - d + 1, 3 * n - d + 3)
                    assert all(len(a) == num_vars for a, _ in floors)
                    ratio = [(1 << (n + k - c)) - iso_order] * n + [1 - iso_order] * (n - d + 1)
                    assert floors[-2:] == [(ratio, 0), ([-x for x in ratio], 0)]
                    for w in range(1, d):
                        # |I| (C_w - N_w) >= -K_w(0), over I_1..I_n, M_d..M_n
                        row = [krawtchouk(w, wp, n) for wp in range(1, n + 1)]
                        row += [0] * (n - d + 1)
                        row[w - 1] -= iso_order
                        (s_i, s_rhs), (c_s, c_rhs) = floors[2 * w - 2 : 2 * w]
                        assert [4**k * x for x in row] == [x + y for x, y in zip(s_i, c_s)]
                        assert -(4**k) * krawtchouk(w, 0, n) == s_rhs + c_rhs
                    point = partial_point(n, k, c, d)
                    full_rows = full_general_rows(n, k, c, d)
                    if point is not None:
                        assert_satisfies(point, general_rows(equalities, floors))
                        assert_satisfies(lift_general(n, k, c, d, point), full_rows)
                    elif not full_infeasible:
                        assert fraction_simplex(4 * (n + 1), full_rows) is None
                        full_infeasible = True
                    else:
                        assert is_sublist(full_general_rows(n, k, c, d - 1), full_rows)


def test_general_bounds_match_pinned_values(monkeypatch):
    # every partial-entanglement bound with n <= 10, pinned from the system
    # over S and C; its n <= 5 rows are the benchmark's frozen values.  Each
    # scan's verdict carries a certificate that is accepted
    certificates = []
    pivots = _count_pivots(monkeypatch, certificates)
    root = Path(__file__).resolve().parent.parent
    pinned = json.loads((root / "tests" / "data" / "lp_general_n10.json").read_text())
    cells = [(n, k, c) for n in range(3, 11) for k in range(1, n) for c in range(1, n - k)]
    assert [tuple(row[:3]) for row in pinned["lp_general"]] == cells
    assert [[n, k, c, lp_upper_bound(n, k, c)] for n, k, c in cells] == pinned["lp_general"]
    frozen = json.loads((root / "perfbench" / "expected.json").read_text())["lp_general"]
    assert [row for row in pinned["lp_general"] if row[0] <= 5] == frozen
    # each scan climbs to its first infeasible d, unless its bound is n:
    # 580 stopped maximisations taking 4496 pivots, 460 reaching |N| - 1
    # and 120 proved short of it by their duals
    assert (len(pivots), sum(pivots)) == (580, 4496)
    short = [cert for cert in certificates if sum(cert[4][0]) < cert[3] * cert[4][1]]
    assert len(short) == sum(bound < n for n, _, _, bound in pinned["lp_general"]) == 120


def test_general_dominance_of_combined_over_normalizer():
    # C_w >= N_w is not implied by the other rows at w >= d; no verdict
    # depends on it, so this pins it at d = 1, where every such floor stays:
    # asking for C_1 <= N_1 - 1 must be infeasible
    n, k, c = 4, 1, 1
    iso_order = 1 << (n - k - c)
    coeffs = [krawtchouk(1, wp, n) for wp in range(1, n + 1)]
    row = coeffs + [0] * n  # |I| (C_1 - N_1) <= -|I|, over I_1..I_n, M_1..M_n
    row[0] -= iso_order
    row[n] -= iso_order
    # that row fails at the origin, so it is posed to the phase-one
    # reference: |I| C_1 = K_1(0) + row.x, so row.x <= -|I| - K_1(0)
    rows = general_rows(*partial_system(n, k, c, 1))
    assert fraction_simplex(2 * n, rows) is not None
    extra = (row, "<=", -iso_order - krawtchouk(1, 0, n))
    assert fraction_simplex(2 * n, rows + [extra]) is None


# ---------------------------------------------------------------------------
# the bounds table


def test_build_table_small_frozen():
    table = build_table(5)
    expected = {
        (2, 1): (1, 1),
        (3, 1): (3, 3),
        (3, 2): (2, 2),
        (4, 1): (3, 3),
        (4, 2): (2, 3),
        (4, 3): (1, 1),
        (5, 1): (5, 5),
        (5, 2): (3, 4),
        (5, 3): (2, 3),
        (5, 4): (2, 2),
    }
    assert {(c.n, c.k): (c.lower, c.upper) for c in table.cells} == expected
    assert table.cell(5, 2).lower_source == "registry"
    assert table.cell(5, 2).upper_source == "lp"
    assert table.cell(4, 1).upper_source == "override"
    assert table.cell(5, 1).upper_source == "trivial"
    with pytest.raises(ValueError):
        build_table(1)


def test_lower_bound_closure_past_the_registry():
    # the registry stops at n = 15, so every n = 16 lower bound comes from
    # lengthening (15, k) or trading (16, k + 1), whichever is larger
    table = build_table(16)
    for k in range(1, 16):
        cell = table.cell(16, k)
        neighbours = [table.cell(15, k).lower, table.cell(16, k + 1).lower] if k < 15 else []
        assert cell.lower == max(neighbours, default=1), k
        assert cell.lower_source == ("extension" if cell.lower > 1 else "trivial"), k
