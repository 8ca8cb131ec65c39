"""Exact feasibility solver, the LP systems, and the bounds table.

Oracles: the original ``fractions.Fraction`` simplex, kept here verbatim as a
reference for the integer-pivoting solver, and the original full systems over
all two (maximal entanglement) or four (partial) weight distributions, which
the reduced systems' points are lifted back into with ``krawtchouk``.
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
from eaqec.lpbound import _general_rows, _maximal_rows, _solve_feasibility

from conftest import farkas_accepts, point_accepts, random_code


def as_fractions(vertex):
    """A solver's vertex (x, det) as the point x / det, or None for None."""
    if vertex is None:
        return None
    x, det = vertex
    return [Fraction(v, det) for v in x]


def solve(num_vars, equalities, floors):
    """The solver's point x / det, or None, without its pivot count."""
    return as_fractions(_solve_feasibility(num_vars, equalities, floors)[0])


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
    """The solver's rows in ``fraction_simplex``'s form, each floor a.x >= b
    written as -a.x <= -b, so its slack starts in the basis there too."""
    return [(a, "=", b) for a, b in equalities] + [
        ([-x for x in a], "<=", -b) for a, b in floors
    ]


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


def test_solver_finds_exact_point():
    point = solve(2, [([1, 1], 1), ([1, -1], 1)], [])
    assert point == [Fraction(1), Fraction(0)]


def test_solver_reports_infeasibility():
    # each verdict carries its Farkas vector, one integer per row
    assert _solve_feasibility(1, [([1], 1), ([1], 2)], [])[:2] == (None, [-1, 1])
    # x <= -1 is -x >= 1, which fails at the origin: -x - t = 1
    assert _solve_feasibility(2, [([-1, -1], 1)], [])[:2] == (None, [1])
    # x + y <= 1 is a floor; x + y >= 2 is x + y - t = 2
    assert _solve_feasibility(3, [([1, 1, -1], 2)], [([-1, -1, 0], -1)])[:2] == (None, [1, 1])
    # 0 = 1 and x = 1: x enters in place of the second's artificial, whose
    # entry then cancels det in its row's y
    assert _solve_feasibility(1, [([0], 1), ([1], 1)], []) == (None, [1, 0], 1)


def test_solver_handles_inequalities_and_negative_rhs():
    # x >= 2 fails at the origin, so it is x - t = 2; x <= 3 is the floor -x >= -3
    equalities, floors = [([1, -1], 2)], [([-1, 0], -3)]
    point = solve(2, equalities, floors)
    assert point is not None and 2 <= point[0] <= 3
    assert_satisfies(point, general_rows(equalities, floors))
    # an equality with a negative right-hand side is its builder's to negate
    with pytest.raises(ValueError, match="hold at the origin"):
        solve(2, [([-1, 1], -2)], [])
    # a floor through the origin keeps its slack in the basis
    assert solve(2, [([1, 1], 2)], [([1, -1], 0)]) == [Fraction(2), Fraction(0)]
    # a floor that fails at the origin would start phase one infeasible
    with pytest.raises(ValueError, match="hold at the origin"):
        solve(1, [], [([1], 2)])


def test_solver_trivial_system():
    assert solve(3, [], []) == [Fraction(0)] * 3


def test_solver_fractional_point():
    # the vertex is integers over one positive denominator, in lowest terms
    assert _solve_feasibility(1, [([2], 1)], [])[0] == ([1], 2)
    assert _solve_feasibility(2, [([4, 2], 2)], [])[0] == ([1, 0], 2)


def _random_rows(m, rhs):
    return st.lists(
        st.tuples(st.lists(st.integers(-5, 5), min_size=m, max_size=m), rhs), max_size=6
    )


def _hold_at_origin(equalities):
    """The equalities with each b < 0 negated, as the solver takes them."""
    return [(a, b) if b >= 0 else ([-x for x in a], -b) for a, b in equalities]


_small_system = st.integers(1, 4).flatmap(
    lambda m: st.tuples(
        st.just(m),
        _random_rows(m, st.integers(-8, 8)).map(_hold_at_origin),
        _random_rows(m, st.integers(-8, 0)),
    )
)


@settings(max_examples=300, deadline=None)
@given(_small_system)
def test_solver_matches_fraction_reference_on_small_systems(system):
    num_vars, equalities, floors = system
    vertex, farkas, _ = _solve_feasibility(num_vars, equalities, floors)
    rows = general_rows(equalities, floors)
    assert as_fractions(vertex) == fraction_simplex(num_vars, rows)
    if vertex is not None:
        x, det = vertex
        assert farkas is None and math.gcd(det, *x) == 1
        assert point_accepts(num_vars, equalities, floors, x, det)
    else:
        assert farkas_accepts(num_vars, equalities, floors, farkas)


def _count_pivots(monkeypatch, certificates=None):
    """Patch the solver to append each solve's pivot count to the returned
    list.  Every verdict's certificate must be accepted on the rows as
    built: a feasible one's vertex, reduced over its det, by
    ``point_accepts``, an infeasible one's Farkas vector by
    ``farkas_accepts``.  ``certificates`` collects each solve's rows with
    its vertex and its vector, one of them None."""
    pivots = []
    original = lpbound._solve_feasibility

    def counting_solve(num_vars, equalities, floors):
        vertex, farkas, count = original(num_vars, equalities, floors)
        if vertex is None:
            assert farkas_accepts(num_vars, equalities, floors, farkas)
        else:
            x, det = vertex
            assert farkas is None and math.gcd(det, *x) == 1
            assert point_accepts(num_vars, equalities, floors, x, det)
        if certificates is not None:
            certificates.append((num_vars, equalities, floors, vertex, farkas))
        pivots.append(count)
        return vertex, farkas, count

    monkeypatch.setattr(lpbound, "_solve_feasibility", counting_solve)
    return pivots


def test_solver_matches_fraction_reference_on_every_scan_solve(monkeypatch):
    solves = []
    pivots = _count_pivots(monkeypatch)
    counting_solve = lpbound._solve_feasibility

    def recording(num_vars, equalities, floors):
        result = counting_solve(num_vars, equalities, floors)
        solves.append((num_vars, general_rows(equalities, floors), as_fractions(result[0])))
        return result

    monkeypatch.setattr(lpbound, "_solve_feasibility", recording)
    for n in range(2, 10):
        for k in range(1, n):
            lp_upper_bound(n, k)
            for c in range(1, n - k) if n <= 5 else ():
                lp_upper_bound(n, k, c)
            # the trivial code settles d = 1 in every cell, with no solve
            assert all(lp_feasible_general(n, k, c, 1) for c in range(1, n - k + 1))
    # the unseeded scans, solve for solve and pivot for pivot
    assert (len(solves), sum(pivots)) == (160, 472)
    # d = 1 is settled by proof, so its systems are solved here for the same
    # cells, to keep their oracle
    for n in range(2, 10):
        for k in range(1, n):
            systems = [(n, _maximal_rows(n, k, 1))]
            systems += [(2 * n, _general_rows(n, k, c, 1)) for c in range(1, n - k) if n <= 5]
            for num_vars, (equalities, floors) in systems:
                point = solve(num_vars, equalities, floors)
                assert point is not None, (n, k)
                solves.append((num_vars, general_rows(equalities, floors), point))
    for num_vars, rows, point in solves:
        assert point == fraction_simplex(num_vars, rows)


def test_simplex_iteration_cap_boundary(monkeypatch):
    # a solve that is feasible after exactly the cap's pivots returns its point
    equalities, floors = _maximal_rows(9, 4, 5)
    point, _, pivots = _solve_feasibility(5, equalities, floors)
    assert point is not None and pivots >= 2
    monkeypatch.setattr(lpbound, "_SIMPLEX_ITERATION_CAP", pivots)
    assert _solve_feasibility(5, equalities, floors) == (point, None, pivots)
    monkeypatch.setattr(lpbound, "_SIMPLEX_ITERATION_CAP", pivots - 1)
    with pytest.raises(BudgetError, match=f"{pivots - 1} pivots"):
        _solve_feasibility(5, equalities, floors)


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
    # the reduced point, lifted to A and B, solves the full two-enumerator system
    for n, k, d in ((5, 2, 3), (5, 2, 4), (7, 2, 5), (9, 4, 5), (11, 1, 9)):
        equalities, floors = _maximal_rows(n, k, d)
        assert (len(equalities), len(floors)) == (1, n)
        assert all(len(coeffs) == n - d + 1 for coeffs, _ in equalities + floors)
        point = solve(n - d + 1, equalities, floors)
        assert point is not None
        assert_satisfies(point, general_rows(equalities, floors))
        b = [Fraction(1)] + [Fraction(0)] * (d - 1) + point
        assert_satisfies(transform(b, 4**k) + b, full_maximal_rows(n, k, d))


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
    certificates = []
    solves = _count_pivots(monkeypatch, certificates)
    per_cell = {}
    walk = lpbound._walk

    def counting_walk(n, k, *args):
        before = len(solves)
        bound = walk(n, k, *args)
        assert (n, k) not in per_cell
        per_cell[(n, k)] = len(solves) - before
        return bound

    monkeypatch.setattr(lpbound, "_walk", counting_walk)
    table = build_table(9)
    # one walk per cell, of at most two solves; the ascending scan took 167
    assert sorted(per_cell) == [(c.n, c.k) for c in table.cells]
    assert max(per_cell.values()) <= 2
    assert (len(solves), sum(solves)) == (53, 164)
    # the k = n - 1 column climbs from the trivial code's floor of 1
    solves.clear()
    per_cell.clear()
    certificates.clear()
    build_table(15)
    assert (len(solves), sum(solves)) == (160, 918)
    # 74 verdicts are infeasible and 86 feasible, and each one's vector or
    # vertex was accepted
    vectors = [cert for cert in certificates if cert[3] is None]
    vertices = [cert for cert in certificates if cert[3] is not None]
    assert (len(vectors), len(vertices)) == (74, 86)
    # a vector with a floor entry negated is not accepted
    num_vars, equalities, floors, _, farkas = vectors[-1]
    j = next(j for j in range(len(equalities), len(farkas)) if farkas[j])
    negated = farkas[:j] + [-farkas[j]] + farkas[j + 1 :]
    assert not farkas_accepts(num_vars, equalities, floors, negated)
    # nor is a vertex over twice its det, which halves the sum B_d + ... + B_n
    num_vars, equalities, floors, (x, det), _ = vertices[-1]
    assert not point_accepts(num_vars, equalities, floors, x, 2 * det)


def test_lengthening_and_trading_lift_feasible_points(monkeypatch):
    # each of the 307 feasible points with n <= 12, padded with
    # B_(n+1) = 0, satisfies the (n + 1, k, d) rows, and scaled by
    # lambda = (4^(k-1) - 1) / (4^k - 1) the (n, k - 1, d) rows, checked
    # exactly by substitution
    lifted = 0
    for n in range(2, 13):
        for k in range(1, n):
            for d in range(1, n + 1):
                point = solve(n - d + 1, *_maximal_rows(n, k, d))
                if point is None:
                    break
                assert_satisfies(point + [0], general_rows(*_maximal_rows(n + 1, k, d)))
                lifted += 1
                if k > 1:
                    scale = Fraction(4 ** (k - 1) - 1, 4**k - 1)
                    traded = [scale * x for x in point]
                    assert_satisfies(traded, general_rows(*_maximal_rows(n, k - 1, d)))
    assert lifted == 307
    # the same lifts of the 375 feasible partial points with 3 <= n <= 9,
    # over I_1..I_n then M_d..M_n: I and M padded with 0 at weight n + 1
    # satisfy the (n + 1, k, c + 1, d) rows, and I kept with M scaled by
    # lambda the (n, k - 1, c + 1, d) rows
    lifted = 0
    for n in range(3, 10):
        for k in range(1, n):
            for c in range(1, n - k):
                for d in range(1, n + 1):
                    point = solve(2 * n - d + 1, *_general_rows(n, k, c, d))
                    if point is None:
                        break
                    iso, excess = point[:n], point[n:]
                    lengthened = iso + [0] + excess + [0]
                    rows = _general_rows(n + 1, k, c + 1, d)
                    assert_satisfies(lengthened, general_rows(*rows))
                    lifted += 1
                    if k > 1:
                        scale = Fraction(4 ** (k - 1) - 1, 4**k - 1)
                        traded = iso + [scale * x for x in excess]
                        rows = _general_rows(n, k - 1, c + 1, d)
                        assert_satisfies(traded, general_rows(*rows))
    assert lifted == 375
    # so in the table, bound(n - 1, k), feasible at (n, k) by lengthening,
    # never exceeds bound(n, k - 1), which caps (n, k) by trading
    brackets = []
    walk = lpbound._walk

    def recording_walk(n, k, c, feasible, infeasible):
        brackets.append((n, k, feasible, infeasible))
        return walk(n, k, c, feasible, infeasible)

    monkeypatch.setattr(lpbound, "_walk", recording_walk)
    table = build_table(20)
    assert len(brackets) == 190
    for n, k, feasible, infeasible in brackets:
        assert feasible <= infeasible - 1, (n, k)
    for cell in table.cells:
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
    # system poses the maximal cell too, and both give the same verdict
    for n in range(2, 10):
        for k in range(1, n):
            for d in range(1, n + 1):
                general = solve(2 * n - d + 1, *_general_rows(n, k, n - k, d))
                maximal = solve(n - d + 1, *_maximal_rows(n, k, d))
                assert (general is None) == (maximal is None), (n, k, d)


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
                        point, (equalities, floors) = norm[d:], _maximal_rows(n, k, d)
                    else:  # I_1..I_n, then M_d..M_n = N - I
                        iso = weight_enumerator(code.isotropic_group).coeffs
                        point = iso[1:] + tuple(x - y for x, y in zip(norm[d:], iso[d:]))
                        equalities, floors = _general_rows(n, k, c, d)
                    assert point_accepts(len(point), equalities, floors, point, 1)
                    assert bound >= d, (n, k, c)


def test_general_rows_shape_and_lift():
    # every feasible reduced point, lifted to I, S, N, C, solves the full
    # four-block system, and every verdict matches the full system's.  The
    # full system is solved at a cell's first infeasible d; each later d's
    # full system holds the previous one's rows, so it is infeasible too.
    # Below d the floor C_w >= N_w is left out: there N_w = I_w, and 4^k
    # times it is the sum of the kept S_w >= I_w and C_w >= S_w floors.
    for n in range(3, 6):
        for k in range(1, n):
            for c in range(1, n - k):
                full_infeasible = False
                iso_order = 1 << (n - k - c)
                for d in range(1, n + 1):
                    equalities, floors = _general_rows(n, k, c, d)
                    num_vars = 2 * n - d + 1
                    assert (len(equalities), len(floors)) == (2, 3 * n - d + 1)
                    assert all(len(a) == num_vars for a, _ in equalities + floors)
                    for w in range(1, d):
                        # |I| (C_w - N_w) >= -K_w(0), over I_1..I_n, M_d..M_n
                        row = [krawtchouk(w, wp, n) for wp in range(1, n + 1)]
                        row += [0] * (n - d + 1)
                        row[w - 1] -= iso_order
                        (s_i, s_rhs), (c_s, c_rhs) = floors[2 * w - 2 : 2 * w]
                        assert [4**k * x for x in row] == [x + y for x, y in zip(s_i, c_s)]
                        assert -(4**k) * krawtchouk(w, 0, n) == s_rhs + c_rhs
                    point = solve(num_vars, equalities, floors)
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
    _count_pivots(monkeypatch, certificates)
    root = Path(__file__).resolve().parent.parent
    pinned = json.loads((root / "tests" / "data" / "lp_general_n10.json").read_text())
    cells = [(n, k, c) for n in range(3, 11) for k in range(1, n) for c in range(1, n - k)]
    assert [tuple(row[:3]) for row in pinned["lp_general"]] == cells
    assert [[n, k, c, lp_upper_bound(n, k, c)] for n, k, c in cells] == pinned["lp_general"]
    frozen = json.loads((root / "perfbench" / "expected.json").read_text())["lp_general"]
    assert [row for row in pinned["lp_general"] if row[0] <= 5] == frozen
    # each scan climbs to its first infeasible d, unless its bound is n
    vectors = [cert for cert in certificates if cert[3] is None]
    assert len(vectors) == sum(bound < n for n, _, _, bound in pinned["lp_general"]) == 120


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
    # that row fails at the origin, so it enters as an equality with a
    # surplus column t: -|I| (C_1 - N_1) - t = |I|
    extra = ([-x for x in row] + [-1], krawtchouk(1, 0, n) + iso_order)
    equalities, floors = _general_rows(n, k, c, 1)
    assert solve(2 * n, equalities, floors) is not None
    equalities = [(a + [0], b) for a, b in equalities] + [extra]
    floors = [(a + [0], b) for a, b in floors]
    assert solve(2 * n + 1, equalities, floors) is None


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
