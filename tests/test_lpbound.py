"""Exact feasibility solver, the LP systems, and the bounds table.

Oracles: the original ``fractions.Fraction`` simplex, kept here verbatim as a
reference for the integer-pivoting solver, and the original full systems over
all two (maximal entanglement) or four (partial) weight distributions, which
the reduced systems' points are lifted back into with ``krawtchouk``.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eaqec import (
    apply_overrides,
    build_table,
    integer_feasible,
    krawtchouk,
    lp_feasible,
    lp_feasible_general,
    lp_upper_bound,
    LpInstance,
)
from eaqec import lpbound
from eaqec.errors import BudgetError
from eaqec.lpbound import _general_rows, _solve_feasibility


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


def lift_general(n, k, c, point):
    """I, S, N, C recovered from a point over S_1..S_n, C_1..C_n."""
    stab = [Fraction(1)] + point[:n]
    comb = [Fraction(1)] + point[n:]
    norm = transform(stab, 1 << (n - k + c))
    iso = transform(comb, 1 << (n + k + c))
    return iso + stab + norm + comb


# ---------------------------------------------------------------------------
# the solver itself


def test_solver_finds_exact_point():
    rows = [([1, 1], "=", 1), ([1, -1], "=", 1)]
    point = _solve_feasibility(2, rows)
    assert point == [Fraction(1), Fraction(0)]


def test_solver_reports_infeasibility():
    assert _solve_feasibility(1, [([1], "=", 1), ([1], "=", 2)]) is None
    assert _solve_feasibility(1, [([1], "<=", -1)]) is None
    assert _solve_feasibility(2, [([1, 1], "<=", 1), ([1, 1], ">=", 2)]) is None


def test_solver_handles_inequalities_and_negative_rhs():
    rows = [([1], ">=", 2), ([1], "<=", 3)]
    point = _solve_feasibility(1, rows)
    assert point is not None
    assert_satisfies(point, rows)
    # negative right-hand side flips the sense during normalization
    rows = [([-1], "<=", -2)]
    point = _solve_feasibility(1, rows)
    assert point is not None and point[0] >= 2


def test_solver_trivial_system():
    assert _solve_feasibility(3, []) == [Fraction(0)] * 3


def test_solver_fractional_point():
    rows = [([2], "=", 1)]
    assert _solve_feasibility(1, rows) == [Fraction(1, 2)]


def test_solver_rejects_non_integer_rows():
    with pytest.raises(TypeError):
        _solve_feasibility(1, [([Fraction(1, 2)], "=", 1)])
    with pytest.raises(TypeError):
        _solve_feasibility(1, [([1.0], "=", 1)])
    with pytest.raises(TypeError):
        _solve_feasibility(1, [([1], "=", 0.5)])


_small_system = st.integers(1, 4).flatmap(
    lambda m: st.tuples(
        st.just(m),
        st.lists(
            st.tuples(
                st.lists(st.integers(-5, 5), min_size=m, max_size=m),
                st.sampled_from(["<=", "=", ">="]),
                st.integers(-8, 8),
            ),
            max_size=6,
        ),
    )
)


@settings(max_examples=300, deadline=None)
@given(_small_system)
def test_solver_matches_fraction_reference_on_small_systems(system):
    num_vars, rows = system
    point = _solve_feasibility(num_vars, rows)
    assert point == fraction_simplex(num_vars, rows)
    if point is not None:
        assert_satisfies(point, rows)


def test_solver_matches_fraction_reference_on_every_scan_solve(monkeypatch):
    solves = []
    solve = lpbound._solve_feasibility

    def recording(num_vars, rows):
        point = solve(num_vars, rows)
        solves.append((num_vars, list(rows), point))
        return point

    monkeypatch.setattr(lpbound, "_solve_feasibility", recording)
    for n in range(2, 10):
        for k in range(1, n):
            lp_upper_bound(n, k)
            for c in range(1, n - k) if n <= 5 else ():
                lp_upper_bound(n, k, c)
            for d in range(1, n + 1) if n <= 6 else ():
                integer_feasible(n, k, d)
    assert len(solves) > 200
    for num_vars, rows, point in solves:
        assert point == fraction_simplex(num_vars, rows)


# ---------------------------------------------------------------------------
# the maximal-entanglement system


def test_lp_instance_validation():
    with pytest.raises(ValueError):
        LpInstance(5, 5, 2)
    with pytest.raises(ValueError):
        LpInstance(5, 0, 2)
    with pytest.raises(ValueError):
        LpInstance(5, 2, 0)
    with pytest.raises(ValueError):
        LpInstance(5, 2, 6)


def test_lp_instance_solution_satisfies_rows():
    # the reduced point, lifted to A and B, solves the full two-enumerator system
    for n, k, d in ((5, 2, 3), (5, 2, 4), (7, 2, 5), (9, 4, 5), (11, 1, 9)):
        inst = LpInstance(n, k, d)
        rows = inst.rows()
        assert inst.num_vars == n and len(rows) == n + 1
        assert all(len(coeffs) == n for coeffs, _, _ in rows)
        point = _solve_feasibility(inst.num_vars, rows)
        assert point is not None
        assert_satisfies(point, rows)
        a = [Fraction(1)] + point
        assert_satisfies(a + transform(a, 4 ** (n - k)), full_maximal_rows(n, k, d))


def test_lp_verdicts_match_full_system():
    for n in range(2, 8):
        for k in range(1, n):
            for d in range(1, n + 1):
                full = fraction_simplex(2 * (n + 1), full_maximal_rows(n, k, d))
                assert lp_feasible(n, k, d) == (full is not None), (n, k, d)


def test_lp_feasibility_spot_values():
    assert lp_feasible(5, 2, 4) and not lp_feasible(5, 2, 5)
    assert lp_feasible(7, 2, 5) and not lp_feasible(7, 2, 6)


def test_lp_feasibility_is_monotone_in_distance():
    for n, k in ((4, 2), (5, 2), (6, 3), (7, 4)):
        verdicts = [lp_feasible(n, k, d) for d in range(1, n + 1)]
        assert verdicts == sorted(verdicts, reverse=True)


def test_lp_upper_bound_small_cells():
    assert lp_upper_bound(3, 1) == 3
    assert lp_upper_bound(3, 2) == 2
    assert lp_upper_bound(4, 2) == 3
    assert lp_upper_bound(5, 2) == 4
    assert lp_upper_bound(5, 3) == 3
    assert lp_upper_bound(5, 4) == 2
    with pytest.raises(ValueError):
        lp_upper_bound(5, 0)


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


def test_integer_feasibility():
    assert integer_feasible(2, 1, 2) is True
    assert integer_feasible(2, 1, 2, node_limit=0) is None
    # branch-and-bound can only tighten, never loosen, the plain scan
    assert lp_upper_bound(5, 2, branch_and_bound=True) <= lp_upper_bound(5, 2)
    with pytest.raises(ValueError):
        lp_upper_bound(5, 2, 1, branch_and_bound=True)


def test_integer_feasibility_makes_both_distributions_integral(monkeypatch):
    # at [[10,3,5;7]] some LP points have integral A and fractional B, so the
    # search must branch on B as well
    n, k, d = 10, 3, 5
    points = []
    solve = lpbound._solve_feasibility

    def recording(num_vars, rows):
        point = solve(num_vars, rows)
        points.append(point)
        return point

    monkeypatch.setattr(lpbound, "_solve_feasibility", recording)
    assert integer_feasible(n, k, d) is True
    a = [Fraction(1)] + points[-1]
    b = transform(a, 4 ** (n - k))
    assert all(x.denominator == 1 for x in a + b)
    assert_satisfies(a + b, full_maximal_rows(n, k, d))


# ---------------------------------------------------------------------------
# the general system


def test_general_system_validation():
    with pytest.raises(ValueError):
        lp_feasible_general(5, 2, 0, 2)
    with pytest.raises(ValueError):
        lp_feasible_general(5, 2, 4, 2)
    with pytest.raises(ValueError):
        lp_feasible_general(5, 0, 2, 2)
    with pytest.raises(ValueError):
        lp_feasible_general(5, 2, 3, 6)


def test_general_system_matches_maximal_at_boundary():
    for n, k, d in ((4, 2, 2), (4, 2, 3), (5, 2, 4), (5, 2, 5), (5, 3, 3)):
        assert lp_feasible_general(n, k, n - k, d) == lp_feasible(n, k, d)


def test_general_system_admits_known_codes():
    # lengthening the five-qubit code gives a [[6,1,3;1]] code, so that cell
    # must stay feasible up to its distance
    for d in (1, 2, 3):
        assert lp_feasible_general(6, 1, 1, d)
    # trivial distance is always feasible on any valid cell
    assert lp_feasible_general(6, 2, 2, 1)
    assert lp_feasible_general(7, 3, 2, 1)


def test_general_system_is_monotone_in_distance():
    verdicts = [lp_feasible_general(6, 2, 2, d) for d in range(1, 7)]
    assert verdicts == sorted(verdicts, reverse=True)
    assert lp_upper_bound(6, 2, 2) == sum(verdicts)


def test_general_rows_shape_and_lift():
    # every feasible reduced point, lifted to I, S, N, C, solves the full
    # four-block system, and every verdict matches the full system's
    for n in range(3, 6):
        for k in range(1, n):
            for c in range(1, n - k):
                for d in range(1, n + 1):
                    rows = _general_rows(n, k, c, d)
                    assert len(rows) == 5 * n + 2
                    assert all(len(coeffs) == 2 * n for coeffs, _, _ in rows)
                    point = _solve_feasibility(2 * n, rows)
                    full_rows = full_general_rows(n, k, c, d)
                    if point is None:
                        assert fraction_simplex(4 * (n + 1), full_rows) is None
                    else:
                        assert_satisfies(point, rows)
                        assert_satisfies(lift_general(n, k, c, point), full_rows)


def test_general_dominance_of_combined_over_normalizer():
    # C_w >= N_w is not implied by the other rows; no verdict depends on it,
    # so this pins it: asking for C_1 <= N_1 - 1 must be infeasible
    n, k, c = 4, 1, 1
    stab_order = 1 << (n - k + c)
    coeffs = [krawtchouk(1, wp, n) for wp in range(1, n + 1)]
    row = [-x for x in coeffs] + [0] * n  # |S| (C_1 - N_1) <= -|S|
    row[n] = stab_order
    extra = (row, "<=", krawtchouk(1, 0, n) - stab_order)
    assert _solve_feasibility(2 * n, _general_rows(n, k, c, 1)) is not None
    assert _solve_feasibility(2 * n, _general_rows(n, k, c, 1) + [extra]) is None


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


def test_table_rendering():
    table = build_table(4)
    text = table.to_text()
    assert text == table.to_text()  # deterministic
    assert "2-3" in text  # the open (4, 2) cell
    assert "provenance:" in text
    payload = table.to_json_dict()
    assert payload["n_max"] == 4
    assert len(payload["cells"]) == len(table.cells)
    by_cell = {(c["n"], c["k"]): c for c in payload["cells"]}
    for cell in table.cells:
        row = by_cell[(cell.n, cell.k)]
        assert (row["lower"], row["upper"]) == (cell.lower, cell.upper)
        assert row["lower_source"] == cell.lower_source
        assert row["upper_source"] == cell.upper_source


def test_lower_bounds_never_exceed_upper_bounds():
    table = build_table(6)
    for cell in table.cells:
        assert 1 <= cell.lower <= cell.upper <= cell.n


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.data())
def test_scan_consistency_property(n, data):
    k = data.draw(st.integers(1, n - 1))
    bound = lp_upper_bound(n, k)
    assert lp_feasible(n, k, bound)
    if bound < n:
        assert not lp_feasible(n, k, bound + 1)
