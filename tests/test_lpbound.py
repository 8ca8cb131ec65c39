"""Exact-rational feasibility solver, the LP systems, and the bounds table."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eaqec import (
    apply_overrides,
    build_table,
    integer_feasible,
    lp_feasible,
    lp_feasible_general,
    lp_upper_bound,
    LpInstance,
)
from eaqec.lpbound import _solve_feasibility


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
    inst = LpInstance(5, 2, 3)
    rows = inst.rows()
    point = _solve_feasibility(inst.num_vars, rows)
    assert point is not None
    assert_satisfies(point, rows)
    # leading coefficients pinned
    assert point[0] == 1 and point[inst.n + 1] == 1


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
