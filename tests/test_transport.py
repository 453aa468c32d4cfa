"""Transportation LP solver against enumeration oracles and exact identities."""

import numpy as np
import pytest

import casino_ewac.transport as transport
from casino_ewac import (FEASIBILITY_TOL, PATH_1, PATH_2, TransportProblem,
                         canonical_model, check_feasibility, cs_mask,
                         ewac_objective, pm_mask, smooth, solve)
from helpers import enumerate_transport_optimum, loop_pivot, loop_solve


def _canonical_marginals():
    model = canonical_model(0.5)
    return model.emission[0], model.emission[1]


def _random_rational_instance(rng, k=3, mask_rate=0.0):
    total = 0
    while total == 0:
        r_num = rng.integers(0, 10, size=k)
        total = int(r_num.sum())
    s_num = rng.multinomial(total, np.full(k, 1 / k))
    costs = rng.integers(-9, 10, size=(k, k)).astype(float)
    mask = frozenset((i, j) for i in range(k) for j in range(k)
                     if rng.random() < mask_rate)
    return costs, r_num / total, s_num / total, mask


class TestValidation:
    def test_unbalanced_targets_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            TransportProblem(np.zeros((2, 2)), [0.6, 0.4], [0.5, 0.4])

    def test_negative_targets_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            TransportProblem(np.zeros((2, 2)), [1.5, -0.5], [0.5, 0.5])

    @pytest.mark.parametrize("rows,cols,name", [
        ([np.nan, 0.5], [0.5, 0.5], "row"),
        ([0.5, 0.5], [0.5, np.nan], "column"),
        ([np.inf, 0.0], [np.inf, 0.0], "row"),
        ([0.5, 0.5], [-np.inf, np.inf], "column"),
    ])
    def test_non_finite_targets_rejected(self, rows, cols, name):
        # NaN passes every comparison and inf - inf balances as NaN, so
        # without the check these reach the simplex and end in an
        # ArithmeticError.
        with pytest.raises(ValueError, match=f"{name} targets must be finite"):
            TransportProblem(np.zeros((2, 2)), rows, cols)

    def test_mask_must_be_in_range(self):
        with pytest.raises(ValueError, match="mask cell"):
            TransportProblem(np.zeros((2, 2)), [0.5, 0.5], [0.5, 0.5],
                             zero_mask={(0, 2)})

    def test_sense_checked(self):
        with pytest.raises(ValueError, match="sense"):
            TransportProblem(np.zeros((2, 2)), [0.5, 0.5], [0.5, 0.5],
                             sense="maximise")


class TestSmallExactInstances:
    def test_matching_costs_pick_the_diagonal(self):
        sol = solve(TransportProblem([[0.0, 1.0], [1.0, 0.0]],
                                     [0.5, 0.5], [0.5, 0.5]))
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(sol.theta, [[0.5, 0.0], [0.0, 0.5]],
                                   atol=1e-12)

    def test_masking_the_diagonal_forces_the_swap(self):
        sol = solve(TransportProblem([[0.0, 1.0], [1.0, 0.0]],
                                     [0.5, 0.5], [0.5, 0.5],
                                     zero_mask={(0, 0), (1, 1)}))
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(sol.theta, [[0.0, 0.5], [0.5, 0.0]],
                                   atol=1e-12)
        assert sol.theta[0, 0] == 0.0 and sol.theta[1, 1] == 0.0

    def test_single_column_reward_fills_top_rows_first(self):
        # Minimising -w_i on column 4 of the canonical marginals must load
        # face 6 to its 1/6 cap and put the leftover 1/42 on face 5.
        r, s = _canonical_marginals()
        costs = np.zeros((6, 6))
        costs[:, 3] = -np.arange(1, 7)
        sol = solve(TransportProblem(costs, r, s))
        assert sol.status == "optimal"
        assert sol.theta[5, 3] == pytest.approx(1 / 6, abs=1e-12)
        assert sol.theta[4, 3] == pytest.approx(1 / 42, abs=1e-12)
        assert sol.value == pytest.approx(-(6 / 6 + 5 / 42), abs=1e-12)

    def test_one_cell_polytope(self):
        sol = solve(TransportProblem([[3.0]], [1.0], [1.0]))
        assert sol.value == pytest.approx(3.0)
        np.testing.assert_allclose(sol.theta, [[1.0]])

    def test_zero_total_mass(self):
        sol = solve(TransportProblem(np.ones((2, 2)), [0.0, 0.0], [0.0, 0.0]))
        assert sol.status == "optimal"
        assert sol.value == 0.0
        np.testing.assert_array_equal(sol.theta, np.zeros((2, 2)))


class TestInfeasibility:
    def test_masked_corner_blocks_all_mass(self):
        sol = solve(TransportProblem(np.zeros((2, 2)), [1.0, 0.0], [0.0, 1.0],
                                     zero_mask={(0, 1)}))
        assert sol.status == "infeasible"
        assert sol.theta is None

    def test_same_instance_without_mask_is_feasible(self):
        sol = solve(TransportProblem(np.zeros((2, 2)), [1.0, 0.0], [0.0, 1.0]))
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.theta, [[0.0, 1.0], [0.0, 0.0]],
                                   atol=1e-12)

    def test_check_feasibility_agrees(self):
        assert check_feasibility([1.0, 0.0], [0.0, 1.0])
        assert not check_feasibility([1.0, 0.0], [0.0, 1.0],
                                     zero_mask={(0, 1)})

    def test_check_feasibility_validates_its_targets(self):
        with pytest.raises(ValueError, match="differ"):
            check_feasibility([0.6, 0.4], [0.5, 0.4])
        with pytest.raises(ValueError, match="mask cell"):
            check_feasibility([0.5, 0.5], [0.5, 0.5], zero_mask={(2, 0)})

    @pytest.mark.parametrize("rows,cols,name", [
        ([0.5, np.nan], [0.5, 0.5], "row"),
        ([1.0, 0.0], [np.nan, np.nan], "column"),
        ([0.5, 0.5], [np.inf, np.inf], "column"),
    ])
    def test_check_feasibility_rejects_non_finite_targets(self, rows, cols,
                                                          name):
        with pytest.raises(ValueError, match=f"{name} targets must be finite"):
            check_feasibility(rows, cols, zero_mask={(0, 1)})

    def test_fully_masked_with_mass_left(self):
        mask = {(i, j) for i in range(2) for j in range(2)}
        assert not check_feasibility([0.5, 0.5], [0.5, 0.5], zero_mask=mask)
        assert check_feasibility([0.0, 0.0], [0.0, 0.0], zero_mask=mask)


class TestAgainstEnumeration:
    def test_random_rational_instances(self):
        rng = np.random.default_rng(123)
        solved = 0
        while solved < 60:
            costs, r, s, _ = _random_rational_instance(rng)
            oracle = enumerate_transport_optimum(costs, r, s)
            lo = solve(TransportProblem(costs, r, s, sense="min"))
            hi = solve(TransportProblem(costs, r, s, sense="max"))
            assert lo.status == "optimal" and hi.status == "optimal"
            assert lo.value == pytest.approx(oracle[0], abs=1e-9)
            assert hi.value == pytest.approx(oracle[1], abs=1e-9)
            solved += 1

    def test_random_masked_instances(self):
        rng = np.random.default_rng(321)
        feasible = infeasible = 0
        while feasible < 40 or infeasible < 10:
            costs, r, s, mask = _random_rational_instance(rng, mask_rate=0.35)
            oracle = enumerate_transport_optimum(costs, r, s, mask)
            lo = solve(TransportProblem(costs, r, s, zero_mask=mask))
            if oracle is None:
                assert lo.status == "infeasible"
                assert not check_feasibility(r, s, mask)
                infeasible += 1
            else:
                assert lo.status == "optimal"
                assert lo.value == pytest.approx(oracle[0], abs=1e-9)
                for i, j in mask:
                    assert lo.theta[i, j] == 0.0
                feasible += 1


class TestSolutionInvariants:
    def test_min_is_exactly_negated_max(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            costs, r, s, _ = _random_rational_instance(rng, k=4)
            lo = solve(TransportProblem(costs, r, s, sense="min"))
            hi = solve(TransportProblem(-costs, r, s, sense="max"))
            assert lo.value == -hi.value

    def test_column_shift_moves_value_by_mass(self):
        rng = np.random.default_rng(6)
        r, s = _canonical_marginals()
        costs = rng.normal(size=(6, 6))
        base = solve(TransportProblem(costs, r, s))
        shifted_costs = costs.copy()
        shifted_costs[:, 2] += 10.0
        shifted = solve(TransportProblem(shifted_costs, r, s))
        assert shifted.value == pytest.approx(base.value + 10.0 * s[2],
                                              abs=1e-9)
        # The unshifted optimiser stays optimal for the shifted costs.
        assert float(np.sum(shifted_costs * base.theta)) == pytest.approx(
            shifted.value, abs=1e-9)

    def test_optimum_satisfies_marginals_tightly(self):
        rng = np.random.default_rng(8)
        r, s = _canonical_marginals()
        for _ in range(10):
            costs = rng.normal(size=(6, 6))
            sol = solve(TransportProblem(costs, r, s))
            assert np.abs(sol.theta.sum(axis=1) - r).max() <= FEASIBILITY_TOL
            assert np.abs(sol.theta.sum(axis=0) - s).max() <= FEASIBILITY_TOL
            assert sol.theta.min() >= 0.0
            assert sol.iterations > 0

    def test_vertex_support_is_small(self):
        # A basic solution has at most 2K - 1 positive cells.
        rng = np.random.default_rng(13)
        r, s = _canonical_marginals()
        for _ in range(10):
            costs = rng.normal(size=(6, 6))
            sol = solve(TransportProblem(costs, r, s))
            assert np.count_nonzero(sol.theta > 1e-12) <= 11


class TestStoppingTolerance:
    def test_costs_spanning_many_orders_reach_the_optimum(self):
        # Found by hypothesis: while phase two stopped at reduced costs of
        # 1e-9 * max|c|, the maximum came out 1.5e-8 instead of 2e-8 (face
        # 4 of the fair die on biased face 4, the rest on face 2).
        costs = np.outer([1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 3.0, 1e-8])
        sol = solve(TransportProblem(costs, [0.0, 0.0, 0.5, 0.5],
                                     [0.0, 0.5, 0.0, 0.5], sense="max"))
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(2e-8, rel=1e-12, abs=0)


class TestRatioTies:
    def test_a_tiny_marginal_entry_does_not_tie_with_zero(self):
        # Found by hypothesis: while ratios within an absolute 1e-10 tied,
        # the ratio 1e-10 tied with 0, Bland's rule left on the wrong row,
        # and the minimum came out 1.0 with 1e-10 on the zero-mass row.
        cols = np.array([1e-10, 1.0]) / (1.0 + 1e-10)
        sol = solve(TransportProblem(np.outer([1.0, 2.0], [0.0, 1.0]),
                                     [1.0, 0.0], cols, sense="min"))
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(0.9999999999, rel=1e-12, abs=0)
        np.testing.assert_array_equal(sol.theta[1], [0.0, 0.0])


def _canonical_problems():
    """Rank-one EWAC costs of both builtin paths at several fairness
    levels, and random costs, under the pm and cs masks."""
    rng = np.random.default_rng(17)
    r, s = _canonical_marginals()
    masks = (cs_mask(canonical_model(0.5).emission), pm_mask(6))
    costs = [rng.normal(size=(6, 6)) for _ in range(3)]
    for eta in (0.01, 0.2, 0.5, 0.8, 0.99999, 1.0):
        model = canonical_model(eta)
        for path in (PATH_1, PATH_2):
            objective = ewac_objective(model, path, smooth(model, path))
            costs.append(objective.coeff)
    return [TransportProblem(c, r, s, zero_mask=mask, sense=sense)
            for mask in masks for c in costs for sense in ("min", "max")]


def _random_masked_problem(rng, k, zero_rate=0.0):
    """Random marginals (some zero at ``zero_rate``), costs spanning ten
    orders of magnitude, and a random mask."""
    r, s = (np.where(rng.random(k) < zero_rate, 0.0, rng.random(k))
            for _ in range(2))
    r[0] += r.sum() == 0.0
    s[0] += s.sum() == 0.0
    r, s = r / r.sum(), s / s.sum()
    costs = rng.normal(size=(k, k)) * 10.0 ** rng.integers(-8, 3, size=(k, k))
    mask = {(i, j) for i in range(k) for j in range(k) if rng.random() < 0.3}
    return [TransportProblem(costs, r, s, zero_mask=mask, sense=sense)
            for sense in ("min", "max")]


def _assert_identical(problem):
    """``solve`` agrees with the per-element simplex rerun from scratch:
    the same bytes, the same pivot counts, and ``check_feasibility`` with
    its status.  Returns the status."""
    status, value, theta, iterations = loop_solve(problem)
    sol = solve(problem)
    assert sol.status == status
    assert check_feasibility(problem.row_targets, problem.col_targets,
                             problem.zero_mask) == (status == "optimal")
    assert sol.iterations == iterations
    if status == "optimal":
        assert sol.value == value
        assert sol.theta.tobytes() == theta.tobytes()
    else:
        assert sol.theta is None and np.isnan(sol.value)
    return status


class TestAgainstTheLoopOracle:
    """The vectorised pivots and the two phases against the per-element
    loops."""

    def test_pivot_keeps_the_row_loop_bits(self):
        # Signed zeros included: rows with a zero in the pivot column are
        # left alone, and a negative pivot turns a row's zeros into -0.0.
        rng = np.random.default_rng(54)
        for _ in range(200):
            m, n = rng.integers(2, 9, size=2)
            tab = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.5)
            tab[rng.random((m, n)) < 0.2] = -0.0
            row, col = rng.integers(m), rng.integers(n)
            tab[row, col] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
            ours, theirs = tab.copy(), tab.copy()
            basis, loop_basis = np.arange(m), list(range(m))
            transport._pivot(ours, basis, row, col)
            loop_pivot(theirs, loop_basis, row, col)
            assert ours.tobytes() == theirs.tobytes()
            assert basis.tolist() == loop_basis

    def test_random_masked_instances(self):
        rng = np.random.default_rng(55)
        statuses = []
        for k in range(2, 8):
            for _ in range(12):
                for problem in _random_masked_problem(rng, k):
                    statuses.append(_assert_identical(problem))
        assert statuses.count("optimal") >= 60
        assert statuses.count("infeasible") >= 10

    def test_canonical_marginals_under_cs_and_pm(self):
        for problem in _canonical_problems():
            assert _assert_identical(problem) == "optimal"

    def test_infeasible_masks(self):
        rng = np.random.default_rng(56)
        infeasible = 0
        while infeasible < 20:
            costs, r, s, mask = _random_rational_instance(
                rng, k=int(rng.integers(2, 6)), mask_rate=0.6)
            problem = TransportProblem(costs, r, s, zero_mask=mask)
            if _assert_identical(problem) == "infeasible":
                assert not check_feasibility(r, s, mask)
                infeasible += 1

    def test_zero_marginals(self):
        rng = np.random.default_rng(57)
        for k in range(2, 8):
            for _ in range(6):
                for problem in _random_masked_problem(rng, k, zero_rate=0.4):
                    _assert_identical(problem)
        for mask in (frozenset(), pm_mask(3), {(0, 0), (1, 1), (2, 2)}):
            _assert_identical(
                TransportProblem(np.ones((3, 3)), np.zeros(3), np.zeros(3),
                                 zero_mask=mask))


class TestNoStateBetweenCalls:
    """Each solve starts from scratch: what was solved before, or done to
    a returned table, changes no later result."""

    def test_interleaved_polytopes_change_no_result(self):
        rng = np.random.default_rng(58)
        problems = _canonical_problems()[:4] + [
            p for k in (3, 4, 5) for p in _random_masked_problem(rng, k)]
        for order in (range(len(problems)),
                      rng.permutation(len(problems)),
                      rng.permutation(len(problems))):
            for n in order:
                _assert_identical(problems[n])

    def test_mutating_a_returned_theta_leaves_later_solves_intact(self):
        problem = _canonical_problems()[1]
        first = solve(problem)
        reference = first.theta.copy()
        first.theta[:] = 7.0
        assert solve(problem).theta.tobytes() == reference.tobytes()
