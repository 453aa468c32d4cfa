"""Transportation LP solver against enumeration oracles and exact identities."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import casino_ewac.transport as transport
from casino_ewac import (FEASIBILITY_TOL, PATH_1, PATH_2, HmmModel,
                         TransportProblem, canonical_model, check_feasibility,
                         cs_mask, ewac_objective, pm_mask, smooth, solve)
from helpers import enumerate_transport_optimum, loop_solve

_EPS = float(np.finfo(float).eps)


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


def _assert_vertex(theta, rows, cols):
    """theta meets the targets and is a basic solution: at most 2K - 1
    positive cells, no cycle among them (each joins two components of the
    graph of rows and columns)."""
    k = theta.shape[0]
    tol = FEASIBILITY_TOL * max(rows.sum(), cols.sum())
    assert theta.min() >= 0.0
    assert np.abs(theta.sum(axis=1) - rows).max() <= tol
    assert np.abs(theta.sum(axis=0) - cols).max() <= tol
    support = np.argwhere(theta > 0).tolist()
    assert len(support) <= 2 * k - 1
    root = list(range(2 * k))

    def find(n):
        while root[n] != n:
            n = root[n]
        return n

    for i, j in support:
        a, b = find(i), find(k + j)
        assert a != b, "the positive cells hold a cycle"
        root[a] = b


def _assert_agrees(problem):
    """``solve`` agrees with the tableau simplex rerun from scratch: the
    same status, which ``check_feasibility`` shares, and the same value
    within 16 K eps max|c| times the total mass, at a vertex that meets
    the mask exactly.  Returns the status."""
    status, value, _, _ = loop_solve(problem)
    sol = solve(problem)
    r, s = problem.row_targets, problem.col_targets
    assert sol.status == status
    assert check_feasibility(r, s, problem.zero_mask) == (status == "optimal")
    if status != "optimal":
        assert sol.theta is None and np.isnan(sol.value)
        return status
    scale = np.abs(problem.costs).max() * max(r.sum(), s.sum())
    assert abs(sol.value - value) <= 16 * r.size * _EPS * scale
    assert all(sol.theta[cell] == 0.0 for cell in problem.zero_mask)
    _assert_vertex(sol.theta, r, s)
    return status


class TestAgainstTheLoopOracle:
    """The tree simplex against the per-element tableau: status, value and
    vertexhood."""

    def test_random_masked_instances(self):
        rng = np.random.default_rng(55)
        statuses = []
        for k in range(2, 8):
            for _ in range(12):
                for problem in _random_masked_problem(rng, k):
                    statuses.append(_assert_agrees(problem))
        assert statuses.count("optimal") >= 60
        assert statuses.count("infeasible") >= 10

    def test_canonical_marginals_under_cs_and_pm(self):
        for problem in _canonical_problems():
            assert _assert_agrees(problem) == "optimal"

    def test_infeasible_masks(self):
        rng = np.random.default_rng(56)
        infeasible = 0
        while infeasible < 20:
            costs, r, s, mask = _random_rational_instance(
                rng, k=int(rng.integers(2, 6)), mask_rate=0.6)
            problem = TransportProblem(costs, r, s, zero_mask=mask)
            if _assert_agrees(problem) == "infeasible":
                assert not check_feasibility(r, s, mask)
                infeasible += 1

    def test_zero_marginals(self):
        rng = np.random.default_rng(57)
        for k in range(2, 8):
            for _ in range(6):
                for problem in _random_masked_problem(rng, k, zero_rate=0.4):
                    _assert_agrees(problem)
        for mask in (frozenset(), pm_mask(3), {(0, 0), (1, 1), (2, 2)}):
            _assert_agrees(
                TransportProblem(np.ones((3, 3)), np.zeros(3), np.zeros(3),
                                 zero_mask=mask))


@st.composite
def _degenerate_problems(draw, max_k):
    """Problems rich in ties and degenerate vertices: K from 1; uniform
    targets or small integer weights, zeros among them; integer costs in
    -2..2, equal costs or rank-one integer costs; no mask, a random one or
    the cs mask of a die with tied or unsorted probabilities."""
    k = draw(st.integers(1, max_k))

    def targets():
        weights = draw(st.just([1] * k)
                       | st.lists(st.integers(0, 3), min_size=k, max_size=k))
        x = np.array(weights, dtype=float)
        x[0] += x.sum() == 0.0
        return x / x.sum()

    rows, cols = targets(), targets()
    small = st.lists(st.integers(-2, 2), min_size=k * k, max_size=k * k)
    costs = draw(st.sampled_from(["ties", "equal", "rank-one"]))
    if costs == "ties":
        costs = np.array(draw(small), dtype=float).reshape(k, k)
    elif costs == "equal":
        costs = np.full((k, k), float(draw(st.integers(-2, 2))))
    else:
        costs = np.outer(np.arange(1.0, k + 1), np.array(draw(small)[:k]))
    mask = draw(st.sampled_from(["none", "random", "cs"]))
    if mask == "cs":
        rows = np.full(k, 1.0 / k)
        mask = cs_mask(np.stack([rows, cols]))
    elif mask == "random":
        mask = draw(st.sets(st.tuples(st.integers(0, k - 1),
                                      st.integers(0, k - 1))))
    else:
        mask = frozenset()
    return TransportProblem(costs, rows, cols, zero_mask=mask,
                            sense=draw(st.sampled_from(["min", "max"])))


class TestDegenerateInputs:
    """Ties in the targets and the costs, where a simplex without an
    anti-cycling rule can loop on degenerate pivots."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_degenerate_problems(max_k=7))
    def test_against_the_tableau(self, problem):
        _assert_agrees(problem)

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(_degenerate_problems(max_k=4))
    def test_against_enumeration(self, problem):
        sol = solve(problem)
        oracle = enumerate_transport_optimum(
            problem.costs, problem.row_targets, problem.col_targets,
            problem.zero_mask)
        if oracle is None:
            assert sol.status == "infeasible"
            return
        assert sol.status == "optimal"
        best = oracle[0] if problem.sense == "min" else oracle[1]
        assert sol.value == pytest.approx(
            best, rel=0, abs=1e-12 * np.abs(problem.costs).max())


class TestPerturbedTree:
    """The anti-cycling rule's invariant: after every phase, each tree cell
    holds the net target of the side of the tree it cuts off, epsilon part
    included, and is positive in the perturbed order (value above the tie,
    or within it and a positive coefficient)."""

    @staticmethod
    def assert_cut_targets(k, cells, held, r, s, tie):
        perturbed = np.concatenate([np.full(k, k + 1.0), np.full(k, -k)])
        perturbed[-1] -= k
        targets = np.concatenate([r, -s])
        for n, (i, j) in enumerate(cells):
            side, todo = {i}, [i]  # the nodes left on row i's side
            while todo:
                a = todo.pop()
                for m, (p, q) in enumerate(cells):
                    if m != n and a in (p, k + q):
                        b = k + q if a == p else p
                        if b not in side:
                            side.add(b)
                            todo.append(b)
            side = sorted(side)
            assert held[n, 1] == perturbed[side].sum() != 0
            assert held[n, 0] == pytest.approx(targets[side].sum(),
                                               rel=0, abs=tie)
            assert held[n, 0] > tie or held[n, 0] >= -tie and held[n, 1] > 0

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_degenerate_problems(max_k=7))
    def test_both_phases_keep_the_invariant(self, problem):
        r, s = problem.row_targets, problem.col_targets
        k = r.size
        tree, _ = transport._phase_one(k, problem.zero_mask, r, s)
        if tree is None:
            return
        cells, held, _, entering, tie = tree
        self.assert_cut_targets(k, cells, held, r, s, tie)
        transport._pivot(cells, held, problem.costs,
                         np.where(entering, problem.costs, np.inf), 0.0, tie)
        self.assert_cut_targets(k, cells, held, r, s, tie)


class TestToleranceScalesWithMass:
    def test_permuted_targets_balance_at_large_totals(self):
        # Column targets that permute the row targets have the same total
        # up to rounding, about 1e-9 near 5e6: an absolute 1e-12 balance
        # check rejected 213 of these 1,000 instances.
        rng = np.random.default_rng(59)
        for _ in range(1000):
            k = int(rng.integers(2, 9))
            rows = rng.random(k)
            rows *= 5e6 / rows.sum()
            cols = rng.permutation(rows)
            sol = solve(TransportProblem(np.zeros((k, k)), rows, cols))
            assert sol.status == "optimal"

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e6])
    def test_infeasibility_is_seen_at_any_scale(self, scale):
        # Row 1 must send half the mass to column 0, whose cell is masked:
        # an absolute 1e-9 feasibility tolerance let 5e-13 of it through.
        rows, cols = np.array([0.5, 0.5]) * scale, np.array([1.0, 0.0]) * scale
        mask = {(1, 0)}
        sol = solve(TransportProblem(np.eye(2), rows, cols, zero_mask=mask))
        assert sol.status == "infeasible"
        assert not check_feasibility(rows, cols, mask)


class TestNoStateBetweenCalls:
    """Each solve starts from scratch: what was solved before, or done to
    a returned table, changes no later result."""

    def test_interleaved_polytopes_change_no_result(self):
        rng = np.random.default_rng(58)
        problems = _canonical_problems()[:4] + [
            p for k in (3, 4, 5) for p in _random_masked_problem(rng, k)]
        first = [solve(problem) for problem in problems]
        for problem in problems:
            _assert_agrees(problem)
        for order in (rng.permutation(len(problems)),
                      rng.permutation(len(problems))):
            for n in order:
                sol = solve(problems[n])
                assert (sol.status, sol.iterations) == (first[n].status,
                                                        first[n].iterations)
                if sol.status == "optimal":
                    assert sol.theta.tobytes() == first[n].theta.tobytes()

    def test_mutating_a_returned_theta_leaves_later_solves_intact(self):
        problem = _canonical_problems()[1]
        first = solve(problem)
        reference = first.theta.copy()
        first.theta[:] = 7.0
        assert solve(problem).theta.tobytes() == reference.tobytes()


def _configured(fair, biased, rewards, obs, transition=((0.5, 0.5),
                                                        (0.5, 0.5))):
    """(model, objective) of a two-state casino with these dice and path."""
    model = HmmModel([0.5, 0.5], transition, [fair, biased], rewards)
    return model, ewac_objective(model, obs, smooth(model, obs))


class TestLightColumns:
    # A light column: the fair die rules its face out and its biased
    # probability, 2^-50, is within the 2K eps dust threshold, so its cost
    # w_i f_j is about 1e15 and its few cells carry O(1) of the objective.
    # The tree drops them as dust; solve refuses rather than report an
    # optimum without them (lb = ub = -0.4 here, the exact [-6.4, -3.4]).
    @pytest.mark.parametrize("sense", ["max", "min"])
    def test_dust_that_carries_the_objective_raises(self, sense):
        model, obj = _configured([0, 0.5, 0.5],
                                 [2.0 ** -50, 0.7499999999999991, 0.25],
                                 [1, 2, 3], [1, 2, 3, 1, 1, 2])
        problem = TransportProblem(obj.coeff, *model.emission,
                                   cs_mask(model.emission), sense)
        with pytest.raises(ArithmeticError, match=r"^simplex dust of a light face"):
            solve(problem)

    def test_ordinary_dice_keep_their_tables(self):
        # The first 16 hex digits of the tables' SHA-256, taken before the
        # dust check: the K = 150 die of CI's "Large unsorted die" step,
        # ratio.json's falling likelihood ratio and the canonical dice
        # under both masks (one LP each), max then min.
        k, rows = 150, [37 * j % 151 for j in range(1, 151)]
        cases = {
            "die150": (_configured(
                [1 / k] * k, [b / sum(rows) for b in rows], range(1, k + 1),
                [7 * t % k + 1 for t in range(200)],
                ((0.9, 0.1), (0.1, 0.9))), ("6b723b973a46b718",
                                            "407ffbb477621b38")),
            "ratio": (_configured(
                [0.1, 0.2, 0.3, 0.4], [0.25] * 4, [1, 2, 3, 4],
                [1, 4, 2, 4, 3, 1, 2]), ("63b3ff9b36392ffb",
                                         "3766f64d2e8d442c")),
        }
        model = canonical_model(0.5)
        cases["canonical"] = ((model, ewac_objective(
            model, PATH_2, smooth(model, PATH_2))), ("a39714f5f5d56e78",
                                                     "af20bf8fd21d72b9"))
        for name, ((model, obj), want) in cases.items():
            masks = [cs_mask(model.emission)]
            masks += [pm_mask(6)] if name == "canonical" else []
            for mask in masks:
                got = tuple(hashlib.sha256(solve(TransportProblem(
                    obj.coeff, *model.emission, mask, sense)).theta.tobytes(
                    )).hexdigest()[:16] for sense in ("max", "min"))
                assert got == want, name
