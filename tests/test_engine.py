"""Objective assembly, LP bounds, constraint masks, copulas, asymptotics."""

import itertools
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casino_ewac import (BIASED, FAIR, HmmModel, InfeasibleMaskError, PATH_1,
                         PATH_2, asymptotic_ewac_rate, canonical_model,
                         copula_pmf, cs_mask, ewac_bounds, ewac_objective,
                         ewac_of_theta, greedy_column, inhomogeneous_bounds,
                         naive_ewac, pm_mask, sample_wac, smooth, solve,
                         stationary, validate_joint_pmf, TransportProblem)
from casino_ewac.engine import (_EPS, REPORT_COLUMNS, _greedy_stacks,
                                _nw_fills, _report_values)
from casino_ewac.hmm import _forward_filter, _smooth_filtered, as_symbol_indices
from helpers import (biased_winnings, brute_force_ewac, closed_form_extremes,
                     exact_fill, iid_cases, loop_bounds_report, loop_nw_fill,
                     path_objective, random_feasible_theta,
                     random_small_model, sticky_model)


def _objective(eta, obs):
    model = canonical_model(eta)
    return model, ewac_objective(model, obs, smooth(model, obs))


class TestObjective:
    def test_observed_totals(self):
        # At eta = 0 every period is biased, so the biased periods'
        # winnings are the observed winnings.
        _, obj = _objective(0.0, PATH_1)
        assert biased_winnings(obj) == 105.0
        _, obj = _objective(0.0, PATH_2)
        assert biased_winnings(obj) == 125.0

    def test_always_biased_coefficients(self):
        # At eta = 0 the biased mass per face is just its count.
        model, obj = _objective(0.0, PATH_2)
        counts = np.bincount(np.asarray(PATH_2) - 1, minlength=6)
        expected = np.outer(model.rewards, counts / model.emission[BIASED])
        np.testing.assert_allclose(obj.coeff, expected, atol=1e-9)

    def test_always_fair_coefficients_vanish(self):
        _, obj = _objective(1.0, PATH_1)
        assert biased_winnings(obj) == 0.0
        np.testing.assert_array_equal(obj.coeff, np.zeros((6, 6)))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(2, 7), st.integers(0, 2**32 - 1), st.integers(1, 300))
    def test_constant_is_the_per_period_biased_winnings(self, k, seed, size):
        # Markov chains, so the posterior varies from period to period:
        # the per-face masses sum the same T terms as the per-period loop.
        rng = np.random.default_rng(seed)
        model = random_small_model(rng, k)
        obs = rng.integers(1, k + 1, size=size)
        delta = smooth(model, obs)
        per_period = 0.0
        for t, face in enumerate(obs):
            per_period += delta[t, BIASED] * model.rewards[face - 1]
        tol = 4 * size * np.finfo(float).eps * size * model.rewards.max()
        assert biased_winnings(ewac_objective(model, obs, delta)) == \
            pytest.approx(per_period, rel=0, abs=tol)

    def test_shape_mismatch_rejected(self):
        model = canonical_model(0.5)
        with pytest.raises(ValueError, match="shape"):
            ewac_objective(model, [1, 2, 3], np.zeros((2, 2)))

    def test_observed_face_with_zero_biased_probability_rejected(self):
        model = HmmModel([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]],
                         [[0.5, 0.5], [1.0, 0.0]], [1.0, 2.0])
        delta = smooth(model, [2, 1])
        with pytest.raises(ValueError, match="face 2"):
            ewac_objective(model, [2, 1], delta)


class TestFaceCountObjective:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(iid_cases())
    def test_iid_counts_equal_forward_backward(self, case):
        # Sums of T terms against count-weighted sums: the rounding of
        # either grows with T times the largest sum, T * max(w).
        model, obs = case
        o = as_symbol_indices(model, obs)
        delta = _smooth_filtered(model, o, _forward_filter(model, o))
        expected = ewac_objective(model, obs, delta)
        got, alpha = path_objective(model, obs)
        assert alpha is None
        tol = 4 * len(obs) * np.finfo(float).eps * len(obs)
        assert biased_winnings(got) == pytest.approx(
            biased_winnings(expected), rel=0, abs=tol * model.rewards.max())
        np.testing.assert_allclose(got.factor * model.emission[BIASED],
                                   expected.factor * model.emission[BIASED],
                                   rtol=0, atol=tol)

    def test_markov_chain_keeps_the_smoothed_objective(self):
        # Bit for bit the objective of the smoothed posterior, and the
        # filter it returns for the sampler is left unsmoothed.
        model = random_small_model(np.random.default_rng(4), 5)
        obs = np.random.default_rng(5).integers(1, 6, size=200)
        o = as_symbol_indices(model, obs)
        got, alpha = path_objective(model, obs)
        expected = ewac_objective(model, obs, smooth(model, obs))
        assert biased_winnings(got) == biased_winnings(expected)
        assert got.factor.tobytes() == expected.factor.tobytes()
        assert alpha.tobytes() == _forward_filter(model, o).tobytes()


class TestEwacOfTheta:
    def test_independence_endpoint(self):
        model, obj = _objective(0.0, PATH_2)
        value = ewac_of_theta(obj, copula_pmf(model, "independence"))
        assert value == pytest.approx(20.0, abs=1e-9)

    def test_matches_enumeration_on_small_models(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            model = random_small_model(rng)
            obs = rng.integers(1, model.num_symbols + 1,
                               size=rng.integers(1, 7))
            theta = random_feasible_theta(model.emission[FAIR],
                                          model.emission[BIASED], rng)
            obj = ewac_objective(model, obs, smooth(model, obs))
            assert ewac_of_theta(obj, theta) == pytest.approx(
                brute_force_ewac(model, obs, theta), abs=1e-10)

    def test_stacked_values_equal_each_table(self):
        # One evaluator: E objectives on the same dice (factor (E, K))
        # against an (n, E, K, K) stack give each single-table value bit
        # for bit, and n tables shared by every level broadcast.
        rng = np.random.default_rng(20)
        for k in range(2, 8):
            model = random_small_model(rng, k)
            obs = rng.integers(1, k + 1, size=60)
            obj = ewac_objective(model, obs, smooth(model, obs))
            factors = rng.random((5, k)) * rng.choice([1e-9, 1.0, 1e6], (5, 1))
            stack = replace(obj, factor=factors)
            tables = np.array([[random_feasible_theta(
                model.emission[FAIR], model.emission[BIASED], rng)
                for _ in range(5)] for _ in range(3)])
            values = stack.ewac(tables)
            shared = stack.ewac(tables[:, :1])
            assert values.shape == shared.shape == (3, 5)
            for i in range(3):
                for e in range(5):
                    one = replace(obj, factor=factors[e])
                    assert values[i, e] == one.ewac(tables[i, e])
                    assert shared[i, e] == one.ewac(tables[i, 0])
            assert type(obj.ewac(tables[0, 0])) is float

    def test_unchecked_form_equals_the_checked_one(self):
        rng = np.random.default_rng(18)
        for k in range(2, 8):
            model = random_small_model(rng, k)
            obs = rng.integers(1, k + 1, size=50)
            obj = ewac_objective(model, obs, smooth(model, obs))
            thetas = [copula_pmf(model, kind) for kind in
                      ("independence", "comonotonic", "countermonotonic")]
            thetas.append(random_feasible_theta(model.emission[FAIR],
                                                model.emission[BIASED], rng))
            for theta in thetas:
                assert obj.ewac(theta) == ewac_of_theta(obj, theta)

    def test_gap_form_equals_the_constant_form_on_the_polytope(self):
        # sum theta_ij f_j (w_j - w_i) is constant - sum coeff * theta
        # whenever theta's columns sum to e_b; they differ by rounding.
        rng = np.random.default_rng(19)
        for k in range(2, 8):
            model = random_small_model(rng, k)
            obs = rng.integers(1, k + 1, size=200)
            delta = smooth(model, obs)
            obj = ewac_objective(model, obs, delta)
            constant = float(np.bincount(obs - 1, weights=delta[:, BIASED],
                                         minlength=k) @ model.rewards)
            theta = random_feasible_theta(model.emission[FAIR],
                                          model.emission[BIASED], rng)
            scale = np.abs(obj.coeff).max() + abs(constant)
            assert obj.ewac(theta) == pytest.approx(
                constant - float(np.sum(obj.coeff * theta)),
                rel=0, abs=1e-13 * scale)
            assert constant == pytest.approx(
                obj.factor @ (model.emission[BIASED] * obj.rewards), rel=1e-14)

    def test_bad_marginals_rejected(self):
        _, obj = _objective(0.5, PATH_1)
        with pytest.raises(ValueError, match="marginals"):
            ewac_of_theta(obj, np.full((6, 6), 1 / 36))

    def test_negative_cell_rejected(self):
        model, obj = _objective(0.5, PATH_1)
        theta = np.outer(model.emission[FAIR], model.emission[BIASED])
        theta[0, 0] -= 2e-3
        theta[0, 1] += 2e-3
        theta[1, 1] -= 2e-3
        theta[1, 0] += 2e-3
        theta[0, 0] -= 1e-3  # break a marginal as well as positivity
        with pytest.raises(ValueError):
            ewac_of_theta(obj, theta)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_cell_rejected(self, value):
        # NaN passes the sign and marginal comparisons; unchecked, it made
        # the EWAC NaN and the sampler drop the face's redraws.
        model, obj = _objective(0.5, PATH_1)
        theta = copula_pmf(model, "comonotonic")
        theta[0, 0] = value
        with pytest.raises(ValueError, match="finite"):
            ewac_of_theta(obj, theta)
        with pytest.raises(ValueError, match="finite"):
            sample_wac(model, PATH_1, theta, 10, seed=0)


class TestBounds:
    def test_known_interval_on_path_one(self):
        model, obj = _objective(0.2, PATH_1)
        plain = ewac_bounds(obj)
        assert plain.lb == pytest.approx(-8.0, abs=1.0)
        assert plain.ub == pytest.approx(18.0, abs=1.0)
        tied = ewac_bounds(obj, cs_mask(model.emission), tag="cs")
        assert tied.lb == pytest.approx(14.0, abs=1.0)
        assert tied.ub == pytest.approx(18.0, abs=1.0)
        # Pinned values from a verified run, as a regression guard.
        assert plain.lb == pytest.approx(-7.722944398663, abs=1e-9)
        assert plain.ub == pytest.approx(18.770564082253, abs=1e-9)
        assert tied.lb == pytest.approx(13.433516837772, abs=1e-9)
        assert tied.ub == pytest.approx(18.770564082253, abs=1e-9)

    def test_optimisers_are_feasible_and_attain_the_bounds(self):
        model, obj = _objective(0.35, PATH_2)
        for mask, tag in ((frozenset(), "none"),
                          (cs_mask(model.emission), "cs"),
                          (pm_mask(6), "pm")):
            pair = ewac_bounds(obj, mask, tag=tag)
            for theta, value in ((pair.theta_lb, pair.lb),
                                 (pair.theta_ub, pair.ub)):
                validate_joint_pmf(theta, obj.row_marginals, obj.col_marginals)
                for i, j in mask:
                    assert theta[i, j] == 0.0
                assert ewac_of_theta(obj, theta) == pytest.approx(value,
                                                                  abs=1e-9)
            assert pair.lb <= pair.ub + 1e-12
            assert pair.constraint_tag == tag

    def test_constrained_bounds_nest(self):
        for eta in (0.1, 0.5, 0.9):
            model, obj = _objective(eta, PATH_1)
            plain = ewac_bounds(obj)
            tied = ewac_bounds(obj, cs_mask(model.emission), tag="cs")
            assert plain.lb <= tied.lb + 1e-8
            assert tied.ub <= plain.ub + 1e-8

    def test_degenerate_eta_collapses_to_zero(self):
        _, obj = _objective(1.0, PATH_2)
        pair = ewac_bounds(obj)
        assert abs(pair.lb) <= 1e-9 and abs(pair.ub) <= 1e-9

    @pytest.mark.parametrize("eta,width", [(0.5, 9.651465837),
                                           (0.99999, 4.122e-9),
                                           (1 - 1e-7, 4.122e-13)])
    def test_bounds_match_the_closed_form(self, eta, width):
        # Near eta = 1 every coefficient is tiny, so the reduced-cost
        # tolerance must shrink with them or phase two stops short.
        model, obj = _objective(eta, PATH_1)
        pair = ewac_bounds(obj)
        lo, hi = closed_form_extremes(model, PATH_1, smooth(model, PATH_1))
        scale = np.abs(obj.coeff).max()
        constant = biased_winnings(obj)
        assert pair.lb == pytest.approx(constant - hi, abs=1e-12 * scale)
        assert pair.ub == pytest.approx(constant - lo, abs=1e-12 * scale)
        assert pair.ub - pair.lb == pytest.approx(hi - lo, rel=1e-6)
        assert pair.ub - pair.lb == pytest.approx(width, rel=1e-3)

    def test_empty_constraint_set_raises(self):
        _, obj = _objective(0.5, PATH_1)
        everything = frozenset((i, j) for i in range(6) for j in range(6))
        with pytest.raises(InfeasibleMaskError, match="no joint PMF"):
            ewac_bounds(obj, everything, tag="all-cells")


class TestMasks:
    def test_pm_mask_is_the_strict_lower_triangle(self):
        assert pm_mask(2) == {(1, 0)}
        mask = pm_mask(6)
        assert len(mask) == 15
        assert all(j < i for i, j in mask)

    def test_cs_equals_pm_for_increasing_biased_die(self):
        assert cs_mask(canonical_model(0.5).emission) == pm_mask(6)

    def test_cs_flips_for_decreasing_biased_die(self):
        emission = np.vstack([np.full(6, 1 / 6), np.arange(6, 0, -1) / 21])
        mask = cs_mask(emission)
        assert mask == {(i, j) for i in range(6) for j in range(6) if i < j}
        assert mask != pm_mask(6)

    def test_ties_mask_both_directions(self):
        emission = np.vstack([np.full(4, 1 / 4),
                              np.array([0.1, 0.1, 0.3, 0.5])])
        mask = cs_mask(emission)
        assert (0, 1) in mask and (1, 0) in mask

    def test_cs_requires_a_uniform_fair_die(self):
        emission = np.vstack([np.array([0.3, 0.2, 0.2, 0.3]), np.full(4, 0.25)])
        with pytest.raises(ValueError, match="uniform"):
            cs_mask(emission)


# Report cases: (model, path, whether the cs mask is the pm staircase).
REPORT_CASES = {
    "builtin1-0.2": (canonical_model(0.2), PATH_1, True),
    "builtin2-0.5": (canonical_model(0.5), PATH_2, True),
    "builtin2-0": (canonical_model(0.0), PATH_2, True),
    "builtin1-1": (canonical_model(1.0), PATH_1, True),
    "sticky-markov": (sticky_model(), PATH_1, True),
    # A uniform fair die whose biased die is not increasing: the simplex.
    "unsorted-die": (HmmModel([0.5, 0.5], [[0.7, 0.3], [0.4, 0.6]],
                              [[0.25] * 4, [0.1, 0.4, 0.2, 0.3]],
                              [1, 2, 4, 7]), [1, 2, 2, 4, 3, 1, 4, 4], False),
    "tied-die": (HmmModel([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]],
                          [[0.25] * 4, [0.1, 0.3, 0.3, 0.3]], [1, 2, 3, 4]),
                 [1, 2, 3, 4, 4, 3], False),
    # A fair die that is not uniform: no cs bounds.
    "non-uniform-fair": (HmmModel([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]],
                                  [[0.4, 0.6], [0.3, 0.7]], [1, 2]),
                         [1, 2, 2], None),
}


class TestReportValues:
    # The report kernel against helpers.loop_bounds_report, the report as
    # it was built before: two ewac_bounds calls and one evaluation per
    # table.  Bit for bit; the kernel's cs pair is NaN unless the cs mask
    # is the pm staircase (the bounds command takes it from the simplex,
    # or prints null, as the oracle does).
    @pytest.mark.parametrize("case", REPORT_CASES)
    def test_equals_the_loop_report(self, case):
        model, obs, staircase = REPORT_CASES[case]
        objective, _ = path_objective(model, obs)
        mask = None if staircase is None else cs_mask(model.emission)
        assert (mask == pm_mask(model.num_symbols)) is bool(staircase)
        values, tables = _report_values(model, objective, {}, bool(staircase))
        plain, want = loop_bounds_report(objective, model, mask)
        assert values.shape == (1, len(REPORT_COLUMNS))
        got = dict(zip(REPORT_COLUMNS, values[0].tolist()))
        for name, value in got.items():
            if not staircase and name in ("lb_cs", "ub_cs"):
                assert np.isnan(value), name
            else:
                assert value.hex() == float(want[name]).hex(), name
        np.testing.assert_array_equal(tables[0, 0], plain.theta_lb)
        np.testing.assert_array_equal(tables[1, 0], plain.theta_ub)

    def test_infeasible_pm_raises_as_ewac_bounds(self):
        # All biased mass on face 1 cannot flow into the upper triangle.
        model = HmmModel([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]],
                         [[0.25] * 4, [1.0, 0.0, 0.0, 0.0]], [1, 2, 3, 4])
        objective, _ = path_objective(model, [1, 1, 1])
        with pytest.raises(InfeasibleMaskError) as want:
            ewac_bounds(objective, pm_mask(4), tag="cs")
        with pytest.raises(InfeasibleMaskError) as got:
            _report_values(model, objective, {})
        assert str(got.value) == str(want.value)


class TestInhomogeneous:
    def test_printed_columns_for_faces_one_and_four(self):
        model = canonical_model(0.5)
        col1 = greedy_column(model, 1, "max")
        np.testing.assert_allclose(col1, [0, 0, 0, 0, 0, 1 / 21], atol=1e-12)
        col4 = greedy_column(model, 4, "max")
        np.testing.assert_allclose(col4, [0, 0, 0, 0, 1 / 42, 1 / 6],
                                   atol=1e-12)

    def test_greedy_matches_the_column_lp(self):
        model = canonical_model(0.5)
        r, s = model.emission[FAIR], model.emission[BIASED]
        for face in range(1, 7):
            costs = np.zeros((6, 6))
            costs[:, face - 1] = model.rewards
            for sense in ("max", "min"):
                sol = solve(TransportProblem(costs, r, s, sense=sense))
                np.testing.assert_allclose(greedy_column(model, face, sense),
                                           sol.theta[:, face - 1], atol=1e-9)

    def test_relaxation_is_at_least_as_wide(self):
        for eta, obs in ((0.2, PATH_1), (0.5, PATH_2), (0.8, PATH_1)):
            _, obj = _objective(eta, obs)
            plain = ewac_bounds(obj)
            loose = inhomogeneous_bounds(obj)
            assert loose.lb <= plain.lb + 1e-9
            assert plain.ub <= loose.ub + 1e-9
            assert loose.theta_lb is None and loose.theta_ub is None

    def test_stacked_columns_break_row_sums(self):
        # The per-face greedy columns overload the high-payoff rows, which
        # is exactly why the relaxation is strictly wider on generic paths.
        model = canonical_model(0.5)
        stacked = np.column_stack([greedy_column(model, f, "max")
                                   for f in range(1, 7)])
        np.testing.assert_allclose(stacked.sum(axis=0),
                                   model.emission[BIASED], atol=1e-12)
        assert stacked.sum(axis=1).max() > 1 / 6 + 1e-3

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_greedy_stacks_equal_the_single_column_fills(self, data):
        # The walks on Python floats give, bit for bit, the single-column
        # north-west fills of caps from the last row up and from the first
        # down, also where a cap equals what its column still lacks (tied
        # values, a column total that is a cap) and at zero caps and totals.
        k = data.draw(st.integers(2, 7))
        mass = st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0.01, 1.0)

        def die():
            values = np.array(data.draw(st.lists(mass, min_size=k,
                                                 max_size=k)))
            values[0] += not values.any()
            return values / values.sum()

        caps = die()
        totals = data.draw(st.sampled_from([
            die(), caps[::-1].copy(), np.roll(caps, 1)]))
        want = (np.hstack([loop_nw_fill(caps[::-1], [s])[::-1]
                           for s in totals]),
                np.hstack([loop_nw_fill(caps, [s]) for s in totals]))
        for got, fill in zip(_greedy_stacks(caps, totals), want):
            assert got.shape == fill.shape
            assert (got.view(np.int64) == fill.view(np.int64)).all()

    def test_sense_validated(self):
        with pytest.raises(ValueError, match="sense"):
            greedy_column(canonical_model(0.5), 1, "up")
        with pytest.raises(ValueError, match="face"):
            greedy_column(canonical_model(0.5), 7, "max")


class TestNorthWestKernel:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_equals_the_scalar_walks(self, data):
        # The batched overlaps against the scalar walk of each order and of
        # it reversed, within 2K eps of the largest total per cell, with
        # tied and zero masses and a column total equal to a row's; the
        # marginals hold within the same bound.
        k = data.draw(st.integers(1, 12))
        mass = st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0.01, 1.0)

        def die():
            values = np.array(data.draw(st.lists(mass, min_size=k,
                                                 max_size=k)))
            values[0] += not values.any()
            return values / values.sum()

        rows = die()
        cols = data.draw(st.sampled_from([
            die(), rows[::-1].copy(), np.roll(rows, 1)]))
        orders = np.array(data.draw(st.lists(
            st.permutations(range(k)), min_size=1, max_size=50)))
        got = _nw_fills(rows, cols, orders)
        assert got.shape == (2, len(orders), k, k)
        tol = 2 * k * _EPS * max(rows.sum(), cols.sum())
        for e, at in enumerate(orders):
            for fill, order in zip(got[:, e], (at, at[::-1])):
                want = np.zeros((k, k))
                want[:, order] = loop_nw_fill(rows, cols[order])
                assert np.abs(fill - want).max() <= tol
                assert fill.min() >= 0.0
                assert np.abs(fill.sum(axis=1) - rows).max() <= tol
                assert np.abs(fill.sum(axis=0) - cols).max() <= tol

    def test_canonical_fills_are_the_exact_overlaps_rounded(self):
        # The edges carry their rounding errors, so on the canonical dice
        # every cell of every order is the exact overlap (in rationals)
        # correctly rounded; the walk's remainders miss it by an ulp in
        # some cells.
        rows, cols = canonical_model(0.5).emission
        orders = np.array(list(itertools.permutations(range(6))))
        got = _nw_fills(rows, cols, orders)
        exact = [Fraction(x) for x in rows], [Fraction(x) for x in cols]
        for e, at in enumerate(orders):
            for fill, order in zip(got[:, e], (at, at[::-1])):
                want = np.zeros((6, 6))
                want[:, order] = exact_fill(
                    exact[0], [exact[1][j] for j in order]).astype(float)
                assert (fill.view(np.int64) == want.view(np.int64)).all()


class TestCopulas:
    def test_corner_cells(self):
        model = canonical_model(0.5)
        top = copula_pmf(model, "comonotonic")
        assert top[0, 0] == pytest.approx(1 / 21, abs=1e-12)
        bottom = copula_pmf(model, "countermonotonic")
        assert bottom[0, 5] == pytest.approx(1 / 6, abs=1e-12)

    def test_marginals_and_positivity(self):
        model = canonical_model(0.5)
        for kind in ("independence", "comonotonic", "countermonotonic"):
            theta = copula_pmf(model, kind)
            validate_joint_pmf(theta, model.emission[FAIR],
                               model.emission[BIASED], atol=1e-12)

    def test_comonotonic_matches_two_pointer_merge(self):
        # Independent construction: walk both marginals in face order and
        # couple the overlapping quantile mass.
        model = canonical_model(0.5)
        e_f, e_b = model.emission[FAIR].copy(), model.emission[BIASED].copy()
        expected = np.zeros((6, 6))
        i = j = 0
        rem_f, rem_b = e_f[0], e_b[0]
        while i < 6 and j < 6:
            chunk = min(rem_f, rem_b)
            expected[i, j] += chunk
            rem_f -= chunk
            rem_b -= chunk
            if rem_f <= 1e-15:
                i += 1
                rem_f = e_f[i] if i < 6 else 0.0
            if rem_b <= 1e-15:
                j += 1
                rem_b = e_b[j] if j < 6 else 0.0
        np.testing.assert_allclose(copula_pmf(model, "comonotonic"), expected,
                                   atol=1e-12)

    def test_countermonotonic_is_a_reversed_comonotonic(self):
        model = canonical_model(0.5)
        flipped = HmmModel(model.initial, model.transition,
                           np.vstack([model.emission[FAIR],
                                      model.emission[BIASED][::-1]]),
                           model.rewards)
        np.testing.assert_allclose(
            copula_pmf(model, "countermonotonic"),
            copula_pmf(flipped, "comonotonic")[:, ::-1], atol=1e-12)

    def test_comonotonic_respects_the_pm_mask_here(self):
        # Fair CDF dominates the biased CDF face by face, so the common
        # quantile coupling never moves mass below the diagonal.
        theta = copula_pmf(canonical_model(0.5), "comonotonic")
        for i, j in pm_mask(6):
            assert theta[i, j] == 0.0

    def test_copula_values_sit_inside_the_sharp_bounds(self):
        _, obj = _objective(0.3, PATH_1)
        pair = ewac_bounds(obj)
        model = canonical_model(0.3)
        for kind in ("independence", "comonotonic", "countermonotonic"):
            value = ewac_of_theta(obj, copula_pmf(model, kind))
            assert pair.lb - 1e-9 <= value <= pair.ub + 1e-9

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            copula_pmf(canonical_model(0.5), "frechet")


class TestScalarSummaries:
    def test_naive_values_on_builtin_paths(self):
        model = canonical_model(0.123)  # eta does not matter
        assert naive_ewac(model, PATH_1) == 0.0
        assert naive_ewac(model, PATH_2) == 20.0

    def test_identical_non_uniform_dice_attribute_nothing(self):
        # Cheating with a copy of the fair die cannot move the payoffs,
        # so both summaries charge the fair mean e_f . w, not the mean of w.
        dice = [[0.5, 0.25, 0.25], [0.5, 0.25, 0.25]]
        model = HmmModel([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]], dice,
                         [1.0, 2.0, 3.0])
        assert asymptotic_ewac_rate(model) == 0.0
        assert naive_ewac(model, [1, 1, 2, 3]) == 0.0

    def test_stationary_examples(self):
        np.testing.assert_allclose(
            stationary(canonical_model(0.4)), [0.4, 0.6], atol=1e-12)
        swap = HmmModel([0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]],
                        canonical_model(0.5).emission, np.arange(1, 7))
        np.testing.assert_allclose(stationary(swap), [0.5, 0.5], atol=1e-12)
        identity = HmmModel([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]],
                            canonical_model(0.5).emission, np.arange(1, 7))
        with pytest.raises(ValueError, match="not unique"):
            stationary(identity)

    def test_stationary_matches_eigenvector(self):
        rng = np.random.default_rng(4)
        emission = canonical_model(0.5).emission
        for _ in range(10):
            q = rng.uniform(0.05, 0.95, size=2)
            model = HmmModel([0.5, 0.5], np.column_stack([q, 1 - q]),
                             emission, np.arange(1, 7))
            pi = stationary(model)
            np.testing.assert_allclose(pi @ model.transition, pi, atol=1e-12)
            vals, vecs = np.linalg.eig(model.transition.T)
            lead = np.real(vecs[:, np.argmax(np.real(vals))])
            np.testing.assert_allclose(pi, lead / lead.sum(), atol=1e-10)

    def test_asymptotic_rate_at_even_odds(self):
        assert asymptotic_ewac_rate(canonical_model(0.5)) == pytest.approx(
            5 / 12, abs=1e-12)

    def test_asymptotic_rate_scales_with_biased_mass(self):
        assert asymptotic_ewac_rate(canonical_model(1.0)) == pytest.approx(
            0.0, abs=1e-12)
        assert asymptotic_ewac_rate(canonical_model(0.0)) == pytest.approx(
            5 / 6, abs=1e-12)
