"""Objective assembly, LP bounds, constraint masks, copulas, asymptotics."""

import itertools
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casino_ewac import (BIASED, FAIR, EwacObjective, HmmModel,
                         InfeasibleMaskError, PATH_1,
                         PATH_2, asymptotic_ewac_rate, canonical_model,
                         copula_pmf, cs_mask, ewac_bounds, ewac_objective,
                         ewac_of_theta, greedy_column, inhomogeneous_bounds,
                         naive_ewac, pm_mask, sample_wac, smooth, solve,
                         stationary, validate_joint_pmf, TransportProblem)
from casino_ewac.engine import (_EPS, REPORT_COLUMNS, _face_objective,
                                _memoised, _nw_fills, _report_values)
from casino_ewac.hmm import (_face_posteriors, _forward_filter,
                             _iid_posteriors, _smooth_filtered,
                             as_symbol_indices)
from casino_ewac import engine, eta_sweep, horizon_sweep
from helpers import (assert_joint_pmf, biased_winnings, brute_force_ewac,
                     closed_form_extremes,
                     cold_memo,
                     exact_ewac, exact_fill, iid_cases, loop_bounds_report,
                     loop_nw_fill, fraction_cs_mask, nearest_sweep_values,
                     path_objective, random_feasible_theta,
                     random_small_model, sticky_model)


def near_tied_rows(k):
    """(K,) non-negative rows: drawn floats, zeros among them, and faces
    set to another face's value, to its adjacent float or to twice it, so
    that exact ties and near ties of values and ratios abound."""
    value = (st.sampled_from([0.0, 1 / 6, 0.1, 0.3, 0.5])
             | st.floats(0.0, 1.0) | st.floats(1e-300, 1e-3))

    @st.composite
    def rows(draw):
        row = np.array(draw(st.lists(value, min_size=k, max_size=k)))
        for _ in range(draw(st.integers(0, k))):
            i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
            row[i] = draw(st.sampled_from([
                row[j], np.nextafter(row[j], 0.0), np.nextafter(row[j], 1.0),
                2 * row[j]]))
        return row

    return rows()


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

    @pytest.mark.parametrize("row,spoil", [
        (4, lambda d: d.__setitem__(3, np.nan)),
        (9, lambda d: d.__setitem__(8, [np.inf, -np.inf])),
        (1, lambda d: d.__setitem__((slice(None), BIASED), -d[:, BIASED])),
        (1, lambda d: d.__imul__(5.0)),
        (12, lambda d: d.__setitem__(11, [1.5, -0.5])),
        (30, lambda d: d.__setitem__((29, FAIR), d[29, FAIR] + 2e-9)),
    ], ids=["nan", "inf", "negated", "times-5", "outside", "sum-off"])
    def test_malformed_posterior_rejected(self, row, spoil):
        # A NaN row (lb NaN), a negated biased column ([-11.81, -2.16]) and
        # the posterior times 5 ([10.78, 59.03]) gave bounds from a factor
        # that is not the non-negative one documented; the first row that
        # is no distribution (entries in [0, 1], sum within 1e-9) is named.
        model = canonical_model(0.5)
        delta = smooth(model, PATH_1)
        spoil(delta)
        with pytest.raises(ValueError,
                           match=rf"^delta row {row} is no distribution$"):
            ewac_objective(model, PATH_1, delta)

    @pytest.mark.parametrize("obs", [PATH_1, PATH_2])
    def test_twelve_digit_posterior_accepted(self, obs):
        # The smooth CSV prints 12 significant digits; read back, its rows
        # sum to 1 within far less than 1e-9 and give nearly the bounds.
        model = canonical_model(0.37)
        delta = smooth(model, obs)
        printed = np.array([[float(f"{x:.12g}") for x in row]
                            for row in delta])
        got = ewac_bounds(ewac_objective(model, obs, printed))
        want = ewac_bounds(ewac_objective(model, obs, delta))
        assert got.lb == pytest.approx(want.lb, abs=1e-9)
        assert got.ub == pytest.approx(want.ub, abs=1e-9)

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
        got, posteriors = path_objective(model, obs)
        table, start = _iid_posteriors(model, o, np.bincount(
            o, minlength=model.num_symbols))
        assert posteriors[0].tobytes() == table.tobytes()
        assert posteriors[1].tobytes() == start.tobytes()
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

    @pytest.mark.parametrize("emission,mask", [
        # Ratios 5/6, 5/4, 5/4, 5/6: faces 1 and 4 tie below faces 2 and 3.
        ([[0.3, 0.2, 0.2, 0.3], [0.25] * 4],
         {(0, 3), (3, 0), (1, 2), (2, 1), (1, 0), (1, 3), (2, 0), (2, 3)}),
        # Face 2 both dice rule out: masked against every face, both ways.
        # Face 4 only the fair die rules out: ratio +inf, above the rest.
        ([[0.5, 0.0, 0.5, 0.0], [0.2, 0.0, 0.3, 0.5]],
         {(1, 0), (1, 2), (1, 3), (0, 1), (2, 1), (3, 1), (2, 0), (3, 0),
          (3, 2)}),
    ], ids=["non-uniform-fair", "ruled-out-faces"])
    def test_cs_ranks_likelihood_ratios(self, emission, mask):
        assert cs_mask(np.array(emission)) == mask

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(biased=st.integers(2, 8).flatmap(near_tied_rows))
    def test_uniform_fair_die_keeps_the_biased_only_rule(self, biased):
        # The rule before the ratio: (i, j) iff e_b[j] <= e_b[i].  With
        # the fair die's one float on both sides the rationals compare as
        # the biased floats, so adjacent floats (which a rounded product
        # by 1/K can merge) stay apart and exact ties stay tied.
        k = biased.size
        emission = np.vstack([np.full(k, 1 / k), biased])
        assert cs_mask(emission) == {(i, j) for i in range(k)
                                     for j in range(k)
                                     if i != j and biased[j] <= biased[i]}

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(2, 8).flatmap(
        lambda k: st.tuples(near_tied_rows(k), near_tied_rows(k))))
    def test_equals_the_cross_product_oracle(self, rows):
        emission = np.vstack(rows)
        assert cs_mask(emission) == fraction_cs_mask(emission)


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
    # Fair dice that are not uniform.  Ratios 0.75 < 7/6: the staircase.
    "non-uniform-fair": (HmmModel([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]],
                                  [[0.4, 0.6], [0.3, 0.7]], [1, 2]),
                         [1, 2, 2], True),
    # Ratios 2.5 > 1.25 > 5/6 > 0.625: the simplex.
    "decreasing-ratio": (HmmModel([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]],
                                  [[0.1, 0.2, 0.3, 0.4], [0.25] * 4],
                                  [1, 2, 3, 4]), [1, 3, 4, 4, 2], False),
    # A fair die uniform only within 1e-12: the ratios break the biased
    # tie on faces 1 and 2, so the mask is the staircase, where a rule
    # for uniform fair dice would mask that pair both ways.
    "near-uniform-fair": (HmmModel(
        [0.5, 0.5], [[0.6, 0.4], [0.3, 0.7]],
        [[1 / 6 + 1e-13, 1 / 6 - 1e-13, *[1 / 6] * 4],
         np.array([1, 1, 2, 3, 4, 5]) / 16], np.arange(1, 7)),
        [1, 2, 6, 2, 5, 3, 6, 4], True),
    # Face 2 ruled out by both dice, face 4 by the fair one: the simplex.
    "dead-face": (HmmModel([0.5, 0.5], [[0.6, 0.4], [0.2, 0.8]],
                           [[0.5, 0.0, 0.5, 0.0], [0.2, 0.0, 0.3, 0.5]],
                           [1, 2, 3, 5]), [4, 1, 3, 4, 4], False),
}


def face_counts(model, obs):
    """The (K,) counts of the faces of the path ``obs``."""
    return np.bincount(np.asarray(obs) - 1, minlength=model.num_symbols)


class TestReportValues:
    # The report kernel against helpers.loop_bounds_report, the report as
    # it was built before: two ewac_bounds calls and one evaluation per
    # table.  Bit for bit; the kernel takes the cs pair from the pm fills
    # when the cs mask is the pm staircase, else from ewac_bounds.
    @pytest.mark.parametrize("case", REPORT_CASES)
    def test_equals_the_loop_report(self, case):
        model, obs, staircase = REPORT_CASES[case]
        objective, _ = path_objective(model, obs)
        mask = cs_mask(model.emission)
        assert (mask == pm_mask(model.num_symbols)) is staircase
        values, tables = _report_values(model, objective,
                                        face_counts(model, obs))
        plain, want = loop_bounds_report(objective, model, mask, obs)
        assert values.shape == (1, len(REPORT_COLUMNS))
        got = dict(zip(REPORT_COLUMNS, values[0].tolist()))
        for name, value in got.items():
            assert value.hex() == float(want[name]).hex(), name
        np.testing.assert_array_equal(tables[0], plain.theta_lb)
        np.testing.assert_array_equal(tables[1], plain.theta_ub)

    def test_infeasible_pm_raises_as_ewac_bounds(self, monkeypatch):
        # All biased mass on face 1 cannot flow into the upper triangle.
        # No cs mask empties the polytope, so pm is forced here.
        model = HmmModel([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]],
                         [[0.25] * 4, [1.0, 0.0, 0.0, 0.0]], [1, 2, 3, 4])
        objective, _ = path_objective(model, [1, 1, 1])
        with pytest.raises(InfeasibleMaskError) as want:
            ewac_bounds(objective, pm_mask(4), tag="cs")
        monkeypatch.setattr(engine, "cs_mask",
                            lambda emission: pm_mask(emission.shape[1]))
        with pytest.raises(InfeasibleMaskError) as got:
            _report_values(model, objective, face_counts(model, [1, 1, 1]))
        assert str(got.value) == str(want.value)


@st.composite
def rounding_cases(draw):
    """(model, stack, theta) on dice of K <= 8: drawn masses with zeros,
    now and then a light face (fair 0, biased 2^-50, its factors 2^50
    times their draw), drawn payoffs with fractional gaps, an (E, K)
    factor stack with zeros and ties, and a random joint PMF (None for
    K = 1)."""
    k = draw(st.integers(1, 8))
    mass = st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0.01, 1.0)

    def die():
        values = np.array(draw(st.lists(mass, min_size=k, max_size=k)))
        values[0] += not values.any()
        return values / values.sum()

    rows, cols = die(), die()
    factor = np.array(draw(st.lists(st.lists(
        st.sampled_from([0.0, 1.0, 3.0]) | st.floats(0.0, 1e3),
        min_size=k, max_size=k), min_size=1, max_size=5)))
    for _ in range(draw(st.integers(0, k))):  # ties within a row
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        factor[:, i] = factor[:, j]
    if k > 1 and draw(st.booleans()):
        light = draw(st.integers(0, k - 1))
        rows[light] = cols[light] = 0.0
        for row in (rows, cols):
            row[(light + 1) % k] += not row.any()
            row /= row.sum()
        cols[light] = 2.0 ** -50
        factor[:, light] *= 2.0 ** 50
    rewards = np.cumsum(draw(st.lists(
        st.sampled_from([1.0, 0.5, 0.1]) | st.floats(0.01, 10.0),
        min_size=k, max_size=k)))
    model = HmmModel([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]], [rows, cols],
                     rewards)
    theta = (None if k == 1 else random_feasible_theta(
        rows, cols, np.random.default_rng(draw(st.integers(0, 99)))))
    return model, EwacObjective(
        rewards=model.rewards, factor=factor,
        row_marginals=model.emission[0], col_marginals=model.emission[1],
        independence=np.zeros(len(factor))), theta


class TestCorrectRounding:
    # Every value an evaluation returns is the float nearest the exact
    # value (in rationals) of its factor row and table: ewac, ewac_of_theta,
    # ewac_bounds (stacked and one row at a time), inhomogeneous_bounds,
    # the report's table columns and eta_sweep's.
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(rounding_cases())
    def test_random_dice_and_factor_stacks(self, case):
        model, stack, theta = case
        w, k = model.rewards, model.num_symbols

        def nearest(factor, table):
            return float(exact_ewac(factor, table, w))

        fixed = [np.column_stack([greedy_column(model, j, sense)
                                  for j in range(1, k + 1)])
                 for sense in ("max", "min")]
        fixed += [copula_pmf(model, kind)
                  for kind in ("comonotonic", "countermonotonic")]
        plain, loose = ewac_bounds(stack), inhomogeneous_bounds(stack)
        try:
            tied = ewac_bounds(stack, cs_mask(model.emission), tag="cs")
            values = _report_values(model, stack, np.ones(k, int))[0]
        except (ArithmeticError, InfeasibleMaskError):  # a light face
            tied = values = None
        for e, factor in enumerate(stack.factor):
            one = replace(stack, factor=factor)
            single = ewac_bounds(one)
            assert (single.lb, single.ub) == (plain.lb[e], plain.ub[e])
            assert plain.lb[e] == nearest(factor, plain.theta_lb[e])
            assert plain.ub[e] == nearest(factor, plain.theta_ub[e])
            assert loose.lb[e] == nearest(factor, fixed[0])
            assert loose.ub[e] == nearest(factor, fixed[1])
            if theta is not None:
                assert stack.ewac(theta)[e] == nearest(factor, theta)
                assert ewac_of_theta(one, theta) == nearest(factor, theta)
            if values is None:
                continue
            tables = [plain.theta_lb[e], plain.theta_ub[e], tied.theta_lb[e],
                      tied.theta_ub[e], *fixed]
            assert values[e, [0, 1, 2, 3, 4, 5, 7, 8]].tolist() == [
                nearest(factor, table) for table in tables]

    def test_integer_rewards_and_factors_are_read_as_floats(self):
        # The split reads a float's bits, so integer arrays are converted
        # first: the independence coupling's value is exactly 2/3 here.
        obj = EwacObjective(rewards=np.arange(1, 4), factor=np.arange(1, 4),
                            row_marginals=np.full(3, 1 / 3),
                            col_marginals=np.full(3, 1 / 3))
        theta = np.outer(obj.row_marginals, obj.col_marginals)
        floats = replace(obj, rewards=obj.rewards.astype(float),
                         factor=obj.factor.astype(float))
        assert obj.ewac(theta) == floats.ewac(theta) == 2 / 3

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(obs=st.sampled_from([PATH_1, PATH_2])
           | st.lists(st.integers(1, 6), min_size=1, max_size=40),
           grid=st.lists(st.sampled_from([0.0, 0.5, 1.0])
                         | st.floats(0.0, 1.0), min_size=1, max_size=12))
    def test_canonical_eta_grids(self, obs, grid):
        rows = eta_sweep(obs, grid)
        for name, values in nearest_sweep_values(obs, grid).items():
            assert rows[name].tolist() == values, name


class TestMemo:
    # The per-process memo of tables by dice (engine._memoised): entries
    # read-only, results handed out as copies, the size within its bound.

    @staticmethod
    def results(model, obs):
        """Every public table the memo serves, and the report's values, for
        the path ``obs``."""
        objective = path_objective(model, obs)[0]
        pairs = [ewac_bounds(objective, mask) for mask in (frozenset(),
                                                          pm_mask(6))]
        return [*(getattr(pair, name) for pair in pairs
                  for name in ("theta_lb", "theta_ub")),
                *(copula_pmf(model, kind)
                  for kind in ("comonotonic", "countermonotonic")),
                *(greedy_column(model, face, sense) for face in (1, 4)
                  for sense in ("max", "min")),
                *_report_values(model, objective, face_counts(model, obs))]

    def test_results_are_writable_copies(self, monkeypatch):
        # Overwriting every returned table changes no later result.
        cold_memo(monkeypatch)
        model = canonical_model(0.4)
        first = self.results(model, PATH_2)
        want = [table.copy() for table in first]
        for table in first:
            assert table.flags.writeable
            table.fill(7.0)
        for got, table in zip(self.results(model, PATH_2), want):
            assert got.tobytes() == table.tobytes()

    def test_entries_are_read_only(self, monkeypatch):
        cold_memo(monkeypatch)
        model = canonical_model(0.4)
        self.results(model, PATH_1)
        eta_sweep(PATH_2, [0.2, 0.7])
        horizon_sweep(0.5, [50, 400])
        inhomogeneous_bounds(path_objective(model, PATH_2)[0])
        assert {kind for _, kind, _ in engine._memo} == {"nw", "pm", "fixed"}
        for table in engine._memo.values():
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                np.copyto(table, 0)
        assert engine._memo_bytes == sum(
            table.nbytes for table in engine._memo.values())

    def test_bound_holds_and_an_evicted_order_returns_bit_identical(
            self, monkeypatch):
        # 500 distinct factor orders on an unsorted K = 48 die: their fills,
        # 36,864 bytes a pair, pass the 16 MB bound, so the memo is cleared
        # on the way; after each call it holds at most the bound, and the
        # first order, gone from it, comes back with the same bits.
        cold_memo(monkeypatch)
        k, rng = 48, np.random.default_rng(48)
        cols = rng.permutation(np.arange(1, k + 1)) / (k * (k + 1) / 2)
        factors = [rng.permutation(k) + 0.5 for _ in range(500)]
        orders = {tuple(np.argsort(f, kind="stable")) for f in factors}
        assert len(orders) == len(factors)

        def bounds(factor):
            return ewac_bounds(EwacObjective(
                rewards=np.arange(1.0, k + 1), factor=factor,
                row_marginals=np.full(k, 1 / k), col_marginals=cols))

        first, cleared = bounds(factors[0]), False
        for factor in factors[1:]:
            held = engine._memo_bytes
            bounds(factor)
            cleared |= engine._memo_bytes < held
            assert engine._memo_bytes <= engine._MEMO_BOUND
        assert cleared
        dice = np.full(k, 1 / k).tobytes() + cols.tobytes()
        assert (dice, "nw", tuple(np.argsort(factors[0], kind="stable")
                                  .tolist())) not in engine._memo
        again = bounds(factors[0])
        assert (again.lb.hex(), again.ub.hex()) == (first.lb.hex(),
                                                    first.ub.hex())
        for name in ("theta_lb", "theta_ub"):
            assert (getattr(again, name).tobytes()
                    == getattr(first, name).tobytes())

    def test_an_empty_staircase_raises_before_filling(self, monkeypatch):
        # All biased mass on face 1 cannot flow into the upper triangle.
        cold_memo(monkeypatch)
        monkeypatch.setattr(engine, "_staircase_fill", None)
        model = HmmModel([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]],
                         [[0.25] * 4, [1.0, 0.0, 0.0, 0.0]], [1, 2, 3, 4])
        with pytest.raises(InfeasibleMaskError):
            ewac_bounds(path_objective(model, [1, 1])[0], pm_mask(4))

    def test_canonical_dice_take_under_a_megabyte(self, monkeypatch):
        # All 720 factor orders of the canonical dice, one fill and one pm
        # fill each (an order's min tables are its reversal's), with the
        # one entry of four fixed tables, each (6, 6) table above its two
        # rows of payoffs: 554,496 bytes, about half a megabyte.
        cold_memo(monkeypatch)
        model = canonical_model(0.5)
        factors = np.array([*itertools.permutations(range(6))], float)
        _report_values(model, replace(
            path_objective(model, PATH_1)[0], factor=factors,
            independence=np.zeros(len(factors))), face_counts(model, PATH_1))
        assert len(engine._memo) == 2 * 720 + 1
        assert engine._memo_bytes == (2 * 720 + 4) * (6 + 2) * 6 * 8

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_an_order_and_its_reversal_give_the_same_bits_first_or_not(
            self, data):
        # The memo holds one entry, a table above its payoff rows, per
        # (dice, kind, order), and a row's min table is read from its
        # reversed order's entry.  From a cold memo, asking for sigma, for
        # sigma reversed, for both, or for both among other orders first,
        # the two entries have the same bits: no fill or payoff row depends
        # on its batch or on what the memo held.
        k = data.draw(st.integers(1, 9))
        mass = st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0.01, 1.0)

        def die():
            values = np.array(data.draw(st.lists(mass, min_size=k,
                                                 max_size=k)))
            values[0] += not values.any()
            return values / values.sum()

        rows, cols, rewards = die(), die(), np.arange(1.0, k + 1)
        sigma = tuple(data.draw(st.permutations(range(k))))
        others = [tuple(order) for order in data.draw(st.lists(
            st.permutations(range(k)), max_size=6))]
        pair = [sigma, sigma[::-1]]
        for kind in ("nw", "pm"):
            seen = set()
            for first in ([sigma], [sigma[::-1]], pair,
                          [*others, *pair[::-1]]):
                with mock.patch.object(engine, "_memo", {}), \
                        mock.patch.object(engine, "_memo_bytes", 0):
                    engine._memoised(rows, cols, rewards, kind, first)
                    seen.add(tuple(entry.tobytes() for entry in
                                   engine._memoised(rows, cols, rewards, kind,
                                                    pair)))
            assert len(seen) == 1, kind

    def test_a_block_of_levels_peaks_under_4_mib(self):
        # One eta_sweep block, 2^12 levels of builtin:2 on the canonical
        # dice: the report gathers payoff rows, never an (E, K, K) table,
        # 2^9 levels at a time (3.0 MiB; 10.2 MiB when it evaluated each
        # route's tables, 23.6 MiB with a stacked copy of them).
        model = canonical_model(0.5)
        counts = face_counts(model, PATH_2)
        etas = np.linspace(0.0, 1.0, 4096)
        stack = _face_objective(model, counts, counts[:, None] * (
            _face_posteriors(np.column_stack([etas, 1 - etas]),
                             model.emission)))
        _report_values(model, stack, counts)  # the memo's tables are made
        tracemalloc.start()
        try:
            _report_values(model, stack, counts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20


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
    def test_greedy_stacks_are_the_exact_overlaps_rounded(self, data):
        # Each greedy cell is within an ulp of the exact overlap (in
        # rationals) of its row's cumulative interval, from the last row up
        # or the first down, with [0, e_b[j]], also where a cap equals what
        # its column still lacks (tied values, a column total that is a
        # cap) and at zero caps and totals; a cell is 0 only where that
        # overlap is dust of a column heavier than dust.
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
        tol = 2 * k * _EPS * max(caps.sum(), totals.sum())
        exact = [Fraction(x) for x in caps]
        stacks = _memoised(caps, totals, np.arange(k), "fixed")[0][:2, :k]
        for got, flip in zip(stacks, (-1, 1)):
            for j, total in enumerate(totals.tolist()):
                want = exact_fill(exact[::flip], [Fraction(total)])[::flip, 0]
                for cell, overlap in zip(got[:, j].tolist(), want):
                    if cell == 0 and total > tol:
                        assert overlap <= tol
                    else:
                        assert abs(Fraction(cell) - overlap) <= Fraction(
                            math.ulp(float(overlap)))

    def test_sense_validated(self):
        with pytest.raises(ValueError, match="sense"):
            greedy_column(canonical_model(0.5), 1, "up")
        with pytest.raises(ValueError, match="face"):
            greedy_column(canonical_model(0.5), 7, "max")

    def test_fractional_face_rejected(self):
        # 1.5 is not read as face 1; an integral 2.0 is face 2.
        model = canonical_model(0.5)
        with pytest.raises(ValueError,
                           match=r"^face must lie in 1\.\.6, got 1\.5$"):
            greedy_column(model, 1.5, "max")
        assert (greedy_column(model, 2.0, "min").tobytes()
                == greedy_column(model, 2, "min").tobytes())


class TestNorthWestKernel:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_equals_the_scalar_walks(self, data):
        # The batched overlaps against the scalar walk of each order and of
        # it reversed (passed as orders of their own), within 2K eps of the
        # largest total per cell, with tied and zero masses and a column
        # total equal to a row's; the marginals hold within the same bound.
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
        got = _nw_fills(rows, cols, np.concatenate([orders, orders[:, ::-1]]))
        assert got.shape == (2 * len(orders), k, k)
        tol = 2 * k * _EPS * max(rows.sum(), cols.sum())
        for e, at in enumerate(orders):
            for fill, order in zip(got[e::len(orders)], (at, at[::-1])):
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
        # some cells.  So is every cell of the greedy max and min stacks.
        rows, cols = canonical_model(0.5).emission
        orders = np.array(list(itertools.permutations(range(6))))
        got = _nw_fills(rows, cols, np.concatenate([orders, orders[:, ::-1]]))
        exact = [Fraction(x) for x in rows], [Fraction(x) for x in cols]
        for e, at in enumerate(orders):
            for fill, order in zip(got[e::len(orders)], (at, at[::-1])):
                want = np.zeros((6, 6))
                want[:, order] = exact_fill(
                    exact[0], [exact[1][j] for j in order]).astype(float)
                assert (fill.view(np.int64) == want.view(np.int64)).all()
        stacks = _memoised(rows, cols, np.arange(6), "fixed")[0][:2, :6]
        for stack, flip in zip(stacks, (-1, 1)):
            want = np.hstack([exact_fill(exact[0][::flip], [total])[::flip]
                              for total in exact[1]]).astype(float)
            assert (stack.view(np.int64) == want.view(np.int64)).all()


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
            assert_joint_pmf(theta, model.emission[FAIR],
                             model.emission[BIASED], 1e-12)

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
