"""Monte-Carlo loss draws and the two sweep drivers."""

import numpy as np
import pytest

from casino_ewac import (BIASED, FAIR, PATH_1, HmmModel, SweepRow,
                         canonical_model, copula_pmf, default_eta_grid,
                         default_horizon_grid, eta_sweep, ewac_bounds,
                         ewac_objective, ewac_of_theta, horizon_sweep,
                         naive_ewac, sample_wac, smooth)
from casino_ewac.hmm import _forward_filter, as_symbol_indices
from helpers import (digit_rows, loop_sample_wac, random_feasible_theta,
                     sampling_cases, sticky_model)


class TestSampleWac:
    def test_counterfactual_keeps_observed_faces_on_fair_periods(self):
        model = canonical_model(0.5)
        theta = copula_pmf(model, "independence")
        draws = sample_wac(model, PATH_1, theta, 500, seed=3)
        obs = np.asarray(PATH_1)
        fair_positions = draws.hidden == FAIR
        assert np.array_equal(draws.counterfactual[fair_positions],
                              np.broadcast_to(obs, draws.hidden.shape)[fair_positions])

    @pytest.mark.parametrize("kind,counterfactual,wac", [
        ("comonotonic",
         ("241252615243641", "251144635232541", "351254633242631",
          "351244635242531"), [6.0, 6.0, 4.0, 4.0]),
        ("countermonotonic",
         ("531254654243641", "646624635245141", "351254632245141",
          "351234635245141"), [-1.0, -5.0, 6.0, 5.0]),
    ])
    def test_golden_draws(self, kind, counterfactual, wac):
        # Golden values: a fixed seed keeps drawing the same uniforms in the
        # same order, so hidden paths, counterfactuals and losses never move.
        model = sticky_model()
        draws = sample_wac(model, PATH_1[:15], copula_pmf(model, kind), 4,
                           seed=7)
        np.testing.assert_array_equal(draws.hidden, digit_rows(
            "110001011000000", "111110000011100", "000000001001110",
            "000010000001110"))
        np.testing.assert_array_equal(draws.counterfactual,
                                      digit_rows(*counterfactual))
        np.testing.assert_array_equal(draws.wac, wac)
        assert draws.hidden.dtype == draws.counterfactual.dtype == np.int64

    def test_deterministic_given_seed(self):
        model = canonical_model(0.5)
        theta = copula_pmf(model, "comonotonic")
        a = sample_wac(model, PATH_1, theta, 200, seed=9)
        b = sample_wac(model, PATH_1, theta, 200, seed=9)
        np.testing.assert_array_equal(a.wac, b.wac)
        np.testing.assert_array_equal(a.counterfactual, b.counterfactual)

    def test_always_fair_chain_yields_zero_loss(self):
        model = canonical_model(1.0)
        theta = copula_pmf(model, "independence")
        draws = sample_wac(model, PATH_1, theta, 100, seed=1)
        np.testing.assert_array_equal(draws.wac, np.zeros(100))
        np.testing.assert_array_equal(draws.hidden, np.zeros((100, 30)))

    def test_wac_decomposes_over_periods(self):
        model = canonical_model(0.4)
        theta = copula_pmf(model, "countermonotonic")
        draws = sample_wac(model, PATH_1, theta, 50, seed=7)
        w = model.rewards
        obs = np.asarray(PATH_1)
        recomputed = w[obs - 1].sum() - w[draws.counterfactual - 1].sum(axis=1)
        np.testing.assert_allclose(draws.wac, recomputed, atol=1e-12)

    def test_sample_means_match_the_analytic_value(self):
        model = canonical_model(0.5)
        objective = ewac_objective(model, PATH_1, smooth(model, PATH_1))
        for kind in ("independence", "comonotonic", "countermonotonic"):
            theta = copula_pmf(model, kind)
            draws = sample_wac(model, PATH_1, theta, 4000, seed=11)
            target = ewac_of_theta(objective, theta)
            se = draws.wac.std(ddof=1) / np.sqrt(draws.wac.size)
            assert abs(draws.wac.mean() - target) <= 3 * se

    def test_error_shrinks_with_sample_size(self):
        model = canonical_model(0.5)
        theta = copula_pmf(model, "independence")
        objective = ewac_objective(model, PATH_1, smooth(model, PATH_1))
        target = ewac_of_theta(objective, theta)
        errors = {}
        for count in (200, 20_000):
            draws = sample_wac(model, PATH_1, theta, count, seed=2)
            errors[count] = abs(draws.wac.mean() - target)
            se = draws.wac.std(ddof=1) / np.sqrt(count)
            assert errors[count] <= 3 * se
        assert errors[20_000] < errors[200]

    @pytest.mark.parametrize("case", sampling_cases(), ids=lambda c: c[0])
    def test_redraw_equals_the_per_face_search(self, case):
        # Same seed, same uniforms: hidden paths, counterfactual faces and
        # losses (non-integer payoffs on the random models) match the
        # per-period path loop and the per-face searchsorted redraw.
        _, model, obs, count = case
        theta = random_feasible_theta(*model.emission,
                                      np.random.default_rng(len(obs)))
        alpha = _forward_filter(model, as_symbol_indices(model, obs))
        wac, counterfactual, hidden = loop_sample_wac(model, alpha, obs, theta,
                                                      count, seed=17)
        draws = sample_wac(model, obs, theta, count, seed=17)
        np.testing.assert_array_equal(draws.hidden, hidden)
        np.testing.assert_array_equal(draws.counterfactual, counterfactual)
        np.testing.assert_array_equal(draws.wac, wac)
        assert draws.hidden.dtype == draws.counterfactual.dtype == np.int64

    @pytest.mark.parametrize("count", [0, -3])
    def test_count_below_one_rejected(self, count):
        model = canonical_model(0.5)
        with pytest.raises(ValueError, match="count must be at least 1"):
            sample_wac(model, PATH_1, copula_pmf(model, "independence"), count,
                       seed=0)

    def test_biased_state_on_an_empty_theta_column_raises(self):
        # Face 2 forces the biased state, but the theta column of face 2 is
        # zero (within the marginal tolerance), so no redraw exists.
        tiny = 1e-10
        model = HmmModel([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]],
                         [[1.0, 0.0], [1.0 - tiny, tiny]], [1.0, 2.0])
        theta = [[1.0 - tiny, 0.0], [0.0, 0.0]]
        with pytest.raises(ArithmeticError, match="face 2"):
            sample_wac(model, [1, 2, 1], theta, 3, seed=0)

    def test_infeasible_theta_rejected(self):
        model = canonical_model(0.5)
        with pytest.raises(ValueError, match="marginals"):
            sample_wac(model, PATH_1, np.full((6, 6), 1 / 36), 10, seed=0)


class TestSweepRow:
    def test_crossed_bounds_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            SweepRow(eta=0.5, lb=2.0, ub=1.0)

    def test_partial_rows_allowed(self):
        row = SweepRow(horizon=10, lb=-1.0, ub=3.0, naive=0.5)
        assert row.lb_cs is None
        assert row.as_dict()["horizon"] == 10


class TestEtaSweep:
    def test_row_per_grid_point_with_all_quantities(self):
        grid = [0.2, 0.5, 0.8]
        rows = eta_sweep(PATH_1, grid)
        assert [row.eta for row in rows] == grid
        for row in rows:
            assert row.lb <= row.lb_cs <= row.ub_cs <= row.ub + 1e-12
            assert row.lb_inhom <= row.lb + 1e-9
            assert row.ub <= row.ub_inhom + 1e-9
            for kind in ("independence", "comonotonic", "countermonotonic"):
                value = getattr(row, f"ewac_{kind}")
                assert row.lb - 1e-9 <= value <= row.ub + 1e-9
            assert row.naive == 0.0
            assert row.horizon is None

    def test_options_switch_blocks_off(self):
        rows = eta_sweep(PATH_1, [0.5], constrained=False, inhomogeneous=False,
                        copulas=False)
        row = rows[0]
        assert row.lb is not None and row.ub is not None
        assert row.lb_cs is None and row.ub_inhom is None
        assert row.ewac_comonotonic is None

    @pytest.mark.parametrize("grid", [[], np.array([])])
    def test_empty_grid_rejected(self, grid):
        with pytest.raises(ValueError, match="at least one level"):
            eta_sweep(PATH_1, grid)

    def test_default_grid_is_the_percent_lattice(self):
        grid = default_eta_grid()
        assert grid.size == 99
        assert grid[0] == pytest.approx(0.01)
        assert grid[-1] == pytest.approx(0.99)

    def test_matches_single_point_computation(self):
        rows = eta_sweep(PATH_1, [0.2])
        model = canonical_model(0.2)
        objective = ewac_objective(model, PATH_1, smooth(model, PATH_1))
        pair = ewac_bounds(objective)
        assert rows[0].lb == pytest.approx(pair.lb, abs=1e-12)
        assert rows[0].ub == pytest.approx(pair.ub, abs=1e-12)
        assert rows[0].naive == naive_ewac(model, PATH_1)


class TestHorizonSweep:
    def test_default_grid_shape(self):
        grid = default_horizon_grid()
        assert grid[0] == 10
        assert grid[-1] == 100_000
        assert np.all(np.diff(grid) > 0)

    def test_rows_are_per_period(self):
        rows = horizon_sweep(0.5, [50, 200], seed=4)
        assert [row.horizon for row in rows] == [50, 200]
        for row in rows:
            assert row.eta is None
            assert row.lb <= row.ub
            assert abs(row.ub) <= 6.0  # per-period values are payoff-sized

    def test_truncations_share_the_simulated_path(self):
        # The longer row's prefix analysis must equal the shorter row.
        short = horizon_sweep(0.5, [100], seed=5)[0]
        within = horizon_sweep(0.5, [100, 400], seed=5)[0]
        assert short.lb == within.lb
        assert short.ub == within.ub

    def test_per_period_bounds_approach_the_stationary_rate(self):
        from casino_ewac import asymptotic_ewac_rate

        rate = asymptotic_ewac_rate(canonical_model(0.5))
        row = horizon_sweep(0.5, [5000], seed=6)[0]
        assert row.ub == pytest.approx(rate, abs=0.12)
        assert row.lb == pytest.approx(rate, abs=0.12)

    def test_invalid_grid_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            horizon_sweep(0.5, [0, 10])
