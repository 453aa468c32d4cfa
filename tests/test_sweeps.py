"""Monte-Carlo loss draws and the two sweep drivers."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import casino_ewac
from casino_ewac import (PATH_1, PATH_2, HmmModel,
                         canonical_model, copula_pmf, cs_mask,
                         default_eta_grid, default_horizon_grid, eta_sweep,
                         ewac_bounds, ewac_objective, ewac_of_theta,
                         horizon_sweep, naive_ewac, sample_hidden_paths,
                         sample_wac, simulate, smooth)
from casino_ewac import engine, hmm, sweeps
from casino_ewac.engine import _face_objective
from casino_ewac.hmm import (_BLOCK_SAMPLE_PERIODS, _face_posteriors,
                             _forward_filter, as_symbol_indices)
from helpers import (cold_memo, digit_rows, exact_binomial_cdf, iid_cases,
                     iid_wac_moments, iid_wac_pmf, is_iid, loop_bounds_report,
                     loop_count_sample_wac, loop_iid_sample_wac,
                     path_objective, random_feasible_theta, sampling_cases,
                     sticky_model, wac_theta)


def bits(row):
    """A sweep row's fields, each float as its exact bit pattern."""
    return {name: value.hex() if isinstance(value, float) else value
            for name, value in row.items()}


def record_dict(record):
    """A sweep record's fields by name, as Python ints and floats."""
    return dict(zip(record.dtype.names, record.item()))


def per_level_row(obs, eta):
    """One eta_sweep row the slow way: the level's own objective from its
    face counts and ``loop_bounds_report`` (two ``ewac_bounds`` calls, one
    evaluation per table and ``naive_ewac``)."""
    model = canonical_model(eta)
    counts = np.bincount(np.asarray(obs) - 1, minlength=6)
    posteriors = _face_posteriors(np.array([eta, 1.0 - eta]), model.emission)
    objective = _face_objective(model, counts, counts[:, None] * posteriors)
    _, report = loop_bounds_report(objective, model,
                                   cs_mask(model.emission), obs)
    return dict(report, eta=eta)


def face_counts(hidden, obs, k=6):
    """Biased periods of each face, one row per sampled path."""
    o = np.asarray(obs) - 1
    return np.stack([hidden[:, o == j].sum(axis=1) for j in range(k)], axis=1)


class TestSampleWac:
    def test_biased_counts_reduce_the_hidden_paths(self):
        # The same seed draws the same paths first, so the counts are the
        # per-face reduction of sample_hidden_paths.
        model = sticky_model()
        theta = copula_pmf(model, "independence")
        draws = sample_wac(model, PATH_1, theta, 500, seed=3)
        hidden = sample_hidden_paths(model, PATH_1, 500, seed=3)
        np.testing.assert_array_equal(draws.biased_counts,
                                      face_counts(hidden, PATH_1))
        assert draws.biased_counts.dtype == np.int64

    @pytest.mark.parametrize("kind,wac", [
        ("comonotonic", [5.0, 6.0, 4.0, 2.0]),
        ("countermonotonic", [2.0, -6.0, 4.0, 4.0]),
    ])
    def test_golden_draws(self, kind, wac):
        # Golden values: a fixed seed keeps drawing the same uniforms in the
        # same order, so hidden paths, their face counts and the losses
        # never move.  The losses come from helpers.loop_count_sample_wac
        # on helpers.dense_filter.
        model = sticky_model()
        draws = sample_wac(model, PATH_1[:15], copula_pmf(model, kind), 4,
                           seed=7)
        hidden = digit_rows("110001011000000", "111110000011100",
                            "000000001001110", "000010000001110")
        np.testing.assert_array_equal(draws.biased_counts,
                                      face_counts(hidden, PATH_1[:15]))
        np.testing.assert_array_equal(draws.wac, wac)

    def test_deterministic_given_seed(self):
        model = canonical_model(0.5)
        theta = copula_pmf(model, "comonotonic")
        a = sample_wac(model, PATH_1, theta, 200, seed=9)
        b = sample_wac(model, PATH_1, theta, 200, seed=9)
        np.testing.assert_array_equal(a.wac, b.wac)
        np.testing.assert_array_equal(a.biased_counts, b.biased_counts)

    def test_always_fair_chain_yields_zero_loss(self):
        model = canonical_model(1.0)
        theta = copula_pmf(model, "independence")
        draws = sample_wac(model, PATH_1, theta, 100, seed=1)
        np.testing.assert_array_equal(draws.wac, np.zeros(100))
        np.testing.assert_array_equal(draws.biased_counts,
                                      np.zeros((100, 6)))

    def test_wac_decomposes_over_periods(self):
        # Identical dice and a theta whose columns are point masses (face 1
        # redraws as face 2 and back): each biased period on face j adds
        # exactly w_j - w_other, so the loss is fixed by the counts.
        model = HmmModel([0.5, 0.5], [[0.7, 0.3], [0.4, 0.6]],
                         [[0.5, 0.5], [0.5, 0.5]], [1.0, 3.5])
        theta = [[0.0, 0.5], [0.5, 0.0]]
        draws = sample_wac(model, [1, 2, 2, 1, 2], theta, 300, seed=7)
        np.testing.assert_array_equal(
            draws.wac, draws.biased_counts @ [1.0 - 3.5, 3.5 - 1.0])
        assert draws.biased_counts.sum() > 0

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

    @pytest.mark.parametrize("kind", ["independence", "comonotonic",
                                      "countermonotonic"])
    def test_variance_matches_the_iid_formula(self, kind):
        # The canonical chain is i.i.d., so the loss variance is exact:
        # sum_j n_j [p_j v_j + p_j (1 - p_j) m_j^2].  The sample variance
        # lies within 4 standard errors of it, the error estimated from
        # the sample's fourth central moment.
        model = canonical_model(0.5)
        theta = copula_pmf(model, kind)
        count = 200_000
        wac = sample_wac(model, PATH_1, theta, count, seed=5).wac
        mean, variance = iid_wac_moments(model, PATH_1, theta)
        objective = ewac_objective(model, PATH_1, smooth(model, PATH_1))
        assert mean == pytest.approx(ewac_of_theta(objective, theta),
                                     abs=1e-12)
        centred = wac - wac.mean()
        sample_variance = wac.var(ddof=1)
        se = np.sqrt((np.mean(centred ** 4) - sample_variance ** 2) / count)
        assert abs(sample_variance - variance) <= 4 * se

    @pytest.mark.parametrize("model,kind", [
        (canonical_model(0.5), "independence"),
        (canonical_model(0.5), "comonotonic"),
        (canonical_model(0.5), "countermonotonic"),
        (HmmModel([0.1, 0.9], [[0.6, 0.4], [0.6, 0.4]],
                  canonical_model(0.5).emission, np.arange(1, 7)),
         "comonotonic"),
    ], ids=["independence", "comonotonic", "countermonotonic",
            "first-period-of-its-own"])
    def test_binomial_draws_follow_the_exact_pmf(self, model, kind):
        # Integer payoffs: the exact loss distribution is the convolution
        # of the per-period ones.  Its mean and variance agree with the
        # moment formula, and the draws' mean and variance lie within 4
        # standard errors of them; the empirical CDF lies within the
        # Kolmogorov-Smirnov band of level 0.001 (conservative for a
        # discrete law), so every quantile lands on a support point whose
        # exact CDF brackets the level within that band.
        theta = copula_pmf(model, kind)
        support, pmf = iid_wac_pmf(model, PATH_1, theta)
        mean, variance = iid_wac_moments(model, PATH_1, theta)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
        assert support @ pmf == pytest.approx(mean, abs=1e-10)
        assert (support - mean) ** 2 @ pmf == pytest.approx(variance,
                                                            abs=1e-10)
        count = 100_000
        wac = sample_wac(model, PATH_1, theta, count, seed=8).wac
        centred = wac - wac.mean()
        assert abs(wac.mean() - mean) <= 4 * np.sqrt(variance / count)
        se = np.sqrt((np.mean(centred ** 4) - wac.var() ** 2) / count)
        assert abs(wac.var(ddof=1) - variance) <= 4 * se
        band = 1.95 / np.sqrt(count)
        cdf = np.cumsum(pmf)
        empirical = np.searchsorted(np.sort(wac), support, side="right")
        assert np.abs(empirical / count - cdf).max() <= band
        for level in (0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99):
            at = np.searchsorted(support,
                                 np.quantile(wac, level, method="inverted_cdf"))
            assert cdf[at] >= level - band
            assert cdf[at] - pmf[at] <= level + band

    @pytest.mark.parametrize("case", sampling_cases(), ids=lambda c: c[0])
    def test_redraw_equals_the_per_face_search(self, case):
        # Same seed, same random numbers: biased counts and losses
        # (non-integer payoffs on the random models) match the per-period
        # path loop reduced face by face, or on an i.i.d. chain the scalar
        # binomial loop, with the same scalar conditional-binomial redraws.
        _, model, obs, count = case
        theta = random_feasible_theta(*model.emission,
                                      np.random.default_rng(len(obs)))
        if is_iid(model):
            wac, counts = loop_iid_sample_wac(model, obs, theta, count,
                                              seed=17)
        else:
            alpha = _forward_filter(model, as_symbol_indices(model, obs))
            wac, counts = loop_count_sample_wac(model, alpha, obs, theta,
                                                count, seed=17)
        draws = sample_wac(model, obs, theta, count, seed=17)
        np.testing.assert_array_equal(draws.biased_counts, counts)
        np.testing.assert_array_equal(draws.wac, wac)
        assert draws.biased_counts.dtype == np.int64

    @pytest.mark.parametrize("markov", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sparse_theta_redraw_equals_the_loops(self, markov, seed):
        # Theta columns with leading, interior and trailing zeros, and
        # single cells first, in the middle and last (a zero cell takes no
        # binomial draw), give the loops' counts and losses; the payoffs
        # are not integers, so the losses' sums must run in one order.
        support = digit_rows("1010010", "0010001", "1100000", "1001000",
                             "1100001", "0000110", "0001011")
        rng = np.random.default_rng(seed)
        theta = support * rng.uniform(0.2, 1.0, support.shape)
        theta /= theta.sum()
        rows = [[0.6, 0.4], [0.3, 0.7]] if markov else [[0.6, 0.4]] * 2
        model = HmmModel([0.5, 0.5], rows, [theta.sum(axis=1),
                                            theta.sum(axis=0)],
                         np.cumsum(rng.uniform(0.1, 2.0, 7)))
        obs = rng.integers(1, 8, 60)
        if markov:
            alpha = _forward_filter(model, as_symbol_indices(model, obs))
            wac, counts = loop_count_sample_wac(model, alpha, obs, theta, 300,
                                                seed)
        else:
            wac, counts = loop_iid_sample_wac(model, obs, theta, 300, seed)
        draws = sample_wac(model, obs, theta, 300, seed)
        np.testing.assert_array_equal(draws.biased_counts, counts)
        np.testing.assert_array_equal(draws.wac, wac)

    def test_markov_redraw_has_the_conditional_moments(self):
        # Given the biased counts b_sj, the redraw adds sum_j b_sj m_j to
        # the mean and sum_j b_sj v_j to the variance, m_j and v_j the mean
        # and variance of w_j - w_X, X drawn from theta's column j.  On a
        # Markov chain, with a dense theta and non-integer payoffs, the
        # residual wac - sum_j b_sj m_j and its square less sum_j b_sj v_j
        # both average 0 within 4 standard errors.
        sticky = sticky_model()
        model = HmmModel(sticky.initial, sticky.transition, sticky.emission,
                         [0.5, 1.25, 2.0, 3.5, 3.75, 6.1])
        theta = random_feasible_theta(*model.emission,
                                      np.random.default_rng(3))
        assert (theta > 0).all()
        losses = model.rewards[None, :] - model.rewards[:, None]  # (i, j)
        pi = theta / theta.sum(axis=0)
        m = (pi * losses).sum(axis=0)
        v = (pi * (losses - m) ** 2).sum(axis=0)
        count = 100_000
        draws = sample_wac(model, PATH_1, theta, count, seed=12)
        residual = draws.wac - draws.biased_counts @ m
        for z in (residual, residual ** 2 - draws.biased_counts @ v):
            assert abs(z.mean()) <= 4 * z.std(ddof=1) / np.sqrt(count)

    @pytest.mark.parametrize("markov", [False, True])
    @pytest.mark.parametrize("tiny_first", [True, False])
    def test_tiny_cell_beside_its_complement(self, markov, tiny_first):
        # Column 1 holds 1e-17 beside 1 - 1e-17 (which rounds to 1), in
        # either order; column 2 is one cell.  Each conditional probability
        # stays in [0, 1], so the draws run, and the large cell takes every
        # biased period on face 1: the loss is b_1 (w_1 - w_2) or 0.
        t = 1e-17
        column = [t, 1 - t] if tiny_first else [1 - t, t]
        theta = np.array([[0.5 * column[0], 0.0], [0.5 * column[1], 0.5]])
        rows = [[0.6, 0.4], [0.3, 0.7]] if markov else [[0.6, 0.4]] * 2
        model = HmmModel([0.5, 0.5], rows, [theta.sum(axis=1),
                                            theta.sum(axis=0)], [1.0, 3.5])
        draws = sample_wac(model, [1, 2, 1, 1, 2, 1], theta, 1000, seed=0)
        assert draws.biased_counts[:, 0].sum() > 0
        np.testing.assert_array_equal(
            draws.wac, -2.5 * draws.biased_counts[:, 0] if tiny_first else 0.0)

    def test_slightly_negative_theta_cells_count_as_zero(self):
        # The marginal check accepts cells down to -1e-8; a binomial
        # rejects negative probabilities, so such cells are clipped.
        model = canonical_model(0.5)
        theta = copula_pmf(model, "comonotonic")
        i, j = np.argwhere((theta == 0) & (theta.sum(axis=0) > 0))[0]
        donor = np.argmax(theta[:, j])
        theta[i, j] -= 5e-9
        theta[donor, j] += 5e-9
        draws = sample_wac(model, PATH_1, theta, 100, seed=4)
        clipped = sample_wac(model, PATH_1, np.maximum(theta, 0.0), 100,
                             seed=4)
        np.testing.assert_array_equal(draws.wac, clipped.wac)

    def test_peak_memory_does_not_grow_with_count(self):
        # Both counts span several row blocks; quadrupling them must not
        # add even one byte per added sample-period, as an (S, T) array
        # would.
        model = sticky_model()
        obs = simulate(model, 2000, seed=1)[1]
        theta = copula_pmf(model, "comonotonic")
        peaks = {}
        for count in (1024, 4096):
            assert count * len(obs) > _BLOCK_SAMPLE_PERIODS
            tracemalloc.start()
            try:
                sample_wac(model, obs, theta, count, seed=1)
                peaks[count] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[4096] - peaks[1024] < (4096 - 1024) * len(obs)

    def test_markov_counts_need_no_face_table(self):
        # A (T, K) float64 one-hot table of the faces would cost 8K = 48
        # bytes per period.  Grouping the columns by face needs one index
        # (8 bytes), so with one sample, whose row block is a single path,
        # the peak is the filter and threshold arrays, the path, the index
        # and one path's scan: 82 bytes per period here, 122 with the table.
        model = sticky_model()
        obs = simulate(model, 200_000, seed=1)[1]
        theta = copula_pmf(model, "comonotonic")
        tracemalloc.start()
        try:
            sample_wac(model, obs, theta, 1, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(obs) < 100

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


@st.composite
def integral_iid_cases(draw, constraints):
    """(model, obs) of helpers.iid_cases with integral payoffs (steps of 1
    to 3) and, for ``constraints`` "pm", a uniform fair die and increasing
    biased probabilities, so that the pm polytope is not empty; the cs
    polytope of any dice is not."""
    model, obs = draw(iid_cases())
    k = model.num_symbols
    emission = model.emission
    if constraints == "pm":
        emission = [np.full(k, 1 / k), np.sort(emission[1])]
    steps = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    return HmmModel(model.initial, model.transition, emission,
                    np.cumsum(steps)), obs


class TestWacLaw:
    @pytest.mark.parametrize("theta", [
        "independence", "comonotonic", "countermonotonic", "lb none",
        "ub none", "lb pm", "ub pm", "lb cs", "ub cs"])
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_equals_the_convolution_oracle(self, theta, data):
        # Against period-by-period convolution: atoms within 4 T eps; the
        # mass within (T + K) eps, K + 1 terms rounded in period 1's law
        # (2 eps seen at T = 1, K = 7); the mean, a sum of T terms of size
        # up to max|w|, within 64 T max|w| eps of ewac_of_theta.
        kind, constraints = (theta.split() + ["none"])[:2]
        model, obs = data.draw(integral_iid_cases(constraints))
        objective = ewac_objective(model, obs, smooth(model, obs))
        theta = wac_theta(model, obs, kind, constraints)
        o = as_symbol_indices(model, obs)
        low, pmf = sweeps._wac_law(
            model, o, np.bincount(o, minlength=model.num_symbols), theta)
        support, want = iid_wac_pmf(model, obs, theta)
        at = low - support[0]
        assert 0 <= at and at + pmf.size <= want.size
        got = np.zeros_like(want)
        got[at:at + pmf.size] = pmf
        eps, t = np.finfo(float).eps, len(obs)
        assert np.abs(got - want).max() <= 4 * t * eps
        assert abs(pmf.sum() - 1.0) <= (t + model.num_symbols) * eps
        mean = (low + np.arange(pmf.size)) @ pmf
        assert abs(mean - ewac_of_theta(objective, theta)) <= (
            64 * t * np.abs(model.rewards).max() * eps)

    @pytest.mark.parametrize("cdf", [
        [1.0], [0.25, 0.5, 0.75, 1.0], [0.1, 0.1, 0.1, 0.6, 0.6, 0.9],
        [2**-60, 0.5, 0.5, 1.0 - 2**-53], [0.3, 0.3, 0.3 + 2**-54],
        np.cumsum(np.full(1000, 1e-3)), np.cumsum(0.5 ** np.arange(1, 60))])
    def test_guide_table_equals_the_clamped_search(self, cdf):
        # Uniforms at, just below and just above every CDF value and every
        # guide cell's edge, and past the last CDF value.
        cdf = np.asarray(cdf, dtype=float)
        edges = np.arange(64 * cdf.size + 1) / (64 * cdf.size)
        u = np.concatenate([cdf, np.nextafter(cdf, 0), np.nextafter(cdf, 1),
                            edges, np.nextafter(edges, 0),
                            np.random.default_rng(5).random(1000)])
        u = u[(u >= 0) & (u < 1)]
        want = np.minimum(np.searchsorted(cdf, u, "right"), cdf.size - 1)
        np.testing.assert_array_equal(sweeps._searched(cdf, u), want)

    def test_a_possible_biased_state_on_an_empty_column_raises(self):
        # Face 2 is biased with probability about 2e-10, and its theta
        # column is zero within the marginal tolerance.  The law raises
        # whatever the seed, where the Monte Carlo raises only if a draw
        # reaches that state; on a path without face 2 the law draws.
        tiny = 1e-10
        model = HmmModel([0.5, 0.5], [[0.5, 0.5]] * 2,
                         [[0.5, 0.5], [1.0 - tiny, tiny]], [1.0, 2.0])
        theta = [[0.5, 0.0], [0.5 - tiny, 0.0]]
        o = np.array([0, 1, 0])
        counts = np.bincount(o, minlength=2)
        for seed in range(5):
            assert sample_wac(model, [1, 2, 1], theta, 1000, seed).wac.size
            with pytest.raises(ArithmeticError, match="face 2 has positive"):
                sweeps._wac_dist(model, o, counts, theta, 1000, seed)
        with pytest.raises(ArithmeticError, match="face 2"):
            sweeps._wac_law(model, o, counts, theta)
        o = np.zeros(3, np.int64)
        low, pmf = sweeps._wac_law(model, o, np.array([3, 0]), theta)
        assert (low, pmf.size) == (-3, 4)
        losses, index = sweeps._wac_dist(model, o, np.array([3, 0]), theta,
                                         1000, 0)
        assert set(losses[index]) <= {0.0, -1.0, -2.0, -3.0}


# An i.i.d. chain whose theta columns are single cells, so the losses take
# no redraw and only the biased counts draw: face 1 periods after the first
# are biased with probability 0.4 * 0.7 / (0.6 * 0.3 + 0.4 * 0.7) = 14 / 23.
SWAP = HmmModel([0.5, 0.5], [[0.6, 0.4]] * 2, [[0.3, 0.7], [0.7, 0.3]],
                [1.0, 3.5])
SWAP_THETA = [[0.0, 0.3], [0.7, 0.0]]
# A Markov chain whose fair die never shows face 3, so every face-3 period
# is biased; face 3's column redraws Binomial(b_3, 0.35 / 0.5) periods to
# face 1 (a loss of 5 each) and the rest to face 2 (3.5 each), and the
# other columns are single cells on their own face, which lose nothing.
# Both shares here exceed 1/2, where numpy's sampler draws n - Binomial(n,
# 1 - p) rather than inverting the CDF at one uniform.
FORCED = HmmModel([0.5, 0.5], [[0.6, 0.4], [0.3, 0.7]],
                  [[0.5, 0.5, 0.0], [0.15, 0.35, 0.5]], [1.0, 2.5, 6.0])
FORCED_THETA = [[0.15, 0.0, 0.35], [0.0, 0.35, 0.15], [0.0, 0.0, 0.0]]


def swap_path(n):
    """A path whose largest count after period 1 is n, on face 1."""
    return [2] + [1] * n + [2, 2, 2]


def forced_path(n):
    """A path on which every sample has n biased face-3 periods."""
    return [1, 2] + [3] * n + [2, 1]


def assert_binomial_law(draws, n, p):
    """The draws' empirical CDF lies within the Kolmogorov-Smirnov band
    of level 0.001 of Binomial(n, p), its CDF in exact rationals."""
    cdf = [float(c) for c in exact_binomial_cdf(n, p)] + [1.0]
    empirical = np.searchsorted(np.sort(draws), np.arange(n + 1),
                                side="right") / draws.size
    assert np.abs(empirical - cdf).max() <= 1.95 / np.sqrt(draws.size)


class TestNumpyBinomials:
    # Every binomial is numpy's, drawn in the scalar oracle's order.  The
    # sizes straddle where tabulated-CDF routes once took over: n = 224
    # for the i.i.d. counts and 32 for a face's redraws.  Draws above them
    # kept their bytes throughout, so the 225 counts and 33 redraws
    # digests pin numpy's route.
    @pytest.mark.parametrize("n,digest", [
        (1, None),
        (224, None),
        (225,
         "1ce8a0afc3ecb2c74626e9efa220dd3f3cd17017a544bf43949ea38d49cfa57d"),
        (33,
         "73f43b03107d52fd2600724c9ef9ce206e56339a06d7ceb6a1aa8f3fd7661450"),
    ], ids=["1", "224", "225", "33"])
    def test_counts_equal_the_scalar_oracle(self, n, digest):
        # The digests of the losses' and counts' bytes come from the
        # oracle's numpy scalar draws.
        obs = swap_path(n)
        draws = sample_wac(SWAP, obs, SWAP_THETA, 200, seed=3)
        wac, counts = loop_iid_sample_wac(SWAP, obs, SWAP_THETA, 200, 3)
        np.testing.assert_array_equal(draws.biased_counts, counts)
        np.testing.assert_array_equal(draws.wac, wac)
        if digest is not None:
            assert hashlib.sha256(draws.wac.tobytes() + draws.biased_counts
                                  .tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("n,digest", [
        (32, None),
        (33,
         "a56c8ef762ab64feb067c1463db179b868c028045fef5c1f65e3fd814aa33ea0"),
    ], ids=["32", "33"])
    def test_redraws_equal_the_scalar_oracle(self, n, digest):
        obs = forced_path(n)
        alpha = _forward_filter(FORCED, as_symbol_indices(FORCED, obs))
        draws = sample_wac(FORCED, obs, FORCED_THETA, 200, seed=3)
        wac, counts = loop_count_sample_wac(FORCED, alpha, obs, FORCED_THETA,
                                            200, 3)
        assert (draws.biased_counts[:, 2] == n).all()
        np.testing.assert_array_equal(draws.biased_counts, counts)
        np.testing.assert_array_equal(draws.wac, wac)
        if digest is not None:
            assert hashlib.sha256(draws.wac.tobytes() + draws.biased_counts
                                  .tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("p", [0.0, 1e-17, 0.05, 0.3, 0.5, 2 / 3, 0.95,
                                   1 - 1e-16, 1.0])
    def test_edge_shares_equal_the_scalar_oracle(self, p):
        # The biased die rolls only face 3 and the fair die never does, so
        # every period is a biased face 3, and its column redraws
        # Binomial(32, p) periods to face 1 (a loss of 5 each), the rest to
        # face 2 (3.5 each).  At shares of 0 and 1, or within an ulp of
        # them, the draws stay whole and in [0, 32]; at 0 exactly the cell
        # is skipped and nothing is drawn.
        n = 32
        model = HmmModel([0.5, 0.5], FORCED.transition,
                         [[p, 1 - p, 0.0], [0.0, 0.0, 1.0]], FORCED.rewards)
        theta = [[0.0, 0.0, p], [0.0, 0.0, 1 - p], [0.0, 0.0, 0.0]]
        obs = [3] * n
        alpha = _forward_filter(model, as_symbol_indices(model, obs))
        draws = sample_wac(model, obs, theta, 200, seed=3)
        wac, counts = loop_count_sample_wac(model, alpha, obs, theta, 200, 3)
        np.testing.assert_array_equal(draws.biased_counts, counts)
        np.testing.assert_array_equal(draws.wac, wac)
        assert (draws.biased_counts == [0, 0, n]).all()
        to_face_1 = (draws.wac - 3.5 * n) / 1.5
        np.testing.assert_array_equal(to_face_1, np.round(to_face_1))
        assert 0 <= to_face_1.min() <= to_face_1.max() <= n
        if p in (0.0, 1.0):
            assert (to_face_1 == n * p).all()

    def test_counts_at_224_follow_the_binomial_law(self):
        draws = sample_wac(SWAP, swap_path(224), SWAP_THETA, 100_000,
                           seed=23)
        share = 0.4 * 0.7 / (0.6 * 0.3 + 0.4 * 0.7)
        assert_binomial_law(draws.biased_counts[:, 0], 224, share)

    def test_redraws_at_32_follow_the_binomial_law(self):
        n = 32
        draws = sample_wac(FORCED, forced_path(n), FORCED_THETA, 100_000,
                           seed=29)
        to_face_1 = (draws.wac - 3.5 * n) / 1.5
        np.testing.assert_array_equal(to_face_1, np.round(to_face_1))
        assert_binomial_law(to_face_1, n, 0.35 / 0.5)


class TestSweepRecords:
    # Each sweep returns one record array, its fields the sweep's columns.
    def test_eta_sweep_fields_are_floats(self):
        rows = eta_sweep(PATH_1, [0.2, 0.5])
        assert type(rows) is np.recarray
        assert rows.dtype.names == sweeps.ETA_SWEEP_COLUMNS
        assert all(rows.dtype[name] == np.float64
                   for name in rows.dtype.names)
        assert len(rows) == 2
        assert rows[1].eta == 0.5 and rows.lb[1] == rows[1].lb

    def test_horizon_sweep_horizon_is_int64(self):
        rows = horizon_sweep(0.5, [50, 10], seed=4)
        assert type(rows) is np.recarray
        assert rows.dtype.names == sweeps.HORIZON_SWEEP_COLUMNS
        assert rows.dtype["horizon"] == np.int64
        assert all(rows.dtype[name] == np.float64
                   for name in sweeps.HORIZON_SWEEP_COLUMNS[1:])
        assert rows.horizon.tolist() == [10, 50]
        assert type(rows[0].horizon) is np.int64


def records(table, columns):
    """A sweep's record array of the (N, len(columns)) float ``table``,
    the horizon as an int64 field."""
    return np.rec.fromarrays([
        col.astype(np.int64) if name == "horizon" else col
        for name, col in zip(columns, table.T)], names=columns)


class TestSweepTableCheck:
    # The sweeps check their bound pairs on the arrays: the first row that
    # fails raises, naming its first failing pair.
    @pytest.mark.parametrize("bad,message", [
        ([], None),
        ([(2, 3, 4), (3, 1, 2)], "lb_cs=4.000000002 exceeds ub_cs=4.0"),
        ([(4, 5, 6)], "lb_inhom=6.000000002 exceeds ub_inhom=6.0"),
        ([(0, 1, 2), (0, 3, 4)], "lb=2.000000002 exceeds ub=2.0")])
    def test_first_failure_is_the_rows_first(self, bad, message):
        columns = casino_ewac.sweeps.ETA_SWEEP_COLUMNS
        table = np.tile(np.arange(11.0), (5, 1))
        for row, lo, hi in bad:  # lo exceeds hi by more than the slack
            table[row, lo] = table[row, hi] + 2e-9
        rows = records(table, columns)
        if not bad:
            assert casino_ewac.sweeps._checked(rows) is rows
            return
        with pytest.raises(ValueError) as got:
            casino_ewac.sweeps._checked(rows)
        assert str(got.value) == message

    def test_within_the_slack_passes(self):
        columns = casino_ewac.sweeps.HORIZON_SWEEP_COLUMNS
        table = np.array([[10.0, 1.0 + 1e-9, 1.0, 0.0]])
        rows = records(table, columns)
        assert casino_ewac.sweeps._checked(rows) is rows
        rows.lb[0] = np.nextafter(rows.lb[0], 2.0)
        with pytest.raises(ValueError, match="exceeds ub=1.0"):
            casino_ewac.sweeps._checked(rows)


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
        assert "horizon" not in rows.dtype.names

    @pytest.mark.parametrize("grid", [[], np.array([])])
    def test_empty_grid_rejected(self, grid):
        with pytest.raises(ValueError, match="at least one level"):
            eta_sweep(PATH_1, grid)

    @pytest.mark.parametrize("bad", [-0.1, 1.5, np.nan])
    def test_every_level_is_validated(self, bad):
        with pytest.raises(ValueError, match="eta"):
            eta_sweep(PATH_1, [0.2, bad, 0.5])

    def test_default_grid_is_the_percent_lattice(self):
        grid = default_eta_grid()
        assert grid.size == 99
        assert grid[0] == pytest.approx(0.01)
        assert grid[-1] == pytest.approx(0.99)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.integers(1, 6), min_size=1, max_size=40)
           .flatmap(lambda faces: st.lists(st.sampled_from(faces),
                                           min_size=1, max_size=40)),
           st.lists(st.sampled_from([0.0, 1.0, 0.5, 0.25]) | st.floats(0, 1),
                    min_size=1, max_size=8))
    def test_rows_equal_the_per_level_reports(self, obs, grid):
        # Paths drawn from a random subset of faces leave faces unseen,
        # whose zero factors tie; the grid repeats levels as often as not.
        rows = eta_sweep(obs, grid)
        assert [bits(record_dict(row)) for row in rows] == [
            bits(per_level_row(obs, eta)) for eta in grid]

    @pytest.mark.parametrize("obs", [PATH_1, PATH_2])
    @pytest.mark.parametrize("grid", [None, [0.0, 0.5, 1.0], [0.37]])
    def test_builtin_rows_equal_the_per_level_reports(self, obs, grid):
        rows = eta_sweep(obs, grid)
        levels = default_eta_grid().tolist() if grid is None else grid
        assert [bits(record_dict(row)) for row in rows] == [
            bits(per_level_row(obs, eta)) for eta in levels]

    @pytest.mark.parametrize("obs,orders", [(PATH_1, 1), (PATH_2, 7)])
    def test_fills_once_per_factor_order(self, obs, orders, monkeypatch):
        # From an empty memo, two staircase fills for each distinct stable
        # factor order of the default grid, none for a second sweep, and
        # no call to ewac_bounds at all.
        cold_memo(monkeypatch)
        calls = []
        fill = engine._staircase_fill

        def counting(*args):
            calls.append(args)
            return fill(*args)

        def refuse(*args, **kwargs):
            raise AssertionError("eta_sweep called ewac_bounds")

        monkeypatch.setattr(engine, "_staircase_fill", counting)
        for module in (casino_ewac, engine, casino_ewac.sweeps):
            if hasattr(module, "ewac_bounds"):
                monkeypatch.setattr(module, "ewac_bounds", refuse)
        eta_sweep(obs)
        assert len(calls) == 2 * orders
        eta_sweep(obs)
        assert len(calls) == 2 * orders

    @pytest.mark.parametrize("obs", [PATH_1, PATH_2])
    def test_blocks_of_levels_change_no_row(self, obs, monkeypatch):
        # Blocks of 7 levels share the memo's tables: from an empty memo
        # the same rows, bit for bit, still two staircase fills per order,
        # and none for a second sweep.
        whole = [bits(record_dict(row)) for row in eta_sweep(obs)]
        cold_memo(monkeypatch)
        calls = []
        fill = engine._staircase_fill
        monkeypatch.setattr(casino_ewac.sweeps, "_LEVEL_BLOCK", 7)
        monkeypatch.setattr(engine, "_staircase_fill",
                            lambda *args: calls.append(args) or fill(*args))
        assert [bits(record_dict(row)) for row in eta_sweep(obs)] == whole
        assert len(calls) == (2 if obs is PATH_1 else 14)
        assert [bits(record_dict(row)) for row in eta_sweep(obs)] == whole
        assert len(calls) == (2 if obs is PATH_1 else 14)

    def test_matches_single_point_computation(self):
        rows = eta_sweep(PATH_1, [0.2])
        model = canonical_model(0.2)
        objective = ewac_objective(model, PATH_1, smooth(model, PATH_1))
        pair = ewac_bounds(objective)
        assert rows[0].lb == pair.lb
        assert rows[0].ub == pair.ub
        assert rows[0].naive == naive_ewac(model, PATH_1)


class TestHorizonSweep:
    def test_default_grid_shape(self):
        grid = default_horizon_grid()
        assert grid[0] == 10
        assert grid[-1] == 100_000
        assert np.all(np.diff(grid) > 0)

    @pytest.mark.parametrize("points", [0, -3])
    def test_grid_needs_a_point(self, points):
        with pytest.raises(ValueError, match=f"need points >= 1, got {points}"):
            default_horizon_grid(10, 100, points)

    def test_rows_are_per_period(self):
        rows = horizon_sweep(0.5, [50, 200], seed=4)
        assert [row.horizon for row in rows] == [50, 200]
        assert "eta" not in rows.dtype.names
        for row in rows:
            assert row.lb <= row.ub
            assert abs(row.ub) <= 6.0  # per-period values are payoff-sized

    @pytest.mark.parametrize("eta,grid,seed", [
        (0.5, [1, 2, 3, 10, 57, 1000, 4000], 3), (0.9, [4000, 16, 1], 2),
        (0.0, [5, 300], 1), (1.0, [5, 300], 1), (0.2, [1], 8)])
    def test_rows_equal_the_per_prefix_bounds(self, eta, grid, seed):
        # Bit for bit the objective, bounds and naive value of each prefix
        # converted and counted on its own.
        model = canonical_model(eta)
        _, obs = simulate(model, max(grid), seed)
        expected = []
        for horizon in sorted(grid):
            prefix = obs[:horizon]
            objective, _ = path_objective(model, prefix)
            pair = ewac_bounds(objective)
            expected.append(dict(
                horizon=horizon, lb=pair.lb / horizon, ub=pair.ub / horizon,
                naive=naive_ewac(model, prefix) / horizon))
        rows = horizon_sweep(eta, grid, seed)
        assert [bits(record_dict(row)) for row in rows] == list(map(bits,
                                                                 expected))

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_blocks_change_no_row(self, block, monkeypatch):
        # Horizons before, on and after the edges of simulation blocks:
        # the face counts carry over from block to block.
        grid = [1, 6, 7, 8, 63, 64, 65, 200, 448]
        want = horizon_sweep(0.4, grid, seed=9)
        monkeypatch.setattr(hmm, "_SIMULATE_BLOCK", block)
        got = horizon_sweep(0.4, grid, seed=9)
        assert ([bits(record_dict(row)) for row in got]
                == [bits(record_dict(row)) for row in want])

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

    def test_fractional_horizons_rejected(self):
        # 2.7 is not truncated to the horizon 2; an integral 2.0 is 2.
        with pytest.raises(ValueError, match=(
                "^horizon grid must contain positive integers$")):
            horizon_sweep(0.5, [2.7, 3.2])
        got, want = (horizon_sweep(0.5, grid, seed=1)
                     for grid in ([2.0, 3.0], [2, 3]))
        assert got.horizon.tolist() == [2, 3]
        assert got.tobytes() == want.tobytes()
