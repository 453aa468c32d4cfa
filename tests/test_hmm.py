"""Model construction, smoothing, posterior sampling, and simulation."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casino_ewac import (BIASED, FAIR, PATH_1, HmmModel, ZeroLikelihoodError,
                         hmm,
                         canonical_model, sample_hidden_paths, simulate,
                         smooth)
from casino_ewac.hmm import (_BLOCK_SAMPLE_PERIODS, _face_counts,
                             _forward_filter, _iid_posteriors,
                             _smooth_filtered, _symbol_indices,
                             as_symbol_indices)
from helpers import (brute_force_smooth, dense_smooth, digit_rows, iid_cases,
                     loop_backward_sample, loop_simulate, random_small_model,
                     sampling_cases, sticky_model)


class TestHmmModel:
    def test_canonical_primitives(self):
        model = canonical_model(0.5)
        np.testing.assert_allclose(model.initial, [0.5, 0.5])
        np.testing.assert_allclose(model.transition, [[0.5, 0.5], [0.5, 0.5]])
        np.testing.assert_allclose(model.emission[FAIR], np.full(6, 1 / 6))
        np.testing.assert_allclose(model.emission[BIASED], np.arange(1, 7) / 21)
        np.testing.assert_array_equal(model.rewards, [1, 2, 3, 4, 5, 6])

    def test_eta_bounds_enforced(self):
        with pytest.raises(ValueError, match="eta"):
            canonical_model(-0.1)
        with pytest.raises(ValueError, match="eta"):
            canonical_model(1.5)

    def test_row_sums_validated(self):
        with pytest.raises(ValueError, match="sum to 1"):
            HmmModel([0.5, 0.5], [[0.9, 0.2], [0.5, 0.5]],
                     [[0.5, 0.5], [0.5, 0.5]], [1.0, 2.0])

    def test_rewards_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            HmmModel([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]],
                     [[0.5, 0.5], [0.5, 0.5]], [2.0, 2.0])

    def test_arrays_are_read_only(self):
        model = canonical_model(0.3)
        for name in ("initial", "transition", "emission", "rewards"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(model, name).flat[0] = 1.0

    @pytest.mark.parametrize("eta", [0.0, 1.0, 1e-300, 0.1 + 0.2,
                                     np.nextafter(1.0, 0.0)])
    def test_canonical_equals_a_checked_model(self, eta):
        # The shared dice and payoffs and the row of eta, bit for bit the
        # arrays HmmModel checks and copies.
        row = np.array([eta, 1.0 - eta])
        want = HmmModel(row, np.vstack([row, row]),
                        np.vstack([np.full(6, 1.0 / 6.0),
                                   np.arange(1, 7) / 21.0]),
                        np.arange(1, 7, dtype=float))
        got = canonical_model(eta)
        assert type(got) is HmmModel and repr(got) == repr(want)
        for name in ("initial", "transition", "emission", "rewards"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert a.tobytes() == b.tobytes(), name
            assert not a.flags.writeable, name

    @pytest.mark.parametrize("eta,text", [(float("nan"), "nan"),
                                          (-0.1, "-0.1"), (1.5, "1.5"),
                                          (float("inf"), "inf"),
                                          (-1e-300, "-1e-300")])
    def test_canonical_eta_outside_the_unit_interval(self, eta, text):
        with pytest.raises(ValueError) as exc:
            canonical_model(eta)
        assert str(exc.value) == f"eta must lie in [0, 1], got {text}"


class TestSmooth:
    def test_single_step_posterior_is_bayes_rule(self):
        # eta = 0.5, one observed six: biased posterior
        # (0.5 * 6/21) / (0.5 * 1/6 + 0.5 * 6/21) = 12/19.
        delta = smooth(canonical_model(0.5), [6])
        assert delta[0, BIASED] == pytest.approx(12 / 19, abs=1e-12)
        assert delta[0, FAIR] == pytest.approx(7 / 19, abs=1e-12)

    @pytest.mark.parametrize("eta,column", [(1.0, FAIR), (0.0, BIASED)])
    def test_degenerate_eta_pins_the_state(self, eta, column):
        delta = smooth(canonical_model(eta), [1, 4, 6, 2, 2])
        np.testing.assert_array_equal(delta[:, column], np.ones(5))

    def test_rows_are_distributions(self):
        delta = smooth(canonical_model(0.37), [6, 1, 1, 5, 6, 6, 2])
        assert delta.min() >= 0.0
        np.testing.assert_allclose(delta.sum(axis=1), np.ones(7), atol=1e-10)

    def test_matches_enumeration_on_canonical(self):
        rng = np.random.default_rng(7)
        model = canonical_model(0.45)
        for horizon in (1, 2, 3, 5, 8, 10):
            obs = rng.integers(1, 7, size=horizon)
            np.testing.assert_allclose(smooth(model, obs),
                                       brute_force_smooth(model, obs),
                                       atol=1e-10)

    def test_matches_enumeration_on_random_models(self):
        # Random transition rows, so the posterior really couples periods.
        rng = np.random.default_rng(11)
        for _ in range(20):
            model = random_small_model(rng)
            obs = rng.integers(1, model.num_symbols + 1,
                               size=rng.integers(1, 11))
            np.testing.assert_allclose(smooth(model, obs),
                                       brute_force_smooth(model, obs),
                                       atol=1e-10)

    def test_identical_transition_rows_factorise_the_posterior(self):
        # The canonical chain resamples its state every period, so delta_t
        # depends on o_t alone; compare with the per-period Bayes formula.
        eta = 0.3
        model = canonical_model(eta)
        obs = np.array([3, 6, 1, 6, 2, 4])
        delta = smooth(model, obs)
        e_f, e_b = model.emission[FAIR, obs - 1], model.emission[BIASED, obs - 1]
        expected = (1 - eta) * e_b / (eta * e_f + (1 - eta) * e_b)
        np.testing.assert_allclose(delta[:, BIASED], expected, atol=1e-12)

    @pytest.mark.parametrize("k", range(2, 8))
    def test_matches_dense_recursion_on_long_paths(self, k):
        # Path enumeration stops near T = 10; the vector-form recursion
        # checks the scalar loops at T in the thousands.
        rng = np.random.default_rng(100 + k)
        for _ in range(2):
            model = random_small_model(rng, k)
            obs = rng.integers(1, k + 1, size=rng.integers(4000, 6000))
            tol = 4 * obs.size * np.finfo(float).eps
            np.testing.assert_allclose(smooth(model, obs),
                                       dense_smooth(model, obs),
                                       rtol=0, atol=tol)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(iid_cases())
    def test_iid_gather_equals_forward_backward(self, case):
        # Equal transition rows: the per-face gather against the scalar
        # forward-backward passes, which stay the route of Markov chains.
        model, obs = case
        o = as_symbol_indices(model, obs)
        expected = _smooth_filtered(model, o, _forward_filter(model, o))
        np.testing.assert_allclose(smooth(model, obs), expected, rtol=0,
                                   atol=4 * len(obs) * np.finfo(float).eps)

    @pytest.mark.parametrize("initial,path,message", [
        ([1.0, 0.0], [2], "position 1"),
        ([1.0, 0.0], [2, 2, 1], "position 1"),
        ([0.5, 0.5], [2, 1, 2, 1, 2], "length 3"),
        ([0.0, 1.0], [2, 2], "length 2"),
    ])
    def test_iid_impossible_paths_fail_as_the_filter_does(
            self, initial, path, message):
        # Equal rows (1, 0) and a fair die that never shows face 2: only
        # period 1, if its prior allows the biased die, can show it.
        model = HmmModel(initial, [[1.0, 0.0], [1.0, 0.0]],
                         [[1.0, 0.0], [0.5, 0.5]], [0.0, 1.0])
        with pytest.raises(ZeroLikelihoodError, match=message) as iid:
            smooth(model, path)
        with pytest.raises(ZeroLikelihoodError) as filtered:
            _forward_filter(model, as_symbol_indices(model, path))
        assert str(iid.value) == str(filtered.value)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    @pytest.mark.parametrize("initial,row,path,message", [
        # Face 2 is ruled out by both states only at period 1 (fair).
        ([1.0, 0.0], [0.5, 0.5], [2, 1, 2, 2], "position 1"),
        # Dead under the row, seen only at period 1: no error.
        ([0.5, 0.5], [1.0, 0.0], [2, 1, 1, 1], None),
        # Dead under the row at period 4.
        ([0.5, 0.5], [1.0, 0.0], [2, 1, 1, 2, 1, 2], "length 4"),
        ([0.5, 0.5], [1.0, 0.0], [1] * 99 + [2], "length 100"),
    ])
    def test_dead_faces_from_the_counts(self, dtype, initial, row, path,
                                        message):
        # The counts say whether an observed face is dead; the position
        # and message are then the filter's.
        model = HmmModel(initial, [row, row], [[1.0, 0.0], [0.5, 0.5]],
                         [0.0, 1.0])
        o = _symbol_indices(model, np.array(path, dtype), in_place=True)
        counts = _face_counts(o, 2)
        if message is None:  # the filter agrees, and is not run
            _forward_filter(model, o)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(hmm, "_forward_filter", None)
                assert _iid_posteriors(model, o, counts) is not None
            return
        with pytest.raises(ZeroLikelihoodError, match=message) as got:
            _iid_posteriors(model, o, counts)
        with pytest.raises(ZeroLikelihoodError) as want:
            _forward_filter(model, o)
        assert str(got.value) == str(want.value)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda k: st.tuples(
        st.just(k), st.lists(st.integers(0, k - 1), max_size=300))),
        st.sampled_from([np.uint8, np.int64]))
    def test_face_counts_equal_bincount(self, case, dtype):
        k, faces = case
        o = np.array(faces, dtype)
        got = _face_counts(o, k)
        want = np.bincount(o, minlength=k)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    def test_impossible_path_raises(self):
        model = HmmModel([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]],
                         [[1.0, 0.0], [1.0, 0.0]], [0.0, 1.0])
        with pytest.raises(ZeroLikelihoodError, match="position 1"):
            smooth(model, [2])
        with pytest.raises(ZeroLikelihoodError, match="length 3"):
            smooth(model, [1, 1, 2, 1])

    def test_bad_faces_are_named(self):
        model = canonical_model(0.5)
        with pytest.raises(ValueError, match="position 3"):
            smooth(model, [1, 2, 9, 4])
        with pytest.raises(ValueError, match="position 1"):
            smooth(model, [0, 2])

    def test_long_horizon_stays_finite(self):
        model = canonical_model(0.5)
        _, obs = simulate(model, 200_000, seed=3)
        delta = smooth(model, obs)
        assert np.all(np.isfinite(delta))
        np.testing.assert_allclose(delta.sum(axis=1), 1.0, atol=1e-10)

    def test_symbol_indices_leave_the_faces_alone(self):
        # The command line converts the path it parsed in place; the
        # public conversion and smooth copy the caller's faces.
        model = canonical_model(0.5)
        obs = np.array([1, 6, 3, 2], dtype=np.int64)
        o = as_symbol_indices(model, obs)
        smooth(model, obs)
        np.testing.assert_array_equal(obs, [1, 6, 3, 2])
        np.testing.assert_array_equal(o, [0, 5, 2, 1])
        assert not np.shares_memory(o, obs)

    def test_symbol_indices_keep_one_byte_faces_in_place(self):
        # In place, one-byte faces stay one byte; the public conversion
        # returns int64 whatever the dtype.
        model = canonical_model(0.5)
        obs = np.array([1, 6, 3, 2], dtype=np.uint8)
        public = as_symbol_indices(model, obs)
        assert public.dtype == np.int64
        np.testing.assert_array_equal(public, [0, 5, 2, 1])
        o = _symbol_indices(model, obs, in_place=True)
        assert o.dtype == np.uint8 and np.shares_memory(o, obs)
        np.testing.assert_array_equal(obs, [0, 5, 2, 1])
        wide = np.array([1, 6, 3, 2], dtype=np.int32)
        assert _symbol_indices(model, wide, in_place=True).dtype == np.int64

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    @pytest.mark.parametrize("path,position,face", [
        ([7, 1, 2], 1, 7), ([1, 2, 0, 9], 3, 0), ([6] * 40 + [255], 41, 255),
    ])
    def test_bad_faces_are_named_in_every_dtype(self, dtype, path, position,
                                                face):
        model = canonical_model(0.5)
        for in_place in (False, True):
            with pytest.raises(ValueError) as exc:
                _symbol_indices(model, np.array(path, dtype), in_place)
            assert str(exc.value) == (f"observation at position {position} "
                                      f"is {face}, expected a face in 1..6")

    def test_symbol_indices_of_floats(self):
        # Integral floats (a path read as numbers) are faces; 1.5 is not.
        model = canonical_model(0.5)
        np.testing.assert_array_equal(
            as_symbol_indices(model, np.array([1.0, 6.0, 3.0])),
            as_symbol_indices(model, [1, 6, 3]))
        with pytest.raises(ValueError, match="must contain integers"):
            as_symbol_indices(model, [1.0, 1.5, 2.0])


class TestSampleHiddenPaths:
    def test_deterministic_given_seed(self):
        model = canonical_model(0.4)
        obs = [6, 6, 1, 3, 6]
        a = sample_hidden_paths(model, obs, 64, seed=5)
        b = sample_hidden_paths(model, obs, 64, seed=5)
        np.testing.assert_array_equal(a, b)
        c = sample_hidden_paths(model, obs, 64, seed=6)
        assert not np.array_equal(a, c)

    def test_degenerate_eta_pins_every_path(self):
        obs = [2, 5, 6]
        fair = sample_hidden_paths(canonical_model(1.0), obs, 32, seed=0)
        np.testing.assert_array_equal(fair, np.zeros((32, 3), dtype=int))
        biased = sample_hidden_paths(canonical_model(0.0), obs, 32, seed=0)
        np.testing.assert_array_equal(biased, np.ones((32, 3), dtype=int))

    def test_golden_draws(self):
        # Golden values: a fixed seed keeps drawing the same uniforms in the
        # same order, so the sampled paths never move.
        paths = sample_hidden_paths(sticky_model(), PATH_1[:15], 5, seed=2024)
        np.testing.assert_array_equal(paths, digit_rows(
            "000110000000000", "110000111000000", "000011111000100",
            "100000000000000", "000100000000111"))

    @pytest.mark.parametrize("case", sampling_cases(), ids=lambda c: c[0])
    def test_scan_equals_the_per_period_loop(self, case):
        # Same seed, same uniforms: the scan must reproduce the backward
        # recursion draw for draw.
        _, model, obs, count = case
        alpha = _forward_filter(model, as_symbol_indices(model, obs))
        expected = loop_backward_sample(model, alpha, count,
                                        np.random.default_rng(31))
        paths = sample_hidden_paths(model, obs, count, seed=31)
        assert paths.dtype == np.int64
        np.testing.assert_array_equal(paths, expected)

    def test_cases_cross_a_row_block(self):
        cases = {name: (obs, count) for name, _, obs, count in sampling_cases()}
        obs, count = cases["two-row-blocks"]
        assert len(obs) * count > _BLOCK_SAMPLE_PERIODS > len(obs)

    def test_marginals_match_smoothing(self):
        model = random_small_model(np.random.default_rng(2))
        obs = [1, 3, 3, 2, 1, 2, 3, 1]
        delta = smooth(model, obs)
        count = 10_000
        paths = sample_hidden_paths(model, obs, count, seed=42)
        freq = paths.mean(axis=0)
        se = np.sqrt(delta[:, BIASED] * delta[:, FAIR] / count)
        assert np.all(np.abs(freq - delta[:, BIASED]) <= 3 * se + 1e-12)

    def test_path_weights_match_joint_posterior(self):
        # Beyond marginals: empirical path frequencies against the full
        # enumerated posterior on a short path.
        from helpers import path_posterior

        model = random_small_model(np.random.default_rng(9))
        obs = [2, 1, 3]
        paths, weights = path_posterior(model, obs)
        draws = sample_hidden_paths(model, obs, 20_000, seed=7)
        codes = draws @ (2 ** np.arange(3))
        for n, h in enumerate(paths):
            emp = np.mean(codes == h @ (2 ** np.arange(3)))
            se = np.sqrt(weights[n] * (1 - weights[n]) / 20_000)
            assert abs(emp - weights[n]) <= 3 * se + 1e-12


class TestSimulate:
    def test_deterministic_given_seed(self):
        model = canonical_model(0.6)
        s1, o1 = simulate(model, 500, seed=9)
        s2, o2 = simulate(model, 500, seed=9)
        np.testing.assert_array_equal(s1, s2)
        np.testing.assert_array_equal(o1, o2)

    def test_golden_run(self):
        states, obs = simulate(sticky_model(), 30, seed=5)
        np.testing.assert_array_equal(
            states, digit_rows("110000011111101110100000000000")[0])
        np.testing.assert_array_equal(
            obs, digit_rows("643162665232661142455242666625")[0])

    def test_outputs_lie_in_range(self):
        states, obs = simulate(canonical_model(0.5), 1000, seed=1)
        assert set(np.unique(states)) <= {FAIR, BIASED}
        assert obs.min() >= 1 and obs.max() <= 6

    def test_state_frequencies_track_eta(self):
        # Canonical chain is iid across periods with P(fair) = eta.
        states, _ = simulate(canonical_model(0.7), 20_000, seed=12)
        se = np.sqrt(0.7 * 0.3 / 20_000)
        assert abs((states == FAIR).mean() - 0.7) <= 3 * se

    def test_observed_face_frequencies_track_the_mixture(self):
        eta = 0.5
        model = canonical_model(eta)
        _, obs = simulate(model, 50_000, seed=8)
        mix = eta * model.emission[FAIR] + (1 - eta) * model.emission[BIASED]
        for face in range(6):
            p = mix[face]
            se = np.sqrt(p * (1 - p) / 50_000)
            assert abs((obs == face + 1).mean() - p) <= 3 * se

    # Stay-fair probabilities: equal rows give an i.i.d. chain; 0 and 1
    # make sticky and absorbing ones, and eta 0 and 1 the canonical ends.
    @given(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
           st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
           st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
           st.booleans(), st.integers(1, 400), st.integers(0, 2**32))
    @example(0.0, 0.0, 0.0, True, 1, 0)
    @example(1.0, 1.0, 1.0, True, 1, 3)
    @example(0.5, 1.0, 0.0, False, 300, 7)
    @settings(max_examples=150, deadline=None)
    def test_equals_the_per_period_loop(self, first, q_fair, q_biased,
                                        iid, horizon, seed):
        if iid:
            q_biased = q_fair
        model = HmmModel([first, 1.0 - first],
                         [[q_fair, 1.0 - q_fair], [q_biased, 1.0 - q_biased]],
                         [np.full(6, 1 / 6), np.arange(1, 7) / 21],
                         np.arange(1, 7))
        states, obs = simulate(model, horizon, seed)
        want_states, want_obs = loop_simulate(model, horizon, seed)
        assert states.dtype == obs.dtype == np.int64
        np.testing.assert_array_equal(states, want_states)
        np.testing.assert_array_equal(obs, want_obs)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.booleans(),
           st.integers(1, 300), st.integers(1, 9), st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_blocks_equal_the_per_period_loop(self, q_fair, q_biased, iid,
                                              horizon, block, seed):
        # Blocks of a few periods: each block's scan starts from the state
        # that ended the block before.
        if iid:
            q_biased = q_fair
        model = HmmModel([0.5, 0.5],
                         [[q_fair, 1.0 - q_fair], [q_biased, 1.0 - q_biased]],
                         [np.full(6, 1 / 6), np.arange(1, 7) / 21],
                         np.arange(1, 7))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hmm, "_SIMULATE_BLOCK", block)
            states, obs = simulate(model, horizon, seed)
        want_states, want_obs = loop_simulate(model, horizon, seed)
        np.testing.assert_array_equal(states, want_states)
        np.testing.assert_array_equal(obs, want_obs)

    @pytest.mark.parametrize("k", [1, 2, 6, 48, 300])
    @pytest.mark.parametrize("chain", ["fair", "biased", "mixed"])
    def test_faces_at_any_k_equal_the_per_period_loop(self, k, chain):
        # The bisection over CDF rows padded with +inf to a power of two
        # draws searchsorted(side="right")'s faces bit for bit: dice with
        # zero-probability faces (repeated CDF values, at both ends too),
        # over 255 faces, and blocks all fair, all biased or mixed.
        rng = np.random.default_rng(k)
        dice = rng.random((2, k)) * (rng.random((2, k)) < 0.6)
        dice[:, [0, -1]] *= k > 2  # dead first and last faces
        dice[:, k // 2] += 0.5
        dice /= dice.sum(axis=1, keepdims=True)
        first, stay = {"fair": (1.0, 1.0), "biased": (0.0, 0.0),
                       "mixed": (0.5, 0.6)}[chain]
        model = HmmModel([first, 1.0 - first],
                         [[stay, 1.0 - stay], [stay / 2, 1.0 - stay / 2]],
                         dice, np.arange(1, k + 1))
        horizon = hmm._SIMULATE_BLOCK + 1000  # two blocks
        states, obs = simulate(model, horizon, k)
        want_states, want_obs = loop_simulate(model, horizon, k)
        np.testing.assert_array_equal(states, want_states)
        np.testing.assert_array_equal(obs, want_obs)
        if chain != "mixed":
            assert (states == (chain == "biased")).all()

    def test_degenerate_emissions(self):
        model = HmmModel([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]],
                         [[0.0, 1.0], [1.0, 0.0]], [1.0, 2.0])
        states, obs = simulate(model, 50, seed=0)
        np.testing.assert_array_equal(states, np.zeros(50, dtype=int))
        np.testing.assert_array_equal(obs, np.full(50, 2))
