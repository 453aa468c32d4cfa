"""Closed-form bounds against the simplex and vertex enumeration.

The unmasked bounds are two sorted north-west-corner fills, and the pm
bounds (the cs bounds of the canonical dice) two staircase fills.  The
simplex in ``casino_ewac.transport`` stays the independent oracle: on
random models the values must agree with it, and with basic-solution
enumeration at K = 3, in floats and in exact rationals.  Tolerances scale
with max|coeff|, the largest objective coefficient, since theta sums to
one and every value is a convex combination of coefficients.
"""

import itertools
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import casino_ewac.engine
from casino_ewac import (BIASED, FAIR, FEASIBILITY_TOL, PATH_1, PATH_2,
                         EwacObjective, HmmModel, InfeasibleMaskError,
                         TransportProblem, canonical_model, check_feasibility,
                         cs_mask, ewac_bounds, ewac_objective,
                         inhomogeneous_bounds, pm_mask, smooth, solve)
from helpers import (assert_joint_pmf, biased_winnings,
                     enumerate_transport_optimum, exact_fill,
                     exact_transport_optimum, path_objective,
                     random_small_model)

REL_TOL = 1e-12
# Fixed examples keep the suite deterministic from run to run.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


def _scale(objective):
    return np.abs(objective.coeff).max()


def _form_extremes(pair, objective):
    """(min, max) of the coefficient form at the two optimisers.

    The bounds are the EWAC evaluated at these optimisers; comparing the
    form itself keeps a large constant from absorbing tiny coefficients.
    """
    low = float(np.sum(objective.coeff * pair.theta_ub))
    high = float(np.sum(objective.coeff * pair.theta_lb))
    assert pair.ub == objective.ewac(pair.theta_ub)
    assert pair.lb == objective.ewac(pair.theta_lb)
    return low, high


def _simplex_extremes(objective, zero_mask=frozenset()):
    problem = dict(costs=objective.coeff, row_targets=objective.row_marginals,
                   col_targets=objective.col_marginals, zero_mask=zero_mask)
    return (solve(TransportProblem(**problem, sense="min")).value,
            solve(TransportProblem(**problem, sense="max")).value)


def _assert_feasible(pair, objective, atol=1e-12):
    for theta in (pair.theta_lb, pair.theta_ub):
        assert_joint_pmf(theta, objective.row_marginals,
                         objective.col_marginals, atol)


def _probabilities(draw, k, zeros=False):
    low = 0.0 if zeros else 0.05
    weights = np.array(draw(st.lists(st.floats(low, 1.0), min_size=k,
                                     max_size=k)))
    if weights.sum() == 0.0:
        weights[0] = 1.0
    return weights / weights.sum()


@st.composite
def objectives(draw):
    """Rank-one objectives with increasing rewards; the factor repeats
    values (ties) as often as not, and marginals may hold zeros."""
    k = draw(st.integers(2, 7))
    rewards = np.cumsum(draw(st.lists(st.floats(0.1, 3.0), min_size=k,
                                      max_size=k)))
    factor = np.array(draw(st.lists(
        st.sampled_from([0.0, 1.0, 7.5]) | st.floats(0.0, 50.0),
        min_size=k, max_size=k)))
    return EwacObjective(rewards=rewards, factor=factor,
                         row_marginals=_probabilities(draw, k, zeros=True),
                         col_marginals=_probabilities(draw, k, zeros=True))


@st.composite
def fair_cases(draw):
    """(model, obs) with a fair die uniform or drawn, zero faces allowed:
    the cs set applies to any."""
    k = draw(st.integers(2, 7))
    q = draw(st.lists(st.floats(0.05, 0.95), min_size=2, max_size=2))
    fair = (np.full(k, 1.0 / k) if draw(st.booleans())
            else _probabilities(draw, k, zeros=True))
    model = HmmModel([0.5, 0.5], [[q[0], 1 - q[0]], [q[1], 1 - q[1]]],
                     [fair, _probabilities(draw, k)], np.arange(1, k + 1))
    obs = draw(st.lists(st.integers(1, k), min_size=1, max_size=40))
    return model, obs


@st.composite
def dirichlet_dice(draw, max_k=8):
    """(2, K) dice, K = 2..max_k: Dirichlet rows of a drawn concentration
    from a drawn seed, each face zero in the fair die, the biased die, both
    or neither, and up to two faces copies of others (tied ratios)."""
    k = draw(st.integers(2, max_k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alpha = draw(st.sampled_from([0.3, 1.0, 4.0]))
    dice = rng.dirichlet(np.full(k, alpha), size=2)
    zero = np.array(draw(st.lists(st.sampled_from([0, 0, 0, 1, 2, 3]),
                                  min_size=k, max_size=k)))
    dice[0, (zero & 1) > 0] = dice[1, (zero & 2) > 0] = 0.0
    for _ in range(draw(st.integers(0, 2))):
        dice[:, draw(st.integers(0, k - 1))] = dice[:, draw(
            st.integers(0, k - 1))]
    dice[dice.sum(axis=1) == 0.0, 0] = 1.0
    return dice / dice.sum(axis=1, keepdims=True)


@st.composite
def dirichlet_objectives(draw, max_k=8):
    """Rank-one objectives with increasing rewards on ``dirichlet_dice``,
    the factor zero where the biased die is."""
    dice = draw(dirichlet_dice(max_k))
    k = dice.shape[1]
    rewards = np.cumsum(draw(st.lists(st.floats(0.1, 3.0), min_size=k,
                                      max_size=k)))
    factor = np.array(draw(st.lists(
        st.sampled_from([0.0, 1.0, 7.5]) | st.floats(0.0, 50.0),
        min_size=k, max_size=k)))
    factor[dice[1] == 0.0] = 0.0
    return EwacObjective(rewards=rewards, factor=factor,
                         row_marginals=dice[0], col_marginals=dice[1])


class TestAgainstTheSimplex:
    def test_random_models(self):
        rng = np.random.default_rng(31)
        for k in range(2, 8):
            for _ in range(6):
                model = random_small_model(rng, k)
                obs = rng.integers(1, k + 1, size=rng.integers(1, 300))
                obj = ewac_objective(model, obs, smooth(model, obs))
                pair = ewac_bounds(obj)
                np.testing.assert_allclose(_form_extremes(pair, obj),
                                           _simplex_extremes(obj), rtol=0,
                                           atol=REL_TOL * _scale(obj))
                _assert_feasible(pair, obj)
                assert pair.iterations == (0, 0)

    def test_vertex_enumeration_at_k3(self):
        rng = np.random.default_rng(32)
        for _ in range(8):
            model = random_small_model(rng)
            obs = rng.integers(1, 4, size=rng.integers(1, 30))
            obj = ewac_objective(model, obs, smooth(model, obs))
            oracle = enumerate_transport_optimum(obj.coeff, obj.row_marginals,
                                                 obj.col_marginals)
            np.testing.assert_allclose(_form_extremes(ewac_bounds(obj), obj),
                                       oracle, rtol=0,
                                       atol=1e-9 * _scale(obj))

    @PROPERTY
    @given(objectives())
    @example(EwacObjective(rewards=np.arange(1.0, 5.0),
                           factor=np.array([0.0, 0.0, 3.0, 1e-8]),
                           row_marginals=np.array([0.0, 0.0, 0.5, 0.5]),
                           col_marginals=np.array([0.0, 0.5, 0.0, 0.5])))
    def test_general_objectives_with_ties(self, obj):
        # The simplex stops once no reduced cost is below
        # 64 * eps * max|c|, so factors spanning many orders of magnitude
        # no longer stop it short (the example above), and its ratio test
        # ties only within rounding of the right-hand side, so marginal
        # entries near 1e-10 no longer leave a vertex that far off: the
        # worst of 3000 random draws is 3.6e-15 * max|c|.
        pair = ewac_bounds(obj)
        np.testing.assert_allclose(_form_extremes(pair, obj),
                                   _simplex_extremes(obj), rtol=0,
                                   atol=REL_TOL * _scale(obj))
        _assert_feasible(pair, obj)

    def test_unobserved_faces_tie(self):
        # Faces 2..5 never appear, so their factors are all zero: the
        # sorted fill must still attain the optimum, at a valid vertex.
        rng = np.random.default_rng(33)
        model = random_small_model(rng, 6)
        obs = [1, 6, 6, 1, 6, 6, 6, 1]
        obj = ewac_objective(model, obs, smooth(model, obs))
        assert np.count_nonzero(obj.factor == 0.0) == 4
        pair = ewac_bounds(obj)
        np.testing.assert_allclose(_form_extremes(pair, obj),
                                   _simplex_extremes(obj), rtol=0,
                                   atol=REL_TOL * _scale(obj))
        _assert_feasible(pair, obj)


class TestFillRounding:
    def test_rows_and_columns_ending_together_leave_exact_zeros(self):
        # Under some orders of the canonical biased faces (1,2 then 6,5:
        # 3/21 + 11/21 = 4/6) the staircase meets a fair-row end exactly
        # in rational arithmetic.  The cells off it must be exact zeros,
        # not rounding noise, under every order.
        model = canonical_model(0.5)
        exact_rows = [Fraction(1, 6)] * 6
        for order in itertools.permutations(range(6)):
            order = np.array(order)
            factor = np.empty(6)
            factor[order] = np.arange(6.0)
            obj = EwacObjective(rewards=model.rewards, factor=factor,
                                row_marginals=model.emission[FAIR],
                                col_marginals=model.emission[BIASED])
            exact = np.zeros((6, 6))
            exact[:, order] = exact_fill(
                exact_rows, [Fraction(int(j) + 1, 21) for j in order])
            theta = ewac_bounds(obj).theta_lb
            np.testing.assert_array_equal(theta == 0.0, exact == 0.0,
                                          err_msg=f"order {order + 1}")
            np.testing.assert_allclose(theta, exact, rtol=0, atol=1e-15)


class TestProperties:
    @PROPERTY
    @given(objectives())
    def test_min_is_minus_max_of_the_negated_form(self, obj):
        # The fill argument needs increasing rewards only, not a factor
        # sign, so the negated form is solved by the same two fills.
        low, high = _form_extremes(ewac_bounds(obj), obj)
        negated = replace(obj, factor=-obj.factor)
        neg_low, neg_high = _form_extremes(ewac_bounds(negated), negated)
        tol = REL_TOL * _scale(obj)
        assert low == pytest.approx(-neg_high, abs=tol)
        assert high == pytest.approx(-neg_low, abs=tol)

    @PROPERTY
    @given(objectives(), st.randoms(use_true_random=False))
    def test_relabelling_biased_faces(self, obj, random):
        perm = np.array(random.sample(range(obj.factor.size), obj.factor.size))
        relabelled = replace(obj, factor=obj.factor[perm],
                             col_marginals=obj.col_marginals[perm])
        other = ewac_bounds(relabelled)
        np.testing.assert_allclose(_form_extremes(other, relabelled),
                                   _form_extremes(ewac_bounds(obj), obj),
                                   rtol=0, atol=REL_TOL * _scale(obj))
        _assert_feasible(other, relabelled)

    @settings(PROPERTY, max_examples=40)
    @given(fair_cases())
    def test_bounds_nest(self, case):
        model, obs = case
        obj = ewac_objective(model, obs, smooth(model, obs))
        plain = ewac_bounds(obj)
        tied = ewac_bounds(obj, cs_mask(model.emission), tag="cs")
        loose = inhomogeneous_bounds(obj)
        # The cs bounds carry the simplex's tolerances, and every bound
        # the rounding of the constant it is offset by.
        tol = FEASIBILITY_TOL * _scale(obj) + 1e-15 * abs(biased_winnings(obj))
        chain = (loose.lb, plain.lb, tied.lb, tied.ub, plain.ub, loose.ub)
        assert all(a <= b + tol for a, b in zip(chain, chain[1:])), chain


class TestNoSimplexWithoutAMask:
    @pytest.fixture
    def refuse(self, monkeypatch):
        def refuse(problem):
            raise AssertionError("transport.solve called")

        monkeypatch.setattr(casino_ewac.engine, "solve", refuse)

    def test_unmasked_bounds_never_call_solve(self, refuse):
        model = canonical_model(0.5)
        obj = ewac_objective(model, PATH_1, smooth(model, PATH_1))
        pair = ewac_bounds(obj)
        assert pair.iterations == (0, 0)
        assert pair.constraint_tag == "none"

    def test_staircase_bounds_never_call_solve(self, refuse):
        # The canonical biased die strictly increases, so its cs mask is
        # the pm staircase; the mask decides the route, not the tag.
        model = canonical_model(0.5)
        obj = ewac_objective(model, PATH_1, smooth(model, PATH_1))
        for mask, tag in ((cs_mask(model.emission), "cs"),
                          (pm_mask(6), "pm"), (set(pm_mask(6)), "other"),
                          ([list(cell) for cell in pm_mask(6)], "lists")):
            pair = ewac_bounds(obj, mask, tag=tag)
            assert pair.iterations == (0, 0)
            assert pair.constraint_tag == tag

    def test_other_masks_call_solve(self, refuse):
        # A tie in the biased die masks both ordered pairs (a block
        # staircase), and one cell more or less than pm is no staircase.
        tied = HmmModel([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]],
                        [np.full(6, 1 / 6), np.array([2, 2, 3, 4, 5, 5]) / 21],
                        np.arange(1, 7))
        model = canonical_model(0.5)
        obj = ewac_objective(model, PATH_1, smooth(model, PATH_1))
        for objective, mask in (
                (ewac_objective(tied, PATH_1, smooth(tied, PATH_1)),
                 cs_mask(tied.emission)),
                (obj, pm_mask(6) - {(5, 0)}),
                (obj, pm_mask(6) | {(0, 5)})):
            assert mask != pm_mask(6)
            with pytest.raises(AssertionError, match="transport.solve"):
                ewac_bounds(objective, mask, tag="cs")


class TestCsOnAnyDice:
    # A monotone likelihood ratio implies first-order dominance (Shaked and
    # Shanthikumar 2007, Thm 1.C.1), so no cs mask empties the polytope;
    # its bounds are the enumerated optima and nest inside the plain ones.
    @settings(PROPERTY, max_examples=300)
    @given(dirichlet_dice())
    def test_polytope_is_never_empty(self, dice):
        assert check_feasibility(dice[0], dice[1], cs_mask(dice))

    @settings(PROPERTY, max_examples=150)
    @given(dirichlet_objectives(max_k=4))
    def test_bounds_equal_enumeration(self, obj):
        mask = cs_mask(np.vstack([obj.row_marginals, obj.col_marginals]))
        oracle = enumerate_transport_optimum(
            obj.coeff, obj.row_marginals, obj.col_marginals, mask)
        pair = ewac_bounds(obj, mask, tag="cs")
        np.testing.assert_allclose(_form_extremes(pair, obj), oracle,
                                   rtol=0, atol=1e-9 * _scale(obj))
        _assert_feasible(pair, obj)

    @settings(PROPERTY, max_examples=150)
    @given(dirichlet_objectives())
    def test_bounds_nest(self, obj):
        tied = ewac_bounds(obj, cs_mask(np.vstack([
            obj.row_marginals, obj.col_marginals])), tag="cs")
        plain = ewac_bounds(obj)
        tol = 16 * np.finfo(float).eps * _scale(obj) * obj.row_marginals.sum()
        chain = (plain.lb, tied.lb, tied.ub, plain.ub)
        assert all(a <= b + tol for a, b in zip(chain, chain[1:])), chain


@st.composite
def stacked_objectives(draw):
    """Objectives of E = 1..5 stacked factor rows, zeros, ties and
    differing stable orders among them, on the canonical dice or on
    ``dirichlet_dice`` with K = 2..6, whose faces are sorted by likelihood
    ratio half the time (a feasible pm polytope, the cs mask often pm)."""
    if draw(st.booleans()):
        model = canonical_model(0.5)
        dice, rewards = model.emission, model.rewards
    else:
        dice = draw(dirichlet_dice(max_k=6))
        if draw(st.booleans()):
            ratio = np.divide(dice[1], dice[0], out=np.where(
                dice[1] > 0, np.inf, -1.0), where=dice[0] > 0)
            dice = dice[:, np.argsort(ratio, kind="stable")]
        rewards = np.cumsum(draw(st.lists(st.floats(0.1, 3.0),
                                          min_size=dice.shape[1],
                                          max_size=dice.shape[1])))
    k = dice.shape[1]
    factor = np.array(draw(st.lists(st.lists(
        st.sampled_from([0.0, 1.0, 7.5]) | st.floats(0.0, 50.0),
        min_size=k, max_size=k), min_size=1, max_size=5)))
    factor[:, dice[1] == 0.0] = 0.0
    return EwacObjective(rewards=rewards, factor=factor,
                         row_marginals=dice[0], col_marginals=dice[1])


class TestStackedObjectives:
    # ewac_bounds of an (E, K) stack of factors is its E single calls bit
    # for bit on every route (the fills, the staircase, the simplex): lb,
    # ub and both tables, its pivots their sums, or the single call's
    # InfeasibleMaskError.
    @pytest.mark.parametrize("route", ["none", "pm", "cs", "random"])
    @settings(PROPERTY, max_examples=100)
    @given(stacked_objectives(), st.data())
    def test_equals_the_single_calls(self, route, stack, data):
        k = stack.rewards.size
        mask = {"none": frozenset(), "pm": pm_mask(k), "cs": cs_mask(
            np.vstack([stack.row_marginals, stack.col_marginals]))}.get(route)
        if mask is None:  # any cells but pm's, mostly on the simplex
            mask = data.draw(st.sets(st.tuples(
                st.integers(0, k - 1), st.integers(0, k - 1)),
                min_size=1, max_size=k * k // 2).filter(
                    lambda cells: cells != pm_mask(k)))
        singles = []
        for row in stack.factor:
            try:
                singles.append(ewac_bounds(replace(stack, factor=row), mask,
                                           tag=route))
            except InfeasibleMaskError as single:
                with pytest.raises(InfeasibleMaskError) as stacked:
                    ewac_bounds(stack, mask, tag=route)
                assert str(stacked.value) == str(single)
                return
        pair = ewac_bounds(stack, mask, tag=route)
        for name in ("lb", "ub", "theta_lb", "theta_ub"):
            got = getattr(pair, name)
            want = np.array([getattr(single, name) for single in singles])
            assert got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
        assert pair.iterations == tuple(
            sum(single.iterations[i] for single in singles) for i in (0, 1))
        assert pair.constraint_tag == route

    def test_two_orders_on_the_canonical_dice(self):
        # Each row is bounded at its own order, also under pm: before, the
        # first row's order served both, and pm went to the simplex with
        # the stack flattened into (6, 12) costs.
        model = canonical_model(0.5)
        stack = replace(ewac_objective(model, PATH_1, smooth(model, PATH_1)),
                        factor=np.array([[3.0, 1, 2, 6, 5, 4],
                                         [1.0, 2, 3, 4, 5, 6]]))
        pair = ewac_bounds(stack)
        assert pair.lb.tolist() == pytest.approx([43 / 21, 24 / 7], rel=1e-15)
        assert pair.ub.tolist() == pytest.approx([149 / 21, 173 / 21],
                                                 rel=1e-15)
        for mask in (frozenset(), pm_mask(6)):
            pair = ewac_bounds(stack, mask)
            for i, row in enumerate(stack.factor):
                single = ewac_bounds(replace(stack, factor=row), mask)
                assert (pair.lb[i], pair.ub[i]) == (single.lb, single.ub)
                assert pair.theta_lb[i].tobytes() == single.theta_lb.tobytes()
                assert pair.theta_ub[i].tobytes() == single.theta_ub.tobytes()

    @PROPERTY
    @given(stacked_objectives())
    def test_coeff_is_each_rows_outer_product(self, stack):
        want = np.array([np.outer(stack.rewards, row) for row in stack.factor])
        assert stack.coeff.shape == want.shape
        assert stack.coeff.tobytes() == want.tobytes()
        single = replace(stack, factor=stack.factor[0])
        assert single.coeff.tobytes() == want[0].tobytes()


def _balanced(draw, k):
    """(rows, cols) summing to one, cols dominating rows in the first
    order, read off a random staircase table with 30-50% zero cells."""
    zero_rate = draw(st.floats(0.3, 0.5))
    table = np.zeros((k, k))
    for i in range(k):
        for j in range(i, k):
            if draw(st.floats(0.0, 1.0)) >= zero_rate:
                table[i, j] = draw(st.sampled_from([1.0, 0.5]) |
                                   st.floats(1e-3, 1.0))
    if table.sum() == 0.0:
        table[0, k - 1] = 1.0
    table /= table.sum()
    return table.sum(axis=1), table.sum(axis=0)


@st.composite
def staircase_objectives(draw):
    """Rank-one objectives on feasible pm polytopes: K = 2..7, increasing
    rewards, tied factors as often as not, zero marginal entries."""
    k = draw(st.integers(2, 7))
    rows, cols = _balanced(draw, k)
    rewards = np.cumsum(draw(st.lists(st.floats(0.1, 3.0), min_size=k,
                                      max_size=k)))
    factor = np.array(draw(st.lists(
        st.sampled_from([0.0, 1.0, 7.5]) | st.floats(0.0, 50.0),
        min_size=k, max_size=k)))
    return EwacObjective(rewards=rewards, factor=factor,
                         row_marginals=rows, col_marginals=cols)


def _dyadic(rng, k, units=2 ** 52):
    """Entries summing to exactly one in floats and in rationals, each a
    multiple of 2^-52; about 40% lie near 1e-10."""
    while True:
        n = rng.integers(1, units // k, size=k)
        tiny = rng.random(k) < 0.4
        n[tiny] = rng.integers(1, 10 ** 6, size=tiny.sum())
        n[-1] = units - n[:-1].sum()
        if n[-1] > 0:
            return n / units


class TestStaircaseGreedy:
    @PROPERTY
    @given(staircase_objectives())
    def test_against_the_simplex(self, obj):
        # Where factors tie the optimum may be another vertex of the same
        # value, so values are compared, not tables.
        mask = pm_mask(obj.factor.size)
        pair = ewac_bounds(obj, mask, tag="pm")
        np.testing.assert_allclose(_form_extremes(pair, obj),
                                   _simplex_extremes(obj, mask), rtol=0,
                                   atol=REL_TOL * _scale(obj))
        _assert_feasible(pair, obj)
        assert pair.iterations == (0, 0)
        lower = np.tril_indices(obj.factor.size, -1)
        for theta in (pair.theta_lb, pair.theta_ub):
            assert np.all(theta[lower] == 0.0)
            assert np.all(theta >= 0.0)

    def test_vertex_enumeration_at_k3(self):
        rng = np.random.default_rng(34)
        mask = pm_mask(3)
        for _ in range(40):
            table = np.triu(rng.random((3, 3)) * (rng.random((3, 3)) > 0.4))
            table[0, 2] += 0.1
            table /= table.sum()
            factor = rng.choice([0.0, 1.0, 7.5], size=3)
            obj = EwacObjective(rewards=np.cumsum(rng.random(3)),
                                factor=factor, row_marginals=table.sum(axis=1),
                                col_marginals=table.sum(axis=0))
            oracle = enumerate_transport_optimum(
                obj.coeff, obj.row_marginals, obj.col_marginals, mask)
            np.testing.assert_allclose(
                _form_extremes(ewac_bounds(obj, mask, tag="pm"), obj),
                oracle, rtol=0, atol=1e-9 * _scale(obj))

    def test_exact_optimum_with_entries_near_1e_10(self):
        # Marginals that balance exactly in rationals, many entries near
        # 1e-10: the greedy and the simplex both land within rounding of
        # the exact optimum of the float inputs.
        rng = np.random.default_rng(35)
        checked = 0
        while checked < 60:
            k = int(rng.integers(2, 4))
            rows, cols = _dyadic(rng, k), _dyadic(rng, k)
            mask = pm_mask(k)
            rewards = np.cumsum(rng.integers(1, 4, size=k)).astype(float)
            factor = (rng.choice([0.0, 1.0, 7.5], size=k)
                      if rng.random() < 0.5 else rng.random(k) * 50)
            obj = EwacObjective(rewards=rewards, factor=factor,
                                row_marginals=rows, col_marginals=cols)
            exact = exact_transport_optimum(obj.coeff, rows, cols, mask)
            if exact is None:
                continue
            checked += 1
            tol = Fraction(16 * np.finfo(float).eps * _scale(obj))
            pair = ewac_bounds(obj, mask, tag="pm")
            for value, oracle in zip(_form_extremes(pair, obj), exact):
                assert abs(Fraction(value) - oracle) <= tol
            for value, oracle in zip(_simplex_extremes(obj, mask), exact):
                assert abs(Fraction(value) - oracle) <= tol

    @PROPERTY
    @given(st.integers(2, 7).flatmap(
        lambda k: st.tuples(*[st.lists(st.floats(0.0, 1.0), min_size=k,
                                       max_size=k)] * 2)))
    def test_infeasible_exactly_where_check_feasibility_says(self, pair):
        rows, cols = (np.array(x) for x in pair)
        if rows.sum() == 0.0 or cols.sum() == 0.0:
            return
        rows, cols = rows / rows.sum(), cols / cols.sum()
        k = rows.size
        obj = EwacObjective(rewards=np.arange(1.0, k + 1),
                            factor=np.arange(k, 0.0, -1.0),
                            row_marginals=rows, col_marginals=cols)
        if check_feasibility(rows, cols, pm_mask(k)):
            ewac_bounds(obj, pm_mask(k), tag="pm")
        else:
            with pytest.raises(InfeasibleMaskError,
                               match=r"'pm' \(\d+ forced zeros\) admits no"):
                ewac_bounds(obj, pm_mask(k), tag="pm")

    @pytest.mark.parametrize("at", [0, 1])
    @pytest.mark.parametrize("excess,feasible", [
        (0.9 * FEASIBILITY_TOL, True), (1.1 * FEASIBILITY_TOL, False)])
    def test_cdf_excess_at_the_tolerance(self, at, excess, feasible):
        # The biased CDF passes the fair one by ``excess`` at face at + 1.
        rows = np.full(3, 1 / 3)
        cols = rows.copy()
        cols[at] += excess
        cols[2] -= excess
        assert check_feasibility(rows, cols, pm_mask(3)) is feasible
        obj = EwacObjective(rewards=np.arange(1.0, 4.0),
                            factor=np.array([3.0, 1.0, 2.0]),
                            row_marginals=rows, col_marginals=cols)
        if not feasible:
            with pytest.raises(InfeasibleMaskError):
                ewac_bounds(obj, pm_mask(3), tag="pm")
            return
        pair = ewac_bounds(obj, pm_mask(3), tag="pm")
        _assert_feasible(pair, obj, atol=FEASIBILITY_TOL)
        for theta in (pair.theta_lb, pair.theta_ub):
            assert np.all(theta[np.tril_indices(3, -1)] == 0.0)

    def test_canonical_cs_bounds_against_the_simplex(self):
        # Both builtin paths over the grid and the extreme levels.
        levels = np.r_[np.arange(1, 100) / 100.0,
                       0.0, 1.0, 0.99999, 1 - 1e-7, 1e-9]
        for obs in (PATH_1, PATH_2):
            for eta in levels:
                model = canonical_model(eta)
                obj = path_objective(model, obs)[0]
                mask = cs_mask(model.emission)
                pair = ewac_bounds(obj, mask, tag="cs")
                np.testing.assert_allclose(
                    _form_extremes(pair, obj), _simplex_extremes(obj, mask),
                    rtol=0, atol=REL_TOL * _scale(obj))


class TestIdentification:
    # The paper's identification result for the canonical casino.  Its
    # faces fall i.i.d. with law q_j = eta/6 + (1 - eta) j/21, so face j's
    # periods are biased with probability (1 - eta)(j/21)/q_j and the
    # factor is f_j = (1 - eta) n_j / q_j.  The bounds' width, the max
    # less the min of sum_ij theta_ij w_i f_j over the polytope, is then
    #
    #     ub - lb = (1 - eta) W((n - T q) / q),
    #
    # W(z) that spread for the factor z: the T q part of n adds the same
    # T sum_i w_i e_f[i] to every table.  W comes from the simplex, not
    # the fills.  Both sides sum K^2 products whose sizes total a few
    # T max|w| (sum_j f_j e_b[j] = sum_j m_j <= T), so the tolerance is
    # 64 eps T max|w|.
    @PROPERTY
    @given(eta=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
           counts=st.lists(st.integers(0, 3) | st.integers(0, 10**5),
                           min_size=6, max_size=6).filter(any))
    def test_width_is_the_spread_of_the_centred_counts(self, eta, counts):
        model = canonical_model(eta)
        n = np.array(counts)
        t = int(n.sum())
        pair = ewac_bounds(path_objective(model, np.repeat(np.arange(1, 7),
                                                           n))[0])
        q = eta / 6 + (1 - eta) * np.arange(1, 7) / 21
        w = model.rewards
        high, low = (solve(TransportProblem(np.outer(w, (n - t * q) / q),
                                            *model.emission,
                                            sense=sense)).value
                     for sense in ("max", "min"))
        tol = 64 * np.finfo(float).eps * t * np.abs(w).max()
        assert abs(pair.ub - pair.lb - (1 - eta) * (high - low)) <= tol
