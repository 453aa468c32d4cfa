"""Expected winnings attributable to cheating (EWAC) and its sharp bounds.

The unknown is the joint probability mass function theta(i, j) of one fair
and one biased roll, on the transportation polytope whose row sums are the
fair die and column sums the biased die.  Given smoothed state posteriors,
the EWAC (observed winnings less their expectation had the casino stayed
fair) is affine in theta and sees the path only through its K per-face
biased masses, so both its extremes are linear programs.  Their cost
w_i * f_j is rank one with increasing payoffs w: without a mask both optima
are north-west-corner fills against the biased faces sorted by f (Hoffman
1963; Cambanis, Simons and Stout 1976), and on the staircase j >= i of the
pm mask (for the canonical dice also the cs mask) greedy fills row by row
in payoff order (Shamir and Dietrich 1990).  Either way an optimum sees the
path only through the stable order of f: one batched kernel fills all the
distinct orders of a sweep, and the pm fills are built once per order.  The
simplex serves every other mask.
"""

from dataclasses import dataclass

import numpy as np

from casino_ewac.hmm import (BIASED, FAIR, _forward_filter, _iid_posteriors,
                             _smooth_filtered, as_symbol_indices)
from casino_ewac.transport import FEASIBILITY_TOL, TransportProblem, solve

_UNIFORM_TOL = 1e-12
_PMF_ATOL = 1e-8
_EPS = float(np.finfo(float).eps)

__all__ = [
    "EwacObjective",
    "EwacBounds",
    "InfeasibleMaskError",
    "ewac_objective",
    "validate_joint_pmf",
    "ewac_of_theta",
    "ewac_bounds",
    "pm_mask",
    "cs_mask",
    "greedy_column",
    "inhomogeneous_bounds",
    "copula_pmf",
    "naive_ewac",
    "stationary",
    "asymptotic_ewac_rate",
]


class InfeasibleMaskError(ValueError):
    """The forced-zero cells leave no joint PMF with the required marginals."""


@dataclass(frozen=True)
class EwacObjective:
    """Cached affine form of the EWAC as a function of theta.

    ewac(theta) = sum_ij theta[i, j] * factor[j] * (rewards[j] - rewards[i])

    with factor[j] = m_j / e_b[j], m_j the biased mass of face j + 1 (its
    periods' smoothed biased probabilities summed).  Where theta's columns
    sum to e_b it is sum_j m_j rewards[j] - sum_ij coeff[i, j] theta[i, j]
    with coeff[i, j] = rewards[i] * factor[j], but cancels no term.

    Attributes:
        rewards: (K,) payoff per face, strictly increasing.
        factor: (K,) per-face factor, non-negative; (E, K) for a stack of
            E objectives on the same dice.
        row_marginals: fair emission row (required row sums of theta).
        col_marginals: biased emission row (required column sums of theta).
        independence: the EWAC at the independence coupling ((E,) for a
            stack), or None.
    """

    rewards: np.ndarray
    factor: np.ndarray
    row_marginals: np.ndarray
    col_marginals: np.ndarray
    independence: float | np.ndarray | None = None

    @property
    def coeff(self):
        return np.outer(self.rewards, self.factor)

    def ewac(self, theta):
        """The EWAC at theta, unchecked (``ewac_of_theta`` validates): a
        float, or for tables (..., [E,] K, K) the values, each the same
        K^2-term sum (the factor repeated over rows: faster than broadcast)."""
        w = self.rewards
        terms = theta * np.repeat(self.factor[..., None, :], w.size, axis=-2)
        terms *= w - w[:, None]
        values = terms.sum(axis=(-2, -1))
        return float(values) if values.ndim == 0 else values


@dataclass(frozen=True)
class EwacBounds:
    """Lower and upper EWAC values with the optimising PMFs.

    ``theta_lb`` and ``theta_ub`` are None for the time-inhomogeneous
    relaxation, whose optimiser varies by period.  ``iterations`` counts
    the simplex pivots, phase one plus phase two, of the (lb, ub) solves
    of a mask other than pm; the fills of the other bounds report (0, 0).
    """

    lb: float
    ub: float
    theta_lb: np.ndarray | None
    theta_ub: np.ndarray | None
    constraint_tag: str = "none"
    iterations: tuple = (0, 0)


def ewac_objective(model, obs, delta):
    """Aggregate a smoothed posterior into the affine EWAC coefficients.

    Args:
        model: the hidden Markov model.
        obs: observation path, faces in 1..K.
        delta: (T, 2) smoothed posterior for the same model and path.

    Raises:
        ValueError: if a face with zero biased emission probability was
            observed; the counterfactual conditioning is undefined there.
    """
    o = as_symbol_indices(model, obs)
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (o.size, 2):
        raise ValueError(
            f"delta must have shape ({o.size}, 2), got {delta.shape}")
    return _smoothed_objective(model, o, delta)


def _smoothed_objective(model, o, delta):
    """The objective of the 0-based faces ``o`` and their smoothed rows."""
    k = model.num_symbols
    masses = np.column_stack([np.bincount(o, weights=delta[:, s], minlength=k)
                              for s in (FAIR, BIASED)])
    return _face_objective(model, np.bincount(o, minlength=k), masses)


def _face_objective(model, counts, masses):
    """The objective (a stack for leading axes) of (..., K) face counts
    n and their (..., K, 2) per-face (fair, biased) masses (fm, m); n
    serves the check, which raises as in ``ewac_objective``.  The
    independence value sum_j m_j (w_j - e_f.w) takes n_j - fm_j for m_j
    where fm_j < m_j, the n_j terms summed apart: near eta 0 they cancel
    exactly for integer payoffs."""
    w, (e_fair, e_biased) = model.rewards, model.emission
    conflict = (counts > 0) & (e_biased == 0.0)
    if conflict.any():
        face = int(np.nonzero(conflict)[-1][0]) + 1
        raise ValueError(
            f"face {face} was observed but has zero biased emission "
            "probability; cannot condition the biased roll on it")
    fair, mass = masses[..., FAIR], masses[..., BIASED]
    gap, near = w - e_fair @ w, fair < mass
    independence = ((np.where(near, counts, 0) * gap).sum(axis=-1)
                    + (np.where(near, -fair, mass) * gap).sum(axis=-1))
    factor = np.divide(mass, e_biased, out=np.zeros_like(mass),
                       where=e_biased > 0)
    return EwacObjective(rewards=w, factor=factor, row_marginals=e_fair.copy(),
                         col_marginals=e_biased.copy(),
                         independence=independence)


def _path_objective(model, o, counts):
    """(objective, alpha) of the 0-based faces ``o`` and their ``counts``:
    from the counts for an i.i.d. chain, alpha None; else from smoothing a
    copy of the forward filter alpha, which ``sample_wac`` can reuse."""
    iid = _iid_posteriors(model, o, counts)
    if iid is None:
        alpha = _forward_filter(model, o)
        delta = _smooth_filtered(model, o, alpha.copy())
        return _smoothed_objective(model, o, delta), alpha
    masses = counts[:, None] * iid[0]
    masses[o[0]] += iid[1] - iid[0][o[0]]  # period 1 under ``initial``
    return _face_objective(model, counts, masses), None


def validate_joint_pmf(theta, row_marginals, col_marginals, atol=_PMF_ATOL):
    """Check membership of the transportation polytope, raising on failure."""
    theta = np.asarray(theta, dtype=float)
    k = len(row_marginals)
    if theta.shape != (k, k):
        raise ValueError(f"theta must have shape ({k}, {k}), got {theta.shape}")
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta must be finite")
    if theta.min() < -atol:
        raise ValueError(f"theta has a negative cell ({theta.min():.3e})")
    row_err = np.abs(theta.sum(axis=1) - row_marginals).max()
    col_err = np.abs(theta.sum(axis=0) - col_marginals).max()
    if max(row_err, col_err) > atol:
        raise ValueError(
            f"theta marginals are off by {max(row_err, col_err):.3e}")
    return theta


def ewac_of_theta(objective, theta, atol=_PMF_ATOL):
    """Evaluate the EWAC at one joint PMF by ``EwacObjective.ewac``."""
    return objective.ewac(validate_joint_pmf(
        theta, objective.row_marginals, objective.col_marginals, atol))


def _nw_fills(rows, cols, orders):
    """(2, E, K, K): the north-west-corner fills against the columns in
    each of the (E, K) ``orders`` and reversed, the max and min tables of
    sum_ij w_i f_j theta[i, j], w increasing, of each stable factor order.
    Cell (i, j) is the overlap min(R_{i+1}, C_{j+1}) - max(R_i, C_j) of
    the row's and column's cumulative-mass intervals (columns in order):
    the least of the two masses and two edge differences, the prefix sums
    carrying their rounding errors (exact by TwoSum; Knuth, TAOCP 4.2.2),
    so a cell is within about an ulp of the exact overlap (on the canonical
    dice, correctly rounded).  An overlap within rounding counts as empty."""
    n, k = orders.shape
    at = np.concatenate([orders, orders[:, ::-1]])
    x = np.concatenate([cols[at], rows[None]])
    cum = np.zeros((2, 2 * n + 1, k + 1))  # prefix sums, and their errors
    total = np.add.accumulate(x, axis=1, out=cum[0, :, 1:])
    step = total - cum[0, :, :-1]
    np.add.accumulate((cum[0, :, :-1] - (total - step)) + (x - step), axis=1,
                      out=cum[1, :, 1:])
    # Where face j's column edges are in each order's row of prefix sums.
    j = at.argsort(axis=1) + np.arange(0, 2 * n * (k + 1), k + 1)[:, None]
    flat, r = cum.reshape(2, -1), cum[:, None, -1, :, None]
    up = r[:, :, 1:] - flat.take(j, axis=1)[:, :, None]
    down = flat.take(j + 1, axis=1)[:, :, None] - r[:, :, :-1]
    theta = np.minimum(up[0] + up[1], down[0] + down[1])
    np.minimum(theta, np.minimum(rows[:, None], cols), out=theta)
    theta[theta <= 2 * k * _EPS * max(cum[0, 0, -1], cum[0, -1, -1])] = 0
    return theta.reshape(2, n, k, k)


def _staircase_fill(rows, cols, order):
    """Optimal table on the pm staircase (theta[i, j] = 0 for j < i) for
    sum_ij w_i f_j theta[i, j], w increasing: the maximum for the stable
    ascending factor ``order``, the minimum for it reversed.

    Row i, in payoff order, takes what is left of column i, which no later
    row can serve, then fills the columns j > i in ``order``, its take
    above each m > i capped so that rows i+1..m can still cover columns
    i+1..m (Hall's condition).  Optimality, for "max" ("min" mirrors it):
    by Abel summation the form is w_max * sum_j f_j cols_j - sum_i
    (w_{i+1} - w_i) G_i, G_i the f-mass of rows 0..i, so it suffices to
    minimise every G_i at once.  The nested caps make each
    row's choice a polymatroid, where the greedy minimises G_i (Edmonds
    1970), and by submodularity dropping column i + 1 from the ground set
    shrinks no other column's greedy share: the row steps minimise every
    prefix together.  Remainders within rounding count as spent.
    """
    k = rows.size
    order = order.tolist()
    tol = 2 * k * _EPS * max(rows.sum(), cols.sum())
    stock = cols.tolist()
    # room[m]: R(m) - S(m) less what the columns above m hold; row i's cap
    # min(rest, room[m]) is rest - max(0, stock(i..m] - rows(i..m]).
    room = (np.cumsum(rows) - np.cumsum(cols)).tolist()
    theta = np.zeros((k, k))
    for i, rest in enumerate(rows.tolist()):
        take = theta[i, i] = min(rest, stock[i])
        rest -= take
        for j in [j for j in order if j > i]:
            take = min(stock[j], rest, *room[i + 1:j])
            if take > tol:
                theta[i, j] = take
                stock[j] -= take
                rest -= take
                for m in range(i + 1, j):
                    room[m] -= take
    return theta


def ewac_bounds(objective, zero_mask=frozenset(), tag="none"):
    """Sharp EWAC bounds over the (optionally masked) polytope.

    The upper bound minimises the coefficient form, the lower bound
    maximises it; both optimisers are vertices and satisfy the mask
    exactly.  With no mask or ``pm_mask(K)`` they are the fills of
    ``_tables_by_order`` for the stable factor order, and no simplex runs;
    the pm polytope is empty when the biased CDF passes the fair one by
    over FEASIBILITY_TOL.

    Raises:
        InfeasibleMaskError: if the mask empties the polytope.
    """
    rows, cols, factor = (objective.row_marginals, objective.col_marginals,
                          objective.factor)
    iterations, staircase = (0, 0), bool(zero_mask)
    if staircase and frozenset(map(tuple, zero_mask)) != pm_mask(factor.size):
        lo, hi = (solve(TransportProblem(objective.coeff, rows, cols,
                                         zero_mask, sense))
                  for sense in ("min", "max"))
        feasible = lo.status == hi.status == "optimal"
        iterations, hi, lo = (hi.iterations, lo.iterations), hi.theta, lo.theta
    else:
        feasible = not staircase or _pm_feasible(rows, cols)
        hi, lo = _tables_by_order(rows, cols, factor, {} if staircase
                                  else None)[0][-2:, 0]
    if not feasible:
        raise _infeasible(tag, zero_mask)
    return EwacBounds(objective.ewac(hi), objective.ewac(lo), hi, lo,
                      constraint_tag=tag, iterations=iterations)


def _pm_feasible(rows, cols):
    """Whether the pm staircase admits a table (see ``ewac_bounds``)."""
    excess = np.cumsum(cols)[:-1] - np.cumsum(rows)[:-1]
    return excess.max(initial=0.0) <= FEASIBILITY_TOL


def _infeasible(tag, zero_mask):
    return InfeasibleMaskError(
        f"constraint set {tag!r} ({len(zero_mask)} forced zeros) admits "
        "no joint PMF with the required marginals")


def pm_mask(k):
    """Cells forced to zero when the biased roll never pays less than the
    fair roll of the same period: everything strictly below the diagonal."""
    return frozenset((i, j) for i in range(k) for j in range(i))


def cs_mask(emission):
    """Cells forced to zero when the cheat never moves probability toward a
    face the biased die makes no likelier.

    Valid only when the fair die is uniform, since the argument compares
    biased emission probabilities alone; a tie masks both ordered pairs.
    """
    emission = np.asarray(emission, dtype=float)
    k = emission.shape[1]
    fair = emission[FAIR]
    if np.abs(fair - 1.0 / k).max() > _UNIFORM_TOL:
        raise ValueError(
            "this constraint set requires a uniform fair die; row 0 of the "
            "emission matrix is not uniform")
    e_biased = emission[BIASED]
    return frozenset((i, j) for i in range(k) for j in range(k)
                     if i != j and e_biased[j] <= e_biased[i])


def greedy_column(model, face, sense):
    """Optimal single-period column for one observed face.

    With row capacities from the fair die and a column total equal to the
    biased probability of ``face``, sum_i w_i theta[i, face] is maximised
    by filling rows from the highest payoff down and minimised from the
    lowest up (w increases).  ``sense`` is "max" or "min".
    """
    if sense not in ("max", "min"):
        raise ValueError(f"sense must be 'max' or 'min', got {sense!r}")
    j = int(face) - 1
    k = model.num_symbols
    if not 0 <= j < k:
        raise ValueError(f"face must lie in 1..{k}, got {face}")
    return _greedy_stacks(*model.emission)[sense == "min"][:, j]


def inhomogeneous_bounds(objective):
    """EWAC bounds when each period may use its own joint PMF.

    Periods observing the same face then share a greedy column, so the
    extremes are the form at the stacked per-face greedy columns; always
    at least as wide as the time-homogeneous bounds.
    """
    best, worst = _greedy_stacks(objective.row_marginals,
                                 objective.col_marginals)
    return EwacBounds(objective.ewac(best), objective.ewac(worst), None, None,
                      constraint_tag="inhomogeneous")


def _greedy_stacks(caps, totals):
    """(best, worst): the "max" and "min" ``greedy_column`` of each column
    total, ``caps`` filled from the last row up and from the first down:
    each column the single-column north-west walk, on Python floats."""
    caps, k = [*map(float, caps)], len(caps)
    stacks = np.zeros((2, k, len(totals)))
    for stack, order in zip(stacks, (range(k - 1, -1, -1), range(k))):
        held = sum(caps[i] for i in order)
        for j, total in enumerate(map(float, totals)):
            tol = (k + 1) * _EPS * max(held, total)
            for i in order:
                stack[i, j] = take = min(caps[i], total)
                total -= take
                if total <= tol:
                    break
    return stacks[0], stacks[1]


def copula_pmf(model, kind):
    """Benchmark joint PMFs built from the two marginal dice.

    ``kind`` selects the dependence structure: "independence" multiplies
    the marginals, "comonotonic" couples them through a common uniform
    (highest positive dependence), "countermonotonic" through opposed
    uniforms (lowest).  The last two are the classical Frechet bounds, the
    ``_nw_fills`` of the face order.
    """
    e_fair, e_biased = model.emission
    if kind == "independence":
        return np.outer(e_fair, e_biased)
    if kind in ("comonotonic", "countermonotonic"):
        return _nw_fills(e_fair, e_biased, np.arange(e_fair.size)[None])[
            int(kind == "countermonotonic"), 0]
    raise ValueError(
        "kind must be 'independence', 'comonotonic' or "
        f"'countermonotonic', got {kind!r}")


def _copulas(model):
    """The three benchmark couplings by kind, each validated once."""
    rows, cols = model.emission
    tables = np.outer(rows, cols), *_nw_fills(rows, cols, np.arange(
        rows.size)[None])[:, 0]
    return {kind: validate_joint_pmf(theta, rows, cols) for kind, theta in
            zip(("independence", "comonotonic", "countermonotonic"), tables)}


REPORT_COLUMNS = ("lb", "ub", "lb_cs", "ub_cs", "lb_inhom", "ub_inhom",
                  "ewac_comonotonic", "ewac_countermonotonic")


def _tables_by_order(rows, cols, factor, built=None, *extra):
    """(tables, *fills): the (n, E, K, K) optimal tables of each row of the
    (E, K) or (K,) ``factor`` by its stable order (all they depend on), by
    one ``_nw_fills`` of its distinct orders and the ``extra`` ones, whose
    (2, K, K) fills follow; with a dict ``built`` of the max and min pm
    ``_staircase_fill``s by order, to which it adds those missing, also
    those (n = 4)."""
    first = {}  # distinct orders by first row: faster than np.unique here
    at = [first.setdefault(key, len(first)) for key in map(tuple, np.argsort(
        np.atleast_2d(factor), axis=1, kind="stable").tolist())]
    keys, ends = [*first], [first.setdefault(key, len(first)) for key in extra]
    fills = _nw_fills(rows, cols, np.array([*first]))
    tables = fills[:, at]
    if built is not None:
        for key in {*keys} - built.keys():
            built[key] = np.stack([_staircase_fill(rows, cols, np.array(order))
                                   for order in (key, key[::-1])])
        tables = np.concatenate([tables, np.stack(
            [built[key] for key in keys], axis=1)[:, at]])
    return (tables, *(fills[:, i] for i in ends))


def _report_values(model, stack, built, staircase=True):
    """(values, tables): the (E, 8) ``REPORT_COLUMNS`` of the objectives
    ``stack`` by one ``ewac`` of the (n, E, K, K) tables, per factor order
    (``_tables_by_order``) the fills and the pm fills (the cs pair, NaN
    without ``staircase``), then the greedy stacks and Frechet couplings,
    the latter filled in the same call as the face order.  An empty
    staircase raises as ``ewac_bounds`` with pm and tag "cs"."""
    rows, cols = model.emission
    if staircase and not _pm_feasible(rows, cols):
        raise _infeasible("cs", pm_mask(rows.size))
    tables, frechet = _tables_by_order(rows, cols, stack.factor, built
                                       if staircase else None,
                                       tuple(range(rows.size)))
    fixed = np.stack([*_greedy_stacks(rows, cols), *(
        validate_joint_pmf(theta, rows, cols) for theta in frechet)])
    tables = np.concatenate([tables, np.broadcast_to(
        fixed[:, None], (fixed.shape[0], *tables.shape[1:]))])
    values = stack.ewac(tables)
    if not staircase:
        values = np.insert(values, [2, 2], np.nan, axis=0)
    return values.T, tables


def naive_ewac(model, obs):
    """Observed winnings minus the unconditional fair expectation.

    Ignores the posterior entirely: every period is charged the mean fair
    payoff, so a lucky honest streak shows up as spurious cheating.
    """
    return _naive(model, np.bincount(as_symbol_indices(model, obs),
                                     minlength=model.num_symbols))


def _naive(model, counts):
    """``naive_ewac`` of (..., K) face counts of paths: their payoffs less
    the fair mean payoff per period; a float for one path."""
    w = model.rewards
    naive = counts @ w - counts.sum(axis=-1) * (model.emission[FAIR] @ w)
    return naive if naive.ndim else float(naive)


def stationary(model):
    """Stationary distribution of the hidden chain.

    Raises:
        ValueError: if the chain is the identity, where every distribution
            is stationary.
    """
    q = model.transition
    off = q[FAIR, BIASED] + q[BIASED, FAIR]
    if off == 0.0:
        raise ValueError(
            "transition matrix is the identity; the stationary distribution "
            "is not unique")
    return np.array([q[BIASED, FAIR], q[FAIR, BIASED]]) / off


def asymptotic_ewac_rate(model):
    """Long-run EWAC per period under the stationary hidden chain.

    Each stationary-biased period contributes the gap between the biased
    and fair expected payoffs.
    """
    pi = stationary(model)
    fair_mean, biased_mean = model.emission @ model.rewards
    return pi[BIASED] * (biased_mean - fair_mean)
