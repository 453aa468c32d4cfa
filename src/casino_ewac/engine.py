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
path only through the stable order of f, so a sweep builds its tables once
per order.  The simplex serves every other mask.
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
        K^2-term sum."""
        w = self.rewards
        terms = theta * self.factor[..., None, :] * (w - w[:, None])
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


def _path_objective(model, o):
    """(objective, alpha) of the 0-based faces ``o``: from face counts for
    an i.i.d. chain, alpha None; else from smoothing a copy of the forward
    filter alpha, which ``sample_wac`` can reuse."""
    iid = _iid_posteriors(model, o)
    if iid is None:
        alpha = _forward_filter(model, o)
        delta = _smooth_filtered(model, o, alpha.copy())
        return _smoothed_objective(model, o, delta), alpha
    counts = np.bincount(o, minlength=model.num_symbols)
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


def _nw_fill(rows, cols):
    """North-west-corner fill of a table with these row and column sums.

    Each cell on the walk from the top-left corner takes what its row and
    column still lack; the walk passes every full row and column, where a
    remainder within the rounding error of the running sums counts as full
    (no noise cells where a row and a column end together).
    """
    rows = np.asarray(rows, dtype=float).tolist()
    cols = np.asarray(cols, dtype=float).tolist()
    theta = np.zeros((len(rows), len(cols)))
    tol = (len(rows) + len(cols)) * _EPS * max(sum(rows), sum(cols))
    i = j = 0
    while i < len(rows) and j < len(cols):
        take = min(rows[i], cols[j])
        theta[i, j] = take
        rows[i] -= take
        cols[j] -= take
        if rows[i] <= tol:
            i += 1
        if cols[j] <= tol:
            j += 1
    return theta


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


def _optimal_tables(rows, cols, order, staircase=False):
    """(max, min) tables of sum_ij w_i f_j theta[i, j], w increasing, for
    the stable ascending factor ``order``: the north-west-corner fills
    against the biased faces in that order and reversed, then, with
    ``staircase``, the two pm ``_staircase_fill``s."""
    hi, lo = np.empty((2, order.size, order.size))
    for theta, at in ((hi, order), (lo, order[::-1])):
        theta[:, at] = _nw_fill(rows, cols[at])
    return (hi, lo) + (tuple(_staircase_fill(rows, cols, at) for at in
                             (order, order[::-1])) if staircase else ())


def ewac_bounds(objective, zero_mask=frozenset(), tag="none"):
    """Sharp EWAC bounds over the (optionally masked) polytope.

    The upper bound minimises the coefficient form, the lower bound
    maximises it; both optimisers are vertices and satisfy the mask
    exactly.  With no mask or ``pm_mask(K)`` they are the fills of
    ``_optimal_tables`` for the stable factor order, and no simplex runs;
    the pm polytope is empty when the biased CDF passes the fair one by
    over FEASIBILITY_TOL.

    Raises:
        InfeasibleMaskError: if the mask empties the polytope.
    """
    rows, cols, factor = (objective.row_marginals, objective.col_marginals,
                          objective.factor)
    feasible, iterations = True, (0, 0)
    staircase = bool(zero_mask)
    if staircase and frozenset(map(tuple, zero_mask)) != pm_mask(factor.size):
        lo, hi = (solve(TransportProblem(objective.coeff, rows, cols,
                                         zero_mask, sense))
                  for sense in ("min", "max"))
        feasible = lo.status == hi.status == "optimal"
        iterations, hi, lo = (hi.iterations, lo.iterations), hi.theta, lo.theta
    else:
        if staircase:
            excess = np.cumsum(cols)[:-1] - np.cumsum(rows)[:-1]
            feasible = excess.max(initial=0.0) <= FEASIBILITY_TOL
        hi, lo = _optimal_tables(rows, cols, np.argsort(factor, kind="stable"),
                                 staircase)[-2:]
    if not feasible:
        raise InfeasibleMaskError(
            f"constraint set {tag!r} ({len(zero_mask)} forced zeros) admits "
            "no joint PMF with the required marginals")
    return EwacBounds(objective.ewac(hi), objective.ewac(lo), hi, lo,
                      constraint_tag=tag, iterations=iterations)


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
    total, ``caps`` filled from the last row up and from the first down."""
    return (np.hstack([_nw_fill(caps[::-1], [s])[::-1] for s in totals]),
            np.hstack([_nw_fill(caps, [s]) for s in totals]))


def copula_pmf(model, kind):
    """Benchmark joint PMFs built from the two marginal dice.

    ``kind`` selects the dependence structure: "independence" multiplies
    the marginals, "comonotonic" couples them through a common uniform
    (highest positive dependence), "countermonotonic" through opposed
    uniforms (lowest).  The last two are the classical Frechet bounds, the
    ``_optimal_tables`` of the face order.
    """
    e_fair, e_biased = model.emission
    if kind == "independence":
        return np.outer(e_fair, e_biased)
    if kind in ("comonotonic", "countermonotonic"):
        return _optimal_tables(e_fair, e_biased, np.arange(e_fair.size))[
            kind == "countermonotonic"]
    raise ValueError(
        "kind must be 'independence', 'comonotonic' or "
        f"'countermonotonic', got {kind!r}")


def _copulas(model):
    """The three benchmark couplings by kind, each validated once."""
    return {kind: validate_joint_pmf(copula_pmf(model, kind), *model.emission)
            for kind in ("independence", "comonotonic", "countermonotonic")}


def _bounds_report(objective, model, mask=None):
    """(plain bounds, report): lb/ub, lb_cs/ub_cs (None without a cs
    ``mask``), lb_inhom/ub_inhom at the ``_greedy_stacks`` and ewac_<kind>
    at the ``_copulas``, the independence value from the objective's sum."""
    plain = ewac_bounds(objective)
    tied = None if mask is None else ewac_bounds(objective, mask, tag="cs")
    best, worst = _greedy_stacks(*model.emission)
    report = {"lb": plain.lb, "ub": plain.ub,
              "lb_cs": None if tied is None else tied.lb,
              "ub_cs": None if tied is None else tied.ub,
              "lb_inhom": objective.ewac(best),
              "ub_inhom": objective.ewac(worst)}
    for kind, theta in _copulas(model).items():
        report[f"ewac_{kind}"] = objective.ewac(theta)
    report["ewac_independence"] = objective.independence
    return plain, report


def naive_ewac(model, obs):
    """Observed winnings minus the unconditional fair expectation.

    Ignores the posterior entirely: every period is charged the mean fair
    payoff, so a lucky honest streak shows up as spurious cheating.
    """
    return _naive(model, np.bincount(as_symbol_indices(model, obs),
                                     minlength=model.num_symbols))


def _naive(model, counts):
    """``naive_ewac`` of the (K,) face counts of a path: their payoffs
    less the fair mean payoff per period."""
    w = model.rewards
    return float(counts @ w - counts.sum() * (model.emission[FAIR] @ w))


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
