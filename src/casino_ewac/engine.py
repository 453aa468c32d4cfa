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
pm mask (also the cs mask of dice whose likelihood ratio e_b / e_f
strictly increases with the face) greedy fills row by row in payoff order
(Shamir and Dietrich 1990).  Either way an optimum sees the path only
through the stable order of f, a min fill being the max of the order
reversed: a memo by dice keeps, read-only and under 16 MB, one fill per
kind and order and one entry of fixed tables; public results are copies.
``_optimal_tables`` alone picks the route, for one objective or a stack;
the transportation simplex (``transport.solve``) serves other masks.
"""

import functools
from dataclasses import dataclass

import numpy as np

from casino_ewac.hmm import (BIASED, FAIR, _forward_filter, _iid_posteriors,
                             _smooth_filtered, as_symbol_indices)
from casino_ewac.transport import FEASIBILITY_TOL, TransportProblem, solve

_PMF_ATOL = 1e-8
_EPS = float(np.finfo(float).eps)
_MEMO_BOUND = 1 << 24  # bytes of tables the memo holds; see _memoised
_memo, _memo_bytes = {}, 0

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
            E objectives on the same dice (``coeff`` then (E, K, K)).
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
        return self.rewards[:, None] * self.factor[..., None, :]

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
    """Lower and upper EWAC values with the optimising PMFs: floats and
    (K, K) tables, or (E,) and (E, K, K) arrays for a stack of objectives.

    ``theta_lb`` and ``theta_ub`` are None for the time-inhomogeneous
    relaxation, whose optimiser varies by period.  ``iterations`` counts
    the tree pivots of the transportation simplex, phase one plus phase
    two, of the (lb, ub) solves of a mask other than pm (summed over a
    stack); the fills of the other bounds report (0, 0).
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
        ValueError: if a row of delta is no distribution (to 1e-9), or a
            face with zero biased emission probability was observed; the
            counterfactual conditioning is undefined there.
    """
    o = as_symbol_indices(model, obs)
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (o.size, 2):
        raise ValueError(
            f"delta must have shape ({o.size}, 2), got {delta.shape}")
    # An entry outside [0, 1] (NaN too) counts 2, so its row sum is off 1.
    inside = np.where((delta >= 0) & (delta <= 1), delta, 2.0)
    bad = np.flatnonzero(np.abs(inside.sum(axis=1) - 1) > 1e-9)
    if bad.size:
        raise ValueError(f"delta row {bad[0] + 1} is no distribution")
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
    """(objective, filtered) of the 0-based faces ``o`` and their
    ``counts``, filtered what the samplers (``sweeps._wac_dist``) reuse:
    for an i.i.d. chain the face posteriors (``_iid_posteriors``), from
    which the objective comes with the counts; else the forward filter
    alpha, a copy of which is smoothed."""
    iid = _iid_posteriors(model, o, counts)
    if iid is None:
        alpha = _forward_filter(model, o)
        delta = _smooth_filtered(model, o, alpha.copy())
        return _smoothed_objective(model, o, delta), alpha
    masses = counts[:, None] * iid[0]
    masses[o[0]] += iid[1] - iid[0][o[0]]  # period 1 under ``initial``
    return _face_objective(model, counts, masses), iid


def validate_joint_pmf(theta, row_marginals, col_marginals):
    """Raise unless theta is in the transportation polytope to _PMF_ATOL."""
    theta = np.asarray(theta, dtype=float)
    k = len(row_marginals)
    if theta.shape != (k, k):
        raise ValueError(f"theta must have shape ({k}, {k}), got {theta.shape}")
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta must be finite")
    if theta.min() < -_PMF_ATOL:
        raise ValueError(f"theta has a negative cell ({theta.min():.3e})")
    row_err = np.abs(theta.sum(axis=1) - row_marginals).max()
    col_err = np.abs(theta.sum(axis=0) - col_marginals).max()
    if max(row_err, col_err) > _PMF_ATOL:
        raise ValueError(
            f"theta marginals are off by {max(row_err, col_err):.3e}")
    return theta


def ewac_of_theta(objective, theta):
    """The EWAC at one joint PMF that ``validate_joint_pmf`` accepts."""
    return objective.ewac(validate_joint_pmf(
        theta, objective.row_marginals, objective.col_marginals))


def _nw_fills(rows, cols, orders):
    """(E, K, K): the north-west-corner fill against the columns in each
    of the (E, K) ``orders``, the max table of sum_ij w_i f_j theta[i, j],
    w increasing, of that stable factor order, the min of it reversed.
    Cell (i, j) is the overlap min(R_{i+1}, C_{j+1}) - max(R_i, C_j) of
    the row's and column's cumulative-mass intervals (columns in order):
    the least of the two masses and two edge differences, the prefix sums
    carrying their rounding errors (exact by TwoSum; Knuth, TAOCP 4.2.2),
    so a cell is within about an ulp of the exact overlap (on the canonical
    dice, correctly rounded).  Overlaps within rounding of the totals (the
    columns' summed in face order) count as empty: no fill sees its batch."""
    n, k = orders.shape
    x = np.concatenate([cols[orders], rows[None]])
    cum = np.zeros((2, n + 1, k + 1))  # prefix sums, and their errors
    total = np.add.accumulate(x, axis=1, out=cum[0, :, 1:])
    step = total - cum[0, :, :-1]
    np.add.accumulate((cum[0, :, :-1] - (total - step)) + (x - step), axis=1,
                      out=cum[1, :, 1:])
    # Where face j's column edges are in each order's row of prefix sums.
    j = orders.argsort(axis=1) + np.arange(0, n * (k + 1), k + 1)[:, None]
    flat, r = cum.reshape(2, -1), cum[:, None, -1, :, None]
    up = r[:, :, 1:] - flat.take(j, axis=1)[:, :, None]
    down = flat.take(j + 1, axis=1)[:, :, None] - r[:, :, :-1]
    theta = np.minimum(up[0] + up[1], down[0] + down[1])
    np.minimum(theta, np.minimum(rows[:, None], cols), out=theta)
    theta[theta <= 2 * k * _EPS * max(cols.sum(), cum[0, -1, -1])] = 0
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
    exactly.  ``_optimal_tables`` picks the route: with no mask or
    ``pm_mask(K)`` the tables are copies of fills and no simplex runs.  A
    stack of objectives gets each row's bounds and tables bit for bit.

    Raises:
        InfeasibleMaskError: if the mask empties the polytope (pm's when
            the biased CDF passes the fair one by over FEASIBILITY_TOL).
    """
    tables, iterations = _optimal_tables(objective, zero_mask, tag)
    hi, lo = tables if objective.factor.ndim > 1 else tables[:, 0]
    return EwacBounds(objective.ewac(hi), objective.ewac(lo), hi, lo,
                      constraint_tag=tag, iterations=iterations)


@functools.lru_cache(maxsize=16)
def pm_mask(k):
    """Cells forced to zero when the biased roll never pays less than the
    fair roll of the same period: everything strictly below the diagonal."""
    return frozenset((i, j) for i in range(k) for j in range(i))


def cs_mask(emission):
    """Cells forced to zero by counterfactual stability (Oberst and Sontag
    2019): the cheat turns a fair roll i into a biased roll j != i only if
    the likelihood ratio e_b / e_f is strictly larger at j than at i, so
    (i, j) is masked iff e_b[j] e_f[i] <= e_b[i] e_f[j].  The ratios
    compare as the exact rationals the floats hold.  A tie masks both
    ordered pairs, and a face both dice rule out ties with every face.  A
    monotone likelihood ratio implies first-order dominance (Shaked and
    Shanthikumar 2007, Thm 1.C.1), so the masked polytope is never empty.
    Cached by the emission's bytes.
    """
    emission = np.asarray(emission, dtype=float)
    return _cs_mask(emission.shape, emission.tobytes())


@functools.lru_cache(maxsize=16)
def _cs_mask(shape, data):
    """``cs_mask`` of the emission matrix of ``shape`` and bytes ``data``:
    the faces ranked by e_b / e_f (+inf where e_f = 0 < e_b), then one
    comparison of the ranks."""
    from fractions import Fraction  # not at module level: ~2 ms of import

    fair, biased = np.frombuffer(data).reshape(shape)
    ratio = [Fraction(b) / Fraction(f) if f else np.inf
             for f, b in zip(fair.tolist(), biased.tolist())]
    at = dict(zip(sorted(set(ratio)), range(len(ratio))))
    rank = np.array([at[r] for r in ratio])
    dead = (fair == 0) & (biased == 0)
    mask = (rank <= rank[:, None]) | dead | dead[:, None]
    np.fill_diagonal(mask, False)
    return frozenset(zip(*(cells.tolist() for cells in np.nonzero(mask))))


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
    if j + 1 != face or not 0 <= j < k:  # 1.5 is no face
        raise ValueError(f"face must lie in 1..{k}, got {face}")
    best, worst = _memoised(*model.emission, "fixed")[0][:2]
    return (worst if sense == "min" else best)[:, j].copy()


def inhomogeneous_bounds(objective):
    """EWAC bounds when each period may use its own joint PMF.

    Periods observing the same face then share a greedy column, so the
    extremes are the form at the stacked per-face greedy columns; always
    at least as wide as the time-homogeneous bounds.
    """
    best, worst = _memoised(objective.row_marginals, objective.col_marginals,
                            "fixed")[0][:2]
    return EwacBounds(objective.ewac(best), objective.ewac(worst), None, None,
                      constraint_tag="inhomogeneous")


def _greedy_stacks(caps, totals):
    """(2, K, N): the "max" and "min" ``greedy_column`` of each column
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
    return stacks


def copula_pmf(model, kind):
    """Benchmark joint PMFs built from the two marginal dice.

    ``kind`` selects the dependence structure: "independence" multiplies
    the marginals, "comonotonic" couples them through a common uniform
    (highest positive dependence), "countermonotonic" through opposed
    uniforms (lowest).  The last two are the classical Frechet bounds, the
    ``_nw_fills`` of the faces in order and reversed, copied from the memo.
    """
    e_fair, e_biased = model.emission
    if kind == "independence":
        return np.outer(e_fair, e_biased)
    if kind in ("comonotonic", "countermonotonic"):
        return _memoised(e_fair, e_biased, "fixed")[0][
            2 + (kind == "countermonotonic")].copy()
    raise ValueError(
        "kind must be 'independence', 'comonotonic' or "
        f"'countermonotonic', got {kind!r}")


REPORT_COLUMNS = ("lb", "ub", "lb_cs", "ub_cs", "lb_inhom", "ub_inhom",
                  "ewac_independence", "ewac_comonotonic",
                  "ewac_countermonotonic", "naive")


def _memoised(rows, cols, kind, keys=((),)):
    """The memo's read-only tables ``kind`` of the dice (rows, cols) for
    ``keys``: by stable factor order the "nw" and "pm" max fill (its
    reversal's is the min); under () the "fixed" (4, K, K) greedy max and
    min stacks and validated couplings.  Those missing are made at once;
    the memo is cleared when it passes _MEMO_BOUND bytes."""
    global _memo_bytes
    dice = rows.tobytes() + cols.tobytes()
    got = {key: _memo.get((dice, kind, key)) for key in keys}
    missing = [key for key, table in got.items() if table is None]
    if not missing:
        return [got[key] for key in keys]
    if kind == "nw":
        made = [*_nw_fills(rows, cols, np.array(missing))]
    elif kind == "pm":
        made = [_staircase_fill(rows, cols, key) for key in missing]
    else:  # "fixed"
        faces = (*range(rows.size),)
        frechet = _memoised(rows, cols, "nw", [faces, faces[::-1]])
        for theta in frechet:
            validate_joint_pmf(theta, rows, cols)
        made = [np.stack([*_greedy_stacks(rows, cols), *frechet])]
    for key, table in zip(missing, made):
        table.setflags(write=False)
        got[key] = _memo[dice, kind, key] = table
        _memo_bytes += table.nbytes
    if _memo_bytes > _MEMO_BOUND:
        _memo.clear()
        _memo_bytes = 0
    return [got[key] for key in keys]


def _factor_orders(factor):
    """(orders, at): the distinct stable orders of the rows of the (E, K)
    or (K,) ``factor``, all a fill sees of it, and each row's index."""
    first = {}  # faster than np.unique here
    at = [first.setdefault(key, len(first)) for key in map(tuple, np.argsort(
        np.atleast_2d(factor), axis=1, kind="stable").tolist())]
    return [*first], at


def _optimal_tables(objective, zero_mask, tag, orders=None):
    """((2, E, K, K) tables, (lb, ub) pivots): the max and min tables of
    each row of the objective's (E, K) or (K,) factor under ``zero_mask``,
    by the one route decision: no mask, the memo's fills of the row's
    ``_factor_orders`` (``orders`` if given) and their reversals, gathered
    into a new array; ``pm_mask(K)``, if the dice allow it, the staircase
    fills likewise; any other mask, one ``transport.solve`` per row and
    sense.  An empty polytope raises."""
    rows, cols, k = (objective.row_marginals, objective.col_marginals,
                     objective.rewards.size)
    if zero_mask and frozenset(map(tuple, zero_mask)) != pm_mask(k):
        solved = [[solve(TransportProblem(coeff, rows, cols, zero_mask, sense))
                   for coeff in objective.coeff.reshape(-1, k, k)]
                  for sense in ("max", "min")]
        if all(lp.theta is not None for lps in solved for lp in lps):
            return (np.array([[lp.theta for lp in lps] for lps in solved]),
                    tuple(sum(lp.iterations for lp in lps) for lps in solved))
    elif not zero_mask or (np.cumsum(cols)[:-1] - np.cumsum(rows)[:-1]).max(
            initial=0.0) <= FEASIBILITY_TOL:
        keys, at = orders or _factor_orders(objective.factor)
        tables = _memoised(rows, cols, "pm" if zero_mask else "nw",
                           [*keys, *(key[::-1] for key in keys)])
        return np.reshape(tables, (2, -1, k, k))[:, at], (0, 0)
    raise InfeasibleMaskError(
        f"constraint set {tag!r} ({len(zero_mask)} forced zeros) admits "
        "no joint PMF with the required marginals")


def _report_values(model, stack, counts):
    """(values, tables): the (E, 10) ``REPORT_COLUMNS`` of the objectives
    ``stack`` of face ``counts`` and their plain (2, E, K, K) tables; the
    ``ewac`` of each of ``_optimal_tables`` with no mask and under the cs
    mask (tag "cs"), sorted once, and of the fixed ones, where they are."""
    orders = _factor_orders(stack.factor)
    plain, tied = (_optimal_tables(stack, mask, tag, orders)[0] for mask, tag
                   in ((frozenset(), "none"), (cs_mask(model.emission), "cs")))
    fixed = stack.ewac(_memoised(*model.emission, "fixed")[0][:, None])
    return np.vstack([
        stack.ewac(plain), stack.ewac(tied), fixed[:2], stack.independence,
        fixed[2:], np.full_like(fixed[0], _naive(model, counts))]).T, plain


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
