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
(Shamir and Dietrich 1990).  One interval-overlap kernel (``_overlaps``)
makes every unmasked table: the north-west fills, the per-period greedy
stacks and the two couplings.  The EWAC at theta is sum_j f_j g_j, g_j =
sum_i theta_ij (w_j - w_i), and an optimum sees the path only through the
stable order of f, a min fill being the max of the order reversed: a memo
by dice keeps, read-only and under 16 MB, one fill per kind and order with
its g as a double-double, and one entry of fixed tables; public results
are copies.  Every value is one compensated dot (``_dot2``), correctly
rounded unless within about 8 K^3 eps^2 max_j |f_j g_j| of a rounding
boundary.  ``_optimal_tables`` alone picks the route, for one objective or
a stack; the transportation simplex (``transport.solve``) serves other
masks.
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
_DOT_ROWS = 1 << 9  # objectives a report dots at a time, in (E, 8, K) arrays
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
        float, or for tables (..., [E,] K, K) the values, each the ``_dot``
        of the factor with the table's ``_payoffs``, bit for bit a single
        table's."""
        return _dot(self.factor, _payoffs(np.asarray(theta, float),
                                          self.rewards))


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


def _edges(x):
    """(2, ..., K + 1): the prefix sums of ``x`` along its last axis, from
    0, and their rounding errors (exact by TwoSum; Knuth, TAOCP 4.2.2)."""
    cum = np.zeros((2, *x.shape[:-1], x.shape[-1] + 1))
    total = np.add.accumulate(x, axis=-1, out=cum[0, ..., 1:])
    step = total - cum[0, ..., :-1]
    np.add.accumulate((cum[0, ..., :-1] - (total - step)) + (x - step),
                      axis=-1, out=cum[1, ..., 1:])
    return cum


def _dot2(a, b, rest):
    """(big, small): sum_j a_j b_j + rest_j along the first axis, within
    about 8 K^3 eps^2 max|a_j b_j|: each product split exactly into p + e
    (TwoProd, halves of 26 bits cut in the integer view, no overflow), big
    the parts of the p on the grid of a power of two over 4K max|p|, exact
    in any order (ExtractVector; Rump, Ogita and Oishi 2008), small the
    rest added in order, so a lane has the same bits alone or stacked."""
    halves = []
    for x in (a, b):
        high = ((x.view(np.int64) + (1 << 26)) & -(1 << 27)).view(float)
        halves += [high, x - high]
    (ah, al, bh, bl), p = halves, a * b
    sigma = np.ldexp(1.0, np.frexp(np.abs(p).max(0))[1]
                     + (4 * len(p) - 1).bit_length())
    grid = (sigma + p) - sigma
    return grid.sum(0), sum((p - grid) + (
        ah * bh - p + ah * bl + al * bh + al * bl + rest))


def _dot(factor, payoffs):
    """sum_j f_j (hi_j + lo_j) along the last axis of the (..., K) factor
    and (..., 2, K) payoffs by ``_dot2``, broadcast, a float for one pair."""
    f, hi, lo = np.broadcast_arrays(np.asarray(factor, float),
                                    payoffs[..., 0, :], payoffs[..., 1, :])
    values = np.add(*_dot2(f.T, hi.T, (f * lo).T)).T
    return values if values.ndim else float(values)


def _payoffs(theta, w):
    """(..., 2, K): g_j = sum_i theta[i, j] (w_j - w_i) of (..., K, K)
    tables as (hi, lo) by ``_dot2``, with the gaps' TwoSum errors."""
    gap = np.subtract(w, w[:, None], dtype=float)
    tail, shape = gap - w, (w.size, *[1] * (theta.ndim - 2), w.size)
    slip = (w - (gap - tail)) - (w[:, None] + tail)
    theta = np.moveaxis(theta, -2, 0)
    return np.stack(_dot2(theta, gap.reshape(shape),
                          theta * slip.reshape(shape)), -2)


def _overlaps(rows, cols, lo, hi):
    """(..., K, N): cell (i, j) the overlap of row i's cumulative-mass
    interval (the ``_edges`` of the (..., K) ``rows``) with column j's
    [lo, hi], edges (sum, error) pairs in (2, ..., N): the least of the
    masses (``cols``, (N,)) and two edge differences, within about an ulp
    of the exact one.  A negative overlap is 0, as is one within 2K eps of
    the total mass (dust; the totals in face order, so no fill sees its
    batch) unless its column's mass is: such a light column's cells are
    real, its factor m_j / e_b[j] being huge."""
    r = _edges(rows)
    up = r[..., 1:, None] - lo[..., None, :]
    down = hi[..., None, :] - r[..., :-1, None]
    theta = np.minimum(up[0] + up[1], down[0] + down[1])
    np.minimum(theta, np.minimum(rows[..., None], cols), out=theta)
    tol = 2 * rows.shape[-1] * _EPS * max(cols.sum(), r[0, ..., -1].max())
    theta[(theta <= tol) & ((theta <= 0) | (cols > tol))] = 0
    return theta


def _nw_fills(rows, cols, orders):
    """(E, K, K): the north-west-corner fill against the columns in each
    of the (E, K) ``orders``, the max table of sum_ij w_i f_j theta[i, j],
    w increasing, of that stable factor order, the min of it reversed:
    the ``_overlaps`` of the rows with each column's interval in its
    order's prefix sums (on the canonical dice, correctly rounded)."""
    cum, at = _edges(cols[orders]), orders.argsort(axis=1)[None]
    lo, hi = (np.take_along_axis(cum, at + s, -1) for s in (0, 1))
    return _overlaps(rows[None], cols, lo, hi)


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
    prefix together.  A take within 2K eps of the total mass is dust, left
    out, unless its row's or column's mass is (as in ``_overlaps``).
    """
    k = rows.size
    tol = 2 * k * _EPS * max(rows.sum(), cols.sum())
    dust = (tol * (np.minimum.outer(rows, cols) > tol)).tolist()
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
            if take > dust[i][j]:
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
        ArithmeticError: if a mask other than pm meets a light face with
            biased mass (see ``_optimal_tables``).
    """
    entries, at, iterations = _optimal_tables(objective, zero_mask, tag)
    stacked = objective.factor.ndim > 1
    chosen = entries[:, at if stacked else at[0]]
    values = _dot(objective.factor, chosen[..., -2:, :])
    lb, ub = values if stacked else values.tolist()
    return EwacBounds(lb, ub, chosen[0, ..., :-2, :], chosen[1, ..., :-2, :],
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
    lowest up (w increases): the ``_overlaps`` of the rows, from the last
    or the first, with [0, e_b[face]].  ``sense`` is "max" or "min".
    """
    if sense not in ("max", "min"):
        raise ValueError(f"sense must be 'max' or 'min', got {sense!r}")
    j = int(face) - 1
    k = model.num_symbols
    if j + 1 != face or not 0 <= j < k:  # 1.5 is no face
        raise ValueError(f"face must lie in 1..{k}, got {face}")
    best, worst = _memoised(*model.emission, model.rewards, "fixed")[0][:2]
    return (worst if sense == "min" else best)[:k, j].copy()


def inhomogeneous_bounds(objective):
    """EWAC bounds when each period may use its own joint PMF.

    Periods observing the same face then share a greedy column, so the
    extremes are the form at the stacked per-face greedy columns (the
    memo's kernel fills, which keep a light face's cells); always at least
    as wide as the time-homogeneous bounds.
    """
    best, worst = (_dot(objective.factor, entry[-2:]) for entry in _memoised(
        objective.row_marginals, objective.col_marginals, objective.rewards,
        "fixed")[0][:2])
    return EwacBounds(best, worst, None, None, constraint_tag="inhomogeneous")


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
        return _memoised(e_fair, e_biased, model.rewards, "fixed")[0][
            2 + (kind == "countermonotonic"), :e_fair.size].copy()
    raise ValueError(
        "kind must be 'independence', 'comonotonic' or "
        f"'countermonotonic', got {kind!r}")


REPORT_COLUMNS = ("lb", "ub", "lb_cs", "ub_cs", "lb_inhom", "ub_inhom",
                  "ewac_independence", "ewac_comonotonic",
                  "ewac_countermonotonic", "naive")


def _memoised(rows, cols, w, kind, keys=((),)):
    """The memo's read-only entries ``kind`` of the dice (rows, cols) and
    payoffs ``w`` for ``keys``, each a (K, K) table above its two rows of
    ``_payoffs``: by stable factor order the "nw" and "pm" max fill (its
    reversal's is the min); under () the "fixed" (4, K + 2, K) greedy max
    and min stacks and validated couplings.  Those missing are made at
    once; the memo is cleared when it passes _MEMO_BOUND bytes."""
    global _memo_bytes
    dice, k = rows.tobytes() + cols.tobytes() + w.tobytes(), rows.size
    got = {key: _memo.get((dice, kind, key)) for key in keys}
    missing = [key for key, table in got.items() if table is None]
    if not missing:
        return [got[key] for key in keys]
    if kind == "nw":
        made = _nw_fills(rows, cols, np.array(missing))
    elif kind == "pm":
        made = np.array([_staircase_fill(rows, cols, key) for key in missing])
    else:  # "fixed"
        faces = (*range(k),)
        frechet = [entry[:k] for entry in _memoised(rows, cols, w, "nw",
                                                    [faces, faces[::-1]])]
        for theta in frechet:
            validate_joint_pmf(theta, rows, cols)
        lo = np.zeros((2, 1, k))  # greedy column j is [0, e_b[j]]
        best, worst = _overlaps(np.stack([rows[::-1], rows]), cols, lo,
                                np.stack([[cols], lo[1]]))
        made = np.stack([best[::-1], worst, *frechet])[None]
    made = np.concatenate([made, _payoffs(made, w)], -2)
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
    first, rows = {}, factor.reshape(-1, factor.shape[-1])  # np.unique slower
    at = [first.setdefault(key, len(first)) for key in map(
        tuple, rows.argsort(axis=1, kind="stable").tolist())]
    return [*first], at


def _optimal_tables(objective, zero_mask, tag, orders=None):
    """((2, N, K + 2, K) entries, at, (lb, ub) pivots): row e of the (E, K)
    or (K,) factor has its max and min tables under ``zero_mask`` above
    their ``_payoffs`` in entries[:, at[e]]: with no mask the memo's fills
    of the ``_factor_orders`` (``orders`` if given) and their reversals,
    under ``pm_mask(K)`` if the dice allow it the staircase fills, else one
    ``transport.solve`` per row and sense.  An empty polytope raises, and
    so does a light face with mass before the simplex, which drops it."""
    rows, cols, w = (objective.row_marginals, objective.col_marginals,
                     objective.rewards)
    k = w.size
    if zero_mask and frozenset(map(tuple, zero_mask)) != pm_mask(k):
        tol = 2 * k * _EPS * max(rows.sum(), cols.sum())
        mass = (objective.factor * cols).reshape(-1, k)
        light = (rows == 0) & (cols <= tol) & np.any(
            mass > tol * mass.sum(axis=1, keepdims=True), axis=0)
        if light.any():
            j = light.argmax()
            raise ArithmeticError(
                f"face {j + 1} has biased mass but its biased probability "
                f"{cols[j]:.3g} is within rounding of 0 and its fair one 0: "
                f"no {tag!r} bound, the simplex drops it")
        solved = [[solve(TransportProblem(coeff, rows, cols, zero_mask, sense))
                   for coeff in objective.coeff.reshape(-1, k, k)]
                  for sense in ("max", "min")]
        if all(lp.theta is not None for lps in solved for lp in lps):
            tables = np.array([[lp.theta for lp in lps] for lps in solved])
            return (np.concatenate([tables, _payoffs(tables, w)], -2),
                    np.arange(tables.shape[1]),
                    tuple(sum(lp.iterations for lp in lps) for lps in solved))
    elif not zero_mask or (cols.cumsum()[:-1] - rows.cumsum()[:-1]).max(
            initial=0.0) <= FEASIBILITY_TOL:
        keys, at = orders or _factor_orders(objective.factor)
        entries = _memoised(rows, cols, w, "pm" if zero_mask else "nw",
                            [*keys, *(key[::-1] for key in keys)])
        return np.array(entries).reshape(2, -1, k + 2, k), at, (0, 0)
    raise InfeasibleMaskError(
        f"constraint set {tag!r} ({len(zero_mask)} forced zeros) admits "
        "no joint PMF with the required marginals")


def _report_values(model, stack, counts):
    """(values, tables): the (E, 10) ``REPORT_COLUMNS`` of the objectives
    ``stack`` of face ``counts`` and the first one's plain (2, K, K)
    tables.  A row's eight table values are ``_dot2``s of its factor, in
    blocks of _DOT_ROWS rows, with the payoff rows of its max and min tables
    of ``_optimal_tables`` with no mask and under the cs mask (tag "cs"),
    sorted once, and of the four fixed ones: one (2, K, 8, rows) gather by
    index from a table of the routes' payoff rows, in that order."""
    k, orders = model.num_symbols, _factor_orders(stack.factor)
    rows = stack.factor.size // k
    (plain, at), (tied, tat) = (
        _optimal_tables(stack, mask, tag, orders)[:2] for mask, tag in (
            (frozenset(), "none"), (cs_mask(model.emission), "cs")))
    fixed = _memoised(*model.emission, model.rewards, "fixed")[0]
    table = np.concatenate([entries[..., k:, :].reshape(-1, 2, k) for entries
                            in (plain, tied, fixed)]).transpose(1, 2, 0)
    n, m = plain.shape[1], 2 * plain.shape[1] + 2 * tied.shape[1]
    index = np.add.outer([0, n, 2 * n, 2 * n + tied.shape[1],
                          *range(m, m + 4)], np.zeros(rows, np.intp))
    index[:2] += at
    index[2:4] += tat
    factor = np.ascontiguousarray(stack.factor.reshape(rows, k).T, float)
    values = np.empty((rows, 10))
    values[:, 6], values[:, 9] = stack.independence, _naive(model, counts)
    for s in range(0, rows, _DOT_ROWS):
        f, chunk = factor[:, None, s:s + _DOT_ROWS], slice(s, s + _DOT_ROWS)
        hi, lo = table[:, :, index[:, chunk]]
        values[chunk, [0, 1, 2, 3, 4, 5, 7, 8]] = np.add(
            *_dot2(f, hi, f * lo)).T
    return values, plain[:, at[0], :k]


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
