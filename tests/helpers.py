"""Independent oracles and fixtures used across the test modules.

Nothing here calls the library's recursions or the simplex: smoothing and
the cheating expectation are recomputed by exhaustive enumeration over
hidden paths or by the vector form of the forward-backward recursion,
small transport optima by enumerating basic solutions (for K <= 3 also in
exact rationals, ``exact_transport_optimum``), and the unmasked
EWAC extremes by the closed-form north-west-corner couplings.  The
transport solver's pivot path is redone one tableau element and one row at
a time, both phases of every solve.  The
sampling oracles redo the posterior draws one period at a time (hidden
paths) from the filtered probabilities they are given, count the biased
periods of each face by a plain loop and redraw each face's fair faces as
a chain of conditional binomials, one scalar draw per cell and sample,
consuming the same random numbers in the same order as the library; for
an i.i.d. chain they draw each face's binomial count and period 1's
uniform one scalar at a time instead.  A binomial on the library's table
route is one uniform inverted against its exact CDF in rationals
(``exact_binomial_cdf``), any other one numpy's scalar draw.  The loss
moments of an i.i.d. chain come in closed form, and its exact
distribution, for integer payoffs, by convolving the per-period ones.
``exact_canonical_values`` recomputes the canonical casino's bounds and
coupling values in exact rationals.  ``iid_cases`` generates i.i.d.
models for hypothesis.  ``loop_simulate``, ``loop_parse_path``,
``loop_nw_fill`` and ``template_csv`` keep the per-period simulation, the
per-token path parser, the scalar north-west walk and the one-template CSV
writer that the CLI, ``simulate`` and the batched fills replaced, as
references; so do ``loop_bounds_report`` (two ``ewac_bounds`` calls,
the simplex's for a cs mask other than pm, and one evaluation per table),
``json_ready`` (the rounding before ``json.dumps``) and ``attribute_csv``
(the sweep CSV written attribute by attribute from SweepRows) for the
report kernel and the JSON and CSV written from arrays.
"""

import bisect
import functools
import itertools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from casino_ewac.engine import _EPS, _path_objective
from casino_ewac.hmm import as_symbol_indices
from casino_ewac.sweeps import _COUNTS_N, _TABLE_N


def path_posterior(model, obs):
    """Joint weight of every hidden path, normalised, by direct product.

    Returns (paths, weights) where paths is a (2**T, T) array of states.
    """
    o = np.asarray(obs, dtype=int) - 1
    T = o.size
    p, Q, E = model.initial, model.transition, model.emission
    paths = np.array(list(itertools.product((0, 1), repeat=T)), dtype=int)
    weights = np.empty(len(paths))
    for n, h in enumerate(paths):
        prob = p[h[0]] * E[h[0], o[0]]
        for t in range(1, T):
            prob *= Q[h[t - 1], h[t]] * E[h[t], o[t]]
        weights[n] = prob
    total = weights.sum()
    if total <= 0:
        raise ValueError("path has zero likelihood")
    return paths, weights / total


def brute_force_smooth(model, obs):
    """Marginal posterior state probabilities from the full path posterior."""
    o = np.asarray(obs, dtype=int) - 1
    paths, weights = path_posterior(model, obs)
    delta = np.zeros((o.size, 2))
    for t in range(o.size):
        delta[t, 1] = weights[paths[:, t] == 1].sum()
        delta[t, 0] = 1.0 - delta[t, 1]
    return delta


def brute_force_ewac(model, obs, theta):
    """Expected winnings attributable to cheating, fully enumerated.

    For every hidden path, every period's counterfactual fair face is
    enumerated: the observed face itself on fair periods, and each face i
    with probability theta[i, o_t] / e_biased[o_t] on biased periods.
    """
    o = np.asarray(obs, dtype=int) - 1
    w = model.rewards
    e_biased = model.emission[1]
    paths, weights = path_posterior(model, obs)
    theta = np.asarray(theta, dtype=float)

    counterfactual_mean = 0.0
    for h, prob in zip(paths, weights):
        for t, face in enumerate(o):
            if h[t] == 0:
                counterfactual_mean += prob * w[face]
            else:
                col = theta[:, face] / e_biased[face]
                counterfactual_mean += prob * float(w @ col)
    return float(w[o].sum()) - counterfactual_mean


def enumerate_transport_optimum(costs, row_targets, col_targets,
                                zero_mask=frozenset(), atol=1e-9):
    """Optima of a small transport LP by basic-solution enumeration.

    Enumerates every linearly independent subset of unmasked cells (up to
    the constraint-system rank), keeps the consistent non-negative
    solutions, and reads off the extremes.  Returns (min, max), or None if
    no candidate solution exists.
    """
    costs = np.asarray(costs, dtype=float)
    k = costs.shape[0]
    r = np.asarray(row_targets, dtype=float)
    s = np.asarray(col_targets, dtype=float)
    cells = [(i, j) for i in range(k) for j in range(k)
             if (i, j) not in zero_mask]
    m = 2 * k - 1
    A = np.zeros((m, len(cells)))
    for idx, (i, j) in enumerate(cells):
        A[i, idx] = 1.0
        if j < k - 1:
            A[k + j, idx] = 1.0
    b = np.concatenate([r, s[:-1]])

    values = []
    for size in range(min(m, len(cells)) + 1):
        for subset in itertools.combinations(range(len(cells)), size):
            sub = A[:, subset]
            if size and np.linalg.matrix_rank(sub) < size:
                continue
            x, *_ = np.linalg.lstsq(sub, b, rcond=None)
            residual = sub @ x - b if size else -b
            if np.abs(residual).max() > atol:
                continue
            if size and x.min() < -atol:
                continue
            theta = np.zeros((k, k))
            for idx, cell in enumerate(subset):
                theta[cells[cell]] = x[idx]
            values.append(float(np.sum(costs * theta)))
    if not values:
        return None
    return min(values), max(values)


def _exact_solution(columns, b):
    """The unique x with sum_c x_c * columns[c] = b, in Fractions, or None
    when the columns are dependent or the system is inconsistent."""
    rows = [[col[r] for col in columns] + [b[r]] for r in range(len(b))]
    pivots = []
    for c in range(len(columns)):
        at = next((r for r in range(len(pivots), len(rows)) if rows[r][c]),
                  None)
        if at is None:
            return None
        rows[len(pivots)], rows[at] = rows[at], rows[len(pivots)]
        top = rows[len(pivots)]
        top[:] = [x / top[c] for x in top]
        for r, row in enumerate(rows):
            if r != len(pivots) and row[c]:
                row[:] = [x - row[c] * y for x, y in zip(row, top)]
        pivots.append(c)
    if any(row[-1] for row in rows[len(pivots):]):
        return None
    return [rows[n][-1] for n in range(len(pivots))]


def exact_transport_optimum(costs, row_targets, col_targets,
                            zero_mask=frozenset()):
    """(min, max) of a transport LP with K <= 3 in exact rationals of the
    float inputs, by basic-solution enumeration; None when infeasible.

    Every vertex is the unique solution on a linearly independent set of
    unmasked cells, so solving each such set exactly and keeping the
    non-negative solutions visits every vertex with no tolerance at all.
    """
    k = len(row_targets)
    assert k <= 3, "enumeration is exponential in K"
    cells = [(i, j) for i in range(k) for j in range(k)
             if (i, j) not in zero_mask]
    c = [[Fraction(float(x)) for x in row] for row in np.asarray(costs)]
    b = [Fraction(float(x)) for x in row_targets] + [
        Fraction(float(x)) for x in col_targets]
    # Row sums then column sums; balanced targets make one redundant, but
    # exact elimination needs no rank argument.
    unit = {(i, j): [Fraction(int(r == i)) for r in range(k)]
            + [Fraction(int(r == j)) for r in range(k)] for i, j in cells}
    values = []
    for size in range(min(2 * k - 1, len(cells)) + 1):
        for subset in itertools.combinations(cells, size):
            x = _exact_solution([unit[cell] for cell in subset], b)
            if x is not None and all(v >= 0 for v in x):
                values.append(sum(c[i][j] * v for (i, j), v in zip(subset, x)))
    return (min(values), max(values)) if values else None


# The solver's tolerances: phase one's feasibility test, the pivot-column
# entries the ratio test reads, and its ratio ties relative to max|rhs|.
_FEASIBILITY_TOL = 1e-9
_PIVOT_TOL = 1e-10
_TIE_TOL = 64 * np.finfo(float).eps


def loop_pivot(tab, basis, row, col):
    piv = tab[row, col]
    tab[row] /= piv
    for r in range(tab.shape[0]):
        if r != row and tab[r, col] != 0.0:
            tab[r] -= tab[r, col] * tab[row]
    basis[row] = col


def loop_bland_iterate(tab, basis, eligible, tol):
    """Bland pivots, one reduced cost and one ratio at a time, until no
    eligible reduced cost is below ``-tol``.  Returns the pivot count."""
    m = tab.shape[0] - 1
    # Ratios within 64 * eps * max|rhs| at the start of the best tie.
    tie = _TIE_TOL * max(abs(tab[r, -1]) for r in range(m))
    iterations = 0
    while True:
        entering = -1
        for j in range(eligible):
            if tab[m, j] < -tol:
                entering = j
                break
        if entering < 0:
            return iterations
        best = np.inf
        for r in range(m):
            a = tab[r, entering]
            if a > _PIVOT_TOL:
                best = min(best, tab[r, -1] / a)
        leaving = -1
        if np.isfinite(best):
            for r in range(m):
                a = tab[r, entering]
                if a > _PIVOT_TOL and tab[r, -1] / a <= best + tie:
                    if leaving < 0 or basis[r] < basis[leaving]:
                        leaving = r
        if leaving < 0:
            raise ArithmeticError("unbounded direction in simplex")
        loop_pivot(tab, basis, leaving, entering)
        iterations += 1


def loop_two_phase(A, b, c):
    """min c.x s.t. Ax = b, x >= 0 from scratch: (status, x, iterations).

    Phase two stops once no reduced cost is below 64 * eps * max|c|.
    """
    m, n = A.shape
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = A
    tab[:m, n:n + m] = np.eye(m)
    tab[:m, -1] = b
    basis = list(range(n, n + m))
    tab[m, :] = -tab[:m, :].sum(axis=0)
    tab[m, n:n + m] = 0.0
    iterations = loop_bland_iterate(tab, basis, n + m, _FEASIBILITY_TOL)
    if -tab[m, -1] > _FEASIBILITY_TOL:
        return "infeasible", None, iterations

    keep = []
    for r in range(m):
        if basis[r] < n:
            keep.append(r)
            continue
        pivot_col = -1
        for j in range(n):
            if j not in basis and abs(tab[r, j]) > _PIVOT_TOL:
                pivot_col = j
                break
        if pivot_col >= 0:
            loop_pivot(tab, basis, r, pivot_col)
            keep.append(r)

    rows = keep + [m]
    basis = [basis[r] for r in keep]
    tab = tab[np.ix_(rows, list(range(n)) + [n + m])]
    tab[-1, :] = 0.0
    tab[-1, :n] = c
    for r, j in enumerate(basis):
        tab[-1] -= tab[-1, j] * tab[r]
    eps = np.finfo(float).eps
    iterations += loop_bland_iterate(tab, basis, n,
                                     64 * eps * np.abs(c).max(initial=0.0))
    x = np.zeros(n)
    for r, j in enumerate(basis):
        x[j] = tab[r, -1]
    return "optimal", x, iterations


def loop_solve(problem):
    """(status, value, theta, iterations) of a ``TransportProblem`` from
    the per-element simplex, phase one rerun from scratch."""
    k = problem.costs.shape[0]
    cells = [(i, j) for i in range(k) for j in range(k)
             if (i, j) not in problem.zero_mask]
    A = np.zeros((2 * k - 1, len(cells)))
    for idx, (i, j) in enumerate(cells):
        A[i, idx] = 1.0
        if j < k - 1:
            A[k + j, idx] = 1.0
    b = np.concatenate([problem.row_targets, problem.col_targets[:-1]])
    c = np.array([problem.costs[i, j] for i, j in cells])
    if problem.sense == "max":
        c = -c
    status, x, iterations = loop_two_phase(A, b, c)
    if status != "optimal":
        return status, np.nan, None, iterations
    x = np.maximum(x, 0.0)
    theta = np.zeros((k, k))
    for idx, (i, j) in enumerate(cells):
        theta[i, j] = x[idx]
    return status, float(np.sum(problem.costs * theta)), theta, iterations


def random_feasible_theta(row_marginals, col_marginals, rng, moves=25):
    """A random joint PMF with the given marginals.

    Starts from the independent coupling and applies random 2x2 swap
    perturbations, which leave every row and column sum untouched.
    """
    theta = np.outer(row_marginals, col_marginals)
    k = theta.shape[0]
    for _ in range(moves):
        i, i2 = rng.choice(k, size=2, replace=False)
        j, j2 = rng.choice(k, size=2, replace=False)
        up = min(theta[i, j2], theta[i2, j])
        down = min(theta[i, j], theta[i2, j2])
        eps = rng.uniform(-down, up)
        theta[i, j] += eps
        theta[i2, j2] += eps
        theta[i, j2] -= eps
        theta[i2, j] -= eps
    return np.maximum(theta, 0.0)


def random_small_model(rng, k=3):
    """A strictly positive 2-state model with k faces for oracle tests."""
    from casino_ewac import HmmModel

    p = rng.uniform(0.1, 0.9)
    initial = np.array([p, 1.0 - p])
    q = rng.uniform(0.1, 0.9, size=2)
    transition = np.column_stack([q, 1.0 - q])
    emission = rng.uniform(0.05, 1.0, size=(2, k))
    emission /= emission.sum(axis=1, keepdims=True)
    rewards = np.cumsum(rng.uniform(0.5, 2.0, size=k))
    return HmmModel(initial, transition, emission, rewards)


def random_iid_model(rng, k, stationary=False):
    """A strictly positive model with k faces, equal transition rows and,
    unless ``stationary``, an initial distribution of its own."""
    from casino_ewac import HmmModel

    eta = rng.uniform(0.05, 0.95)
    row = np.array([eta, 1.0 - eta])
    p = rng.uniform(0.05, 0.95)
    initial = row if stationary else np.array([p, 1.0 - p])
    emission = rng.uniform(0.05, 1.0, size=(2, k))
    emission /= emission.sum(axis=1, keepdims=True)
    rewards = np.cumsum(rng.uniform(0.5, 2.0, size=k))
    return HmmModel(initial, [row, row], emission, rewards)


@st.composite
def iid_cases(draw):
    """(model, obs) of a chain with equal transition rows: K = 2..7,
    fairness levels 0 and 1 as often as not, a first period of its own
    half the time, strictly positive dice and up to 300 periods."""
    from casino_ewac import HmmModel

    k = draw(st.integers(2, 7))
    eta = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    row = [eta, 1.0 - eta]
    first = draw(st.none() | st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    dice = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=2 * k,
                                  max_size=2 * k))).reshape(2, k)
    dice /= dice.sum(axis=1, keepdims=True)
    rewards = np.cumsum(draw(st.lists(st.floats(0.1, 3.0), min_size=k,
                                      max_size=k)))
    model = HmmModel(row if first is None else [first, 1.0 - first],
                     [row, row], dice, rewards)
    obs = draw(st.lists(st.integers(1, k), min_size=1, max_size=300))
    return model, obs


def north_west_corner(rows, cols):
    """The north-west-corner fill of a transport table with these sums."""
    rows = np.array(rows, dtype=float)
    cols = np.array(cols, dtype=float)
    theta = np.zeros((rows.size, cols.size))
    i = j = 0
    while i < rows.size and j < cols.size:
        take = min(rows[i], cols[j])
        theta[i, j] = take
        rows[i] -= take
        cols[j] -= take
        if rows[i] <= 0.0:
            i += 1
        else:
            j += 1
    return theta


def loop_nw_fill(rows, cols):
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


def exact_fill(rows, cols):
    """North-west-corner fill in exact rational arithmetic."""
    rows, cols = list(rows), list(cols)
    theta = np.zeros((len(rows), len(cols)), dtype=object)
    i = j = 0
    while i < len(rows) and j < len(cols):
        take = min(rows[i], cols[j])
        theta[i, j] = take
        rows[i] -= take
        cols[j] -= take
        i, j = i + (rows[i] == 0), j + (cols[j] == 0)
    return theta


def exact_canonical_values(eta, obs):
    """lb, ub and ewac_<kind> of the canonical casino on ``obs`` as exact
    rationals of the model's floats: Bayes' rule per face, biased masses
    n_j p_j, and fills of the fair die against the biased faces sorted by
    factor (ascending for lb, descending for ub), in face order
    (comonotonic) and reversed (countermonotonic).  Each theta is valued
    as sum_ij theta_ij f_j (w_j - w_i), the form ``EwacObjective.ewac``
    sums.  It equals constant - sum_ij coeff_ij theta_ij where theta's
    columns sum to e_b; the float fair die sums to 1 - 2^-54, so the
    independence coupling misses that by 2^-54 * constant (5.8e-15 on
    builtin:1 at eta 0, where this form gives 0)."""
    from casino_ewac import canonical_model

    model = canonical_model(eta)
    q_fair, q_biased = map(Fraction, model.transition[0].tolist())
    e_fair, e_biased = ([Fraction(x) for x in row]
                        for row in model.emission.tolist())
    w = [Fraction(x) for x in model.rewards.tolist()]
    k = len(w)
    counts = np.bincount(np.asarray(obs) - 1, minlength=k).tolist()
    mass = [n * q_biased * b / (q_fair * f + q_biased * b)
            for n, f, b in zip(counts, e_fair, e_biased)]
    factor = [m / b for m, b in zip(mass, e_biased)]

    def ewac(theta):
        return sum(theta[i, j] * factor[j] * (w[j] - w[i])
                   for i in range(k) for j in range(k))

    def fill(order):
        theta = np.zeros((k, k), dtype=object)
        theta[:, order] = exact_fill(e_fair, [e_biased[j] for j in order])
        return theta

    order = sorted(range(k), key=factor.__getitem__)
    return {"lb": ewac(fill(order)), "ub": ewac(fill(order[::-1])),
            "ewac_independence": ewac(np.outer(e_fair, e_biased)),
            "ewac_comonotonic": ewac(fill(list(range(k)))),
            "ewac_countermonotonic": ewac(fill(list(range(k))[::-1]))}


def round12(value):
    """A rational rounded once to the 12 significant digits the CLI
    prints, as the float the printed text reads back as."""
    with localcontext() as ctx:
        ctx.prec = 60
        decimal = Decimal(value.numerator) / Decimal(value.denominator)
        return float(f"{decimal:.12g}")


def path_objective(model, obs):
    """``engine._path_objective`` of the faces ``obs`` in 1..K, with their
    counts by ``np.bincount``."""
    o = as_symbol_indices(model, obs)
    counts = np.bincount(o, minlength=model.num_symbols)
    return _path_objective(model, o, counts)


def biased_winnings(objective):
    """sum_j m_j w_j, the observed winnings of the biased periods, from the
    objective's per-face biased masses m_j = factor_j * e_b[j]."""
    return float(objective.factor * objective.col_marginals
                 @ objective.rewards)


def closed_form_extremes(model, obs, delta):
    """(min, max) of the EWAC coefficient form over the unmasked polytope.

    The coefficients are rank one, w_i * f_j with w increasing, so the
    maximum is the comonotone coupling (north-west corner with the biased
    faces sorted by f ascending) and the minimum the antitone one (sorted
    descending).  ``ub - lb`` of the sharp bounds equals max - min.
    """
    o = np.asarray(obs, dtype=int) - 1
    k = model.num_symbols
    w = model.rewards
    e_fair, e_biased = model.emission
    mass = np.bincount(o, weights=np.asarray(delta)[:, 1], minlength=k)
    f = np.divide(mass, e_biased, out=np.zeros(k), where=e_biased > 0)
    order = np.argsort(f, kind="stable")
    extremes = []
    for cols in (order[::-1], order):
        theta = north_west_corner(e_fair, e_biased[cols])
        extremes.append(float(w @ theta @ f[cols]))
    return tuple(extremes)


def dense_filter(model, obs):
    """Filtered state probabilities, one normalised row per period, by
    one numpy matrix product per period."""
    o = np.asarray(obs, dtype=int) - 1
    like = model.emission[:, o]
    alpha = np.empty((o.size, 2))
    a = model.initial * like[:, 0]
    alpha[0] = a / a.sum()
    for t in range(1, o.size):
        a = (alpha[t - 1] @ model.transition) * like[:, t]
        alpha[t] = a / a.sum()
    return alpha


def dense_smooth(model, obs):
    """Forward-backward smoothing with one numpy matrix product per period.

    The straightforward vector form of the recursion (per-step renormalised
    filter, rescaled backward messages), independent of the library's
    scalar loops; its cost is O(T) numpy calls, so it suits T in the
    thousands, where path enumeration is out of reach.
    """
    o = np.asarray(obs, dtype=int) - 1
    like = model.emission[:, o]
    Q = model.transition
    T = o.size
    alpha = dense_filter(model, obs)
    delta = np.empty((T, 2))
    delta[T - 1] = alpha[T - 1]
    b = np.ones(2)
    for t in range(T - 2, -1, -1):
        b = Q @ (like[:, t + 1] * b)
        b /= b.sum()
        d = alpha[t] * b
        delta[t] = d / d.sum()
    return delta


def sticky_model():
    """Canonical dice on a chain whose transition rows differ, so the
    posterior couples neighbouring periods."""
    from casino_ewac import HmmModel

    return HmmModel([0.6, 0.4], [[0.8, 0.2], [0.3, 0.7]],
                    [np.full(6, 1 / 6), np.arange(1, 7) / 21], np.arange(1, 7))


def digit_rows(*rows):
    """Integer array from strings of digits, one string per row."""
    return np.array([[int(c) for c in row] for row in rows])


def loop_backward_sample(model, alpha, count, rng):
    """Posterior hidden paths, drawn backwards one period at a time.

    ``alpha`` holds the filtered probabilities, one row per period.  Period
    t is biased when its uniform reaches P(fair at t | successor's state,
    obs up to t); an unreachable successor gets the threshold 1.0.
    """
    T = alpha.shape[0]
    Q = model.transition
    u = rng.random((count, T))
    w_fair = alpha[:, 0, None] * Q[0]
    total = w_fair + alpha[:, 1, None] * Q[1]
    thresholds = np.divide(w_fair, total, out=np.ones_like(total),
                           where=total > 0)
    states = np.empty((count, T), dtype=np.int64)
    states[:, T - 1] = u[:, T - 1] >= alpha[T - 1, 0]
    for t in range(T - 2, -1, -1):
        states[:, t] = u[:, t] >= thresholds[t][states[:, t + 1]]
    return states


def loop_simulate(model, horizon, seed):
    """``hmm.simulate`` one period at a time: period t is biased when its
    state uniform reaches the previous state's stay-fair probability
    (``initial[0]`` for period 1), then each state's faces are read off
    the emission CDF."""
    rng = np.random.default_rng(seed)
    u = rng.random((horizon, 2))
    stay_fair = model.transition[:, 0].tolist()
    states = np.empty(horizon, dtype=np.int64)
    threshold = model.initial[0].item()
    for t, x in enumerate(u[:, 0].tolist()):
        states[t] = prev = int(x >= threshold)
        threshold = stay_fair[prev]
    cdf = np.cumsum(model.emission, axis=1)
    cdf[:, -1] = 1.0
    obs = np.empty(horizon, dtype=np.int64)
    for h in (0, 1):
        mask = states == h
        obs[mask] = np.searchsorted(cdf[h], u[mask, 1], side="right") + 1
    return states, obs


def loop_parse_path(spec):
    """The observation path of a string ``spec`` (faces, or ``@file``) by
    one Python string per token: newlines of a file and commas separate,
    spaces are dropped and empty tokens skipped; a token that is not a
    64-bit integer raises a ValueError naming its position."""
    source = "observation path"
    if spec.startswith("@"):
        source = f"observation path file {spec[1:]!r}"
        with open(spec[1:]) as fh:
            spec = fh.read().replace("\n", ",")
    tokens = [tok for tok in spec.replace(" ", "").split(",") if tok]
    try:
        return np.array(tokens, dtype=np.int64)
    except (ValueError, OverflowError):
        for position, tok in enumerate(tokens, 1):
            try:
                np.int64(tok)
            except (ValueError, OverflowError):
                raise ValueError(f"bad {source}: token {position} is "
                                 f"{tok[:20]!r}, not a 64-bit integer") from None
        raise


def attribute_csv(header, rows):
    """CSV text of sweep records: the header, then one line per record of
    its attributes named in the header, formatted by one ``%`` per block
    of 2^16 records.  A column is typed by its first value: integers print
    in full and floats with 12 significant digits."""
    text = [",".join(header) + "\n"]
    if rows:
        template = ",".join("%d" if type(getattr(rows[0], name)) is int
                            else "%.12g" for name in header) + "\n"
        for start in range(0, len(rows), 1 << 16):
            block = rows[start:start + (1 << 16)]
            text.append(template * len(block) % tuple(
                getattr(row, name) for row in block for name in header))
    return "".join(text)


def json_ready(obj):
    """``obj`` with numpy values as Python ones and every float rounded
    to the 12 significant digits the CLI prints, for ``json.dumps``."""
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, np.ndarray):
        return json_ready(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [json_ready(v) for v in obj]
    if isinstance(obj, dict):
        return {k: json_ready(v) for k, v in obj.items()}
    return obj


def loop_bounds_report(objective, model, mask=None):
    """(plain bounds, report): lb/ub, lb_cs/ub_cs (None without a cs
    ``mask``), lb_inhom/ub_inhom at the greedy stacks and ewac_<kind> at
    the three couplings, the independence value from the objective's sum:
    two ``ewac_bounds`` calls and one ``ewac`` per table."""
    from casino_ewac.engine import _copulas, _greedy_stacks, ewac_bounds

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


def template_csv(header, columns):
    """CSV text with one ``%`` template per line, each column typed by its
    first value: integers in full, floats with 12 significant digits."""
    lines = [",".join(header)]
    template = ",".join("%d" if type(col[0]) is int else "%.12g"
                        for col in columns)
    lines += [template % row for row in zip(*columns)]
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=None)
def exact_binomial_cdf(n, p):
    """[P(Binomial(n, p) <= k) for k = 0 .. n - 1] in exact rationals, p
    the exact value of the float, each term from ``math.comb``."""
    p = Fraction(p)
    return list(itertools.accumulate(
        math.comb(n, k) * p ** k * (1 - p) ** (n - k) for k in range(n)))


def _binomial(rng, n, p, inverted):
    """One Binomial(n, p) draw: with ``inverted``, the number of exact CDF
    values that one uniform reaches; otherwise numpy's sampler."""
    if not inverted:
        return int(rng.binomial(n, p))
    u = Fraction(rng.random())
    return bisect.bisect_right(exact_binomial_cdf(n, p), u)


def _redraw(rng, counts, theta, rewards):
    """Losses from biased counts, one scalar draw at a time: for each face
    j, each nonzero cell i of its theta column in order, each sample, the
    periods left after the earlier cells give Binomial(left, theta_ij /
    r_i) to cell i, r_i the column's sum from cell i on; the last cell
    takes the rest, with no draw.  Cell i adds w_j - w_i per period.  A
    face whose largest count is at most the library's table cap draws by
    inverting one uniform each, any other face by numpy's sampler."""
    theta = np.maximum(np.asarray(theta, dtype=float), 0.0)
    count, k = counts.shape
    wac = [0.0] * count
    for j in range(k):
        cells = [i for i in range(k) if theta[i, j] > 0]
        left = [int(b) for b in counts[:, j]]
        inverted = max(left) <= _TABLE_N
        for n, i in enumerate(cells):
            loss = float(rewards[j] - rewards[i])
            if n == len(cells) - 1:
                drawn = left
            else:
                rest = 0.0
                for later in reversed(cells[n:]):
                    rest += float(theta[later, j])
                share = float(theta[i, j]) / rest
                drawn = [_binomial(rng, m, share, inverted) for m in left]
            for s in range(count):
                wac[s] += drawn[s] * loss
                left[s] -= drawn[s]
    return np.array(wac)


def loop_count_sample_wac(model, alpha, obs, theta, count, seed):
    """(wac, biased_counts) from the per-period path loop, reduced to
    biased counts one face at a time, then redrawn by ``_redraw``.

    Given b_j biased periods on face j, the fair faces redrawn there are
    M_.j ~ Multinomial(b_j, theta_.j / c_j), and each adds w_j - w_i; the
    chain of conditional binomials draws that law cell by cell.
    """
    o = np.asarray(obs, dtype=np.int64) - 1
    rng = np.random.default_rng(seed)
    hidden = loop_backward_sample(model, alpha, count, rng)
    k = model.num_symbols
    counts = np.zeros((count, k), dtype=np.int64)
    for j in range(k):
        counts[:, j] = hidden[:, o == j].sum(axis=1)
    return _redraw(rng, counts, theta, model.rewards), counts


def is_iid(model):
    return np.array_equal(model.transition[0], model.transition[1])


def bayes(prior, model, face):
    """(P(fair | face), P(biased | face)) of one period with state
    distribution ``prior``, by Bayes' rule in the library's float
    operations; (0, 0) for a face both states rule out."""
    fair = float(prior[0]) * float(model.emission[0, face])
    biased = float(prior[1]) * float(model.emission[1, face])
    total = fair + biased
    return (fair / total, biased / total) if total > 0 else (0.0, 0.0)


def _iid_periods(model, obs):
    """(p, o): P(biased | obs) of every period of an i.i.d. chain, period 1
    under the initial distribution and the rest under the transition row,
    and the 0-based faces."""
    assert is_iid(model)
    o = np.asarray(obs, dtype=np.int64) - 1
    p = [bayes(model.transition[0], model, j)[1] for j in o]
    p[0] = bayes(model.initial, model, o[0])[1]
    return np.array(p), o


def loop_iid_sample_wac(model, obs, theta, count, seed):
    """(wac, biased_counts) of an i.i.d. chain, one scalar draw at a time.

    The order of draws: for each face j, for each sample, the biased count
    among the n_j periods after the first that show face j, a
    Binomial(n_j, p_j), by inversion when the largest n_j is at most the
    library's counts cap; then one uniform per sample for period 1, biased
    when it reaches P(fair | o_1) under the initial distribution; then the
    per-face redraws of ``_redraw``.
    """
    o = np.asarray(obs, dtype=np.int64) - 1
    k = model.num_symbols
    n = [0] * k
    for face in o[1:]:
        n[face] += 1
    rng = np.random.default_rng(seed)
    counts = np.zeros((count, k), dtype=np.int64)
    inverted = max(n) <= _COUNTS_N
    for j in range(k):
        p_j = bayes(model.transition[0], model, j)[1]
        for s in range(count):
            counts[s, j] = _binomial(rng, n[j], p_j, inverted)
    fair_first = bayes(model.initial, model, o[0])[0]
    for s in range(count):
        counts[s, o[0]] += rng.random() >= fair_first
    return _redraw(rng, counts, theta, model.rewards), counts


def _column_losses(model, theta, j):
    """(losses, probabilities) of w_j - X, X drawn from theta column j."""
    theta = np.asarray(theta, dtype=float)
    return model.rewards[j] - model.rewards, theta[:, j] / theta[:, j].sum()


def iid_wac_moments(model, obs, theta):
    """Exact mean and variance of the loss when the hidden chain is i.i.d.

    Period t is biased with probability p_t, independently (period 1
    under the initial distribution, the rest under the transition row),
    and then loses w_j - X, X drawn from theta column j of its face j;
    with m_j and v_j the mean and variance of w_j - X, the period adds
    p_t m_j to the mean and p_t v_j + p_t (1 - p_t) m_j^2 to the variance.
    """
    p, o = _iid_periods(model, obs)
    mean = variance = 0.0
    for p_t, j in zip(p, o):
        if p_t == 0:
            continue
        loss, x = _column_losses(model, theta, j)
        m = float(x @ loss)
        v = float(x @ (loss - m) ** 2)
        mean += p_t * m
        variance += p_t * v + p_t * (1 - p_t) * m ** 2
    return mean, variance


def iid_wac_pmf(model, obs, theta):
    """Exact distribution of the loss of an i.i.d. chain with integer
    payoffs: the convolution of the per-period loss distributions.

    Returns (support, pmf): consecutive integers and their probabilities.
    """
    p, o = _iid_periods(model, obs)
    w = model.rewards
    assert np.array_equal(w, np.round(w))
    span = int(w.max() - w.min())
    low = 0  # the loss that pmf[0] stands for
    pmf = np.ones(1)
    for p_t, j in zip(p, o):
        loss, x = _column_losses(model, theta, j)
        period = np.zeros(2 * span + 1)  # losses -span .. span
        np.add.at(period, loss.astype(int) + span, p_t * x)
        period[span] += 1.0 - p_t
        pmf = np.convolve(pmf, period)
        low -= span
    return np.arange(low, low + pmf.size), pmf


def sampling_cases():
    """(name, model, obs, count) inputs for the sampler-versus-oracle tests.

    Random models with K = 2..7, the sticky chain, the degenerate eta 0
    and 1 (unreachable successors), a single period with a single sample,
    S*T just above 2^20, so the library's draws span two row blocks, the
    canonical chain at eta 0.5, and random i.i.d. chains with K = 2..7 and
    a first period of their own.
    """
    from casino_ewac import PATH_1, canonical_model, simulate

    rng = np.random.default_rng(2718)
    cases = []
    for k in range(2, 8):
        for horizon in (1, int(rng.integers(2, 40)), int(rng.integers(40, 301))):
            model = random_small_model(rng, k)
            obs = rng.integers(1, k + 1, size=horizon)
            cases.append((f"random-k{k}-t{horizon}", model, obs,
                          int(rng.integers(1, 41))))
    sticky = sticky_model()
    cases.append(("sticky", sticky, simulate(sticky, 300, seed=4)[1], 64))
    cases.append(("eta0", canonical_model(0.0), [2, 5, 6, 1, 1, 3], 16))
    cases.append(("eta1", canonical_model(1.0), [2, 5, 6, 1, 1, 3], 16))
    cases.append(("t1-count1", sticky, [6], 1))
    cases.append(("two-row-blocks", sticky, simulate(sticky, 1000, seed=8)[1],
                  1049))
    cases.append(("eta-half", canonical_model(0.5), PATH_1, 40))
    rng = np.random.default_rng(1618)
    for k in range(2, 8):
        model = random_iid_model(rng, k)
        horizon = int(rng.integers(1, 301))
        cases.append((f"iid-first-k{k}-t{horizon}", model,
                      rng.integers(1, k + 1, size=horizon),
                      int(rng.integers(1, 41))))
    return cases
