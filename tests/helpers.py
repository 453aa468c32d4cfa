"""Independent oracles and fixtures used across the test modules.

Nothing here calls the library's recursions or the simplex: smoothing and
the cheating expectation are recomputed by exhaustive enumeration over
hidden paths or by the vector form of the forward-backward recursion,
small transport optima by enumerating basic solutions, and the unmasked
EWAC extremes by the closed-form north-west-corner couplings.
"""

import itertools

import numpy as np


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
    alpha = np.empty((T, 2))
    a = model.initial * like[:, 0]
    alpha[0] = a / a.sum()
    for t in range(1, T):
        a = (alpha[t - 1] @ Q) * like[:, t]
        alpha[t] = a / a.sum()
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
