"""Two-state hidden Markov model of a casino that may swap in a biased die.

State 0 is the fair die, state 1 the biased one.  Die faces are 1..K in the
public API; paths of 0-based faces, int64 or one byte each (uint8) as the
command line parses them, are used internally.  With equal transition rows
(the canonical casino) the hidden states are independent and each period's
posterior is Bayes' rule on its own face, so the smoothed table is K + 1
distinct rows (one per face, and period 1's) gathered by an index per
period, and the face counts tell whether the path is possible.  Other
chains are smoothed by per-step renormalised forward and backward passes,
fine for horizons up to about a million periods in double precision.  They
run on Python floats, one scalar per state, through float64 memoryviews:
with two states, numpy's fixed cost per call (about a microsecond)
outweighs the arithmetic.

Simulation and posterior path sampling have no loop over periods.  Each
backward step of the sampler maps the successor's state to the current
one by "keep", "flip" or a constant, so with two states composing the
steps is a segmented XOR scan (the two-state case of the prefix-scan view
of Särkkä and García-Fernández, "Temporal parallelization of Bayesian
smoothers", IEEE TAC 2021); ``simulate`` runs the same scan forwards.
Numpy runs it as a few accumulations over whole row blocks of samples and
draws the same uniforms as the per-period recursion, so the paths are
identical to it.  The sampler yields one row block at a time, so a caller
that reduces each block (the loss sampler keeps per-face biased counts)
never holds all S x T states at once.
"""

import numpy as np

FAIR = 0
BIASED = 1

_ROW_SUM_TOL = 1e-12

__all__ = [
    "FAIR",
    "BIASED",
    "HmmModel",
    "ZeroLikelihoodError",
    "canonical_model",
    "smooth",
    "sample_hidden_paths",
    "simulate",
]


class ZeroLikelihoodError(ValueError):
    """The observation sequence has probability zero under the model."""


def _frozen_array(values, shape, name):
    arr = np.array(values, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite and non-negative")
    arr.setflags(write=False)
    return arr


class HmmModel:
    """Primitives of the two-state casino chain plus the payoff vector.

    Attributes:
        initial: length-2 distribution of the first hidden state (fair, biased).
        transition: 2x2 row-stochastic transition matrix.
        emission: 2xK row-stochastic emission matrix; row 0 is the fair die.
        rewards: length-K payoff per die face, strictly increasing.

    Arrays are copied and marked read-only, so instances are safe to share.
    """

    def __init__(self, initial, transition, emission, rewards):
        emission = np.array(emission, dtype=float)
        if emission.ndim != 2 or emission.shape[0] != 2 or emission.shape[1] < 1:
            raise ValueError(f"emission must have shape (2, K), got {emission.shape}")
        k = emission.shape[1]

        self.initial = _frozen_array(initial, (2,), "initial")
        self.transition = _frozen_array(transition, (2, 2), "transition")
        self.emission = _frozen_array(emission, (2, k), "emission")

        rewards = np.array(rewards, dtype=float)
        if rewards.shape != (k,):
            raise ValueError(f"rewards must have shape ({k},), got {rewards.shape}")
        if not np.all(np.isfinite(rewards)):
            raise ValueError("rewards must be finite")
        if not np.all(np.diff(rewards) > 0):
            raise ValueError("rewards must be strictly increasing")
        rewards.setflags(write=False)
        self.rewards = rewards

        for name, arr in (("initial", self.initial[None, :]),
                          ("transition", self.transition),
                          ("emission", self.emission)):
            err = np.abs(arr.sum(axis=1) - 1.0).max()
            if err > _ROW_SUM_TOL:
                raise ValueError(f"rows of {name} must sum to 1 (off by {err:.3e})")

    @property
    def num_symbols(self):
        return self.emission.shape[1]

    def __repr__(self):
        return (f"HmmModel(initial={self.initial.tolist()}, "
                f"K={self.num_symbols})")


# The canonical dice and payoffs, checked once and shared read-only.
_CANONICAL_DICE = dict(
    emission=_frozen_array([[1 / 6] * 6, np.arange(1, 7) / 21], (2, 6),
                           "emission"),
    rewards=_frozen_array(range(1, 7), (6,), "rewards"))


def canonical_model(eta):
    """Standard casino instance at fairness level ``eta``.

    The chain stays fair with probability eta regardless of the current
    state (so the initial distribution is (eta, 1 - eta) as well), the fair
    die is uniform on six faces, the biased die rolls face i with
    probability i/21, and face i pays i.  Only eta and its row are checked.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    row = _frozen_array([eta, 1.0 - eta], (2,), "initial")
    model = HmmModel.__new__(HmmModel)
    model.__dict__.update(_CANONICAL_DICE, initial=row, transition=(
        _frozen_array([row, row], (2, 2), "transition")))
    return model


def as_symbol_indices(model, obs):
    """Validate a face sequence and convert it to 0-based indices."""
    return _symbol_indices(model, obs, in_place=False)


def _symbol_indices(model, obs, in_place):
    """as_symbol_indices, in place on an integer ``obs`` if ``in_place``,
    where uint8 faces stay uint8; checked by the least and greatest face."""
    o = np.asarray(obs)
    if o.ndim != 1 or o.size == 0:
        raise ValueError("observation path must be a non-empty 1-d sequence")
    if not np.issubdtype(o.dtype, np.integer):
        cast = o.astype(int)
        if np.any(cast != o):
            raise ValueError("observation path must contain integers")
        o = cast
    k = model.num_symbols
    if o.min() < 1 or o.max() > k:
        t = int(np.flatnonzero((o < 1) | (o > k))[0])
        raise ValueError(
            f"observation at position {t + 1} is {o[t]}, expected a face in 1..{k}")
    if not (in_place and o.dtype == np.uint8):
        o = o.astype(np.int64, copy=False)
    return np.subtract(o, 1, out=o if in_place else None)


def _face_counts(o, k):
    """``np.bincount(o, minlength=k)`` of the 0-based faces ``o``: uint8
    faces of K <= 8 by a pass per face, faster than bincount's widening."""
    if o.dtype == np.uint8 and k <= 8:
        return np.array([np.count_nonzero(o == j) for j in range(k)])
    return np.bincount(o, minlength=k)


def _forward_filter(model, o):
    """Filtered state probabilities, one renormalised row per period."""
    e_fair, e_biased = model.emission.tolist()
    (q00, q01), (q10, q11) = model.transition.tolist()
    alpha = np.empty((o.size, 2))
    out_fair, out_biased = alpha[:, FAIR].data, alpha[:, BIASED].data
    p0, p1 = model.initial.tolist()  # state distribution before period t
    for t, j in enumerate(o.data):
        a0, a1 = p0 * e_fair[j], p1 * e_biased[j]
        s = a0 + a1
        if s <= 0.0:
            raise ZeroLikelihoodError(
                "observation at position 1 has zero probability under both "
                "states" if t == 0 else
                f"observation prefix of length {t + 1} has zero probability")
        out_fair[t] = f = a0 / s
        out_biased[t] = b = a1 / s
        p0, p1 = f * q00 + b * q10, f * q01 + b * q11
    return alpha


def _face_posteriors(prior, emission):
    """P(state | face), (..., K, 2), of a period whose state has the law
    ``prior`` (..., 2), by the forward filter's first step; zero on faces
    both states rule out."""
    joint = prior[..., None, :] * emission.T
    total = joint.sum(axis=-1, keepdims=True)
    return np.divide(joint, total, out=np.zeros_like(joint), where=total > 0)


def _iid_posteriors(model, o, counts):
    """With equal transition rows, (P(state | face) under the row, (K, 2),
    for periods 2..T, period 1's posterior under ``initial``); else None.
    A face both states rule out, seen by its ``counts``, raises the
    filter's ZeroLikelihoodError; only then is the path scanned."""
    row = model.transition[FAIR]
    if not np.array_equal(row, model.transition[BIASED]):
        return None
    table, start = _face_posteriors(np.stack([row, model.initial]),
                                    model.emission)
    dead = ~table.any(axis=1)
    later = counts - (np.arange(dead.size) == o[0])  # periods 2..T
    if not start[o[0]].any() or later[dead].any():
        dead = dead[o]
        dead[0] = not start[o[0]].any()
        # The filter of the prefix ending there raises the same error.
        _forward_filter(model, o[:dead.argmax() + 1])
    return table, start[o[0]]


def _smooth_filtered(model, o, delta):
    """Smooths the filtered rows ``delta`` in place and returns them."""
    e_fair, e_biased = model.emission.tolist()
    (q00, q01), (q10, q11) = model.transition.tolist()
    d_fair, d_biased = delta[:, FAIR].data, delta[:, BIASED].data
    b0 = b1 = 1.0
    for t, j, f, b in zip(range(o.size - 2, -1, -1), o.data[:0:-1],
                          d_fair[-2::-1], d_biased[-2::-1]):
        x0, x1 = e_fair[j] * b0, e_biased[j] * b1
        b0, b1 = q00 * x0 + q01 * x1, q10 * x0 + q11 * x1
        s = b0 + b1  # rescale; posteriors below are renormalised anyway
        b0, b1 = b0 / s, b1 / s
        d0, d1 = f * b0, b * b1
        s = d0 + d1
        d_fair[t], d_biased[t] = d0 / s, d1 / s
    return delta


def _smoothed_rows(model, o, counts):
    """(rows, index) with rows[index] the smoothed (T, 2) table of the
    0-based faces ``o`` (which it may overwrite) and their ``counts``: the
    K per-face posteriors and period 1's (index K) with equal transition
    rows, else the T forward-backward rows."""
    iid = _iid_posteriors(model, o, counts)
    if iid is None:
        return (_smooth_filtered(model, o, _forward_filter(model, o)),
                np.arange(o.size))
    k = iid[0].shape[0]
    o = o if k < 256 else o.astype(np.int64, copy=False)  # so index K fits
    o[0] = k
    return np.vstack(iid), o


def smooth(model, obs):
    """Posterior state probabilities given the whole observation path.

    Args:
        model: the hidden Markov model.
        obs: sequence of faces in 1..K, length T.

    Returns:
        (T, 2) array whose row t is (P(fair at t | obs), P(biased at t | obs)).

    Raises:
        ZeroLikelihoodError: if the path is impossible under the model.
    """
    o = as_symbol_indices(model, obs)
    rows, index = _smoothed_rows(model, o, _face_counts(o, model.num_symbols))
    return rows[index]


# Sample-periods per row block of path sampling, so the temporaries stay
# at a few tens of MB whatever S and T are.
_BLOCK_SAMPLE_PERIODS = 1 << 20


def _backward_sample(model, alpha, count, rng):
    """Yield hidden paths from the posterior, one boolean row block
    (True = biased) at a time.

    With thr[t, k] = P(fair at t | state k at t + 1, obs up to t), period t
    is biased iff u_t >= thr[t, s_{t+1}].  Let g_t = [u_t >= thr[t, FAIR]]
    and d_t = [u_t >= thr[t, BIASED]] != g_t; then s_t = g_t XOR (d_t AND
    s_{t+1}), so s_t = P(t) XOR P(a(t) + 1), where P is the suffix XOR of
    g with P(T) = 0 and a(t) is the first period >= t where d is false.
    The last row of thr holds alpha[T - 1, FAIR] for both successors, so d
    is false there and a(t) always exists.  The uniforms are the (count, T)
    row-major draws of the per-period recursion, in the same order.
    """
    T = alpha.shape[0]
    Q = model.transition
    # An unreachable successor gets 1.0 in place of 0/0 (both send u < 1
    # to FAIR).
    w_fair = alpha[:, FAIR, None] * Q[FAIR]
    total = w_fair + alpha[:, BIASED, None] * Q[BIASED]
    thr = np.divide(w_fair, total, out=np.ones_like(total), where=total > 0)
    thr[T - 1] = alpha[T - 1, FAIR]
    del w_fair, total  # the generator's frame outlives each yield
    after = np.arange(1, T + 1)  # intp, so take() below copies no index
    block = max(1, _BLOCK_SAMPLE_PERIODS // T)
    for start in range(0, count, block):
        u = rng.random((min(block, count - start), T))
        g = u >= thr[:, FAIR]
        d = (u >= thr[:, BIASED]) != g
        del u
        # suffix[:, t] = P(t); the extra last column is P(T) = 0.
        suffix = np.zeros((g.shape[0], T + 1), dtype=bool)
        np.bitwise_xor.accumulate(g[:, ::-1], axis=1,
                                  out=suffix[:, T - 1::-1])
        # a(t) + 1 is the suffix minimum of k + 1, pushed past T where d_k.
        stop = np.multiply(d, T, dtype=after.dtype)
        stop += after
        np.minimum.accumulate(stop[:, ::-1], axis=1, out=stop[:, ::-1])
        # Offsets of the rows in the flattened suffix table.
        stop += np.arange(0, suffix.size, T + 1)[:, None]
        states = suffix[:, :T] ^ suffix.ravel().take(stop)
        del g, d, suffix, stop  # free the scan before the caller's turn
        yield states


def sample_hidden_paths(model, obs, count, seed):
    """Sample hidden state paths from the exact posterior given ``obs``.

    Forward filtering happens once; each path is then drawn backwards from
    the filtered distributions.  Returns a (count, T) integer array with
    entries FAIR or BIASED.  Deterministic for a fixed seed.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    o = as_symbol_indices(model, obs)
    alpha = _forward_filter(model, o)
    rng = np.random.default_rng(seed)
    return np.vstack(list(_backward_sample(model, alpha, count, rng)),
                     dtype=np.int64)


# Periods per block of simulation, so its temporaries stay at a few MB
# whatever the horizon.
_SIMULATE_BLOCK = 1 << 16


def _simulated_blocks(model, horizon, seed):
    """Yield ``simulate``'s (boolean states, 0-based faces) in blocks of
    2^16 periods; each block's scan starts from the last state before it."""
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(model.emission, axis=1)
    cdf[:, -1] = 1.0
    width = 1 << (cdf.shape[1] - 1).bit_length()  # state h's row at h * width
    cdf = np.hstack([cdf, np.full((2, width - cdf.shape[1]), np.inf)]).ravel()
    last = None
    for start in range(0, horizon, _SIMULATE_BLOCK):
        # One (state, observation) uniform pair per period, so a longer run
        # extends a shorter one with the same seed period by period.
        u = rng.random((min(_SIMULATE_BLOCK, horizon - start), 2))
        u_state, u_obs = u[:, 0], u[:, 1]
        # s_t = g_t XOR (d_t AND s_{t-1}) = C(t) XOR C(a(t) - 1), with C the
        # prefix XOR of g and a(t) the last t' <= t with t' = 0 or d false;
        # g_0 takes in the state before the block.
        g = u_state >= model.transition[FAIR, FAIR]
        d = (u_state >= model.transition[BIASED, FAIR]) != g
        g[0] = (u_state[0] >= model.initial[FAIR] if last is None
                else g[0] ^ (d[0] & last))
        states = g  # d false after period 0: an i.i.d. chain, s_t = g_t
        if d[1:].any():
            prefix = np.zeros(u.shape[0] + 1, dtype=bool)  # [t + 1] = C(t)
            np.bitwise_xor.accumulate(g, out=prefix[1:])
            run = np.maximum.accumulate(np.where(d, 0, np.arange(d.size)))
            states = prefix[1:] ^ prefix[run]
        # searchsorted(state's CDF row, u, side="right") by bisection
        faces = states * width
        for step in (width >> np.arange(1, width.bit_length())).tolist():
            faces += (cdf[step - 1:][faces] <= u_obs) * step
        faces -= states * width
        last = states[-1]
        yield states, faces


def simulate(model, horizon, seed):
    """Roll the model forward for ``horizon`` periods, with no loop over
    periods: the states are the forward twin of ``_backward_sample``'s
    scan over the uniforms of the per-period recursion, which they equal,
    run in blocks of 2^16 periods.

    Returns:
        (states, obs): length-``horizon`` arrays of hidden states (FAIR or
        BIASED) and observed faces in 1..K.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    states = np.empty(horizon, dtype=np.int64)
    obs = np.empty(horizon, dtype=np.int64)
    done = 0
    for block, faces in _simulated_blocks(model, horizon, seed):
        states[done:done + faces.size] = block
        np.add(faces, 1, out=obs[done:done + faces.size])
        done += faces.size
    return states, obs
