"""Two-state hidden Markov model of a casino that may swap in a biased die.

State 0 is the fair die, state 1 the biased one.  Die faces are 1..K in the
public API; arrays indexed by face use 0-based positions internally.  All
smoothing is done with per-step renormalised forward and backward passes, so
horizons up to about a million periods are fine in double precision.

The recursions over periods run on Python floats, one scalar per state,
reading emissions from per-face tuples and writing results through float64
memoryviews.  With only two states, numpy's fixed cost per call (about a
microsecond) dominates the arithmetic on 2-element vectors, so the scalar
loop is several times faster while doing the same operations in the same
order.  Posterior path sampling stays vectorised across samples.
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


def canonical_model(eta):
    """Standard casino instance at fairness level ``eta``.

    The chain stays fair with probability eta regardless of the current
    state (so the initial distribution is (eta, 1 - eta) as well), the fair
    die is uniform on six faces, the biased die rolls face i with
    probability i/21, and face i pays i.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    row = np.array([eta, 1.0 - eta])
    fair = np.full(6, 1.0 / 6.0)
    biased = np.arange(1, 7) / 21.0
    return HmmModel(row, np.vstack([row, row]), np.vstack([fair, biased]),
                    np.arange(1, 7, dtype=float))


def as_symbol_indices(model, obs):
    """Validate a face sequence and convert it to 0-based indices."""
    o = np.asarray(obs)
    if o.ndim != 1 or o.size == 0:
        raise ValueError("observation path must be a non-empty 1-d sequence")
    if not np.issubdtype(o.dtype, np.integer):
        cast = o.astype(int)
        if np.any(cast != o):
            raise ValueError("observation path must contain integers")
        o = cast
    k = model.num_symbols
    bad = np.nonzero((o < 1) | (o > k))[0]
    if bad.size:
        t = int(bad[0])
        raise ValueError(
            f"observation at position {t + 1} is {o[t]}, expected a face in 1..{k}")
    return o.astype(np.int64) - 1


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
    # Each smoothed row overwrites its filtered row once the loop has read it.
    delta = _forward_filter(model, o)
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


def _backward_sample(model, alpha, count, rng):
    """Draw hidden paths from the posterior, vectorised across samples."""
    T = alpha.shape[0]
    Q = model.transition
    u = rng.random((count, T))
    # thresholds[t, k] = P(fair at t | state k at t + 1, obs up to t); an
    # unreachable k gets 1.0 in place of 0/0 (both send u < 1 to FAIR).
    w_fair = alpha[:, FAIR, None] * Q[FAIR]
    total = w_fair + alpha[:, BIASED, None] * Q[BIASED]
    thresholds = np.divide(w_fair, total, out=np.ones_like(total),
                           where=total > 0)
    states = np.empty((count, T), dtype=np.int64)
    states[:, T - 1] = u[:, T - 1] >= alpha[T - 1, FAIR]
    for t in range(T - 2, -1, -1):
        states[:, t] = u[:, t] >= thresholds[t][states[:, t + 1]]
    return states


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
    return _backward_sample(model, alpha, count, rng)


def simulate(model, horizon, seed):
    """Roll the model forward for ``horizon`` periods.

    Returns:
        (states, obs): length-``horizon`` arrays of hidden states (FAIR or
        BIASED) and observed faces in 1..K.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    rng = np.random.default_rng(seed)
    # One (state, observation) uniform pair per period, so a longer run
    # extends a shorter one with the same seed period by period.
    u = rng.random((horizon, 2))
    u_state, u_obs = u[:, 0], u[:, 1]

    # Two states, so each transition reduces to one threshold test.
    stay_fair = model.transition[:, FAIR].tolist()
    states = np.empty(horizon, dtype=np.int64)
    out = states.data
    threshold = model.initial[FAIR].item()
    for t, x in enumerate(u_state.tolist()):
        out[t] = prev = int(x >= threshold)
        threshold = stay_fair[prev]

    cdf = np.cumsum(model.emission, axis=1)
    cdf[:, -1] = 1.0
    obs = np.empty(horizon, dtype=np.int64)
    for h in (FAIR, BIASED):
        mask = states == h
        obs[mask] = np.searchsorted(cdf[h], u_obs[mask], side="right") + 1
    return states, obs
