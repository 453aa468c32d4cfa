"""Monte-Carlo draws of the cheating loss and parameter-sweep drivers.

Everything here is deterministic given its seed.  Sweeps over the fairness
level consume no randomness at all; the horizon sweep simulates one long
path and analyses each truncation from its face counts, which suffice for
the canonical casino's i.i.d. hidden states.
"""

from dataclasses import dataclass, fields

import numpy as np

from casino_ewac.engine import (_bounds_report, _copulas, _face_objective,
                                _greedy_stacks, _independence,
                                _path_objective, cs_mask, ewac_bounds,
                                naive_ewac, validate_joint_pmf)
from casino_ewac.hmm import (BIASED, _backward_sample, _face_posteriors,
                             _forward_filter, _iid_posteriors,
                             as_symbol_indices, canonical_model, simulate)

__all__ = [
    "WacSamples",
    "SweepRow",
    "ETA_SWEEP_COLUMNS",
    "HORIZON_SWEEP_COLUMNS",
    "sample_wac",
    "eta_sweep",
    "horizon_sweep",
    "default_eta_grid",
    "default_horizon_grid",
]

_BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class WacSamples:
    """Posterior draws of the winnings attributable to cheating.

    Attributes:
        wac: (S,) sampled losses, observed minus counterfactual winnings.
        biased_counts: (S, K) int64; entry (s, j) counts the periods that
            sample s put in the biased state while face j + 1 showed.
    """

    wac: np.ndarray
    biased_counts: np.ndarray


@dataclass(frozen=True)
class SweepRow:
    """One grid point of a sweep; fields not computed stay None.

    ``eta`` is set by fairness sweeps and ``horizon`` by horizon sweeps,
    where lb, ub and naive hold per-period (divided by T) values.
    """

    eta: float | None = None
    horizon: int | None = None
    lb: float | None = None
    ub: float | None = None
    lb_cs: float | None = None
    ub_cs: float | None = None
    lb_inhom: float | None = None
    ub_inhom: float | None = None
    ewac_independence: float | None = None
    ewac_comonotonic: float | None = None
    ewac_countermonotonic: float | None = None
    naive: float | None = None

    def __post_init__(self):
        for lo, hi in (("lb", "ub"), ("lb_cs", "ub_cs"),
                       ("lb_inhom", "ub_inhom")):
            a, b = getattr(self, lo), getattr(self, hi)
            if a is not None and b is not None and a > b + _BOUND_SLACK:
                raise ValueError(f"{lo}={a!r} exceeds {hi}={b!r}")

    def as_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


ETA_SWEEP_COLUMNS = ("eta", "lb", "ub", "lb_cs", "ub_cs", "lb_inhom",
                     "ub_inhom", "ewac_independence", "ewac_comonotonic",
                     "ewac_countermonotonic", "naive")
HORIZON_SWEEP_COLUMNS = ("horizon", "lb", "ub", "naive")


def sample_wac(model, obs, theta, count, seed, *, filtered=None):
    """Draw the cheating-loss distribution induced by one joint PMF.

    Each draw samples the hidden states from the exact posterior.  A fair
    period's counterfactual roll is the observed one, and a biased period
    showing face j redraws its fair face X from the theta column of j, so
    it adds w_j - w_X to the loss.  The loss therefore depends on the
    states only through the number b_j of biased periods on each face j:

        WAC = sum_j sum_i M_ij (w_j - w_i),
        M_.j ~ Multinomial(b_j, theta_.j / c_j),

    with c_j the column sum, which has the same law as redrawing period by
    period.  With equal transition rows the states are independent: the
    draws are b_j ~ Binomial(n_j, p_j) for the n_j periods after the first
    that show face j, p_j their posterior biased probability, as one
    (S, K) row-major array, then S uniforms for period 1 (biased when one
    reaches its fair posterior).  Otherwise paths are drawn backwards from
    the forward filter (``filtered``, if the caller has it) in row blocks
    of about 2^20 sample-periods, each summed to (S_b, K) counts and
    dropped.  One multinomial per face with a non-empty column follows.
    Theta cells that the marginal check lets through slightly below zero
    count as zero.  No memory grows with S * T: besides the path, an
    i.i.d. chain needs O(S K), a Markov chain the filter's arrays and one
    row block's temporaries.

    Raises:
        ValueError: if ``count`` is below 1 or theta is not a joint PMF
            of the fair and biased dice.
        ZeroLikelihoodError: if the path is impossible under the model.
        ArithmeticError: if a sampled path is biased on a face whose theta
            column is all zero.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    o = as_symbol_indices(model, obs)
    theta = np.maximum(
        validate_joint_pmf(theta, model.emission[0], model.emission[1]), 0.0)
    rng = np.random.default_rng(seed)
    faces = np.arange(model.num_symbols)
    iid = _iid_posteriors(model, o)
    if iid is not None:
        counts = rng.binomial(np.bincount(o[1:], minlength=faces.size),
                              iid[0][:, 1], size=(count, faces.size))
        counts[:, o[0]] += rng.random(count) >= iid[1][0]
    else:
        alpha = _forward_filter(model, o) if filtered is None else filtered
        periods = [np.flatnonzero(o == j) for j in faces]
        counts = np.vstack([
            np.column_stack([block[:, at].sum(axis=1) for at in periods])
            for block in _backward_sample(model, alpha, count, rng)])

    col_sums = theta.sum(axis=0)
    hit = (col_sums <= 0) & counts.any(axis=0)
    if hit.any():
        # The posterior cannot put biased mass on a face the biased die
        # never rolls; reaching this line means the inputs disagree.
        raise ArithmeticError(
            f"sampled a biased state on face {faces[hit][0] + 1}, "
            "whose theta column is all zero")

    w = model.rewards
    wac = np.zeros(count)
    for j in faces[col_sums > 0]:
        redrawn = rng.multinomial(counts[:, j], theta[:, j] / col_sums[j])
        wac += redrawn @ (w[j] - w)
    return WacSamples(wac=wac, biased_counts=counts)


def default_eta_grid():
    """Fairness levels 0.01 .. 0.99 in steps of 0.01."""
    return np.arange(1, 100) / 100.0


def default_horizon_grid(t_min=10, t_max=100_000, points=25):
    """Geometrically spaced horizons, deduplicated after rounding."""
    if not 1 <= t_min <= t_max:
        raise ValueError("need 1 <= t_min <= t_max")
    if points < 1:
        raise ValueError(f"need points >= 1, got {points}")
    grid = np.geomspace(t_min, t_max, points)
    return np.unique(np.rint(grid).astype(np.int64))


def eta_sweep(obs, eta_grid=None):
    """Bounds and benchmarks across fairness levels of the canonical model.

    Every row holds the plain, cs-constrained and per-period relaxed
    bounds, the three benchmark couplings and the naive estimate, from the
    path's face counts and one (E, K) array of per-face posteriors.

    Args:
        obs: observation path, faces 1..6.
        eta_grid: fairness levels; defaults to ``default_eta_grid()``.

    Returns:
        list of SweepRow in grid order.

    Raises:
        ValueError: if the grid is empty or a level lies outside [0, 1].
    """
    eta_grid = np.asarray(default_eta_grid() if eta_grid is None else eta_grid,
                          dtype=float)
    if eta_grid.size == 0:
        raise ValueError("fairness grid must contain at least one level")
    # The extremes (a NaN among them) validate every level.
    model = canonical_model(eta_grid.min())
    canonical_model(eta_grid.max())
    counts = np.bincount(as_symbol_indices(model, obs),
                         minlength=model.num_symbols)
    priors = np.column_stack([eta_grid, 1.0 - eta_grid])
    posteriors = _face_posteriors(priors, model.emission)
    masses = counts * posteriors[..., BIASED]
    independence = _independence(model, counts, counts[:, None] * posteriors)
    copulas, stacks = _copulas(model), _greedy_stacks(*model.emission)
    mask = cs_mask(model.emission)
    naive = naive_ewac(model, obs)
    rows = []
    for eta, mass, value in zip(eta_grid.tolist(), masses,
                                independence.tolist()):
        _, report = _bounds_report(_face_objective(model, counts, mass, value),
                                   copulas, stacks, mask)
        rows.append(SweepRow(eta=eta, naive=naive, **report))
    return rows


def horizon_sweep(eta, t_grid=None, seed=0):
    """Per-period bounds along truncations of one simulated path.

    Simulates the canonical model at the largest horizon once, then for
    each grid value T analyses the face counts of the first T observations
    and reports lb/T, ub/T and naive/T.  The asymptotic per-period rate
    these approach is ``asymptotic_ewac_rate(canonical_model(eta))``.
    """
    if t_grid is None:
        t_grid = default_horizon_grid()
    t_grid = np.unique(np.asarray(t_grid, dtype=np.int64))
    if t_grid.size == 0 or t_grid[0] < 1:
        raise ValueError("horizon grid must contain positive integers")
    model = canonical_model(eta)
    _, obs = simulate(model, int(t_grid[-1]), seed)
    rows = []
    for horizon in t_grid.tolist():
        prefix = obs[:horizon]
        plain = ewac_bounds(_path_objective(model, prefix)[0])
        rows.append(SweepRow(horizon=horizon,
                             lb=plain.lb / horizon,
                             ub=plain.ub / horizon,
                             naive=naive_ewac(model, prefix) / horizon))
    return rows
