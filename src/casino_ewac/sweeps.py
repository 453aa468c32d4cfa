"""Monte-Carlo draws of the cheating loss and parameter-sweep drivers.

Everything here is deterministic given its seed.  Sweeps over the fairness
level consume no randomness at all; the horizon sweep simulates one long
path and re-smooths each truncation so every row is an honest analysis of
the shorter record.
"""

from dataclasses import dataclass, fields

import numpy as np

from casino_ewac.engine import (copula_pmf, cs_mask, ewac_bounds,
                                ewac_objective, ewac_of_theta,
                                inhomogeneous_bounds, naive_ewac,
                                validate_joint_pmf)
from casino_ewac.hmm import (BIASED, _backward_sample, _forward_filter,
                             as_symbol_indices, canonical_model, simulate,
                             smooth)

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
        counterfactual: (S, T) counterfactual faces; equals the observed
            face wherever the sampled hidden state is fair.
        hidden: (S, T) sampled hidden paths.
    """

    wac: np.ndarray
    counterfactual: np.ndarray
    hidden: np.ndarray


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


def sample_wac(model, obs, theta, count, seed):
    """Draw the cheating-loss distribution induced by one joint PMF.

    Each draw samples a hidden path from the exact posterior, keeps the
    observed face on fair periods (the counterfactual roll is the fair
    roll), and on biased periods redraws the fair face from the theta
    column of the observed face by inverse CDF in face order.

    Peak memory is about 28 bytes per sample-period: the hidden paths, one
    uniform per sample-period, the counterfactual faces (8 bytes each) and
    two boolean masks; the uniforms are freed before the payoffs are summed.
    """
    o = as_symbol_indices(model, obs)
    theta = validate_joint_pmf(theta, model.emission[0], model.emission[1])
    alpha = _forward_filter(model, o)
    rng = np.random.default_rng(seed)
    hidden = _backward_sample(model, alpha, count, rng)
    u = rng.random((count, o.size))

    col_sums = theta.sum(axis=0)
    cdf = np.cumsum(theta, axis=0)
    positive = col_sums > 0
    cdf[:, positive] /= col_sums[positive]
    cdf[-1, positive] = 1.0

    # 0-based faces until the payoffs are summed.
    counterfactual = np.tile(o, (count, 1))
    biased = hidden == BIASED
    for j in range(model.num_symbols):
        redraw = biased & (o == j)
        if not positive[j] and redraw.any():
            # The posterior cannot put biased mass on a face the biased die
            # never rolls; reaching this line means the inputs disagree.
            raise ArithmeticError(
                f"sampled a biased state on face {j + 1}, whose theta "
                "column is all zero")
        counterfactual[redraw] = np.searchsorted(cdf[:, j], u[redraw],
                                                 side="right")
    del u, biased, redraw

    w = model.rewards
    wac = w[o].sum() - w[counterfactual].sum(axis=1)
    counterfactual += 1
    return WacSamples(wac=wac, counterfactual=counterfactual, hidden=hidden)


def default_eta_grid():
    """Fairness levels 0.01 .. 0.99 in steps of 0.01."""
    return np.arange(1, 100) / 100.0


def default_horizon_grid(t_min=10, t_max=100_000, points=25):
    """Geometrically spaced horizons, deduplicated after rounding."""
    if not 1 <= t_min <= t_max:
        raise ValueError("need 1 <= t_min <= t_max")
    grid = np.geomspace(t_min, t_max, points)
    return np.unique(np.rint(grid).astype(np.int64))


def eta_sweep(obs, eta_grid=None, constrained=True, inhomogeneous=True,
              copulas=True):
    """Bounds and benchmarks across fairness levels of the canonical model.

    Args:
        obs: observation path, faces 1..6.
        eta_grid: fairness levels; defaults to ``default_eta_grid()``.
        constrained: also solve under the no-loss constraint set (cs).
        inhomogeneous: also compute the per-period relaxed bounds.
        copulas: also evaluate the three benchmark couplings.

    Returns:
        list of SweepRow in grid order.
    """
    if eta_grid is None:
        eta_grid = default_eta_grid()
    rows = []
    for eta in np.asarray(eta_grid, dtype=float):
        model = canonical_model(eta)
        objective = ewac_objective(model, obs, smooth(model, obs))
        values = {"eta": float(eta),
                  "naive": naive_ewac(model, obs)}
        plain = ewac_bounds(objective)
        values["lb"], values["ub"] = plain.lb, plain.ub
        if constrained:
            tied = ewac_bounds(objective, cs_mask(model.emission), tag="cs")
            values["lb_cs"], values["ub_cs"] = tied.lb, tied.ub
        if inhomogeneous:
            loose = inhomogeneous_bounds(objective)
            values["lb_inhom"], values["ub_inhom"] = loose.lb, loose.ub
        if copulas:
            for kind in ("independence", "comonotonic", "countermonotonic"):
                values[f"ewac_{kind}"] = ewac_of_theta(
                    objective, copula_pmf(model, kind))
        rows.append(SweepRow(**values))
    return rows


def horizon_sweep(eta, t_grid=None, seed=0):
    """Per-period bounds along truncations of one simulated path.

    Simulates the canonical model at the largest horizon once, then for
    each grid value T smooths the first T observations from scratch and
    reports lb/T, ub/T and naive/T.  The asymptotic per-period rate these
    approach is ``asymptotic_ewac_rate(canonical_model(eta))``.
    """
    if t_grid is None:
        t_grid = default_horizon_grid()
    t_grid = np.unique(np.asarray(t_grid, dtype=np.int64))
    if t_grid.size == 0 or t_grid[0] < 1:
        raise ValueError("horizon grid must contain positive integers")
    model = canonical_model(eta)
    _, obs = simulate(model, int(t_grid[-1]), seed)
    rows = []
    for horizon in t_grid:
        prefix = obs[:horizon]
        objective = ewac_objective(model, prefix, smooth(model, prefix))
        plain = ewac_bounds(objective)
        rows.append(SweepRow(horizon=int(horizon),
                             lb=plain.lb / horizon,
                             ub=plain.ub / horizon,
                             naive=naive_ewac(model, prefix) / horizon))
    return rows
