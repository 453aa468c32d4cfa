"""Monte-Carlo draws of the cheating loss and parameter-sweep drivers.

Everything here is deterministic given its seed.  Sweeps over the fairness
level consume no randomness at all; the horizon sweep simulates one long
path and analyses each truncation from its face counts, which suffice for
the canonical casino's i.i.d. hidden states.
"""

import functools
import logging
from dataclasses import dataclass, fields

import numpy as np

from casino_ewac.engine import (_face_objective, _naive, _report_values,
                                _tables_by_order, validate_joint_pmf)
from casino_ewac.hmm import (_backward_sample, _face_counts,
                             _face_posteriors, _forward_filter, _iid_posteriors,
                             _simulated_blocks, as_symbol_indices,
                             canonical_model)

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
_BOUND_PAIRS = (("lb", "ub"), ("lb_cs", "ub_cs"), ("lb_inhom", "ub_inhom"))
# Levels eta_sweep evaluates at a time: their stacked tables and products
# take about 7 KB per level, so memory does not grow with the grid.
_LEVEL_BLOCK = 1 << 12
# The largest n of binomials drawn by inverting tabulated CDFs (see
# sample_wac): a face's redraws, and the i.i.d. counts up to the crossover.
_TABLE_N = 32
_COUNTS_N = 224


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
        for lo, hi in _BOUND_PAIRS:
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
    period's counterfactual roll is the observed one; a biased period
    showing face j redraws its fair face X from theta's column j and adds
    w_j - w_X.  So the loss sees the states only through the number b_j
    of biased periods on each face j:

        WAC = sum_j sum_i M_ij (w_j - w_i),
        M_.j ~ Multinomial(b_j, theta_.j / c_j),

    c_j the column sum, the same law as redrawing period by period.  With
    equal transition rows the states are independent: b_j ~ Binomial(n_j,
    p_j) over the n_j periods after the first that show face j, p_j their
    posterior biased probability, drawn face by face as one (K, S) array,
    then S uniforms for period 1 (biased when one reaches its fair
    posterior).  Otherwise paths are drawn backwards from the forward
    filter (``filtered``, if the caller has it) in row blocks of about 2^20
    sample-periods, each summed to counts and dropped, so no memory grows
    with S * T.  Each face's multinomial is then drawn as a chain of
    conditional binomials over the nonzero cells i of its column, in
    order, for all samples at once: of the periods no earlier cell took,
    Binomial(left, theta_ij / r_i) go to cell i, r_i the sum of the
    column's cells from i on, and the last cell takes the rest (Devroye
    1986, *Non-Uniform Random Variate Generation*, ch. XI).  Theta cells
    the marginal check lets through slightly below zero count as zero.

    The i.i.d. counts when the largest n_j is at most 224, and a face's
    redraws when its largest b_j is at most 32, are drawn by inversion
    (Devroye, ch. III.2), one uniform per draw in the order above, from
    binomial CDF tables; above those caps numpy's sampler is as fast.  A
    Markov chain logs its S * T sample-periods at ``info``.

    Raises:
        ValueError: if ``count`` is below 1 or theta is not a joint PMF
            of the fair and biased dice.
        ZeroLikelihoodError: if the path is impossible under the model.
        ArithmeticError: if a sampled path is biased on a face whose theta
            column is all zero.
    """
    o = as_symbol_indices(model, obs)
    return _sample_wac(model, o, _face_counts(o, model.num_symbols), theta,
                       count, seed, filtered)


def _sample_wac(model, o, face_counts, theta, count, seed, filtered=None):
    """``sample_wac`` of the 0-based faces ``o`` and their counts."""
    if count < 1:
        raise ValueError("count must be at least 1")
    theta = np.maximum(
        validate_joint_pmf(theta, model.emission[0], model.emission[1]), 0.0)
    rng = np.random.default_rng(seed)
    faces = np.arange(model.num_symbols)
    iid = _iid_posteriors(model, o, face_counts)
    if iid is not None:  # face-major: one binomial set-up per face
        n = face_counts - (faces == o[0])  # periods 2..T
        biased = iid[0][:, 1]
        if n.max() <= _COUNTS_N:
            rows = _cdf_rows(biased, n, n.max())[:, :, None]
            counts = _inverted(rng.random((faces.size, count)),
                               rows).astype(np.int64)
        else:
            counts = rng.binomial(n[:, None], biased[:, None],
                                  size=(faces.size, count))
        counts[o[0]] += rng.random(count) >= iid[1][0]
    else:
        logging.getLogger(__name__).info(
            "backward sampling %d sample-periods (%d samples x %d periods)",
            count * o.size, count, o.size)
        alpha = _forward_filter(model, o) if filtered is None else filtered
        periods = [np.flatnonzero(o == j) for j in faces]
        counts = np.hstack([
            np.stack([block[:, at].sum(axis=1) for at in periods])
            for block in _backward_sample(model, alpha, count, rng)])

    col_sums = theta.sum(axis=0)
    hit = (col_sums <= 0) & counts.any(axis=1)
    if hit.any():
        # The posterior cannot put biased mass on a face the biased die
        # never rolls; reaching this line means the inputs disagree.
        raise ArithmeticError(
            f"sampled a biased state on face {faces[hit][0] + 1}, "
            "whose theta column is all zero")

    w = model.rewards
    wac = np.zeros(count)
    for j in faces[col_sums > 0]:
        cells = np.flatnonzero(theta[:, j])
        column = theta[cells, j]
        # Each cell's share of the cells not yet drawn: a suffix sum of
        # positive floats is never below its first term, so p <= 1.
        p = column / np.cumsum(column[::-1])[::-1]
        left, m = counts[j].copy(), counts[j].max()
        for i, share in zip(cells[:-1].tolist(), p[:-1].tolist()):
            if m <= _TABLE_N:
                rows = _cdf_rows(share, np.arange(m + 1), m)
                redrawn = _inverted(rng.random(count),
                                    (row[left] for row in rows))
            else:
                redrawn = rng.binomial(left, share)
            wac += redrawn * (w[j] - w[i])
            left -= redrawn
        wac += left * (w[j] - w[cells[-1]])
    return WacSamples(wac=wac, biased_counts=counts.T)


@functools.cache
def _comb(m):
    """(m, m + 1): C(n, k) in row k, column n, from integers rounded once."""
    rows = [np.ones(m + 1, dtype=object)]
    for _ in range(1, m):
        rows.append(np.concatenate([[0], np.cumsum(rows[-1][:-1])]))
    return np.array(rows, dtype=float)


def _cdf_rows(p, n, m):
    """(m, n.size): P(Binomial(n, p) <= k) in row k; +inf from k = n on,
    so that a CDF rounded below 1 never draws more than n."""
    k = np.arange(m)[:, None]
    pmf = _comb(max(m, _TABLE_N))[k, n] * p ** k * (1 - p) ** np.maximum(
        n - k, 0)
    return np.where(k < n, pmf.cumsum(axis=0), np.inf)


def _inverted(u, rows):
    """Inversion draws: how many of the CDF ``rows`` each uniform reaches."""
    drawn = np.zeros(u.shape, np.uint8)
    for row in rows:
        drawn += u >= row
    return drawn


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


def _checked(table, columns):
    """``table`` once its rows pass ``SweepRow``'s check, run on the arrays:
    the first row to fail is made a SweepRow, which raises."""
    at = dict(zip(columns, table.T))
    _sweep_rows(columns, table[np.any([
        at[lo] > at[hi] + _BOUND_SLACK for lo, hi in _BOUND_PAIRS if lo in at],
        axis=0)][:1])
    return table


def _sweep_rows(columns, table):
    """The rows of a sweep ``table`` as SweepRows, horizons as ints."""
    return [SweepRow(**{name: int(value) if name == "horizon" else value
                        for name, value in zip(columns, row)})
            for row in table.tolist()]


def eta_sweep(obs, eta_grid=None):
    """Bounds and benchmarks across fairness levels of the canonical model.

    Every row holds the plain, cs-constrained (for these dice, pm) and
    per-period relaxed bounds, the three couplings and the naive estimate.
    The levels form stacks of objectives, one ``_report_values`` per block
    of 2^12 levels; the rows are one array (``_eta_table``) until here.

    Args:
        obs: observation path, faces 1..6.
        eta_grid: fairness levels; defaults to ``default_eta_grid()``.

    Returns:
        list of SweepRow in grid order.

    Raises:
        ValueError: if the grid is empty, a level lies outside [0, 1], or
            a lower bound exceeds its upper bound by over 1e-9.
    """
    return _sweep_rows(ETA_SWEEP_COLUMNS, _eta_table(obs, eta_grid))


def _eta_table(obs, eta_grid=None):
    """``eta_sweep``'s rows as one (N, 11) array, ETA_SWEEP_COLUMNS."""
    eta_grid = np.asarray(default_eta_grid() if eta_grid is None else eta_grid,
                          dtype=float)
    if eta_grid.size == 0:
        raise ValueError("fairness grid must contain at least one level")
    # The extremes (a NaN among them) validate every level.
    model = canonical_model(eta_grid.min())
    if eta_grid.max() > 1.0:
        canonical_model(eta_grid.max())
    counts = np.bincount(as_symbol_indices(model, obs),
                         minlength=model.num_symbols)
    naive, built, blocks = _naive(model, counts), {}, []
    for start in range(0, eta_grid.size, _LEVEL_BLOCK):
        etas = eta_grid[start:start + _LEVEL_BLOCK]
        priors = np.column_stack([etas, 1.0 - etas])
        stack = _face_objective(model, counts, counts[:, None]
                                * _face_posteriors(priors, model.emission))
        values, _ = _report_values(model, stack, built)
        blocks.append(np.column_stack([
            etas, values[:, :6], stack.independence, values[:, 6:],
            np.full(etas.size, naive)]))
    return _checked(np.vstack(blocks), ETA_SWEEP_COLUMNS)


def horizon_sweep(eta, t_grid=None, seed=0):
    """Per-period bounds along truncations of one simulated path.

    Simulates the canonical model at the largest horizon once and reports
    lb/T, ub/T and naive/T for each grid value T from the face counts of
    the first T periods.  The counts are summed block by block as the path
    is simulated and no block is kept, so memory does not grow with the
    horizon.  The bounds are read at the fills of ``_tables_by_order``,
    the rows one array (``_horizon_table``) until here.  The asymptotic
    per-period rate is ``asymptotic_ewac_rate(canonical_model(eta))``.
    """
    return _sweep_rows(HORIZON_SWEEP_COLUMNS,
                       _horizon_table(eta, t_grid, seed))


def _horizon_table(eta, t_grid=None, seed=0):
    """``horizon_sweep``'s rows as one (N, 4) array, HORIZON_SWEEP_COLUMNS."""
    if t_grid is None:
        t_grid = default_horizon_grid()
    t_grid = np.unique(np.asarray(t_grid, dtype=np.int64))
    if t_grid.size == 0 or t_grid[0] < 1:
        raise ValueError("horizon grid must contain positive integers")
    model = canonical_model(eta)
    total, counts, done = np.zeros(model.num_symbols, dtype=np.int64), [], 0
    for _, faces in _simulated_blocks(model, int(t_grid[-1]), seed):
        cuts = t_grid[(t_grid > done) & (t_grid <= done + faces.size)] - done
        for i, part in enumerate(np.split(faces, cuts)):
            if i:  # the part before reached a horizon
                counts.append(total.copy())
            total += np.bincount(part, minlength=total.size)
        done += faces.size
    counts = np.array(counts)
    # Period 1 too: canonical_model's initial law is its transition row.
    stack = _face_objective(model, counts, counts[..., None]
                            * _face_posteriors(model.initial, model.emission))
    lb, ub = stack.ewac(_tables_by_order(*model.emission, stack.factor)[0])
    return _checked(np.column_stack([t_grid, lb / t_grid, ub / t_grid,
                                     _naive(model, counts) / t_grid]),
                    HORIZON_SWEEP_COLUMNS)
