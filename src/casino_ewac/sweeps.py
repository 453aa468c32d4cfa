"""Monte-Carlo draws of the cheating loss and parameter-sweep drivers.

Everything here is deterministic given its seed.  Sweeps over the fairness
level consume no randomness at all; the horizon sweep simulates one long
path and analyses each truncation from its face counts, which suffice for
the canonical casino's i.i.d. hidden states.  Each sweep returns one
``numpy.recarray``, a record per grid point, whose fields are its
``*_SWEEP_COLUMNS``.
"""

import logging
from dataclasses import dataclass

import numpy as np

from casino_ewac.engine import (REPORT_COLUMNS, _face_objective, _naive,
                                _optimal_tables, _report_values,
                                validate_joint_pmf)
from casino_ewac.hmm import (_backward_sample, _face_counts,
                             _face_posteriors, _forward_filter, _iid_posteriors,
                             _simulated_blocks, as_symbol_indices,
                             canonical_model)

__all__ = [
    "WacSamples",
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
# Levels eta_sweep evaluates at a time: their tables and products take
# about 2.6-3.7 KB per level, so memory does not grow with the grid.
_LEVEL_BLOCK = 1 << 12
# wac-dist draws from the exact law when its lattice of W points has W^2 <=
# _LAW_COST * S: the law's convolutions cost up to about 0.13 ns * W^2, the
# Monte Carlo 1 to 6 us per sample.
_LAW_COST = 1 << 15


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


ETA_SWEEP_COLUMNS = ("eta", *REPORT_COLUMNS)
HORIZON_SWEEP_COLUMNS = ("horizon", "lb", "ub", "naive")


def sample_wac(model, obs, theta, count, seed):
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
    filter in row blocks of about 2^20 sample-periods, each summed to
    counts and dropped, so no memory grows with S * T.  Each face's
    multinomial is then drawn as a chain of conditional binomials over the
    nonzero cells i of its column, in order, for all samples at once: of
    the periods no earlier cell took, Binomial(left, theta_ij / r_i) go to
    cell i, r_i the sum of the column's cells from i on, and the last cell
    takes the rest (Devroye 1986, *Non-Uniform Random Variate Generation*,
    ch. XI).  Every binomial is numpy's.  Theta cells the marginal check
    lets through slightly below zero count as zero.  A Markov chain logs
    its S * T sample-periods at ``info``.

    ``wac-dist`` (``_wac_dist``) inverts the loss's exact law instead on
    i.i.d. chains with integral payoffs and short paths, where it has no
    per-sample counts to return; it calls this sampler on the rest.

    Raises:
        ValueError: if ``count`` is below 1 or theta is not a joint PMF
            of the fair and biased dice.
        ZeroLikelihoodError: if the path is impossible under the model.
        ArithmeticError: if a sampled path is biased on a face whose theta
            column is all zero.
    """
    o = as_symbol_indices(model, obs)
    return _sample_wac(model, o, _face_counts(o, model.num_symbols), theta,
                       count, seed)


def _sample_wac(model, o, face_counts, theta, count, seed, filtered=None):
    """``sample_wac`` of the 0-based faces ``o`` and their counts;
    ``filtered``, if given, their forward filter or ``_iid_posteriors``."""
    if count < 1:
        raise ValueError("count must be at least 1")
    theta = np.maximum(
        validate_joint_pmf(theta, model.emission[0], model.emission[1]), 0.0)
    rng = np.random.default_rng(seed)
    faces = np.arange(model.num_symbols)
    iid = (filtered if isinstance(filtered, tuple)
           else _iid_posteriors(model, o, face_counts))
    if iid is not None:  # face-major: one binomial set-up per face
        n = face_counts - (faces == o[0])  # periods 2..T
        biased = iid[0][:, 1]
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
        left = counts[j].copy()
        for i, share in zip(cells[:-1].tolist(), p[:-1].tolist()):
            redrawn = rng.binomial(left, share)
            wac += redrawn * (w[j] - w[i])
            left -= redrawn
        wac += left * (w[j] - w[cells[-1]])
    return WacSamples(wac=wac, biased_counts=counts.T)


def _wac_dist(model, o, counts, theta, count, seed, filtered=None):
    """``wac-dist``'s draws as (losses, index), the S losses being
    losses[index], from the 0-based faces ``o`` and their ``counts``.

    With equal transition rows, integral payoffs and a loss lattice of W =
    span(w) * T + 1 points with W^2 <= _LAW_COST * S (2^15 S), the
    losses are drawn from their exact law (``_wac_law``), one uniform u of
    ``default_rng(seed)`` each: the first positive atom whose CDF exceeds
    u, the last one if none does (``_searched``).  ``losses`` is then every
    positive atom.  Otherwise (Markov chains, other payoffs, long paths)
    the losses are ``_sample_wac``'s, told apart by their bits.
    ``filtered`` is the chain's posteriors or forward filter as
    ``engine._path_objective`` returns them, or None.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    w = model.rewards
    width = (w[-1] - w[0]) * o.size + 1
    if (width * width <= _LAW_COST * count and np.array_equal(w, np.rint(w))
            and np.array_equal(*model.transition)):
        low, pmf = _wac_law(model, o, counts, theta, filtered)
        atoms = np.flatnonzero(pmf)
        return (low + atoms).astype(float), _searched(
            np.cumsum(pmf[atoms]), np.random.default_rng(seed).random(count))
    wac = _sample_wac(model, o, counts, theta, count, seed, filtered).wac
    # Distinct by bit pattern, so -0 and 0 print apart.
    losses, index = np.unique(wac.view(np.int64), return_inverse=True)
    return losses.view(np.float64), index


def _searched(cdf, u):
    """``np.searchsorted(cdf, u, "right")`` clamped to the last index, for
    a nondecreasing ``cdf`` and u in [0, 1), by a guide table (Chen & Asau
    1974): guide[g] is the first index whose CDF exceeds g / G, G a power
    of two (so u * G is exact), and each u steps on from guide[floor(u G)]
    past the CDF values it reaches."""
    cdf = np.append(cdf[:-1], np.inf)  # the clamp
    size = 2 << cdf.size.bit_length()
    guide = np.searchsorted(cdf, np.arange(size) / size, "right")
    index = guide[(u * size).astype(np.intp)]
    ahead = np.flatnonzero(u >= cdf[index])
    while ahead.size:
        index[ahead] += 1
        ahead = ahead[u[ahead] >= cdf[index[ahead]]]
    return index


def _wac_law(model, o, counts, theta, iid=None):
    """(low, pmf): the exact law of ``sample_wac``'s loss on an i.i.d.
    chain with integral payoffs, pmf[k] the probability of the loss low + k.

    Given the states the periods' losses are independent: a period showing
    face j is fair (loss 0) with probability 1 - p_j, else loses w_j - w_i
    with probability p_j theta_ij / c_j, p_j its biased posterior and c_j
    theta's column sum.  The n_j periods after the first that show face j
    add the n_j-fold convolution of that law, by repeated squaring; the
    faces' laws are convolved, and period 1's under ``initial`` (Embrechts
    & Frei 2009; Hong 2013).  A direct ``np.convolve`` costs about W^2 for
    a lattice of W points.  ``iid`` is the chain's ``_iid_posteriors``, if
    the caller has them.

    Raises:
        ValueError: if theta is not a joint PMF of the fair and biased dice.
        ZeroLikelihoodError: if the path is impossible under the model.
        ArithmeticError: if a biased state on a face whose theta column is
            all zero has positive probability.
    """
    theta = np.maximum(
        validate_joint_pmf(theta, model.emission[0], model.emission[1]), 0.0)
    table, start = iid or _iid_posteriors(model, o, counts)
    faces = np.arange(model.num_symbols)
    first = faces == o[0]
    biased = np.append(table[:, 1], start[1])
    times = np.append(counts - first, 1)  # periods 2..T per face, period 1
    col_sums = theta.sum(axis=0)
    hit = (col_sums <= 0) & ((times[:-1] > 0) & (biased[:-1] > 0)
                             | first & (biased[-1] > 0))
    if hit.any():
        # The posterior cannot put biased mass on a face the biased die
        # never rolls; reaching this line means the inputs disagree.
        raise ArithmeticError(
            f"a biased state on face {faces[hit][0] + 1} has positive "
            "probability, but its theta column is all zero")
    w = model.rewards
    low, pmf = 0, np.ones(1)
    for j, p, n in zip([*faces, o[0]], biased.tolist(), times.tolist()):
        if n == 0 or p == 0:
            continue
        cells = np.flatnonzero(theta[:, j])
        loss = np.rint(w[j] - w[cells]).astype(np.int64)  # all distinct
        lo = min(loss.min(), 0)
        period = np.zeros(max(loss.max(), 0) - lo + 1)
        period[loss - lo] = p * theta[cells, j] / col_sums[j]
        period[-lo] += 1.0 - p
        low += lo * n
        while True:  # pmf *= period ** n
            if n & 1:
                pmf = np.convolve(pmf, period)
            n >>= 1
            if not n:
                break
            period = np.convolve(period, period)
    return low, pmf


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


def _checked(rows):
    """``rows``, a sweep's record array, once lb <= ub + 1e-9 holds for each
    of its bound pairs; the first row that fails raises a ValueError that
    names its first failing pair, in the order lb/ub, cs, inhom."""
    pairs = [pair for pair in _BOUND_PAIRS if pair[0] in rows.dtype.names]
    crossed = np.array([rows[lo] > rows[hi] + _BOUND_SLACK
                        for lo, hi in pairs])
    if crossed.any():
        row, at = np.argwhere(crossed.T)[0]  # row-major: the first row
        lo, hi = pairs[at]
        raise ValueError(f"{lo}={rows[lo][row].item()!r} exceeds "
                         f"{hi}={rows[hi][row].item()!r}")
    return rows


def eta_sweep(obs, eta_grid=None):
    """Bounds and benchmarks across fairness levels of the canonical model.

    Every row holds the plain, cs-constrained (for these dice, pm) and
    per-period relaxed bounds, the three couplings and the naive estimate.
    The levels form stacks of objectives, one ``_report_values`` per block
    of 2^12 levels, whose rows fill that block of one (N, 11) float
    table; the records are a view of its rows.

    Args:
        obs: observation path, faces 1..6.
        eta_grid: fairness levels; defaults to ``default_eta_grid()``.

    Returns:
        ``numpy.recarray`` of one record per level in grid order, fields
        ETA_SWEEP_COLUMNS, all float64.

    Raises:
        ValueError: if the grid is empty, a level lies outside [0, 1], or
            a lower bound exceeds its upper bound by over 1e-9.
    """
    eta_grid = np.asarray(default_eta_grid() if eta_grid is None else eta_grid,
                          dtype=float)
    if eta_grid.size == 0:
        raise ValueError("fairness grid must contain at least one level")
    # The extremes (a NaN among them) validate every level.
    model = canonical_model(eta_grid.min())
    if eta_grid.max() > 1.0:
        canonical_model(eta_grid.max())
    counts = _face_counts(as_symbol_indices(model, obs), model.num_symbols)
    table = np.empty((eta_grid.size, len(ETA_SWEEP_COLUMNS)))
    table[:, 0] = eta_grid
    for start in range(0, eta_grid.size, _LEVEL_BLOCK):
        block = table[start:start + _LEVEL_BLOCK]
        priors = np.column_stack([block[:, 0], 1.0 - block[:, 0]])
        stack = _face_objective(model, counts, counts[:, None]
                                * _face_posteriors(priors, model.emission))
        block[:, 1:] = _report_values(model, stack, counts)[0]
    return _checked(table.view([(name, float) for name in ETA_SWEEP_COLUMNS],
                               np.recarray)[:, 0])


def horizon_sweep(eta, t_grid=None, seed=0):
    """Per-period bounds along truncations of one simulated path.

    Simulates the canonical model at the largest horizon once and reports
    lb/T, ub/T and naive/T for each grid value T from the face counts of
    the first T periods.  The counts are summed block by block as the path
    is simulated and no block is kept, so memory does not grow with the
    horizon.  The bounds are read at ``_optimal_tables``' unmasked tables.
    The asymptotic per-period rate is
    ``asymptotic_ewac_rate(canonical_model(eta))``.

    Returns:
        ``numpy.recarray`` of one record per distinct horizon, increasing,
        fields HORIZON_SWEEP_COLUMNS: ``horizon`` int64, the rest float64.
    """
    grid = np.asarray(default_horizon_grid() if t_grid is None else t_grid)
    if grid.size == 0 or (grid % 1).any() or grid.min() < 1:
        raise ValueError("horizon grid must contain positive integers")
    t_grid = np.unique(grid.astype(np.int64))
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
    lb, ub = stack.ewac(_optimal_tables(stack, frozenset(), "none")[0])
    return _checked(np.rec.fromarrays(
        [t_grid, lb / t_grid, ub / t_grid, _naive(model, counts) / t_grid],
        names=HORIZON_SWEEP_COLUMNS))
