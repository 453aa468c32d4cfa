"""Output checks for the benchmark, with an oracle of the benchmark's own.

Every workload uses the canonical casino, whose hidden chain redraws its
state independently each period (both rows of the transition matrix equal
(eta, 1 - eta)).  Smoothing therefore reduces to Bayes' rule per period, and
the EWAC objective depends on the path only through its face counts.  The
sharp bounds come from the closed form of the rank-one transportation
problem: the north-west-corner fill of the fair die against the biased die
sorted by factor attains the maximum of sum(w_i f_j theta_ij), and the same
fill with the column order reversed attains the minimum.

Each ``check_*`` function takes the bytes a CLI job wrote and raises
``CheckFailed`` when they are wrong.  Tolerances scale with max|coeff|, the
largest objective coefficient, because the simplex error and the 12-digit
output rounding both scale with it.
"""

import io
import json
from dataclasses import dataclass

import numpy as np

K = 6
REWARDS = np.arange(1, K + 1, dtype=float)
FAIR_DIE = np.full(K, 1.0 / K)
BIASED_DIE = np.arange(1, K + 1) / 21.0

# Relative tolerance for values the oracle computes exactly; the output has
# 12 significant digits.
REL_TOL = 1e-9
# A sample mean further than this many standard errors from the exact EWAC
# fails.  At 4 the chance of a false alarm is about 2e-4 per check for 50
# draws, which over the hundreds of checks a benchmark comparison makes is
# too likely; at 5 it is below 1e-5.
WAC_Z = 5.0

ETA_SWEEP_COLUMNS = ("eta", "lb", "ub", "lb_cs", "ub_cs", "lb_inhom",
                     "ub_inhom", "ewac_independence", "ewac_comonotonic",
                     "ewac_countermonotonic", "naive")
COPULA_KINDS = ("independence", "comonotonic", "countermonotonic")


class CheckFailed(Exception):
    """A job's output disagrees with the oracle or an invariant."""


def face_counts(faces):
    """Occurrences of each face 1..K in a path."""
    return np.bincount(np.asarray(faces, dtype=np.int64) - 1,
                       minlength=K).astype(float)


def posterior_biased(eta):
    """P(biased | face) for each face under the canonical casino."""
    biased = (1.0 - eta) * BIASED_DIE
    return biased / (biased + eta * FAIR_DIE)


@dataclass(frozen=True)
class Objective:
    """ewac(theta) = constant - sum_ij REWARDS[i] * factor[j] * theta[i, j]."""

    constant: float
    factor: np.ndarray
    naive: float

    @property
    def tol(self):
        return REL_TOL * float(REWARDS.max() * self.factor.max()) + 1e-12

    def ewac(self, theta):
        return self.constant - float(REWARDS @ theta @ self.factor)


def objective(eta, counts):
    """EWAC objective of a path with the given face counts."""
    mass = counts * posterior_biased(eta)
    return Objective(constant=float(mass @ REWARDS),
                     factor=mass / BIASED_DIE,
                     naive=float(counts @ REWARDS - counts.sum() * REWARDS.mean()))


def nw_corner(rows, cols):
    """North-west-corner fill of a transportation table."""
    rows = [float(v) for v in rows]
    cols = [float(v) for v in cols]
    theta = np.zeros((len(rows), len(cols)))
    i = j = 0
    while i < len(rows) and j < len(cols):
        take = min(rows[i], cols[j])
        theta[i, j] = take
        rows[i] -= take
        cols[j] -= take
        if rows[i] == 0.0:
            i += 1
        else:
            j += 1
    return theta


def sharp_bounds(obj):
    """(lb, ub) of the EWAC over the unmasked transportation polytope."""
    order = np.argsort(obj.factor, kind="stable")
    best = np.zeros((K, K))
    worst = np.zeros((K, K))
    best[:, order] = nw_corner(FAIR_DIE, BIASED_DIE[order])
    worst[:, order[::-1]] = nw_corner(FAIR_DIE, BIASED_DIE[order[::-1]])
    return obj.ewac(best), obj.ewac(worst)


def copulas():
    """The three benchmark couplings of the canonical dice."""
    return {
        "independence": np.outer(FAIR_DIE, BIASED_DIE),
        "comonotonic": nw_corner(FAIR_DIE, BIASED_DIE),
        "countermonotonic": nw_corner(FAIR_DIE, BIASED_DIE[::-1])[:, ::-1],
    }


def horizon_grid(t_max, t_min=10, points=25):
    """The CLI's documented default horizon grid."""
    grid = np.geomspace(t_min, t_max, points)
    return np.unique(np.rint(grid).astype(np.int64))


def _expect(cond, message):
    if not cond:
        raise CheckFailed(message)


def _close(name, got, want, tol):
    _expect(abs(got - want) <= tol,
            f"{name} = {float(got)!r}, oracle {float(want)!r} (tolerance {tol:.3g})")


def _read_csv(data, columns):
    text = data.decode()
    header, _, body = text.partition("\n")
    _expect(tuple(header.split(",")) == tuple(columns),
            f"CSV header {header!r}, expected {','.join(columns)!r}")
    table = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    _expect(table.shape[1] == len(columns), f"CSV rows have {table.shape[1]} fields")
    return table


def _check_bound_row(row, obj, where):
    """Nesting, copulas inside [lb, ub], and lb/ub/naive against the oracle."""
    tol = obj.tol
    chain = ("lb_inhom", "lb", "lb_cs", "ub_cs", "ub", "ub_inhom")
    for lo, hi in zip(chain, chain[1:]):
        _expect(row[lo] <= row[hi] + tol,
                f"{where}: {lo} = {row[lo]!r} exceeds {hi} = {row[hi]!r}")
    for kind in COPULA_KINDS:
        value = row[f"ewac_{kind}"]
        _expect(row["lb"] - tol <= value <= row["ub"] + tol,
                f"{where}: ewac_{kind} = {value!r} outside [lb, ub]")
    lb, ub = sharp_bounds(obj)
    _close(f"{where}: lb", row["lb"], lb, tol)
    _close(f"{where}: ub", row["ub"], ub, tol)
    _close(f"{where}: naive", row["naive"], obj.naive, tol)


def check_bounds(data, eta, faces):
    """``bounds`` JSON report for one eta and path."""
    report = json.loads(data)
    _check_bound_row(report, objective(eta, face_counts(faces)), f"bounds eta={eta}")


def check_eta_sweep(data, faces, grid):
    """``sweep-eta`` CSV: one row per fairness level in ``grid``."""
    table = _read_csv(data, ETA_SWEEP_COLUMNS)
    _expect(table.shape[0] == len(grid),
            f"{table.shape[0]} rows, expected {len(grid)}")
    counts = face_counts(faces)
    for values, eta in zip(table, grid):
        row = dict(zip(ETA_SWEEP_COLUMNS, values))
        _close("eta", row["eta"], eta, 1e-12)
        _check_bound_row(row, objective(eta, counts), f"sweep-eta eta={eta}")


def check_horizon_sweep(data, eta, faces, grid):
    """``sweep-horizon`` CSV: per-period lb, ub and naive along prefixes."""
    table = _read_csv(data, ("horizon", "lb", "ub", "naive"))
    _expect(table[:, 0].astype(np.int64).tolist() == list(grid),
            "horizons differ from the default grid")
    ends = np.asarray(grid)
    running = np.cumsum(np.eye(K)[np.asarray(faces[:ends[-1]]) - 1], axis=0)
    for (horizon, lb, ub, naive), counts in zip(table, running[ends - 1]):
        obj = objective(eta, counts)
        tol = obj.tol / horizon
        want_lb, want_ub = sharp_bounds(obj)
        where = f"sweep-horizon T={int(horizon)}"
        _expect(lb <= ub + tol, f"{where}: lb exceeds ub")
        _close(f"{where}: lb", lb, want_lb / horizon, tol)
        _close(f"{where}: ub", ub, want_ub / horizon, tol)
        _close(f"{where}: naive", naive, obj.naive / horizon, tol)


def check_smooth(data, eta, faces):
    """``smooth`` CSV: rows sum to 1 and match Bayes' rule per period."""
    table = _read_csv(data, ("t", "delta_fair", "delta_biased"))
    faces = np.asarray(faces, dtype=np.int64)
    _expect(table.shape[0] == faces.size,
            f"{table.shape[0]} rows, expected {faces.size}")
    _expect(np.array_equal(table[:, 0], np.arange(1, faces.size + 1)),
            "period column is not 1..T")
    row_err = np.abs(table[:, 1] + table[:, 2] - 1.0).max()
    _expect(row_err <= 1e-11, f"rows sum to 1 only within {row_err:.3g}")
    want = posterior_biased(eta)[faces - 1]
    rel = np.abs(table[:, 2] - want) / want
    _expect(rel.max() <= REL_TOL,
            f"delta_biased off the oracle by {rel.max():.3g} relative")


def check_wac(data, eta, faces, samples):
    """``wac-dist`` CSV under the comonotonic coupling: the sample mean lies
    within WAC_Z standard errors of the exact EWAC."""
    table = _read_csv(data, ("sample", "wac"))
    _expect(table.shape[0] == samples, f"{table.shape[0]} draws, expected {samples}")
    _expect(np.array_equal(table[:, 0], np.arange(1, samples + 1)),
            "sample column is not 1..S")
    obj = objective(eta, face_counts(faces))
    exact = obj.ewac(copulas()["comonotonic"])
    wac = table[:, 1]
    se = wac.std(ddof=1) / np.sqrt(wac.size)
    _expect(abs(wac.mean() - exact) <= WAC_Z * se + obj.tol,
            f"mean {wac.mean():.6g} is {abs(wac.mean() - exact) / se:.2f} "
            f"standard errors from the exact {exact:.6g}")


def check_copulas(data):
    """``copulas`` JSON: the three couplings of the canonical dice."""
    report = json.loads(data)
    _expect(sorted(report) == sorted(COPULA_KINDS), f"keys {sorted(report)}")
    for kind, want in copulas().items():
        got = np.asarray(report[kind], dtype=float)
        _expect(got.shape == (K, K), f"{kind}: shape {got.shape}")
        err = np.abs(got - want).max()
        _expect(err <= 1e-11, f"{kind}: off the oracle by {err:.3g}")
