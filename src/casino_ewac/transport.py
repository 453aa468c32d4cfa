"""Linear programming over transportation polytopes with forced-zero cells.

The feasible set is the set of K x K matrices with fixed row and column
sums, optionally with a set of cells pinned to zero.  The solver is a dense
two-phase primal simplex on the equality form of the problem.  Bland's rule
picks both the entering and the leaving variable, which rules out cycling on
the degenerate bases these polytopes produce, and every returned optimum is
a vertex.

Every solve runs phase one, which depends on the polytope alone (K, the
forced zeros and the two target vectors), and then phase two from the
feasible basis it leaves; nothing is kept between calls, so no result
depends on what was solved before.  Phase two stops once no reduced cost
is below 64 * eps * max|c|, the scale of rounding in the costs, so costs
spanning many orders of magnitude still reach the optimum.
"""

import math
from dataclasses import dataclass

import numpy as np

FEASIBILITY_TOL = 1e-9
_PIVOT_TOL = 1e-10
_BALANCE_TOL = 1e-12
# Phase two stops once no reduced cost is below this times max|c|: scaled,
# since an absolute tolerance stops early on tiny costs, and at rounding
# level, since a looser one stops short when costs span many magnitudes.
_OPTIMALITY_TOL = 64 * float(np.finfo(float).eps)
# Ratios tie within this times the starting max|rhs|, the rounding of the
# right-hand side: a wider tie lets a ratio near 1e-10 tie with 0.
_TIE_TOL = 64 * float(np.finfo(float).eps)

__all__ = [
    "FEASIBILITY_TOL",
    "TransportProblem",
    "LpSolution",
    "solve",
    "check_feasibility",
]


def _validated_mask(zero_mask, k):
    cells = frozenset((int(i), int(j)) for i, j in zero_mask)
    for i, j in cells:
        if not (0 <= i < k and 0 <= j < k):
            raise ValueError(f"mask cell ({i}, {j}) outside 0..{k - 1}")
    return cells


def _validated_targets(row_targets, col_targets, k):
    r = np.array(row_targets, dtype=float)
    s = np.array(col_targets, dtype=float)
    if r.shape != (k,) or s.shape != (k,):
        raise ValueError("row and column targets must both have length K")
    for name, arr in (("row", r), ("column", s)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(
                f"{name} targets must be finite, got {arr.tolist()}")
    if np.any(r < 0) or np.any(s < 0):
        raise ValueError("targets must be non-negative")
    if abs(r.sum() - s.sum()) > _BALANCE_TOL:
        raise ValueError(
            f"row total {r.sum()!r} and column total {s.sum()!r} differ")
    return r, s


@dataclass(frozen=True)
class TransportProblem:
    """One bound computation: costs, marginals, forced zeros, and a sense.

    Attributes:
        costs: (K, K) finite cost matrix.
        row_targets: length-K required row sums, non-negative.
        col_targets: length-K required column sums, summing to the same total.
        zero_mask: cells (i, j), 0-based, that must be exactly zero.
        sense: "min" or "max".
    """

    costs: np.ndarray
    row_targets: np.ndarray
    col_targets: np.ndarray
    zero_mask: frozenset = frozenset()
    sense: str = "min"

    def __post_init__(self):
        costs = np.array(self.costs, dtype=float)
        if costs.ndim != 2 or costs.shape[0] != costs.shape[1]:
            raise ValueError(f"costs must be square, got shape {costs.shape}")
        if not np.all(np.isfinite(costs)):
            raise ValueError("costs must be finite")
        k = costs.shape[0]
        r, s = _validated_targets(self.row_targets, self.col_targets, k)
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {self.sense!r}")
        for arr in (costs, r, s):
            arr.setflags(write=False)
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "row_targets", r)
        object.__setattr__(self, "col_targets", s)
        object.__setattr__(self, "zero_mask", _validated_mask(self.zero_mask, k))


@dataclass(frozen=True)
class LpSolution:
    """Solver outcome.  ``theta`` is None unless ``status`` is "optimal"."""

    status: str
    value: float
    theta: np.ndarray
    iterations: int


def _equality_form(k, zero_mask):
    """Constraint matrix over unmasked cells, one redundant row dropped.

    Rows 0..K-1 are row sums, rows K..2K-2 the first K-1 column sums; the
    last column sum is implied because the targets balance.  Returns the
    cells' row and column indices, in row-major order, and the matrix.
    """
    free = np.ones((k, k), dtype=bool)
    for cell in zero_mask:
        free[cell] = False
    rows, cols = np.nonzero(free)
    A = np.zeros((2 * k - 1, rows.size))
    A[rows, np.arange(rows.size)] = 1.0
    summed = np.flatnonzero(cols < k - 1)
    A[k + cols[summed], summed] = 1.0
    return rows, cols, A


def _pivot(tab, basis, row, col):
    piv = tab[row, col]
    tab[row] /= piv
    factors = tab[:, col].copy()
    factors[row] = 0.0
    # Rows with a zero in the pivot column would only subtract zeros.
    hit = factors.nonzero()[0]
    tab[hit] -= factors[hit, None] * tab[row]
    basis[row] = col


def _bland_iterate(tab, basis, eligible, tol):
    """Run Bland pivots until no eligible reduced cost is below ``-tol``.

    ``tab`` has the reduced-cost row last and the right-hand side in the
    last column; ``basis`` is an integer array.  Returns the pivot count.
    """
    m = tab.shape[0] - 1
    reduced = tab[m, :eligible]
    rhs = tab[:m, -1]
    # On a transportation polytope no basic value grows past 2K - 1 times
    # the starting maximum, so one scale serves every pivot.
    tie = _TIE_TOL * np.abs(rhs).max()
    iterations = 0
    while True:
        below = (reduced < -tol).nonzero()[0]
        if not below.size:
            return iterations
        entering = below[0]
        column = tab[:m, entering]
        rows = (column > _PIVOT_TOL).nonzero()[0]
        ratios = rhs[rows] / column[rows]
        best = ratios.min(initial=np.inf)
        if not math.isfinite(best):
            # Cannot happen on a bounded polytope; guard anyway.
            raise ArithmeticError("unbounded direction in simplex")
        # Ties go to the smallest basic-variable index (Bland).
        tied = rows[ratios <= best + tie]
        _pivot(tab, basis, tied[basis[tied].argmin()], entering)
        iterations += 1


def _phase_one(k, zero_mask, row_targets, col_targets):
    """Phase one on the polytope of these forced zeros and targets.

    Artificial variables seed it; whatever remains basic afterwards is
    either pivoted onto a real column or its (redundant) row is deleted.
    Returns (rows, cols, tab, basis, iterations).  Column idx of the
    equality form is cell (rows[idx], cols[idx]).  ``tab`` holds the kept
    constraint rows over the cell columns and the right-hand side, above a
    cost row left to phase two, and ``basis`` the basic column of each
    kept row; both are None when the polytope is empty.  ``iterations``
    counts the Bland pivots.
    """
    rows, cols, A = _equality_form(k, zero_mask)
    m, n = A.shape
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = A
    tab[:m, n:n + m] = np.eye(m)
    tab[:m, -1] = np.concatenate([row_targets, col_targets[:-1]])
    basis = np.arange(n, n + m)
    # Phase-one reduced costs: artificials cost 1 and start basic.
    tab[m, :] = -tab[:m, :].sum(axis=0)
    tab[m, n:n + m] = 0.0

    # Phase-one costs are 0 or 1, so an absolute tolerance fits.
    iterations = _bland_iterate(tab, basis, n + m, FEASIBILITY_TOL)
    if -tab[m, -1] > FEASIBILITY_TOL:
        return rows, cols, None, None, iterations

    # Clear leftover artificials from the basis.
    keep = []
    for r in range(m):
        if basis[r] >= n:
            free = np.abs(tab[r, :n]) > _PIVOT_TOL
            free[basis[basis < n]] = False
            if not free.any():
                continue  # redundant constraint row, dropped below
            _pivot(tab, basis, r, free.argmax())
        keep.append(r)
    return (rows, cols, tab[np.ix_(keep + [m], np.r_[:n, n + m])],
            basis[keep], iterations)


def solve(problem):
    """Optimise the transport problem.  The optimum is a polytope vertex.

    Maximisation runs the minimiser on negated costs, so the identity
    max(c) == -min(-c) holds exactly.
    """
    k = problem.costs.shape[0]
    rows, cols, tab, basis, iterations = _phase_one(
        k, problem.zero_mask, problem.row_targets, problem.col_targets)
    if tab is None:
        return LpSolution(status="infeasible", value=np.nan, theta=None,
                          iterations=iterations)

    # Phase two from phase one's basis, its cost row reduced afresh.
    c = problem.costs[rows, cols]
    if problem.sense == "max":
        c = -c
    n = c.size
    tab[-1] = np.append(c, 0.0)
    for r, j in enumerate(basis):
        tab[-1] -= tab[-1, j] * tab[r]
    iterations += _bland_iterate(
        tab, basis, n, _OPTIMALITY_TOL * np.abs(c).max(initial=0.0))

    x = np.zeros(n)
    x[basis] = tab[:-1, -1]
    if x.size and x.min() < -FEASIBILITY_TOL:
        raise ArithmeticError(
            f"simplex produced a negative cell ({x.min():.3e})")
    x = np.maximum(x, 0.0)

    theta = np.zeros((k, k))
    theta[rows, cols] = x
    row_err = np.abs(theta.sum(axis=1) - problem.row_targets).max()
    col_err = np.abs(theta.sum(axis=0) - problem.col_targets).max()
    if max(row_err, col_err) > FEASIBILITY_TOL:
        raise ArithmeticError(
            f"simplex optimum violates marginals by {max(row_err, col_err):.3e}")

    value = float(np.sum(problem.costs * theta))
    return LpSolution(status="optimal", value=value, theta=theta,
                      iterations=iterations)


def check_feasibility(row_targets, col_targets, zero_mask=frozenset()):
    """True when some matrix meets the targets with the masked cells zero:
    whether the phase one that ``solve`` runs finds a feasible basis."""
    k = len(row_targets)
    r, s = _validated_targets(row_targets, col_targets, k)
    return _phase_one(k, _validated_mask(zero_mask, k), r, s)[2] is not None
