"""Linear programming over transportation polytopes with forced-zero cells.

The feasible set is the set of K x K matrices with fixed row and column
sums, optionally with a set of cells pinned to zero.  The solver is a dense
two-phase primal simplex on the equality form of the problem.  Bland's rule
picks both the entering and the leaving variable, which rules out cycling on
the degenerate bases these polytopes produce, and every returned optimum is
a vertex.
"""

from dataclasses import dataclass

import numpy as np

FEASIBILITY_TOL = 1e-9
_PIVOT_TOL = 1e-10
_BALANCE_TOL = 1e-12

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
        r = np.array(self.row_targets, dtype=float)
        s = np.array(self.col_targets, dtype=float)
        if r.shape != (k,) or s.shape != (k,):
            raise ValueError("row and column targets must both have length K")
        if np.any(r < 0) or np.any(s < 0):
            raise ValueError("targets must be non-negative")
        if abs(r.sum() - s.sum()) > _BALANCE_TOL:
            raise ValueError(
                f"row total {r.sum()!r} and column total {s.sum()!r} differ")
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
    last column sum is implied because the targets balance.
    """
    cells = [(i, j) for i in range(k) for j in range(k)
             if (i, j) not in zero_mask]
    m = 2 * k - 1
    A = np.zeros((m, len(cells)))
    for idx, (i, j) in enumerate(cells):
        A[i, idx] = 1.0
        if j < k - 1:
            A[k + j, idx] = 1.0
    return cells, A


def _pivot(tab, basis, row, col):
    piv = tab[row, col]
    tab[row] /= piv
    for r in range(tab.shape[0]):
        if r != row and tab[r, col] != 0.0:
            tab[r] -= tab[r, col] * tab[row]
    basis[row] = col


def _bland_iterate(tab, basis, eligible, tol):
    """Run Bland pivots until no eligible reduced cost is below ``-tol``.

    ``tab`` has the reduced-cost row last and the right-hand side in the
    last column.  Returns the pivot count.
    """
    m = tab.shape[0] - 1
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
            # Ties broken by the smallest basic-variable index (Bland).
            for r in range(m):
                a = tab[r, entering]
                if a > _PIVOT_TOL and tab[r, -1] / a <= best + _PIVOT_TOL:
                    if leaving < 0 or basis[r] < basis[leaving]:
                        leaving = r
        if leaving < 0:
            # Cannot happen on a bounded polytope; guard anyway.
            raise ArithmeticError("unbounded direction in simplex")
        _pivot(tab, basis, leaving, entering)
        iterations += 1


def _two_phase(A, b, c):
    """min c.x s.t. Ax = b, x >= 0 with b >= 0.

    Returns (status, x, iterations).  Artificial variables seed phase one;
    whatever remains basic afterwards is either pivoted onto a real column
    or its (redundant) row is deleted before phase two.
    """
    m, n = A.shape
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = A
    tab[:m, n:n + m] = np.eye(m)
    tab[:m, -1] = b
    basis = list(range(n, n + m))
    # Phase-one reduced costs: artificials cost 1 and start basic.
    tab[m, :] = -tab[:m, :].sum(axis=0)
    tab[m, n:n + m] = 0.0

    # Phase-one costs are 0 or 1, so an absolute tolerance fits.
    iterations = _bland_iterate(tab, basis, n + m, FEASIBILITY_TOL)
    if -tab[m, -1] > FEASIBILITY_TOL:
        return "infeasible", None, iterations

    # Clear leftover artificials from the basis.
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
            _pivot(tab, basis, r, pivot_col)
            keep.append(r)
        # else: redundant constraint row, drop it below

    rows = keep + [m]
    basis = [basis[r] for r in keep]
    tab = tab[np.ix_(rows, list(range(n)) + [n + m])]
    tab[-1, :] = 0.0
    tab[-1, :n] = c
    for r, j in enumerate(basis):
        tab[-1] -= tab[-1, j] * tab[r]

    # Phase-two reduced costs are on the scale of c; an absolute tolerance
    # would stop early, without a single pivot, on tiny costs.
    iterations += _bland_iterate(tab, basis, n,
                                 FEASIBILITY_TOL * np.abs(c).max(initial=0.0))

    x = np.zeros(n)
    for r, j in enumerate(basis):
        x[j] = tab[r, -1]
    return "optimal", x, iterations


def solve(problem):
    """Optimise the transport problem.  The optimum is a polytope vertex.

    Maximisation runs the minimiser on negated costs, so the identity
    max(c) == -min(-c) holds exactly.
    """
    k = problem.costs.shape[0]
    cells, A = _equality_form(k, problem.zero_mask)
    b = np.concatenate([problem.row_targets, problem.col_targets[:-1]])
    c = np.array([problem.costs[i, j] for i, j in cells])
    if problem.sense == "max":
        c = -c

    status, x, iterations = _two_phase(A, b, c)
    if status != "optimal":
        return LpSolution(status="infeasible", value=np.nan, theta=None,
                          iterations=iterations)

    if x.size and x.min() < -FEASIBILITY_TOL:
        raise ArithmeticError(
            f"simplex produced a negative cell ({x.min():.3e})")
    x = np.maximum(x, 0.0)

    theta = np.zeros((k, k))
    for idx, (i, j) in enumerate(cells):
        theta[i, j] = x[idx]
    row_err = np.abs(theta.sum(axis=1) - problem.row_targets).max()
    col_err = np.abs(theta.sum(axis=0) - problem.col_targets).max()
    if max(row_err, col_err) > FEASIBILITY_TOL:
        raise ArithmeticError(
            f"simplex optimum violates marginals by {max(row_err, col_err):.3e}")

    value = float(np.sum(problem.costs * theta))
    return LpSolution(status="optimal", value=value, theta=theta,
                      iterations=iterations)


def check_feasibility(row_targets, col_targets, zero_mask=frozenset()):
    """True when some matrix meets the targets with the masked cells zero.

    Runs phase one only (zero objective) on the same equality form.
    """
    k = len(row_targets)
    problem = TransportProblem(costs=np.zeros((k, k)), row_targets=row_targets,
                               col_targets=col_targets, zero_mask=zero_mask)
    cells, A = _equality_form(k, problem.zero_mask)
    b = np.concatenate([problem.row_targets, problem.col_targets[:-1]])
    status, _, _ = _two_phase(A, b, np.zeros(len(cells)))
    return status == "optimal"
