"""Linear programming over transportation polytopes with forced-zero cells.

The feasible set is the set of K x K matrices with fixed row and column
sums, optionally with a set of cells pinned to zero.  The solver is the
transportation simplex (Dantzig 1951; Ahuja, Magnanti and Orlin 1993,
*Network Flows*, ch. 11): a basis is a spanning tree of 2K - 1 cells over
the rows and columns, the first the north-west corner.  Each pivot walks
the tree once from row 0 for the potentials (u_i + v_j = c_ij on the tree)
and the parent links; the entering cell has the most negative reduced
cost c - u - v over the grid (Dantzig's rule), and the cells on the tree
paths up from its row and column alternately lose and gain the leaving
cell's value.  Every optimum returned is a vertex.

No pivot sequence cycles: Orden's (1956) perturbation adds K + 1 epsilons
to each row target, K to each column and K more to the last.  A tree cell
holds the net target of the side of the tree it cuts off, whose epsilon
part (K + 1) rows - K (columns + [last]) is zero only for an empty side or
the whole, so no perturbed basis is degenerate, zero targets included.
The leaving cell is the least (value, epsilon coefficient) of the losing
cells, values within 2K eps of the total mass tied (and zero in theta).

Phase one prices the masked cells at 1; the polytope is empty if they
keep over FEASIBILITY_TOL of the total mass.  Phase two goes on from that
tree, a cell entering only if unmasked at zero phase-one reduced cost (so
masked cells stay zero), until no reduced cost is below 64 eps max|c|
(scaled, or tiny costs stop early; at rounding level, or costs spanning
many magnitudes stop short).  ``iterations`` counts both phases' pivots.
Targets balance within 1e-12 of their total; no state outlives a call.
"""

import itertools
from dataclasses import dataclass

import numpy as np

FEASIBILITY_TOL = 1e-9
_BALANCE_TOL = 1e-12
_EPS = float(np.finfo(float).eps)

__all__ = ["FEASIBILITY_TOL", "TransportProblem", "LpSolution", "solve",
           "check_feasibility"]


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
    if abs(r.sum() - s.sum()) > _BALANCE_TOL * max(r.sum(), s.sum()):
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
        for name, value in (("costs", costs), ("row_targets", r),
                            ("col_targets", s),
                            ("zero_mask", _validated_mask(self.zero_mask, k))):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class LpSolution:
    """Solver outcome.  ``theta`` is None unless ``status`` is "optimal"."""

    status: str
    value: float
    theta: np.ndarray
    iterations: int


def _pivot(cells, held, cost, price, tol, tie):
    """(pivots, u, v): pivot the tree ``cells`` (``held`` in place) until no
    reduced cost of ``price`` is below -tol; u + v is ``cost`` on the tree."""
    k = cost.shape[0]
    c = cost.tolist()
    links = [set() for _ in range(2 * k)]  # node: {(neighbour, cell index)}
    for n, (i, j) in enumerate(cells):
        links[i].add((k + j, n))
        links[k + j].add((i, n))
    for pivots in itertools.count():
        pot, parent = [0.0] * (2 * k), [-1] * (2 * k)
        up, depth, stack = [-1] * (2 * k), [0] * (2 * k), [0]
        while stack:
            a = stack.pop()
            for b, n in links[a]:
                if b != parent[a]:
                    i, j = cells[n]
                    parent[b], up[b], depth[b] = a, n, depth[a] + 1
                    pot[b] = c[i][j] - pot[a]
                    stack.append(b)
        u, v = np.array(pot[:k]), np.array(pot[k:])
        reduced = price - u[:, None] - v
        best = int(reduced.argmin())
        if not reduced.flat[best] < -tol:
            return pivots, u, v
        i, j = divmod(best, k)
        a, b, paths = i, k + j, ([], [])
        while a != b:  # up to the meeting node, the deeper side first
            side = 0 if depth[a] >= depth[b] else 1
            paths[side].append(up[(a, b)[side]])
            a, b = (parent[a], b) if side == 0 else (a, parent[b])
        # Each path starts in the entering cell's row or column: it loses.
        lose = np.array(paths[0][::2] + paths[1][::2])
        near = lose[held[lose, 0] <= held[lose, 0].min() + tie]
        out = near[np.lexsort(held[near].T)[0]]
        step = held[out].copy()
        held[paths[0][1::2] + paths[1][1::2]] += step
        held[lose] -= step
        held[out] = step
        for p, q in (cells[out], (i, j)):  # the leaving edge out, entering in
            links[p] ^= {(k + q, out)}
            links[k + q] ^= {(p, out)}
        cells[out] = (i, j)


def _phase_one(k, zero_mask, r, s):
    """Phase one from the north-west corner: (tree, pivots), tree None if
    the polytope is empty, else (cells, held, masked, entering, tie) with
    ``masked`` the 0/1 costs and ``entering`` phase two's cells."""
    masked = np.zeros((k, k))
    masked.flat[[i * k + j for i, j in zero_mask]] = 1.0
    total = max(r.sum(), s.sum())
    tie = 2 * k * _EPS * total
    need = np.column_stack([np.r_[r, s], np.repeat([k + 1.0, k], k)])
    need[-1, 1] = 2.0 * k  # the perturbed targets
    cells, held, i, j = [], [], 0, k
    for _ in range(2 * k - 1):
        (a, x), (b, y) = need[i], need[j]
        # The row runs out first if less (lexicographically, values within
        # ``tie`` tied); in the last row or column the walk can only go on.
        row = j == 2 * k - 1 or i < k - 1 and (
            a < b - tie or a <= b + tie and x < y)
        cells.append((i, j - k))
        held.append(need[i if row else j].copy())
        need[j if row else i] -= held[-1]
        i, j = (i + 1, j) if row else (i, j + 1)
    held = np.array(held)
    # Phase-one potentials are integers, so its reduced costs are exact.
    pivots, u, v = _pivot(cells, held, masked, masked, 0.0, tie)
    if held[masked[tuple(np.transpose(cells))] > 0, 0].sum() > (
            FEASIBILITY_TOL * total):
        return None, pivots
    entering = (masked == 0) & (masked - u[:, None] - v == 0)
    return (cells, held, masked, entering, tie), pivots


def solve(problem):
    """Optimise the transport problem.  The optimum is a polytope vertex.

    Maximisation runs the minimiser on negated costs, so the identity
    max(c) == -min(-c) holds exactly.  ArithmeticError if theta misses
    the marginals by over FEASIBILITY_TOL, or if its dust in the column of
    a face the rows rule out (row target 0) carries over FEASIBILITY_TOL of
    sum |c| theta: a light face, whose huge costs make its few cells count.
    """
    k = problem.costs.shape[0]
    r, s = problem.row_targets, problem.col_targets
    tree, iterations = _phase_one(k, problem.zero_mask, r, s)
    if tree is None:
        return LpSolution(status="infeasible", value=np.nan, theta=None,
                          iterations=iterations)
    cells, held, masked, entering, tie = tree
    c = -problem.costs if problem.sense == "max" else problem.costs
    iterations += _pivot(cells, held, c, np.where(entering, c, np.inf),
                         64 * _EPS * np.abs(c).max(initial=0.0),
                         tie)[0]
    theta, x, at = np.zeros((k, k)), held[:, 0], tuple(np.transpose(cells))
    theta[at] = np.where(x > tie, x, 0.0)
    theta[masked > 0] = 0.0
    error = np.abs(np.r_[theta.sum(axis=1) - r, theta.sum(axis=0) - s]).max()
    if error > FEASIBILITY_TOL * max(r.sum(), s.sum()):
        raise ArithmeticError(
            f"simplex optimum violates marginals by {error:.3e}")
    dust = np.abs(problem.costs[at]) @ np.where(
        (x > 0) & (x <= tie) & (r[at[1]] == 0), x, 0.0)
    if dust > FEASIBILITY_TOL * np.sum(np.abs(problem.costs) * theta):
        raise ArithmeticError(
            f"simplex dust of a light face carries {dust:.3e} of the form")
    value = float(np.sum(problem.costs * theta))
    return LpSolution(status="optimal", value=value, theta=theta,
                      iterations=iterations)


def check_feasibility(row_targets, col_targets, zero_mask=frozenset()):
    """True when some matrix meets the targets with the masked cells zero:
    whether the phase one that ``solve`` runs keeps no masked mass."""
    k = len(row_targets)
    r, s = _validated_targets(row_targets, col_targets, k)
    return _phase_one(k, _validated_mask(zero_mask, k), r, s)[0] is not None
