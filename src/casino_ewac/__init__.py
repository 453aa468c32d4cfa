"""Sharp bounds on the expected winnings attributable to cheating in the
two-state dishonest-casino hidden Markov model."""

from casino_ewac.engine import (EwacBounds, EwacObjective, InfeasibleMaskError,
                                asymptotic_ewac_rate, copula_pmf, cs_mask,
                                ewac_bounds, ewac_objective, ewac_of_theta,
                                greedy_column, inhomogeneous_bounds,
                                inhomogeneous_theta, naive_ewac, pm_mask,
                                stationary, validate_joint_pmf)
from casino_ewac.hmm import (BIASED, FAIR, HmmModel, ZeroLikelihoodError,
                             canonical_model, sample_hidden_paths, simulate,
                             smooth)
from casino_ewac.paths import PATH_1, PATH_2
from casino_ewac.sweeps import (SweepRow, WacSamples, default_eta_grid,
                                default_horizon_grid, eta_sweep, horizon_sweep,
                                sample_wac)
from casino_ewac.transport import (FEASIBILITY_TOL, LpSolution,
                                   TransportProblem, check_feasibility, solve)

__version__ = "0.1.0"

__all__ = [
    "BIASED",
    "FAIR",
    "FEASIBILITY_TOL",
    "EwacBounds",
    "EwacObjective",
    "HmmModel",
    "InfeasibleMaskError",
    "LpSolution",
    "PATH_1",
    "PATH_2",
    "SweepRow",
    "TransportProblem",
    "WacSamples",
    "ZeroLikelihoodError",
    "asymptotic_ewac_rate",
    "canonical_model",
    "check_feasibility",
    "copula_pmf",
    "cs_mask",
    "default_eta_grid",
    "default_horizon_grid",
    "eta_sweep",
    "ewac_bounds",
    "ewac_objective",
    "ewac_of_theta",
    "greedy_column",
    "horizon_sweep",
    "inhomogeneous_bounds",
    "inhomogeneous_theta",
    "naive_ewac",
    "pm_mask",
    "sample_hidden_paths",
    "sample_wac",
    "simulate",
    "smooth",
    "solve",
    "stationary",
    "validate_joint_pmf",
]
