"""Directed polymers with complex random weights on b-ary trees.

The package predicts the free energy and phase region of the model from
the environment law (phase), evaluates the partition functionals exactly
on sampled trees of desk scale (sim), and verifies the predictions
statistically with replicated Monte Carlo (mc).  Environment laws live in
env, reproducible tree-addressed randomness in rng, and the command-line
driver in cli.
"""

from .env import (DeterministicConstant, EnvironmentSpec, GaussianIndep,
                  LogNormalUniformPhase, RademacherPhase, spec_from_config)
from .errors import (BudgetExceeded, ConfigError, CoupledLaw, DomainError,
                     NoBracket, TreePolymerError)
from .mc import (ExperimentPlan, McEstimate, TauReport, VerifyReport,
                 batch_z_values, estimate_free_energy, estimate_w_free_energy,
                 paley_zygmund_bound, ratio4, tau_moment_check,
                 verify_moments)
from .phase import (CriticalSet, PhaseReport, alpha_min, classify,
                    classify_indep_closed_form, critical_set, g_of_alpha,
                    l2_check, positive_weight_free_energy)
from .rng import BatchStream, TreeStream, node_offset
from .sim import (DEFAULT_NODE_BUDGET, FunctionalSet, OneStepReport,
                  SecondMomentReport, brute_force_evaluate,
                  closed_form_second_moment, dfs_evaluate,
                  one_step_identity_check, trace_depths)

__version__ = "0.1.0"

__all__ = [
    "BatchStream", "BudgetExceeded", "ConfigError", "CoupledLaw",
    "CriticalSet", "DEFAULT_NODE_BUDGET",
    "DeterministicConstant", "DomainError", "EnvironmentSpec",
    "ExperimentPlan", "FunctionalSet", "GaussianIndep",
    "LogNormalUniformPhase", "McEstimate", "NoBracket",
    "OneStepReport", "PhaseReport", "RademacherPhase", "SecondMomentReport",
    "TauReport", "TreePolymerError", "TreeStream", "VerifyReport",
    "alpha_min", "batch_z_values", "brute_force_evaluate", "classify",
    "classify_indep_closed_form",
    "closed_form_second_moment", "critical_set", "dfs_evaluate",
    "estimate_free_energy", "estimate_w_free_energy", "g_of_alpha",
    "l2_check", "node_offset", "one_step_identity_check",
    "paley_zygmund_bound", "positive_weight_free_energy", "ratio4",
    "spec_from_config", "tau_moment_check", "trace_depths", "verify_moments",
]
