"""Discrete-time mean-field stochastic optimal control on finite scenario trees.

The package builds exact event trees for finite-support noise, simulates
controlled mean-field dynamics, solves the paired backward (adjoint) system,
evaluates Hamiltonian first-order conditions and spike-variation diagnostics,
and optimizes nodal controls by projected gradient with an exhaustive oracle
for cross-checking.
"""

__version__ = "0.1.0"

from .adjoint import (AdjointSolution, StepCoefficients, closed_form_costate,
                      forward_linear_levels, integrability_report, linearize, propagate,
                      solve_adjoint, solve_linear_forward, variation_of_constants)
from .errors import (ConfigError, CostDomainError, MfsmpError, SimulationError,
                     TreeSizeError)
from .forward import StateTrajectory, check_feasible, constant_control, cost, simulate
from .optimize import OptimizeResult, OptimizerOptions, brute_force, optimize
from .problem import (AdmissibleSet, CoefficientSet, ProblemSpec, builtin, parse_problem,
                      serialize_problem, to_config, validate_spec)
from .report import CheckReport, Residual
from .smp import (SpikeVariation, adjoint_gradient, certify_gradient, duality_residual,
                  hamiltonian, hamiltonian_gradient, necessary_check, rate_check, rate_ratios,
                  spike_cost_increment, sufficiency_check, variational_state)
from .tree import (AdaptedProcess, NoiseModel, ScenarioTree, TimeGrid, build_tree,
                   cond_expect, cond_expect_noise, expect, validate_noise)

__all__ = [name for name in dir() if not name.startswith("_")]
