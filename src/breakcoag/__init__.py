"""Deterministic simulator and verification suite for coagulation with
collision-induced breakage on a truncated geometric volume grid.
"""

from .daughter import DaughterSpec, ProbSpec, eval_b, eval_E, \
    moment_integral, partial_moment_integral
from .diagnostics import ContractionResult, MomentSeries, \
    check_apriori_bounds, check_mass_conservation, contraction_experiment, \
    detect_gelation, e_sweep, equicontinuity_modulus, moment_series
from .dlvp import PhiConstruction, build_j_sequence, build_phi, eval_phi, \
    eval_phi0, verify_dlvp
from .errors import ConfigError, DataError, DomainError, IntegrationError
from .grid import Grid, InitialCondition, State, make_grid, moment, \
    read_tabulated_csv, sample_initial
from .hypotheses import CheckResult, HypothesisReport, check_scenario, \
    classify_growth, coalescence_threshold, threshold_bg, threshold_singular, \
    verify_uniform_integrability
from .kernels import KernelSpec, eval_kernel
from .solver import OperatorTables, StepControl, Trajectory, apply_rhs, \
    build_tables, integrate, weak_form_residual

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
