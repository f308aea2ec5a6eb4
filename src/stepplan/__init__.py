"""Footstep planning for multilegged robots via mixed-integer quadratic programming."""

from .bnb import MiqpLimits, MiqpSolution, brute_force_solve, solve_miqp
from .errors import (
    AssemblyError,
    ConfigurationError,
    ContractViolation,
    DomainError,
    InfeasibleScenarioError,
    PlanningError,
    ScenarioParseError,
    StepPlanError,
)
from .formulation import (
    MiqpProblem,
    VariableLayout,
    assemble,
    scenario_tables,
    validate_assignment,
)
from .model import (
    Footstep,
    RobotModel,
    SafeRegion,
    Scenario,
    coc,
    config_of,
    derive_leg_goals,
    leg_of,
    nominal_position,
    wrap_angle,
)
from .lp_export import problem_to_lp, save_lp
from .plan_io import load_plan, plan_to_json, save_plan
from .planner import FootstepPlan, plan, validate_plan
from .pwl import PwlTable, build_table, segment_count_with_zero_knot
from .qp import BoxQp, QpSolution
from .scenario_io import load_scenario, parse_scenario, save_scenario, scenario_to_json
from .svg import render_plan_svg

__version__ = "0.1.0"

__all__ = [
    "AssemblyError",
    "BoxQp",
    "ConfigurationError",
    "ContractViolation",
    "DomainError",
    "Footstep",
    "FootstepPlan",
    "InfeasibleScenarioError",
    "MiqpLimits",
    "MiqpProblem",
    "MiqpSolution",
    "PlanningError",
    "PwlTable",
    "QpSolution",
    "RobotModel",
    "SafeRegion",
    "Scenario",
    "ScenarioParseError",
    "StepPlanError",
    "VariableLayout",
    "assemble",
    "brute_force_solve",
    "build_table",
    "coc",
    "config_of",
    "derive_leg_goals",
    "leg_of",
    "load_plan",
    "load_scenario",
    "nominal_position",
    "parse_scenario",
    "plan",
    "plan_to_json",
    "problem_to_lp",
    "render_plan_svg",
    "save_lp",
    "save_plan",
    "save_scenario",
    "scenario_tables",
    "scenario_to_json",
    "segment_count_with_zero_knot",
    "solve_miqp",
    "validate_assignment",
    "validate_plan",
    "wrap_angle",
]
