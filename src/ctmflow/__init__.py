"""Freeway traffic simulation and optimal network control toolkit."""

from .ctm import CostSpec, InvariantError, Trajectory, evaluate_cost, simulate
from .network import Cell, Network, Scenario, constant_routing, load_scenario, save_scenario
from .program import ConvexProgram, build_dta, build_fnc
from .solver import Solution, solve
from .synthesis import ControlSchedule, extract_controls, verify_realization

__version__ = "0.1.0"

__all__ = [
    "Cell", "ControlSchedule", "ConvexProgram", "CostSpec", "InvariantError",
    "Network", "Scenario", "Solution", "Trajectory",
    "build_dta", "build_fnc", "constant_routing", "evaluate_cost",
    "extract_controls", "load_scenario", "save_scenario", "simulate", "solve",
    "verify_realization",
]
