"""Open-loop control synthesis from relaxation solutions.

Any feasible point of the relaxed programs is realized exactly by the CTM
under the demand controls

    alpha_i(t) = z_i(t) / d_i(x_i(t))        non-sources (speed limit)
    alpha_i(t) = z_i(t) / C_i(t)             sources, cap binding (metering)

with the conventions alpha = 1 when z = d = 0, and, on sources whose cap
is slack (z already equals min{d(x), C}), alpha = 1 rather than z/C: both
realize the nominal trajectory, but the unrestrictive choice does not
throttle perturbed replays below the nominal plan. For the DTA the routing
is recovered as R_ij = f_ij / z_i (uniform across downstream cells where
z_i = 0). Replaying the controls keeps the trajectory in free-flow, so the
realized flows satisfy z_i = d_bar_i(x_i, alpha_i) at every step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ctm import Drive, InvariantError, Trajectory, junction_rates, simulate
from .network import Network, Scenario
from .program import ConvexProgram
from .solver import Solution

EXTRACT_TOL = 1e-7


@dataclass(eq=False)
class ControlSchedule:
    """Per-step demand controls and, optionally, turning ratios per edge in
    ``network.adjacency`` order; each array holds its last row past its end."""

    alphas: np.ndarray                  # (T, n) in [0, 1]
    routing: np.ndarray | None = None   # (T, E), or None = exogenous


def extract_controls(program: ConvexProgram, solution: Solution) -> ControlSchedule:
    """Map a feasible relaxation solution to realizing demand controls and
    routing for the program's scenario."""
    scenario = program.scenario
    net = scenario.network
    vals = solution.values
    source = net.source
    z = program.states(vals, "z")
    d_raw = net.demand_slope * np.maximum(program.states(vals)[:-1], 0.0)
    cap = scenario.capacity
    bound = np.minimum(d_raw, cap)
    over = z > bound + 1e-6 * (1.0 + np.abs(z))
    unfed = ~source & (d_raw <= EXTRACT_TOL) & (z > EXTRACT_TOL)
    if over.any() or unfed.any():
        t, k = np.argwhere(over | unfed)[0]
        if over[t, k]:
            raise InvariantError(
                f"solution violates the demand constraint at cell {net.cells[k].id}, step {t}: "
                f"z={z[t, k]} > min(d,C)={bound[t, k]}")
        raise InvariantError(f"cell {net.cells[k].id}, step {t}: z={z[t, k]} with zero demand "
                             "signals an infeasible solution")
    with np.errstate(divide="ignore", invalid="ignore"):
        metered = np.where((z >= bound - EXTRACT_TOL) | (cap <= 0), 1.0, np.clip(z / cap, 0.0, 1.0))
        limited = np.where(d_raw <= EXTRACT_TOL, 1.0, np.clip(z / d_raw, 0.0, 1.0))
    alphas = np.where(source, metered, limited)
    routing = None
    if program.kind == "DTA":
        src = net.src[:-1]
        z_out = z[:, src]
        # solver noise can leave ~1e-10 flows pointing into cells with zero
        # supply, which would zero the replay's FIFO coefficient; drop them
        # before normalizing
        f = program.states(vals, "f")
        f = np.where(f < 1e-8 * (1.0 + z_out), 0.0, f)
        total = np.zeros_like(z)
        np.add.at(total, (slice(None), src), f)
        routing = np.where((z_out > EXTRACT_TOL) & (total[:, src] > 0),
                           f / np.where(total > 0, total, 1.0)[:, src],
                           1.0 / np.bincount(src, minlength=net.n)[src])
    return ControlSchedule(alphas=alphas, routing=routing)


@dataclass(eq=False)
class RealizationReport:
    max_deviation: float          # max over t, i of |x_sim - x_ref|
    tolerance: float              # 1e-6 * (1 + max |x_ref|)
    trajectory: Trajectory

    @property
    def realized(self) -> bool:
        return self.max_deviation <= self.tolerance

    @property
    def always_freeflow(self) -> bool:
        return self.trajectory.is_freeflow()


def verify_realization(controls: ControlSchedule, scenario: Scenario,
                       reference_states: np.ndarray, model: str = "fifo") -> RealizationReport:
    """Replay controls through the CTM and compare against the reference."""
    traj = simulate(scenario, controls=controls, model=model)
    ref = np.asarray(reference_states, dtype=float)
    dev = float(np.max(np.abs(traj.states - ref)))
    tol = 1e-6 * (1.0 + float(np.max(np.abs(ref))))
    return RealizationReport(max_deviation=dev, tolerance=tol, trajectory=traj)


@dataclass
class StructureReport:
    fnc_cost: float
    fifo_cost: float
    cost_gap: float               # |fnc - fifo| / max(|fifo|, 1)
    max_flow_deviation: float     # worst |z* - rule(x*)| at ordinary/diverge cells
    checked_cells: int

    @property
    def ok(self) -> bool:
        return self.cost_gap <= 1e-3 and self.max_flow_deviation <= 1e-6


def _junction_heads(net: Network) -> np.ndarray:
    """The cells heading into an ordinary or diverge junction, those that are
    their junction's only input; merge heads follow the priority structure
    and are not checked. Refuses a general junction: a cell that splits to
    two or more cells, one of which another cell also feeds."""
    src, dst = net.src[:-1], net.dst[:-1]
    if ((net.out_degree[src] > 1) & (net.in_degree[dst] > 1)).any():
        raise ValueError("structure check refuses networks with general junctions")
    return np.setdiff1d(np.flatnonzero(net.out_degree > 0), src[net.in_degree[dst] > 1])


def check_fnc_structure(program: ConvexProgram, solution: Solution,
                        fifo_cost: float) -> StructureReport:
    """Verify the no-speed-limit structure of the optimal FNC solution.

    Preconditions: total-volume cost, identical demand slopes across cells,
    affine supplies, and no general junctions; refused otherwise. At every
    cell heading into an ordinary or diverge junction the optimal outflow
    must equal the uncontrolled CTM sending rule evaluated at the optimal
    volumes:

        ordinary:  z* = min(d_bar(x*), s_downstream(x*))
        diverge:   z* = d_bar(x*) * min(1, min_k s_k(x*_k) / (R_ik d_bar(x*)))
    """
    scenario = program.scenario
    net = scenario.network
    if program.kind != "FNC":
        raise ValueError("structure check applies to FNC programs")
    if not program.is_total_volume:
        raise ValueError("structure check requires the total-volume cost")
    slopes = net.demand_slope
    if slopes.max() - slopes.min() > 1e-12:
        raise ValueError("structure check requires identical demand slopes on all cells")
    heads = _junction_heads(net)
    x_star = np.maximum(program.states(solution.values)[:-1], 0.0)
    _, z_rule, _, _ = junction_rates(net, x_star, Drive.for_run(scenario),
                                     slice(None), 0.0)
    z_star = program.states(solution.values, "z")
    deviation = np.abs(z_star[:, heads] - z_rule[:, heads])
    worst, checked = float(deviation.max(initial=0.0)), deviation.size
    gap = abs(solution.objective - fifo_cost) / max(abs(fifo_cost), 1.0)
    return StructureReport(fnc_cost=solution.objective, fifo_cost=fifo_cost,
                           cost_gap=gap, max_flow_deviation=worst,
                           checked_cells=checked)
