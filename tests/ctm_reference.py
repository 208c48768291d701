"""Slow reference CTM: the per-cell loop kernel that ``ctmflow.ctm``'s array
kernel replaced, kept to property-test the array kernel against.

Every junction rule runs cell by cell and edge by edge on Python floats,
through the scalar fundamental-diagram helpers ``demand`` and ``supply``,
which derive their slopes v tau / L and w tau / L from the cell and the
step length themselves, not from the network's arrays; neighbour lists
(``downstream``, ``upstream``) come from the adjacency pairs, not from the
degree and edge arrays. A receiving cell throttles only a total demand
above ``ZERO_DEMAND_TOL`` times its largest supply, min(max C, w tau / L
x_jam), as in the array kernel; a priority merge applies its median rule
only where its target throttles.

``mass_balance_error`` is the conservation check of a simulated run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ctmflow.ctm import ZERO_DEMAND_TOL
from ctmflow.network import Cell, Network, Scenario

INF_SUPPLY = math.inf


def capacity(cell: Cell, t: int) -> float:
    """C_i(t), constant-extending the last entry beyond the schedule."""
    sched = cell.capacity_schedule
    return sched[t] if t < len(sched) else sched[-1]


def demand(cell: Cell, tau: float, x: float, alpha: float, t: int,
           source: bool = False) -> float:
    """Controllable demand d_bar(x, alpha) at step t, veh/step.

    Speed-limit scaling on non-sources, capacity metering on sources.
    """
    if x < 0:
        raise ValueError(f"cell {cell.id}: negative volume {x}")
    slope = cell.free_flow_speed * tau / cell.length
    cap = capacity(cell, t)
    if source:
        return min(slope * x, alpha * cap)
    return min(alpha * slope * x, cap)


def supply(cell: Cell, tau: float, x: float, t: int, source: bool = False) -> float:
    """Supply s(x, t) in veh/step; +inf for sources."""
    if source:
        return INF_SUPPLY
    if x > cell.jam_volume + 1e-9:
        raise ValueError(f"cell {cell.id}: volume {x} exceeds jam {cell.jam_volume}")
    return min(cell.wave_speed * tau / cell.length * (cell.jam_volume - x), capacity(cell, t))


def downstream(network: Network, cell_id: str) -> list:
    """The cells that cell_id feeds, in adjacency order."""
    return [j for i, j in network.adjacency if i == cell_id]


def upstream(network: Network, cell_id: str) -> list:
    """The cells that feed cell_id, in adjacency order."""
    return [i for i, j in network.adjacency if j == cell_id]


def priority_merges(network: Network) -> list:
    """(target, first upstream, second upstream) ids of every two-in merge
    whose upstream cells feed only it."""
    return [(c.id, *ups) for c in network.cells for ups in [upstream(network, c.id)]
            if len(ups) == 2 and all(len(downstream(network, u)) == 1 for u in ups)]


@dataclass
class FlowRates:
    """Per-step rates: pair flows f, aggregates y/z, external outflow mu."""

    f: dict                  # (i, j) id pair -> veh/step
    y: np.ndarray
    z: np.ndarray
    mu: np.ndarray
    gamma: np.ndarray


def dense_routing(net: Network, ratios) -> np.ndarray:
    """The (n, n) turning-ratio matrix R_ij of one step's per-edge ratios."""
    R = np.zeros((net.n, net.n))
    for (i, j), r in zip(net.adjacency, ratios):
        R[net.index[i], net.index[j]] = r
    return R


def _negligible(network: Network, cell_id: str) -> float:
    cell = network.cells[network.index[cell_id]]
    largest_supply = cell.wave_speed * network.tau / cell.length * cell.jam_volume
    return ZERO_DEMAND_TOL * min(max(cell.capacity_schedule), largest_supply)


def _demands_supplies(net: Network, x: np.ndarray, alpha: np.ndarray, t: int):
    dbar = np.empty(net.n)
    s = np.empty(net.n)
    for k, c in enumerate(net.cells):
        source = c.id in net.sources
        dbar[k] = demand(c, net.tau, float(x[k]), float(alpha[k]), t, source)
        s[k] = supply(c, net.tau, float(min(x[k], c.jam_volume)), t, source)
    return dbar, s


def priority_merge_flows(demands, total_supply: float, priorities) -> tuple[float, float]:
    d0, d1 = float(demands[0]), float(demands[1])
    p0, p1 = float(priorities[0]), float(priorities[1])
    s = float(total_supply)
    if d0 + d1 <= s:
        return d0, d1
    f0 = float(np.median([d0, s - d1, p0 * s]))
    f1 = float(np.median([d1, s - d0, p1 * s]))
    return max(f0, 0.0), max(f1, 0.0)


def fifo_rates(network: Network, x: np.ndarray, alpha: np.ndarray,
               R: np.ndarray, lam: np.ndarray, t: int,
               priority_merges: dict | None = None) -> FlowRates:
    """FIFO junction rates; proportional merges unless priorities given."""
    n = network.n
    dbar, s = _demands_supplies(network, x, alpha, t)
    idx = network.index
    gamma = np.ones(n)
    for k, c in enumerate(network.cells):
        for j in downstream(network, c.id):
            jj = idx[j]
            if R[k, jj] == 0.0:
                continue    # i sends nothing to j, so j cannot throttle it
            tot = float(sum(R[idx[h], jj] * dbar[idx[h]] for h in upstream(network, j)))
            if tot > _negligible(network, j) and np.isfinite(s[jj]):
                gamma[k] = min(gamma[k], max(s[jj] / tot, 0.0))
    z = gamma * dbar
    for target, prios in (priority_merges or {}).items():
        u0, u1 = upstream(network, target)
        jj = idx[target]
        tot = float(sum(R[idx[h], jj] * dbar[idx[h]] for h in (u0, u1)))
        if tot <= _negligible(network, target) or s[jj] >= tot:
            continue    # the target does not throttle: FIFO's flows
        f0, f1 = priority_merge_flows(
            (dbar[idx[u0]], dbar[idx[u1]]), s[idx[target]], (prios[u0], prios[u1]))
        z[idx[u0]], z[idx[u1]] = f0, f1
    mu = np.zeros(n)
    f: dict = {}
    for k, c in enumerate(network.cells):
        if c.id in network.sinks:
            # sinks face unbounded external supply: gamma = 1 by convention
            z[k] = dbar[k]
            gamma[k] = 1.0
            mu[k] = z[k]
        else:
            for j in downstream(network, c.id):
                f[(c.id, j)] = R[k, idx[j]] * z[k]
    y = lam.astype(float).copy()
    for (i, j), v in f.items():
        y[idx[j]] += v
    return FlowRates(f=f, y=y, z=z, mu=mu, gamma=gamma)


def nonfifo_rates(network: Network, x: np.ndarray, alpha: np.ndarray,
                  R: np.ndarray, lam: np.ndarray, t: int) -> FlowRates:
    """Non-FIFO rates: per-receiving-cell throttling only."""
    n = network.n
    dbar, s = _demands_supplies(network, x, alpha, t)
    idx = network.index
    gamma = np.ones(n)     # receiving coefficient per cell
    for k, c in enumerate(network.cells):
        ups = upstream(network, c.id)
        tot = float(sum(R[idx[h], k] * dbar[idx[h]] for h in ups))
        if tot > _negligible(network, c.id) and np.isfinite(s[k]):
            gamma[k] = min(1.0, max(s[k] / tot, 0.0))
    mu = np.zeros(n)
    z = np.zeros(n)
    f: dict = {}
    for k, c in enumerate(network.cells):
        if c.id in network.sinks:
            z[k] = dbar[k]
            mu[k] = z[k]
        else:
            for j in downstream(network, c.id):
                jj = idx[j]
                f[(c.id, j)] = gamma[jj] * R[k, jj] * dbar[k]
            z[k] = float(sum(f[(c.id, j)] for j in downstream(network, c.id)))
    y = lam.astype(float).copy()
    for (i, j), v in f.items():
        y[idx[j]] += v
    return FlowRates(f=f, y=y, z=z, mu=mu, gamma=gamma)


def step(network: Network, x: np.ndarray, rates: FlowRates,
         tol: float = 1e-9) -> np.ndarray:
    """Apply x+ = x + y - z and enforce the state invariants."""
    xp = x + rates.y - rates.z
    for k, c in enumerate(network.cells):
        if xp[k] < -tol:
            raise ValueError(f"cell {c.id}: negative volume {xp[k]} after step")
        if c.id not in network.sources and xp[k] > c.jam_volume + max(tol, 1e-9 * c.jam_volume):
            raise ValueError(f"cell {c.id}: volume {xp[k]} exceeds jam {c.jam_volume}")
    return np.maximum(xp, 0.0)


def simulate(scenario: Scenario, controls=None, model: str = "fifo"):
    """States (T+1, n) and the T per-step FlowRates of an open-loop run."""
    net = scenario.network
    lam = scenario.inflow
    x = scenario.x0.copy()
    states = [x.copy()]
    rates_log = []
    merges = None
    if model == "fifo-priority":     # even priorities
        merges = {target: {u0: 0.5, u1: 0.5} for target, u0, u1 in priority_merges(net)}
    alphas = np.ones((1, net.n)) if controls is None else controls.alphas
    edges = None if controls is None else controls.routing
    edges = scenario.routing if edges is None else edges
    for t in range(scenario.horizon):
        alpha = np.asarray(alphas[min(t, len(alphas) - 1)], dtype=float)
        R = dense_routing(net, edges[min(t, len(edges) - 1)])
        if model == "nonfifo":
            rates = nonfifo_rates(net, x, alpha, R, lam[t], t)
        else:
            rates = fifo_rates(net, x, alpha, R, lam[t], t, priority_merges=merges)
        x = step(net, x, rates)
        states.append(x.copy())
        rates_log.append(rates)
    return np.array(states), rates_log


def mass_balance_error(trajectory, scenario: Scenario) -> float:
    """|sum x(T) - sum x(0) - sum lambda + sum mu|, should be ~0."""
    lam_total = scenario.inflow.sum()
    return abs(float(trajectory.states[-1].sum())
               - float(trajectory.states[0].sum()) - lam_total + float(trajectory.mu.sum()))
