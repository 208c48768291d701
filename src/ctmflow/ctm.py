"""Discrete-time Cell Transmission Model simulator.

State update (synchronous, explicit):

    x_i(t+1) = x_i(t) + y_i(t) - z_i(t)
    y_i(t)   = lambda_i(t) + sum_j f_ji(t)
    z_i(t)   = mu_i(t) + sum_j f_ij(t)

Junction rules, all evaluated on the controllable demands
d_bar_i = d_bar(x_i, alpha_i) and supplies s_j(x_j):

  FIFO (proportional merge):
      gamma_i = min(1, min over k with R_ik > 0 of s_k / sum_h R_hk d_bar_h)
      z_i = gamma_i * d_bar_i,   f_ij = R_ij z_i
      (vacuous constraints count as 1; sinks discharge mu = d_bar)

  FIFO with priority merges: at two-in merge junctions the flows follow
  Daganzo's median rule

      f_i = med{d_bar_i, s - d_bar_h, p_i s}     (p_i + p_h = 1)

  when total demand exceeds supply; elsewhere identical to FIFO.

  non-FIFO: congestion in one outgoing cell does not throttle flow toward
  the others:

      gamma_j = min(1, s_j / sum_h R_hj d_bar_h),   f_ij = gamma_j R_ij d_bar_i
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .network import Network, Scenario, demand, supply, validate

MODELS = ("fifo", "fifo-priority", "nonfifo")


@dataclass
class FlowRates:
    """Per-step rates: pair flows f, aggregates y/z, external outflow mu.

    gamma holds the FIFO sending coefficient per cell for FIFO models and
    the receiving coefficient per cell for the non-FIFO model; in either
    case the step is free-flow iff gamma == 1 everywhere.
    """

    f: dict                  # (i, j) id pair -> veh/step
    y: np.ndarray
    z: np.ndarray
    mu: np.ndarray
    gamma: np.ndarray


@dataclass
class Trajectory:
    states: np.ndarray       # (T+1, n)
    rates: list              # T FlowRates
    model: str
    network: Network

    @property
    def horizon(self) -> int:
        return len(self.rates)

    def min_gamma(self) -> float:
        """Congestion factor: min over cells and steps of gamma."""
        return min(float(r.gamma.min()) for r in self.rates) if self.rates else 1.0

    def is_freeflow(self, tol: float = 1e-9) -> bool:
        return self.min_gamma() >= 1.0 - tol


@dataclass(frozen=True)
class CostSpec:
    """Running cost psi(x, z) summed over cells and steps.

    kind: TTT | TTD | Delay | QuadraticVolume | WeightedSum.
    weights: optional per-cell weight vector (defaults to ones).
    components: for WeightedSum, tuple of (coefficient, CostSpec).
    """

    kind: str
    weights: tuple[float, ...] | None = None
    components: tuple = ()

    KINDS = ("TTT", "TTD", "Delay", "QuadraticVolume", "WeightedSum")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown cost kind {self.kind!r}")
        if self.kind == "WeightedSum" and not self.components:
            raise ValueError("WeightedSum needs components")

    def cell_weights(self, n: int) -> np.ndarray:
        if self.weights is None:
            return np.ones(n)
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (n,):
            raise ValueError(f"weights shape {w.shape} != ({n},)")
        return w


def _alpha_of(controls, t: int, n: int) -> np.ndarray:
    if controls is None:
        return np.ones(n)
    return np.asarray(controls.alpha_at(t), dtype=float)


def _routing_of(controls, scenario: Scenario, t: int) -> np.ndarray:
    if controls is not None and controls.routing_at(t) is not None:
        return np.asarray(controls.routing_at(t), dtype=float)
    if scenario.routing is None:
        raise ValueError("no routing available: scenario has none and controls carry none")
    return scenario.routing.at(t)


def _demands_supplies(net: Network, x: np.ndarray, alpha: np.ndarray, t: int):
    dbar = np.empty(net.n)
    s = np.empty(net.n)
    for k, c in enumerate(net.cells):
        dbar[k] = demand(c, float(x[k]), float(alpha[k]), t)
        s[k] = supply(c, float(min(x[k], c.diagram.jam_volume)), t)
    return dbar, s


def priority_merge_flows(demands, total_supply: float, priorities) -> tuple[float, float]:
    """Daganzo's priority merge for exactly two upstream cells.

    Each flow is the median of {own demand, supply - other demand,
    own priority * supply}; when total demand fits the supply both cells
    send their full demand.
    """
    if len(demands) != 2 or len(priorities) != 2:
        raise ValueError("priority merge is defined for exactly two upstream cells")
    d0, d1 = float(demands[0]), float(demands[1])
    p0, p1 = float(priorities[0]), float(priorities[1])
    if p0 < 0 or p1 < 0 or abs(p0 + p1 - 1.0) > 1e-9:
        raise ValueError("priorities must be nonnegative and sum to 1")
    s = float(total_supply)
    if d0 + d1 <= s:
        return d0, d1
    f0 = float(np.median([d0, s - d1, p0 * s]))
    f1 = float(np.median([d1, s - d0, p1 * s]))
    return max(f0, 0.0), max(f1, 0.0)


def fifo_rates(network: Network, x: np.ndarray, alpha: np.ndarray,
               R: np.ndarray, lam: np.ndarray, t: int,
               priority_merges: dict | None = None) -> FlowRates:
    """FIFO junction rates; proportional merges unless priorities given.

    priority_merges maps a merge target cell id to its upstream priority
    pair {upstream_id: p}; junctions not listed stay proportional.
    """
    n = network.n
    dbar, s = _demands_supplies(network, x, alpha, t)
    idx = network.index
    gamma = np.ones(n)
    for k, c in enumerate(network.cells):
        for j in network.downstream(c.id):
            jj = idx[j]
            if R[k, jj] == 0.0:
                continue    # i sends nothing to j, so j cannot throttle it
            tot = float(sum(R[idx[h], jj] * dbar[idx[h]] for h in network.upstream(j)))
            if tot > 1e-15 and np.isfinite(s[jj]):
                gamma[k] = min(gamma[k], max(s[jj] / tot, 0.0))
    z = gamma * dbar
    if priority_merges:
        for target, prios in priority_merges.items():
            ups = network.upstream(target)
            if len(ups) != 2:
                raise ValueError(f"priority merge at {target} needs exactly 2 upstream cells, found {len(ups)}")
            if any(len(network.downstream(u)) != 1 for u in ups):
                raise ValueError(f"priority merge at {target}: upstream cells must feed only this junction")
            u0, u1 = ups
            f0, f1 = priority_merge_flows(
                (dbar[idx[u0]], dbar[idx[u1]]), s[idx[target]],
                (prios[u0], prios[u1]))
            z[idx[u0]], z[idx[u1]] = f0, f1
    mu = np.zeros(n)
    f: dict = {}
    for k, c in enumerate(network.cells):
        if network.is_sink(c.id):
            # sinks face unbounded external supply: gamma = 1 by convention
            z[k] = dbar[k]
            gamma[k] = 1.0
            mu[k] = z[k]
        else:
            for j in network.downstream(c.id):
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
        ups = network.upstream(c.id)
        tot = float(sum(R[idx[h], k] * dbar[idx[h]] for h in ups))
        if tot > 1e-15 and np.isfinite(s[k]):
            gamma[k] = min(1.0, max(s[k] / tot, 0.0))
    mu = np.zeros(n)
    z = np.zeros(n)
    f: dict = {}
    for k, c in enumerate(network.cells):
        if network.is_sink(c.id):
            z[k] = dbar[k]
            mu[k] = z[k]
        else:
            for j in network.downstream(c.id):
                jj = idx[j]
                f[(c.id, j)] = gamma[jj] * R[k, jj] * dbar[k]
            z[k] = float(sum(f[(c.id, j)] for j in network.downstream(c.id)))
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
        if not c.diagram.is_source and xp[k] > c.diagram.jam_volume + max(tol, 1e-9 * c.diagram.jam_volume):
            raise ValueError(f"cell {c.id}: volume {xp[k]} exceeds jam {c.diagram.jam_volume}")
    return np.maximum(xp, 0.0)


def simulate(scenario: Scenario, controls=None, model: str = "fifo",
             priority_merges: dict | None = None,
             check: bool = True) -> Trajectory:
    """Run the CTM open-loop for the scenario horizon.

    controls exposes alpha_at(t) and routing_at(t) (see synthesis); None
    means alpha == 1 with the scenario's exogenous routing.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}, expected one of {MODELS}")
    net = scenario.network
    if check:
        report = validate(net, scenario)
        if not report.ok:
            raise ValueError(f"invalid scenario:\n{report}")
    lam = scenario.inflow_array()
    x = scenario.x0_array().copy()
    states = [x.copy()]
    rates_log: list[FlowRates] = []
    if model == "fifo-priority" and priority_merges is None:
        # default: even priorities at every two-in merge junction
        priority_merges = {}
        for c in net.cells:
            ups = net.upstream(c.id)
            if len(ups) == 2 and all(len(net.downstream(u)) == 1 for u in ups):
                priority_merges[c.id] = {ups[0]: 0.5, ups[1]: 0.5}
    for t in range(scenario.horizon):
        alpha = _alpha_of(controls, t, net.n)
        R = _routing_of(controls, scenario, t)
        if model == "nonfifo":
            rates = nonfifo_rates(net, x, alpha, R, lam[t], t)
        elif model == "fifo-priority":
            rates = fifo_rates(net, x, alpha, R, lam[t], t, priority_merges=priority_merges)
        else:
            rates = fifo_rates(net, x, alpha, R, lam[t], t)
        try:
            x = step(net, x, rates)
        except ValueError as e:
            raise ValueError(f"step {t}: {e}") from e
        states.append(x.copy())
        rates_log.append(rates)
    return Trajectory(states=np.array(states), rates=rates_log, model=model, network=net)


def evaluate_cost(trajectory: Trajectory, cost: CostSpec) -> float:
    """Discrete sum over steps and cells of psi(x, z).

    States t = 0..T-1 pair with their step rates; the terminal state enters
    with zero rates, so volume costs include x(T) and flow costs do not.
    """
    net = trajectory.network
    n = net.n
    xs = trajectory.states
    T = trajectory.horizon
    zs = np.zeros((T + 1, n))
    for t, r in enumerate(trajectory.rates):
        zs[t] = r.z

    def psi_sum(spec: CostSpec) -> float:
        w = spec.cell_weights(n)
        if spec.kind == "TTT":
            return float((xs * w).sum())
        if spec.kind == "QuadraticVolume":
            return float(((xs ** 2) * w).sum())
        if spec.kind == "TTD":
            lengths = np.array([c.length for c in net.cells])
            return float(-(zs * lengths * w).sum())
        if spec.kind == "Delay":
            slopes = np.array([c.diagram.demand_slope for c in net.cells])
            if np.any(slopes <= 0):
                raise ValueError("Delay cost needs positive demand slopes")
            return float(((xs - zs / slopes) * w).sum())
        if spec.kind == "WeightedSum":
            return float(sum(coef * psi_sum(sub) for coef, sub in spec.components))
        raise AssertionError(spec.kind)

    return psi_sum(cost)


def mass_balance_error(trajectory: Trajectory, scenario: Scenario) -> float:
    """|sum x(T) - sum x(0) - sum lambda + sum mu|, should be ~0."""
    lam_total = scenario.inflow_array().sum()
    mu_total = sum(float(r.mu.sum()) for r in trajectory.rates)
    return abs(float(trajectory.states[-1].sum())
               - float(trajectory.states[0].sum()) - lam_total + mu_total)


def trajectory_to_csv(trajectory: Trajectory, path) -> None:
    """Write (step, cell, x, y, z, mu, gamma) rows, 12 significant digits."""
    net = trajectory.network
    with open(path, "w") as fh:
        fh.write("step,cell,x_veh,y_veh_per_step,z_veh_per_step,mu_veh_per_step,gamma\n")
        for t, r in enumerate(trajectory.rates):
            for k, c in enumerate(net.cells):
                fh.write(f"{t},{c.id},{trajectory.states[t][k]:.12g},"
                         f"{r.y[k]:.12g},{r.z[k]:.12g},{r.mu[k]:.12g},{r.gamma[k]:.12g}\n")
        T = trajectory.horizon
        for k, c in enumerate(net.cells):
            fh.write(f"{T},{c.id},{trajectory.states[T][k]:.12g},0,0,0,1\n")
