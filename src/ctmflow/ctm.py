"""Discrete-time Cell Transmission Model simulator, as one array kernel.

State update (synchronous, explicit):

    x_i(t+1) = x_i(t) + y_i(t) - z_i(t)
    y_i(t)   = lambda_i(t) + sum_j f_ji(t)
    z_i(t)   = mu_i(t) + sum_j f_ij(t)

The network holds its array form, derived once when it is built: edges
e = (i, j) in adjacency order, slopes, jam volumes, source and sink masks.
Each run adds the (T, n) capacity matrix (``Scenario.capacity``) and the
turning ratios R_e(t). One kernel step maps a (B, n) batch of states, B
runs that share the network, controls and routing, to their rates with
whole-array operations; per-cell sums over edges run in adjacency order.

Junction rules, all evaluated on the controllable demands
d_bar_i = d_bar(x_i, alpha_i) and supplies s_j(x_j):

  FIFO (proportional merge):
      gamma_i = min(1, min over k with R_ik > 0 of s_k / sum_h R_hk d_bar_h)
      z_i = gamma_i * d_bar_i,   f_ij = R_ij z_i
      (vacuous constraints count as 1; sinks discharge mu = d_bar)

  FIFO with priority merges: at two-in merge junctions whose upstream cells
  feed only them, the flows follow Daganzo's median rule, with even
  priorities p_i = p_h = 1/2,

      f_i = med{d_bar_i, s - d_bar_h, p_i s}     (p_i + p_h = 1)

  where the merge's target throttles; elsewhere identical to FIFO.

  non-FIFO: congestion in one outgoing cell does not throttle flow toward
  the others:

      gamma_j = min(1, s_j / sum_h R_hj d_bar_h),   f_ij = gamma_j R_ij d_bar_i

A receiving cell throttles only a total demand above ZERO_DEMAND_TOL times
its largest supply, min(max_t C(t), w tau / L x_jam). Smaller demands
(solver noise, rounded controls) count as free flow under every rule, also
into a cell whose supply is zero. Where no cell throttles, all three rules
send the same flows: free flow does not depend on the rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .network import Network, Scenario

MODELS = ("fifo", "fifo-priority", "nonfifo")
ZERO_DEMAND_TOL = 1e-10
FREEFLOW_TOL = 1e-9      # a step is free-flow iff gamma >= 1 - FREEFLOW_TOL


class InvariantError(ValueError):
    """A volume outside [0, jam] after a step, or a solution off its program."""


@dataclass(eq=False)
class Trajectory:
    """A CTM run: states (T+1, n); y, z, mu and gamma (T, n); pair flows f
    (T, E) in ``network.adjacency`` order.

    gamma holds the FIFO sending coefficient per cell for FIFO models and
    the receiving coefficient per cell for the non-FIFO model; in either
    case a step is free-flow iff gamma == 1 everywhere. A batch of B runs
    carries a leading run axis on every array; ``traj[b]`` is run b.
    """

    states: np.ndarray
    y: np.ndarray
    z: np.ndarray
    mu: np.ndarray
    gamma: np.ndarray
    f: np.ndarray
    network: Network

    def __getitem__(self, b: int) -> "Trajectory":
        return Trajectory(self.states[b], self.y[b], self.z[b], self.mu[b],
                          self.gamma[b], self.f[b], self.network)

    @property
    def horizon(self) -> int:
        return self.y.shape[-2]

    def min_gamma(self) -> float:
        """Congestion factor: min over cells and steps (and runs) of gamma."""
        return float(self.gamma.min()) if self.gamma.size else 1.0

    def is_freeflow(self) -> bool:
        return self.min_gamma() >= 1.0 - FREEFLOW_TOL


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

    def coefficients(self, network: Network) -> tuple:
        """Per-cell (a, b, c) of the running cost a x + b x^2 + c z."""
        n = network.n
        a, b, c = np.zeros(n), np.zeros(n), np.zeros(n)

        def add(spec: CostSpec, coef: float):
            w = coef * (np.ones(n) if spec.weights is None else np.asarray(spec.weights, float))
            if w.shape != (n,):
                raise ValueError(f"weights shape {w.shape} != ({n},)")
            if spec.kind in ("TTT", "Delay"):
                a[:] += w
            if spec.kind == "QuadraticVolume":
                b[:] += w
            if spec.kind == "TTD":
                c[:] -= w * np.array([cell.length for cell in network.cells])
            if spec.kind == "Delay":
                slope = network.demand_slope
                if np.any(slope <= 0):
                    raise ValueError("Delay cost needs positive demand slopes")
                c[:] -= w / slope
            for sub_coef, sub in spec.components:     # WeightedSum
                add(sub, coef * sub_coef)

        add(self, 1.0)
        return a, b, c


def held_rows(a, T: int) -> np.ndarray:
    """Rows 0..T-1 of a per-step array, its last row held past its end."""
    a = np.asarray(a, dtype=float)
    return a[np.minimum(np.arange(T), len(a) - 1)]


def _settled_step(a: np.ndarray) -> int:
    """The first step (leading axis) from which all rows equal the last, bit for bit."""
    bits = a.view(np.int64)
    changed = np.flatnonzero((bits != bits[-1]).reshape(len(a), -1).any(axis=1))
    return int(changed[-1]) + 1 if len(changed) else 0


def _repeat_period(states, t: int, settled: int) -> int:
    """1 or 2 if state t repeats bit for bit the state that many steps back,
    at or past step ``settled``, else 0 (README, "Exact steady state")."""
    return next((p for p in (1, 2) if t - p >= settled
                 and states[t].tobytes() == states[t - p].tobytes()), 0)


@dataclass(frozen=True, eq=False)
class Drive:
    """Per-step kernel inputs, each with a leading step axis.

    The controllable demand is d_bar = min(gain * x, cap_demand): gain is
    alpha * v tau / L (v tau / L on sources) and cap_demand is C (alpha * C
    on sources). capacity is C itself and ratio the turning ratio per edge
    (padding edge included).
    """

    gain: np.ndarray
    cap_demand: np.ndarray
    capacity: np.ndarray
    ratio: np.ndarray
    negligible: np.ndarray   # per cell: demand it receives without throttling

    @staticmethod
    def for_run(scenario: Scenario, controls=None) -> "Drive":
        """The drive of a scenario's horizon under open-loop controls.

        controls carries alphas (T, n) and routing (T, E) or None (see
        synthesis.ControlSchedule); None means alpha == 1, and routing None
        the scenario's exogenous routing.
        """
        net = scenario.network
        T, n, E = scenario.horizon, net.n, len(net.adjacency)
        alpha = np.ones((T, n)) if controls is None else held_rows(controls.alphas, T)
        routing = None if controls is None else controls.routing
        if routing is None:
            routing = scenario.routing
        if routing is None:
            raise ValueError("no routing available: scenario has none and controls carry none")
        ratio = np.zeros((T, E + 1))
        ratio[:, :E] = held_rows(routing, T)
        capacity = scenario.capacity
        return Drive(gain=np.where(net.source, net.demand_slope, alpha * net.demand_slope),
                     cap_demand=np.where(net.source, alpha * capacity, capacity),
                     capacity=capacity, ratio=ratio,
                     negligible=ZERO_DEMAND_TOL * net.peak_supply)

    @cached_property
    def settled(self) -> int:
        """The first step from which no per-step array changes."""
        return max(map(_settled_step, (self.gain, self.cap_demand, self.capacity, self.ratio)))

    def demand(self, x: np.ndarray, t) -> np.ndarray:
        return np.minimum(self.gain[t] * x, self.cap_demand[t])


def _median(a, b, c):
    return np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c))


def priority_merge_flows(demands, total_supply, priorities):
    """Daganzo's priority merge for exactly two upstream cells.

    Each flow is the median of {own demand, supply - other demand,
    own priority * supply}; when total demand fits the supply both cells
    send their full demand. Demands and supply may be arrays.
    """
    if len(demands) != 2 or len(priorities) != 2:
        raise ValueError("priority merge is defined for exactly two upstream cells")
    (d0, d1), (p0, p1), s = demands, priorities, total_supply
    if p0 < 0 or p1 < 0 or abs(p0 + p1 - 1.0) > 1e-9:
        raise ValueError("priorities must be nonnegative and sum to 1")
    fits = d0 + d1 <= s
    return (np.where(fits, d0, np.maximum(_median(d0, s - d1, p0 * s), 0.0)),
            np.where(fits, d1, np.maximum(_median(d1, s - d0, p1 * s), 0.0)))


def _gather_sum(values: np.ndarray, index: tuple) -> np.ndarray:
    """Per-cell sums of edge values over ``Network.in_edges`` or
    ``out_edges``, added left to right."""
    total = values.take(index[0], axis=1)
    for idx in index[1:]:
        total += values.take(idx, axis=1)
    return total


def junction_rates(net: Network, x: np.ndarray, drive: Drive, t,
                   lam: np.ndarray, model: str = "fifo"):
    """Rates of step t for a (B, n) batch of states; t may also be a slice
    of steps, with one state per step in x.

    Returns y, z, gamma (B, n) and the pair flows f (B, E + 1), padding
    edge included; mu is z on sinks and 0 elsewhere.
    """
    dbar = drive.demand(x, t)
    ratio = drive.ratio[t]
    supply = np.minimum(net.supply_slope * (net.jam - np.minimum(x, net.jam)), drive.capacity[t])
    demand_in = _gather_sum(ratio * dbar.take(net.src, axis=1), net.in_edges)
    share = np.full(supply.shape, np.inf)
    np.divide(supply, demand_in, out=share, where=demand_in > drive.negligible)
    if model == "nonfifo":
        gamma = np.minimum(share, 1.0)
        f = gamma.take(net.dst, axis=1) * ratio * dbar.take(net.src, axis=1)
        z = np.where(net.sink, dbar, _gather_sum(f, net.out_edges))
    else:
        edge_share = np.where(ratio == 0.0, np.inf, share.take(net.dst, axis=1))
        gamma = np.ones(share.shape)
        for idx in net.out_edges:
            np.minimum(gamma, edge_share.take(idx, axis=1), out=gamma)
        z = gamma * dbar
        if model == "fifo-priority" and len(net.merges):
            target, u0, u1 = net.merges.T
            s = np.where(share[:, target] < 1.0, supply[:, target], np.inf)    # inf: no throttle
            z[:, u0], z[:, u1] = priority_merge_flows((dbar[:, u0], dbar[:, u1]), s, (0.5, 0.5))
        f = ratio * z.take(net.src, axis=1)
    return lam + _gather_sum(f, net.in_edges), z, gamma, f


def step(net: Network, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Apply x+ = x + y - z to a batch of states and enforce the invariants:
    no volume below -1e-9, no volume above ``net.jam_limit``."""
    xp = x + y - z
    low, high = xp < -1e-9, xp > net.jam_limit
    if low.any() or high.any():
        b, k = np.argwhere(low | high)[0]
        cell = net.cells[k]
        if low[b, k]:
            raise InvariantError(f"cell {cell.id}: negative volume {xp[b, k]} after step")
        raise InvariantError(f"cell {cell.id}: volume {xp[b, k]} exceeds jam {net.jam[k]}")
    return np.maximum(xp, 0.0)


def simulate(scenario: Scenario, controls=None, model: str = "fifo") -> Trajectory:
    """Run the CTM open-loop for the scenario horizon under controls (see
    ``Drive.for_run``)."""
    return simulate_batch(scenario, controls=controls, model=model)[0]


def simulate_batch(scenario: Scenario, x0=None, inflow=None, controls=None,
                   model: str = "fifo") -> Trajectory:
    """Run B copies of a scenario as one batch.

    The runs share the network, capacities, controls and routing, and
    differ in initial volumes x0 (B, n) and inflow (B, T, n); either one
    left None is the scenario's own. Returns a batch trajectory; steps past
    an exact steady state (``_repeat_period``) are copies of its cycle.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}, expected one of {MODELS}")
    net = scenario.network
    T, n = scenario.horizon, net.n
    x0 = np.asarray(scenario.x0 if x0 is None else x0, dtype=float).reshape(-1, n)
    lam = np.asarray(scenario.inflow if inflow is None else inflow, dtype=float).reshape(-1, T, n)
    B = max(len(x0), len(lam))
    x0, lam = np.broadcast_to(x0, (B, n)), np.broadcast_to(lam, (B, T, n))
    if (x0 < 0).any() or (x0 > np.where(net.source, np.inf, net.jam)).any():
        raise ValueError("initial volumes must lie in [0, jam] on every cell")
    if (lam < 0).any() or (lam[..., ~net.source] > 0).any():
        raise ValueError("inflows must be nonnegative, and zero off the sources")
    drive = Drive.for_run(scenario, controls)
    E = len(net.adjacency)
    states, y, z = np.empty((T + 1, B, n)), np.empty((T, B, n)), np.empty((T, B, n))
    gamma, f = np.empty((T, B, n)), np.empty((T, B, E + 1))
    settled = max(drive.settled, _settled_step(lam.swapaxes(0, 1)))
    states[0] = x = x0
    for t in range(T):
        y[t], z[t], gamma[t], f[t] = junction_rates(net, x, drive, t, lam[:, t], model)
        try:
            states[t + 1] = x = step(net, x, y[t], z[t])
        except InvariantError as e:
            raise InvariantError(f"step {t}: {e}") from e
        if p := _repeat_period(states, t + 1, settled):
            for a in (states, y, z, gamma, f):     # rows t + 1 - p on: period p
                a[t + 1 - p:] = a[t + 1 - p + np.arange(len(a) - t - 1 + p) % p]
            break
    states, y, z, gamma, f = (np.ascontiguousarray(a.swapaxes(0, 1))
                              for a in (states, y, z, gamma, f[..., :E]))
    return Trajectory(states=states, y=y, z=z, mu=np.where(net.sink, z, 0.0), gamma=gamma,
                      f=f, network=net)


def stays_free(net: Network, drive: Drive, x0, lam) -> bool:
    """Whether one run from x0 (n,) under inflow rows lam (T, n) keeps
    gamma >= 1 - FREEFLOW_TOL at every step, under any junction rule: it runs
    FIFO, which sends every rule's flows until a cell throttles. It stops at
    its first congested step or at its exact steady state (``_repeat_period``)."""
    settled = max(drive.settled, _settled_step(lam))
    states = [np.asarray(x0, dtype=float)[None]]
    for t in range(len(lam)):
        y, z, gamma, _ = junction_rates(net, states[t], drive, t, lam[t:t + 1])
        if gamma.min() < 1.0 - FREEFLOW_TOL:
            return False
        states.append(step(net, states[t], y, z))
        if _repeat_period(states, t + 1, settled):
            break
    return True


def evaluate_cost(trajectory: Trajectory, cost: CostSpec) -> float:
    """Discrete sum over steps and cells of psi(x, z).

    States t = 0..T-1 pair with their step rates; the terminal state enters
    with zero rates, so volume costs include x(T) and flow costs do not.
    """
    xs = trajectory.states
    zs = np.zeros_like(xs)
    zs[:-1] = trajectory.z
    a, b, c = cost.coefficients(trajectory.network)     # no square without weight: 1e200**2 = inf
    return float((xs * a).sum() + ((xs ** 2 * b).sum() if b.any() else 0.0) + (zs * c).sum())
