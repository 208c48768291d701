"""Network topology, cell parameters, fundamental diagrams, and routing.

Cells are directed links of a multigraph; junction nodes are implicit and
recovered from the adjacency relation

    A = {(i, j) : head(i) = tail(j) != external}.

Each cell carries a piecewise-affine fundamental diagram in per-step units:

    demand  d_i(x)    = demand_slope * x            (rising branch)
    supply  s_i(x, t) = min(supply_slope * (x_jam - x), C_i(t))

with demand saturated at the capacity schedule C_i(t) when evaluated as the
controllable demand

    d_bar_i(x, a) = min(a * d_i(x), C_i(t))   for non-sources (speed limit)
    d_bar_i(x, a) = min(d_i(x), a * C_i(t))   for sources     (ramp meter).

Sources have unbounded supply (math.inf sentinel). All flows are stored in
vehicles per step, so the discrete update x+ = x + y - z is exact.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

INF_SUPPLY = math.inf


@dataclass(frozen=True)
class FundamentalDiagram:
    """Piecewise-affine demand/supply relation of one cell, per-step units."""

    demand_slope: float            # v * tau / L, dimensionless
    supply_slope: float            # w * tau / L, dimensionless
    jam_volume: float              # veh
    capacity_schedule: tuple[float, ...]   # veh/step, constant-extended
    is_source: bool = False

    def __post_init__(self):
        if self.jam_volume <= 0:
            raise ValueError(f"jam_volume must be positive, got {self.jam_volume}")
        if self.demand_slope < 0 or self.supply_slope < 0:
            raise ValueError("diagram slopes must be nonnegative")
        if not self.capacity_schedule:
            raise ValueError("capacity_schedule must be nonempty")
        if any(c < 0 for c in self.capacity_schedule):
            raise ValueError("capacity_schedule entries must be nonnegative")

    def capacity(self, t: int) -> float:
        """C_i(t), constant-extending the last entry beyond the schedule."""
        sched = self.capacity_schedule
        return sched[t] if t < len(sched) else sched[-1]


@dataclass(frozen=True)
class Cell:
    """One road segment with physical parameters and its diagram."""

    id: str
    free_flow_speed: float     # length/time
    wave_speed: float          # length/time
    length: float              # length
    lanes: int
    diagram: FundamentalDiagram

    def __post_init__(self):
        if self.free_flow_speed <= 0 or self.wave_speed <= 0 or self.length <= 0:
            raise ValueError(f"cell {self.id}: v, w, L must be positive")
        if self.lanes < 1:
            raise ValueError(f"cell {self.id}: lanes must be >= 1")


def make_cell(cell_id: str, v: float, w: float, length: float, lanes: int,
              jam: float, capacity: list[float] | tuple[float, ...], tau: float,
              is_source: bool = False) -> Cell:
    """Build a cell from physical units; slopes are premultiplied by tau/L."""
    return Cell(
        id=cell_id,
        free_flow_speed=v,
        wave_speed=w,
        length=length,
        lanes=lanes,
        diagram=FundamentalDiagram(
            demand_slope=v * tau / length,
            supply_slope=w * tau / length,
            jam_volume=jam,
            capacity_schedule=tuple(capacity),
            is_source=is_source,
        ),
    )


@dataclass(frozen=True)
class Network:
    """Directed multigraph of cells with sources, sinks, and junctions."""

    cells: tuple[Cell, ...]
    adjacency: tuple[tuple[str, str], ...]
    sources: frozenset[str]
    sinks: frozenset[str]

    index: dict = field(init=False, repr=False, compare=False)
    _down: dict = field(init=False, repr=False, compare=False)
    _up: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "index", {c.id: k for k, c in enumerate(self.cells)})
        if len(self.index) != len(self.cells):
            raise ValueError("duplicate cell ids")
        down = {c.id: [] for c in self.cells}
        up = {c.id: [] for c in self.cells}
        for (i, j) in self.adjacency:
            if i not in self.index or j not in self.index:
                raise ValueError(f"adjacency pair ({i},{j}) references unknown cell")
            down[i].append(j)
            up[j].append(i)
        object.__setattr__(self, "_down", down)
        object.__setattr__(self, "_up", up)

    @property
    def n(self) -> int:
        return len(self.cells)

    def cell(self, cell_id: str) -> Cell:
        return self.cells[self.index[cell_id]]

    def downstream(self, cell_id: str) -> list[str]:
        return self._down[cell_id]

    def upstream(self, cell_id: str) -> list[str]:
        return self._up[cell_id]

    def is_source(self, cell_id: str) -> bool:
        return cell_id in self.sources

    def is_sink(self, cell_id: str) -> bool:
        return cell_id in self.sinks

    @cached_property
    def compiled(self) -> "CompiledNetwork":
        return CompiledNetwork.of(self)


def _padded(groups: list, pad: int) -> tuple:
    """Index arrays a_0, a_1, ... with a_c[k] the c-th entry of groups[k],
    or pad where groups[k] is shorter."""
    width = max([len(g) for g in groups] + [1])
    return tuple(np.array([g[c] if c < len(g) else pad for g in groups], dtype=np.intp)
                 for c in range(width))


@dataclass(frozen=True, eq=False)
class CompiledNetwork:
    """Array form of a network, built once per Network (``Network.compiled``).

    Edge e < E is ``network.adjacency[e]``, from cell ``src[e]`` to
    ``dst[e]``; edge E is a padding edge from cell 0 to cell 0 whose turning
    ratio is always 0. ``in_edges`` / ``out_edges`` are tuples of index
    arrays: entry k of their c-th array is cell k's c-th incoming / outgoing
    edge in adjacency order, or E where it has fewer. ``jam_limit``
    is the largest volume a step may leave: jam plus max(1e-9, 1e-9 jam),
    inf on sources. ``merges`` holds (target, first upstream, second
    upstream) for every two-in merge whose upstream cells feed only it, the
    junctions of the priority-merge model.
    """

    network: Network
    src: np.ndarray
    dst: np.ndarray
    in_edges: tuple
    out_edges: tuple
    demand_slope: np.ndarray
    supply_slope: np.ndarray
    jam: np.ndarray
    jam_limit: np.ndarray
    peak_capacity: np.ndarray
    source: np.ndarray
    sink: np.ndarray
    merges: np.ndarray

    @staticmethod
    def of(net: Network) -> "CompiledNetwork":
        idx = net.index
        E = len(net.adjacency)
        src = np.array([idx[i] for i, _ in net.adjacency] + [0], dtype=np.intp)
        dst = np.array([idx[j] for _, j in net.adjacency] + [0], dtype=np.intp)
        diagrams = [c.diagram for c in net.cells]
        jam = np.array([d.jam_volume for d in diagrams])
        source = np.array([net.is_source(c.id) for c in net.cells])
        merges = [(idx[c.id], idx[ups[0]], idx[ups[1]]) for c in net.cells
                  for ups in [net.upstream(c.id)]
                  if len(ups) == 2 and all(len(net.downstream(u)) == 1 for u in ups)]
        return CompiledNetwork(
            network=net, src=src, dst=dst,
            in_edges=_padded([[e for e in range(E) if dst[e] == k] for k in range(net.n)], E),
            out_edges=_padded([[e for e in range(E) if src[e] == k] for k in range(net.n)], E),
            demand_slope=np.array([d.demand_slope for d in diagrams]),
            supply_slope=np.array([d.supply_slope for d in diagrams]),
            jam=jam, jam_limit=np.where(source, np.inf, jam + np.maximum(1e-9, 1e-9 * jam)),
            peak_capacity=np.array([max(d.capacity_schedule) for d in diagrams]),
            source=source,
            sink=np.array([net.is_sink(c.id) for c in net.cells]),
            merges=np.array(merges, dtype=np.intp).reshape(-1, 3))

    def edge_ratios(self, matrices) -> np.ndarray:
        """(..., E + 1) turning ratios per edge from (..., n, n) matrices."""
        ratios = np.asarray(matrices, dtype=float)[..., self.src, self.dst]
        ratios[..., -1] = 0.0
        return ratios


@dataclass(frozen=True)
class RoutingSchedule:
    """Per-step turning ratios R_ij(t); rows sum to 1 on non-sinks.

    Stored as a tuple of matrices aligned with the network cell order; the
    last matrix is constant-extended beyond the stored horizon.
    """

    pairs: tuple[tuple[str, str], ...]
    matrices: tuple       # tuple of (n, n) ndarrays, row i col j = R_ij

    def at(self, t: int) -> np.ndarray:
        mats = self.matrices
        return mats[t] if t < len(mats) else mats[-1]

    @staticmethod
    def constant(network: Network, ratios: dict[tuple[str, str], float]) -> "RoutingSchedule":
        m = np.zeros((network.n, network.n))
        for (i, j), r in ratios.items():
            m[network.index[i], network.index[j]] = r
        return RoutingSchedule(pairs=tuple(network.adjacency), matrices=(m,))


@dataclass(frozen=True)
class Scenario:
    """A simulation/optimization instance: horizon, initial state, inflows."""

    network: Network
    horizon: int                  # T, number of steps
    tau: float                    # seconds per step (bookkeeping only)
    initial_volumes: tuple[float, ...]          # x0, veh per cell
    inflow: tuple                 # (T, n) array-like, veh/step, zero off-source
    routing: RoutingSchedule | None = None      # exogenous R(t), FNC only
    note: str = ""

    def inflow_array(self) -> np.ndarray:
        lam = np.asarray(self.inflow, dtype=float)
        if lam.shape != (self.horizon, self.network.n):
            raise ValueError(f"inflow shape {lam.shape} != (T={self.horizon}, n={self.network.n})")
        return lam

    def x0_array(self) -> np.ndarray:
        return np.asarray(self.initial_volumes, dtype=float)

    @cached_property
    def compiled(self) -> "CompiledScenario":
        """The validated array form; raises ValueError on an invalid scenario."""
        report = validate(self.network, self)
        if not report.ok:
            raise ValueError(f"invalid scenario:\n{report}")
        T = self.horizon
        scheds = [c.diagram.capacity_schedule for c in self.network.cells]
        capacity = np.array([list(s[:T]) + [s[-1]] * (T - len(s)) for s in scheds],
                            dtype=float).T.copy()
        net = self.network.compiled
        ratios = (None if self.routing is None
                  else net.edge_ratios(np.array(self.routing.matrices)))
        return CompiledScenario(network=net, capacity=capacity, ratios=ratios)

    def content_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(scenario_to_dict(self), sort_keys=True).encode()
        ).hexdigest()[:16]


@dataclass(frozen=True, eq=False)
class CompiledScenario:
    """Arrays of one validated scenario (``Scenario.compiled``): capacities
    (T, n) and the exogenous turning ratios per edge (T_r, E + 1),
    constant-extended beyond T_r, or None."""

    network: CompiledNetwork
    capacity: np.ndarray
    ratios: np.ndarray | None


@dataclass
class Violation:
    code: str
    message: str
    cell: str | None = None
    step: int | None = None


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, code: str, message: str, cell: str | None = None, step: int | None = None):
        self.violations.append(Violation(code, message, cell, step))

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join(f"[{v.code}] {v.message}" for v in self.violations)


def demand(cell: Cell, x: float, alpha: float, t: int) -> float:
    """Controllable demand d_bar(x, alpha) at step t, veh/step.

    Speed-limit scaling on non-sources, capacity metering on sources.
    """
    if x < 0:
        raise ValueError(f"cell {cell.id}: negative volume {x}")
    cap = cell.diagram.capacity(t)
    if cell.diagram.is_source:
        return min(cell.diagram.demand_slope * x, alpha * cap)
    return min(alpha * cell.diagram.demand_slope * x, cap)


def supply(cell: Cell, x: float, t: int) -> float:
    """Supply s(x, t) in veh/step; +inf for sources."""
    if cell.diagram.is_source:
        return INF_SUPPLY
    if x > cell.diagram.jam_volume + 1e-9:
        raise ValueError(f"cell {cell.id}: volume {x} exceeds jam {cell.diagram.jam_volume}")
    return min(cell.diagram.supply_slope * (cell.diagram.jam_volume - x),
               cell.diagram.capacity(t))


def validate(network: Network, scenario: Scenario | None = None) -> ValidationReport:
    """Check every structural invariant; returns a report, never raises."""
    report = ValidationReport()
    downstream_of = {c.id: network.downstream(c.id) for c in network.cells}
    upstream_of = {c.id: network.upstream(c.id) for c in network.cells}

    for c in network.cells:
        if c.diagram.is_source != network.is_source(c.id):
            report.add("source-flag", f"cell {c.id}: diagram is_source disagrees with network.sources", cell=c.id)
        if not c.diagram.is_source and supply(c, 0.0, 0) <= 0:
            report.add("supply-positive", f"cell {c.id}: s(0) must be positive on non-sources", cell=c.id)
    for s in network.sources:
        if upstream_of.get(s):
            report.add("source-upstream", f"source {s} has in-network upstream cells {upstream_of[s]}", cell=s)
    for s in network.sinks:
        if downstream_of.get(s):
            report.add("sink-downstream", f"sink {s} has in-network downstream cells {downstream_of[s]}", cell=s)
    for c in network.cells:
        if not downstream_of[c.id] and not network.is_sink(c.id):
            report.add("dead-end", f"cell {c.id} has no downstream cell and is not a sink", cell=c.id)
        if not upstream_of[c.id] and not network.is_source(c.id):
            report.add("no-feed", f"cell {c.id} has no upstream cell and is not a source", cell=c.id)

    if scenario is not None:
        comp = network.compiled
        ids = [c.id for c in network.cells]
        x0 = scenario.x0_array()
        if x0.shape != (network.n,):
            report.add("x0-shape", f"x0 has shape {x0.shape}, expected ({network.n},)")
        else:
            for k in np.flatnonzero(x0 < 0):
                report.add("x0-negative", f"cell {ids[k]}: x0 = {x0[k]} < 0", cell=ids[k])
            for k in np.flatnonzero(~comp.source & (x0 > comp.jam)):
                report.add("x0-jam", f"cell {ids[k]}: x0 = {x0[k]} exceeds jam {comp.jam[k]}",
                           cell=ids[k])
        try:
            lam = scenario.inflow_array()
        except ValueError as e:
            report.add("inflow-shape", str(e))
            lam = np.zeros((0, network.n))
        for t, k in np.argwhere(lam < 0):
            report.add("inflow-negative", f"lambda_{ids[k]}({t}) = {lam[t, k]} < 0",
                       cell=ids[k], step=int(t))
        for t, k in np.argwhere((lam > 0) & ~comp.source):
            report.add("inflow-nonsource", f"lambda_{ids[k]}({t}) > 0 on non-source",
                       cell=ids[k], step=int(t))
        # CFL: tau * max v / min L <= 1, expressed via per-step slopes
        max_slope, max_wslope = comp.demand_slope.max(), comp.supply_slope.max()
        if max_slope > 1 + 1e-12:
            report.add("cfl", f"CFL ratio tau*max(v)/min(L) = {max_slope} exceeds 1")
        if max_wslope > 1 + 1e-12:
            report.add("cfl-wave", f"wave CFL ratio tau*max(w)/min(L) = {max_wslope} exceeds 1")
        if scenario.routing is not None:
            mats = np.array(scenario.routing.matrices, dtype=float)
            allowed = np.zeros((network.n, network.n), dtype=bool)
            allowed[comp.src[:-1], comp.dst[:-1]] = True
            for t, a, b in np.argwhere(mats < 0):
                report.add("routing-negative", f"R[{a},{b}]({t}) < 0", step=int(t))
            for t, a, b in np.argwhere((mats > 0) & ~allowed):
                report.add("routing-offgraph",
                           f"R positive on non-adjacent pair ({ids[a]},{ids[b]})", step=int(t))
            rowsum = mats.sum(axis=2)
            for t, k in np.argwhere((np.abs(rowsum - 1.0) > 1e-9) & ~comp.sink):
                report.add("routing-rowsum",
                           f"row {ids[k]} of R({t}) sums to {rowsum[t, k]}, expected 1",
                           cell=ids[k], step=int(t))
    return report


# ---------------------------------------------------------------------------
# scenario file round trip (JSON-compatible tree with a units header)

UNITS_HEADER = {
    "speed": "length/time (v, w)",
    "length": "length (L)",
    "volume": "veh (x, x0, jam)",
    "flow": "veh/step (capacity, inflow; demand/supply premultiplied by tau)",
    "time": "seconds per step (tau)",
}


def scenario_to_dict(scenario: Scenario) -> dict:
    net = scenario.network
    routing = {}
    if scenario.routing is not None:
        m = scenario.routing.at(0)
        steps = len(scenario.routing.matrices)
        for (i, j) in net.adjacency:
            a, b = net.index[i], net.index[j]
            routing[f"{i}->{j}"] = [float(scenario.routing.at(t)[a, b]) for t in range(steps)]
    lam = scenario.inflow_array()
    inflow = {c.id: [float(v) for v in lam[:, k]]
              for k, c in enumerate(net.cells) if net.is_source(c.id)}
    return {
        "units": UNITS_HEADER,
        "note": scenario.note,
        "cells": [
            {
                "id": c.id, "v": c.free_flow_speed, "w": c.wave_speed,
                "L": c.length, "lanes": c.lanes, "jam": c.diagram.jam_volume,
                "capacity": list(c.diagram.capacity_schedule),
            }
            for c in net.cells
        ],
        "adjacency": [[i, j] for (i, j) in net.adjacency],
        "sources": sorted(net.sources),
        "sinks": sorted(net.sinks),
        "routing": routing,
        "inflow": inflow,
        "x0": [float(v) for v in scenario.initial_volumes],
        "T": scenario.horizon,
        "tau": scenario.tau,
    }


def scenario_from_dict(data: dict) -> Scenario:
    if "units" not in data:
        raise ValueError("scenario file missing required 'units' header")
    tau = float(data["tau"])
    if type(data["T"]) not in (int, float) or not float(data["T"]).is_integer() or data["T"] < 1:
        raise ValueError(f"T must be a positive integer, got {data['T']!r}")
    horizon = int(data["T"])
    sources = frozenset(data["sources"])
    cells = tuple(
        make_cell(c["id"], c["v"], c["w"], c["L"], int(c["lanes"]), c["jam"],
                  c["capacity"], tau, is_source=c["id"] in sources)
        for c in data["cells"]
    )
    net = Network(
        cells=cells,
        adjacency=tuple((i, j) for i, j in data["adjacency"]),
        sources=sources,
        sinks=frozenset(data["sinks"]),
    )
    lam = np.zeros((horizon, net.n))
    for cid, series in data.get("inflow", {}).items():
        if cid not in net.index:
            raise ValueError(f"inflow names unknown cell {cid!r}")
        if len(series) > horizon:
            raise ValueError(f"inflow series of cell {cid} has {len(series)} entries, "
                             f"more than T = {horizon}")
        lam[:len(series), net.index[cid]] = series     # shorter series: zero-padded
    routing = None
    if data.get("routing"):
        pairs = {}
        for key, series in data["routing"].items():
            i, _, j = key.partition("->")
            for cid in (i, j):
                if cid not in net.index:
                    raise ValueError(f"routing key {key!r} names unknown cell {cid!r}")
            if (i, j) not in net.adjacency:
                raise ValueError(f"routing key {key!r} is not an edge of the network")
            if not 1 <= len(series) <= horizon:
                raise ValueError(f"routing series {key} has {len(series)} entries, "
                                 f"expected 1 to T = {horizon}")
            pairs[net.index[i], net.index[j]] = series
        steps = max(len(v) for v in pairs.values())
        mats = []
        for t in range(steps):
            m = np.zeros((net.n, net.n))
            for ij, series in pairs.items():
                m[ij] = series[t] if t < len(series) else series[-1]
            mats.append(m)
        routing = RoutingSchedule(pairs=tuple(net.adjacency), matrices=tuple(mats))
    return Scenario(
        network=net, horizon=horizon, tau=tau,
        initial_volumes=tuple(float(v) for v in data["x0"]),
        inflow=lam, routing=routing, note=data.get("note", ""),
    )


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        return scenario_from_dict(json.load(fh))


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2, sort_keys=True)
