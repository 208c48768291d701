"""Network topology, cell parameters, and routing.

Cells are directed links of a multigraph; junction nodes are implicit and
recovered from the adjacency relation

    A = {(i, j) : head(i) = tail(j) != external}.

Each ``Cell`` holds what the scenario file states: v, w and L in physical
units, the jam volume in veh and the capacity schedule C_i(t) in veh/step.
The step length tau is stored once, on the ``Network``; the compiled form
derives the per-step slopes v tau / L and w tau / L from it, and with them
the piecewise-affine fundamental diagram

    demand  d_i(x)    = demand_slope * x            (rising branch)
    supply  s_i(x, t) = min(supply_slope * (x_jam - x), C_i(t))

with demand saturated at C_i(t) when evaluated as the controllable demand

    d_bar_i(x, a) = min(a * d_i(x), C_i(t))   for non-sources (speed limit)
    d_bar_i(x, a) = min(d_i(x), a * C_i(t))   for sources     (ramp meter).

Sources have unbounded supply. All flows are stored in vehicles per step,
so the discrete update x+ = x + y - z is exact.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class Cell:
    """One road segment; capacities beyond the schedule repeat its last entry."""

    id: str
    free_flow_speed: float     # length/time
    wave_speed: float          # length/time
    length: float              # length
    lanes: int
    jam_volume: float          # veh
    capacity_schedule: tuple[float, ...]   # veh/step

    def __post_init__(self):
        object.__setattr__(self, "capacity_schedule", tuple(self.capacity_schedule))
        if not all(0 < p < math.inf for p in (self.free_flow_speed, self.wave_speed, self.length)):
            raise ValueError(f"cell {self.id}: v, w, L must be positive and finite")
        if self.lanes < 1:
            raise ValueError(f"cell {self.id}: lanes must be >= 1")
        if not all(math.isfinite(v) for v in (self.jam_volume, *self.capacity_schedule)):
            raise ValueError(f"cell {self.id}: jam volume and capacities must be finite")
        if self.jam_volume <= 0:
            raise ValueError(f"cell {self.id}: jam volume must be positive, got {self.jam_volume}")
        if not self.capacity_schedule:
            raise ValueError(f"cell {self.id}: capacity schedule must be nonempty")
        if any(c < 0 for c in self.capacity_schedule):
            raise ValueError(f"cell {self.id}: capacities must be nonnegative")


@dataclass(frozen=True)
class Network:
    """Directed multigraph of cells with sources, sinks, and junctions,
    simulated in steps of tau seconds."""

    cells: tuple[Cell, ...]
    adjacency: tuple[tuple[str, str], ...]
    sources: frozenset[str]
    sinks: frozenset[str]
    tau: float                 # seconds per step

    index: dict = field(init=False, repr=False, compare=False)
    edge_index: dict = field(init=False, repr=False, compare=False)
    _down: dict = field(init=False, repr=False, compare=False)
    _up: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 < self.tau < math.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        object.__setattr__(self, "index", {c.id: k for k, c in enumerate(self.cells)})
        if len(self.index) != len(self.cells):
            raise ValueError("duplicate cell ids")
        for role, ids in (("source", self.sources), ("sink", self.sinks)):
            unknown = sorted(ids.difference(self.index))
            if unknown:
                raise ValueError(f"{role} {unknown[0]!r} is not a cell of the network")
        object.__setattr__(self, "edge_index", {p: e for e, p in enumerate(self.adjacency)})
        if len(self.edge_index) != len(self.adjacency):
            raise ValueError("duplicate adjacency pairs")
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
    edge in adjacency order, or E where it has fewer. ``demand_slope`` and
    ``supply_slope`` are the per-step slopes v tau / L and w tau / L, the
    only place they are derived. ``jam_limit``
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
        v, w, length, jam = (np.array([getattr(c, a) for c in net.cells], dtype=float) for a in
                             ("free_flow_speed", "wave_speed", "length", "jam_volume"))
        source = np.array([net.is_source(c.id) for c in net.cells])
        merges = [(idx[c.id], idx[ups[0]], idx[ups[1]]) for c in net.cells
                  for ups in [net.upstream(c.id)]
                  if len(ups) == 2 and all(len(net.downstream(u)) == 1 for u in ups)]
        return CompiledNetwork(
            network=net, src=src, dst=dst,
            in_edges=_padded([[e for e in range(E) if dst[e] == k] for k in range(net.n)], E),
            out_edges=_padded([[e for e in range(E) if src[e] == k] for k in range(net.n)], E),
            demand_slope=v * net.tau / length, supply_slope=w * net.tau / length,
            jam=jam, jam_limit=np.where(source, np.inf, jam + np.maximum(1e-9, 1e-9 * jam)),
            peak_capacity=np.array([max(c.capacity_schedule) for c in net.cells]),
            source=source,
            sink=np.array([net.is_sink(c.id) for c in net.cells]),
            merges=np.array(merges, dtype=np.intp).reshape(-1, 3))


@dataclass(frozen=True)
class RoutingSchedule:
    """Per-step turning ratios R_e(t), one column per edge e in
    ``network.adjacency`` order; the ratios out of a non-sink sum to 1.
    The last row is constant-extended beyond the stored steps."""

    ratios: np.ndarray    # (T_r, E)

    @staticmethod
    def constant(network: Network, ratios: dict[tuple[str, str], float]) -> "RoutingSchedule":
        """One step of ratios keyed by edge; edges left out get 0."""
        row = np.zeros((1, len(network.adjacency)))
        for pair, r in ratios.items():
            if pair not in network.edge_index:
                raise ValueError(f"routing pair {pair} is not an edge of the network")
            row[0, network.edge_index[pair]] = r
        return RoutingSchedule(ratios=row)


@dataclass(frozen=True)
class Scenario:
    """A simulation/optimization instance: horizon, initial state, inflows."""

    network: Network
    horizon: int                  # T, number of steps
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
    def compiled(self) -> CompiledNetwork:
        """The network's array form, once the scenario validates; raises
        ValueError on an invalid scenario."""
        report = validate(self)
        if not report.ok:
            raise ValueError(f"invalid scenario:\n{report}")
        return self.network.compiled

    @cached_property
    def capacity(self) -> np.ndarray:
        """C_i(t) over the horizon, (T, n), each schedule constant-extended."""
        T = self.horizon
        scheds = [c.capacity_schedule for c in self.network.cells]
        return np.array([list(s[:T]) + [s[-1]] * (T - len(s)) for s in scheds],
                        dtype=float).T.copy()

    def content_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(scenario_to_dict(self), sort_keys=True).encode()
        ).hexdigest()[:16]


@dataclass
class Violation:
    code: str
    message: str


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, code: str, message: str):
        self.violations.append(Violation(code, message))

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join(f"[{v.code}] {v.message}" for v in self.violations)


def validate(scenario: Scenario) -> ValidationReport:
    """Check every structural invariant; returns a report, never raises."""
    report = ValidationReport()
    network = scenario.network
    comp = network.compiled
    ids = [c.id for c in network.cells]
    downstream_of = {c.id: network.downstream(c.id) for c in network.cells}
    upstream_of = {c.id: network.upstream(c.id) for c in network.cells}

    empty_supply = np.minimum(comp.supply_slope * comp.jam,
                              [c.capacity_schedule[0] for c in network.cells])
    for k in np.flatnonzero(~comp.source & (empty_supply <= 0)):
        report.add("supply-positive", f"cell {ids[k]}: s(0) must be positive on non-sources")
    for s in network.sources:
        if upstream_of[s]:
            report.add("source-upstream", f"source {s} has in-network upstream cells {upstream_of[s]}")
    for s in network.sinks:
        if downstream_of[s]:
            report.add("sink-downstream", f"sink {s} has in-network downstream cells {downstream_of[s]}")
    for c in network.cells:
        if not downstream_of[c.id] and not network.is_sink(c.id):
            report.add("dead-end", f"cell {c.id} has no downstream cell and is not a sink")
        if not upstream_of[c.id] and not network.is_source(c.id):
            report.add("no-feed", f"cell {c.id} has no upstream cell and is not a source")

    x0 = scenario.x0_array()
    if x0.shape != (network.n,):
        report.add("x0-shape", f"x0 has shape {x0.shape}, expected ({network.n},)")
    else:
        for k in np.flatnonzero(~np.isfinite(x0)):
            report.add("x0-finite", f"cell {ids[k]}: x0 = {x0[k]} is not finite")
        for k in np.flatnonzero(x0 < 0):
            report.add("x0-negative", f"cell {ids[k]}: x0 = {x0[k]} < 0")
        for k in np.flatnonzero(~comp.source & (x0 > comp.jam)):
            report.add("x0-jam", f"cell {ids[k]}: x0 = {x0[k]} exceeds jam {comp.jam[k]}")
    try:
        lam = scenario.inflow_array()
    except ValueError as e:
        report.add("inflow-shape", str(e))
        lam = np.zeros((0, network.n))
    for t, k in np.argwhere(~np.isfinite(lam)):
        report.add("inflow-finite", f"lambda_{ids[k]}({t}) = {lam[t, k]} is not finite")
    for t, k in np.argwhere(lam < 0):
        report.add("inflow-negative", f"lambda_{ids[k]}({t}) = {lam[t, k]} < 0")
    for t, k in np.argwhere((lam > 0) & ~comp.source):
        report.add("inflow-nonsource", f"lambda_{ids[k]}({t}) > 0 on non-source")
    # CFL: tau * max v / min L <= 1, expressed via per-step slopes
    max_slope, max_wslope = comp.demand_slope.max(), comp.supply_slope.max()
    if max_slope > 1 + 1e-12:
        report.add("cfl", f"CFL ratio tau*max(v)/min(L) = {max_slope} exceeds 1")
    if max_wslope > 1 + 1e-12:
        report.add("cfl-wave", f"wave CFL ratio tau*max(w)/min(L) = {max_wslope} exceeds 1")
    if scenario.routing is not None:
        R = np.asarray(scenario.routing.ratios, dtype=float)
        E = len(network.adjacency)
        if R.ndim != 2 or len(R) < 1 or R.shape[1] != E:
            report.add("routing-shape", f"routing ratios have shape {R.shape}, "
                                        f"expected (T_r >= 1, E = {E})")
            R = np.zeros((0, E))
        name = [f"R_{i}->{j}" for i, j in network.adjacency]
        for t, e in np.argwhere(~np.isfinite(R)):
            report.add("routing-finite", f"{name[e]}({t}) = {R[t, e]} is not finite")
        for t, e in np.argwhere(R < 0):
            report.add("routing-negative", f"{name[e]}({t}) = {R[t, e]} < 0")
        rowsum = np.zeros((len(R), network.n))
        for e, k in enumerate(comp.src[:-1]):
            rowsum[:, k] += R[:, e]
        for t, k in np.argwhere((np.abs(rowsum - 1.0) > 1e-9) & ~comp.sink):
            report.add("routing-rowsum",
                       f"ratios out of {ids[k]} at step {t} sum to {rowsum[t, k]}, expected 1")
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
        routing = {f"{i}->{j}": [float(r) for r in scenario.routing.ratios[:, e]]
                   for e, (i, j) in enumerate(net.adjacency)}
    lam = scenario.inflow_array()
    inflow = {c.id: [float(v) for v in lam[:, k]]
              for k, c in enumerate(net.cells) if net.is_source(c.id)}
    return {
        "units": UNITS_HEADER,
        "note": scenario.note,
        "cells": [
            {
                "id": c.id, "v": c.free_flow_speed, "w": c.wave_speed,
                "L": c.length, "lanes": c.lanes, "jam": c.jam_volume,
                "capacity": list(c.capacity_schedule),
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
        "tau": net.tau,
    }


def _key(data, key: str, where: str = "scenario"):
    if not isinstance(data, dict) or key not in data:
        raise ValueError(f"{where}: missing key {key!r}")
    return data[key]


def _number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _list(value, name: str, what: str, entry_ok=lambda v: True) -> list:
    if not isinstance(value, list) or not all(map(entry_ok, value)):
        raise ValueError(f"{name} must be a list of {what}, got {value!r}")
    return value


def _is_id(value) -> bool:
    return isinstance(value, str)     # cell ids are strings, as inflow and routing keys are


def _numbers(value, name: str) -> list:
    return [_number(v, name) for v in _list(value, name, "numbers")]


def _mapping(data: dict, key: str) -> dict:
    value = data.get(key) or {}
    if not isinstance(value, dict):
        raise ValueError(f"{key} must be an object, got {value!r}")
    return value


def scenario_from_dict(data: dict) -> Scenario:
    """The scenario of a JSON tree; raises ValueError naming the key (and
    the cell) of a missing or wrongly typed entry."""
    if "units" not in data:
        raise ValueError("scenario file missing required 'units' header")
    tau = _number(_key(data, "tau"), "tau")
    T = _key(data, "T")
    if type(T) not in (int, float) or not float(T).is_integer() or T < 1:
        raise ValueError(f"T must be a positive integer, got {T!r}")
    horizon = int(T)
    cells = []
    for c in _list(_key(data, "cells"), "cells", "cell objects"):
        cid = _key(c, "id", "cell")
        if not _is_id(cid):
            raise ValueError(f"cell id must be a string, got {cid!r}")
        where = f"cell {cid}"
        v, w, length, jam, lanes = (_number(_key(c, k, where), f"{where}: {k}")
                                    for k in ("v", "w", "L", "jam", "lanes"))
        if not lanes.is_integer():
            raise ValueError(f"{where}: lanes must be an integer, got {lanes!r}")
        capacity = _numbers(_key(c, "capacity", where), f"{where}: capacity")
        cells.append(Cell(cid, v, w, length, int(lanes), jam, capacity))
    pairs = _list(_key(data, "adjacency"), "adjacency", "[from, to] pairs",
                  lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_id, v)))
    net = Network(
        cells=tuple(cells),
        adjacency=tuple(map(tuple, pairs)),
        sources=frozenset(_list(_key(data, "sources"), "sources", "cell ids", _is_id)),
        sinks=frozenset(_list(_key(data, "sinks"), "sinks", "cell ids", _is_id)),
        tau=tau,
    )
    lam = np.zeros((horizon, net.n))
    for cid, series in _mapping(data, "inflow").items():
        if cid not in net.index:
            raise ValueError(f"inflow names unknown cell {cid!r}")
        series = _numbers(series, f"inflow of cell {cid}")
        if len(series) > horizon:
            raise ValueError(f"inflow series of cell {cid} has {len(series)} entries, "
                             f"more than T = {horizon}")
        lam[:len(series), net.index[cid]] = series     # shorter series: zero-padded
    routing = None
    if _mapping(data, "routing"):
        series_of = {}
        for key, series in data["routing"].items():
            i, _, j = key.partition("->")
            for cid in (i, j):
                if cid not in net.index:
                    raise ValueError(f"routing key {key!r} names unknown cell {cid!r}")
            if (i, j) not in net.edge_index:
                raise ValueError(f"routing key {key!r} is not an edge of the network")
            series = _numbers(series, f"routing series {key}")
            if not 1 <= len(series) <= horizon:
                raise ValueError(f"routing series {key} has {len(series)} entries, "
                                 f"expected 1 to T = {horizon}")
            series_of[net.edge_index[i, j]] = series
        ratios = np.zeros((max(len(v) for v in series_of.values()), len(net.adjacency)))
        for e, series in series_of.items():
            ratios[:len(series), e] = series
            ratios[len(series):, e] = series[-1]     # shorter series: last entry held
        routing = RoutingSchedule(ratios=ratios)
    return Scenario(
        network=net, horizon=horizon,
        initial_volumes=tuple(_numbers(_key(data, "x0"), "x0")),
        inflow=lam, routing=routing, note=data.get("note", ""),
    )


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        return scenario_from_dict(json.load(fh))


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2, sort_keys=True)
