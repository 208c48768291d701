"""Network topology, cell parameters, and routing.

Cells are directed links of a multigraph; junction nodes are implicit and
recovered from the adjacency relation

    A = {(i, j) : head(i) = tail(j) != external}.

Each ``Cell`` holds what the scenario file states: v, w and L in physical
units, the jam volume in veh and the capacity schedule C_i(t) in veh/step.
The step length tau is stored once, on the ``Network``, which derives the
per-step slopes v tau / L and w tau / L from it when it is built, and with
them the piecewise-affine fundamental diagram

    demand  d_i(x)    = demand_slope * x            (rising branch)
    supply  s_i(x, t) = min(supply_slope * (x_jam - x), C_i(t))

with demand saturated at C_i(t) when evaluated as the controllable demand

    d_bar_i(x, a) = min(a * d_i(x), C_i(t))   for non-sources (speed limit)
    d_bar_i(x, a) = min(d_i(x), a * C_i(t))   for sources     (ramp meter).

Sources have unbounded supply. All flows are stored in vehicles per step,
so the discrete update x+ = x + y - z is exact.

A ``Scenario`` adds the inputs of one run to a network: x0 (n,), the
inflows (T, n) and, for FNC, the turning ratios (T_r, E). Each is stored
once, as a read-only float array, and the horizon T is the number of
inflow rows; ``dataclasses.replace`` derives a changed scenario. Both are
valid by construction: a ``Network`` refuses malformed, unknown or
duplicate ids and edges, and a ``Scenario`` refuses any broken
structural invariant (its topology, shapes, signs, CFL and routing row
sums) with a ValueError that lists each violation as ``[code] message``.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import sys
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


def _derived():
    return field(init=False, repr=False, compare=False)


@dataclass(frozen=True)
class Network:
    """Directed multigraph of cells with sources, sinks, and junctions,
    simulated in steps of tau seconds, and its array form, derived once
    and read-only.

    Edge e < E is ``adjacency[e]``, from cell ``src[e]`` to ``dst[e]``;
    edge E is a padding edge from cell 0 to cell 0 whose turning ratio is
    always 0. ``in_degree`` / ``out_degree`` count each cell's edges, which
    fix its junction class. ``in_edges`` / ``out_edges`` are tuples of index
    arrays: entry k of their c-th array is cell k's c-th incoming / outgoing
    edge in adjacency order, or E where it has fewer. ``demand_slope`` and
    ``supply_slope`` are the per-step slopes v tau / L and w tau / L, the
    only place they are derived. ``peak_supply`` is a cell's largest
    supply, min(max C, supply_slope jam). ``jam_limit`` is the largest
    volume a step may leave: jam plus max(1e-9, 1e-9 jam), inf on sources.
    ``merges`` holds (target, first upstream, second upstream) for every
    two-in merge whose upstream cells feed only it, the junctions of the
    priority-merge model.
    """

    cells: tuple[Cell, ...]
    adjacency: tuple[tuple[str, str], ...]
    sources: frozenset[str]
    sinks: frozenset[str]
    tau: float                 # seconds per step

    index: dict = _derived()
    edge_index: dict = _derived()
    src: np.ndarray = _derived()
    dst: np.ndarray = _derived()
    in_degree: np.ndarray = _derived()
    out_degree: np.ndarray = _derived()
    in_edges: tuple = _derived()
    out_edges: tuple = _derived()
    demand_slope: np.ndarray = _derived()
    supply_slope: np.ndarray = _derived()
    jam: np.ndarray = _derived()
    jam_limit: np.ndarray = _derived()
    peak_supply: np.ndarray = _derived()
    source: np.ndarray = _derived()
    sink: np.ndarray = _derived()
    merges: np.ndarray = _derived()

    @np.errstate(over="ignore")      # an infinite slope fails the scenario's CFL check
    def __post_init__(self):
        if not 0 < self.tau < math.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        index = {c.id: k for k, c in enumerate(self.cells)}
        if len(index) != len(self.cells):
            raise ValueError("duplicate cell ids")
        for cid in index:     # ids name LP columns, CSV fields and routing keys "i->j"
            if not re.fullmatch(r"[A-Za-z0-9_.]+", cid):
                raise ValueError(f"cell id {cid!r} must be ASCII letters, digits, '_' or '.'")
        for role, ids in (("source", self.sources), ("sink", self.sinks)):
            unknown = sorted(ids.difference(index))
            if unknown:
                raise ValueError(f"{role} {unknown[0]!r} is not a cell of the network")
        edge_index = {p: e for e, p in enumerate(self.adjacency)}
        if len(edge_index) != len(self.adjacency):
            raise ValueError("duplicate adjacency pairs")
        for (i, j) in self.adjacency:
            if i not in index or j not in index:
                raise ValueError(f"adjacency pair ({i},{j}) references unknown cell")
        n, E = len(self.cells), len(self.adjacency)
        src, dst = (np.array([index[p[end]] for p in self.adjacency] + [0], dtype=np.intp)
                    for end in (0, 1))
        in_degree, out_degree = np.bincount(dst[:E], minlength=n), np.bincount(src[:E], minlength=n)
        in_edges = _padded(dst[:E], in_degree)
        v, w, length, jam = (np.array([getattr(c, a) for c in self.cells], dtype=float) for a in
                             ("free_flow_speed", "wave_speed", "length", "jam_volume"))
        supply_slope = w * self.tau / length
        source = np.array([c.id in self.sources for c in self.cells], dtype=bool)
        merges = np.zeros((0, 3), dtype=np.intp)
        if len(in_edges) > 1:     # some cell has two inputs or more
            target = np.flatnonzero(in_degree == 2)
            ups = src[np.stack(in_edges[:2])[:, target]]
            merges = np.column_stack([target, *ups])[(out_degree[ups] == 1).all(axis=0)]
        for name, value in dict(
                index=index, edge_index=edge_index, src=src, dst=dst,
                in_degree=in_degree, out_degree=out_degree, in_edges=in_edges,
                out_edges=_padded(src[:E], out_degree),
                demand_slope=v * self.tau / length, supply_slope=supply_slope,
                jam=jam, jam_limit=np.where(source, np.inf, jam + np.maximum(1e-9, 1e-9 * jam)),
                peak_supply=np.minimum([max(c.capacity_schedule) for c in self.cells],
                                       supply_slope * jam),
                source=source, sink=np.array([c.id in self.sinks for c in self.cells], dtype=bool),
                merges=merges).items():
            for a in value if isinstance(value, tuple) else [value]:
                if isinstance(a, np.ndarray):
                    a.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return len(self.cells)


def _padded(ends: np.ndarray, degree: np.ndarray) -> tuple:
    """Index arrays a_0, a_1, ... with a_c[k] the c-th edge e (in adjacency
    order) with ends[e] == k, or E = len(ends) where cell k has fewer."""
    E = len(ends)
    order = np.append(np.argsort(ends, kind="stable"), E)
    first = np.cumsum(degree) - degree
    return tuple(np.where(degree > c, order[np.minimum(first + c, E)], E)
                 for c in range(max(degree.max(initial=0), 1)))


def constant_routing(network: Network, ratios: dict[tuple[str, str], float]) -> np.ndarray:
    """One step of turning ratios, (1, E), keyed by edge; edges left out get 0."""
    row = np.zeros((1, len(network.adjacency)))
    for pair, r in ratios.items():
        if pair not in network.edge_index:
            raise ValueError(f"routing pair {pair} is not an edge of the network")
        row[0, network.edge_index[pair]] = r
    return row


@dataclass(frozen=True, eq=False)
class Scenario:
    """One run's inputs (module docstring): x0 in veh, inflows in veh/step,
    zero off sources, and for FNC the turning ratios, one column per edge
    in ``network.adjacency`` order, the last row held past its end. A
    scenario equals only itself, and is valid by construction: building one
    raises ValueError with one ``[code] message`` line per broken invariant."""

    network: Network
    x0: np.ndarray
    inflow: np.ndarray
    routing: np.ndarray | None = None
    note: str = ""

    def __post_init__(self):
        for name in ("x0", "inflow", "routing"):
            value = getattr(self, name)
            if value is not None:
                value = np.array(value, dtype=float)
                value.flags.writeable = False
                object.__setattr__(self, name, value)
        problems = [f"[{code}] {message}" for code, message in _violations(self)]
        if problems:
            raise ValueError("invalid scenario:\n" + "\n".join(problems))

    @property
    def horizon(self) -> int:
        return len(self.inflow)

    @cached_property
    def capacity(self) -> np.ndarray:
        """C_i(t) over the horizon, (T, n), each schedule constant-extended;
        read-only, as the inputs are."""
        T = self.horizon
        scheds = [c.capacity_schedule for c in self.network.cells]
        capacity = np.array([list(s[:T]) + [s[-1]] * (T - len(s)) for s in scheds],
                            dtype=float).T.copy()
        capacity.flags.writeable = False
        return capacity

    def content_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(scenario_to_dict(self), sort_keys=True).encode()
        ).hexdigest()[:16]


def _violations(scenario: Scenario):
    """(code, message) of every broken structural invariant of a scenario."""
    net = scenario.network
    ids = [c.id for c in net.cells]
    src, dst = net.src[:-1], net.dst[:-1]

    empty_supply = np.minimum(net.supply_slope * net.jam,
                              [c.capacity_schedule[0] for c in net.cells])
    for k in np.flatnonzero(~net.source & (empty_supply <= 0)):
        yield "supply-positive", f"cell {ids[k]}: s(0) must be positive on non-sources"
    for k in np.flatnonzero(net.source & (net.in_degree > 0)):
        yield ("source-upstream", f"source {ids[k]} has in-network upstream cells "
                                  f"{[ids[i] for i in src[dst == k]]}")
    for k in np.flatnonzero(net.sink & (net.out_degree > 0)):
        yield ("sink-downstream", f"sink {ids[k]} has in-network downstream cells "
                                  f"{[ids[j] for j in dst[src == k]]}")
    for k in np.flatnonzero(~net.sink & (net.out_degree == 0)):
        yield "dead-end", f"cell {ids[k]} has no downstream cell and is not a sink"
    for k in np.flatnonzero(~net.source & (net.in_degree == 0)):
        yield "no-feed", f"cell {ids[k]} has no upstream cell and is not a source"

    x0 = scenario.x0
    if x0.shape != (net.n,):
        yield "x0-shape", f"x0 has shape {x0.shape}, expected ({net.n},)"
    else:
        for k in np.flatnonzero(~np.isfinite(x0)):
            yield "x0-finite", f"cell {ids[k]}: x0 = {x0[k]} is not finite"
        for k in np.flatnonzero(x0 < 0):
            yield "x0-negative", f"cell {ids[k]}: x0 = {x0[k]} < 0"
        for k in np.flatnonzero(~net.source & (x0 > net.jam)):
            yield "x0-jam", f"cell {ids[k]}: x0 = {x0[k]} exceeds jam {net.jam[k]}"
    lam = scenario.inflow
    if lam.ndim != 2 or lam.shape[1] != net.n:
        yield "inflow-shape", f"inflow has shape {lam.shape}, expected (T, n = {net.n})"
        lam = np.zeros((0, net.n))
    for t, k in np.argwhere(~np.isfinite(lam)):
        yield "inflow-finite", f"lambda_{ids[k]}({t}) = {lam[t, k]} is not finite"
    for t, k in np.argwhere(lam < 0):
        yield "inflow-negative", f"lambda_{ids[k]}({t}) = {lam[t, k]} < 0"
    for t, k in np.argwhere((lam > 0) & ~net.source):
        yield "inflow-nonsource", f"lambda_{ids[k]}({t}) > 0 on non-source"
    # CFL: tau * max v / min L <= 1, expressed via per-step slopes
    max_slope, max_wslope = net.demand_slope.max(), net.supply_slope.max()
    if max_slope > 1 + 1e-12:
        yield "cfl", f"CFL ratio tau*max(v)/min(L) = {max_slope} exceeds 1"
    if max_wslope > 1 + 1e-12:
        yield "cfl-wave", f"wave CFL ratio tau*max(w)/min(L) = {max_wslope} exceeds 1"
    if scenario.routing is not None:
        R = scenario.routing
        E = len(net.adjacency)
        if R.ndim != 2 or len(R) < 1 or R.shape[1] != E:
            yield ("routing-shape",
                   f"routing ratios have shape {R.shape}, expected (T_r >= 1, E = {E})")
            R = np.zeros((0, E))
        name = [f"R_{i}->{j}" for i, j in net.adjacency]
        for t, e in np.argwhere(~np.isfinite(R)):
            yield "routing-finite", f"{name[e]}({t}) = {R[t, e]} is not finite"
        for t, e in np.argwhere(R < 0):
            yield "routing-negative", f"{name[e]}({t}) = {R[t, e]} < 0"
        rowsum = np.zeros((len(R), net.n))
        for e, k in enumerate(src):
            rowsum[:, k] += R[:, e]
        for t, k in np.argwhere((np.abs(rowsum - 1.0) > 1e-9) & ~net.sink):
            yield ("routing-rowsum",
                   f"ratios out of {ids[k]} at step {t} sum to {rowsum[t, k]}, expected 1")


# ---------------------------------------------------------------------------
# scenario file round trip (JSON-compatible tree with a units header)

MAX_HORIZON = 100_000      # steps in a scenario file; one (T, n) array of 100 cells: 80 MB

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
        routing = {f"{i}->{j}": [float(r) for r in scenario.routing[:, e]]
                   for e, (i, j) in enumerate(net.adjacency)}
    inflow = {c.id: [float(v) for v in scenario.inflow[:, k]]
              for k, c in enumerate(net.cells) if c.id in net.sources}
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
        "x0": [float(v) for v in scenario.x0],
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
    if not abs(value) <= sys.float_info.max:      # NaN, inf or an integer beyond float range
        raise ValueError(f"{name} must be a finite float, got {value!r:.40}")
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
    value = {} if data.get(key) is None else data[key]     # absent or null: empty
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
    if type(T) not in (int, float) or not _number(T, "T").is_integer() or T < 1:
        raise ValueError(f"T must be a positive integer, got {T!r}")
    if T > MAX_HORIZON:      # checked before any (T, n) array is allocated
        raise ValueError(f"T must be at most {MAX_HORIZON}, got {T!r:.40}")
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
        routing = np.zeros((max(len(v) for v in series_of.values()), len(net.adjacency)))
        for e, series in series_of.items():
            routing[:len(series), e] = series
            routing[len(series):, e] = series[-1]     # shorter series: last entry held
    return Scenario(network=net, x0=_numbers(_key(data, "x0"), "x0"), inflow=lam,
                    routing=routing, note=data.get("note", ""))


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        return scenario_from_dict(json.load(fh))


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2, sort_keys=True)
