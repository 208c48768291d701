"""Seeded inputs for the benchmark workloads.

Every scenario is a plain scenario document in the format that
``ctmflow.network.load_scenario`` reads, written from the benchmark's own
copy of the bundled ten-cell network (see the package README, "Benchmark
network"). The program only ever sees the written files.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

TAU = 10.0
SPEED = 50.0
LENGTH = 500.0
CELLS = ("1", "2", "3", "4", "5", "6", "7", "8", "9", "10")
LANES = {"1": 2, "2": 2, "9": 2, "10": 2}
ADJACENCY = (("1", "2"), ("2", "3"), ("2", "5"), ("3", "4"), ("3", "6"),
             ("4", "7"), ("5", "7"), ("6", "8"), ("7", "9"), ("8", "9"),
             ("9", "10"))
RATIOS = {("2", "3"): 2 / 3, ("2", "5"): 1 / 3, ("3", "4"): 2 / 3, ("3", "6"): 1 / 3}
# share of the source inflow that crosses each cell in free flow
SHARE = {"1": 1.0, "2": 1.0, "3": 2 / 3, "4": 4 / 9, "5": 1 / 3, "6": 2 / 9,
         "7": 7 / 9, "8": 2 / 9, "9": 1.0, "10": 1.0}
UNITS = {
    "speed": "length/time (v, w)",
    "length": "length (L)",
    "volume": "veh (x, x0, jam)",
    "flow": "veh/step (capacity, inflow; demand/supply premultiplied by tau)",
    "time": "seconds per step (tau)",
}
# one-lane interior cells: where capacity drops are placed
INTERIOR = ("3", "4", "5", "6", "7", "8")

# the burst of the bundled table scenario, and the burst that trips the
# near-zero QP flow fault (see bench/README.md)
TABLE_BURST = (8.0, 16.0, 8.0)
FAULT_BURST = (10.0, 10.0, 10.0)


def lanes(cid: str) -> int:
    return LANES.get(cid, 1)


def scenario_doc(horizon: int, inflow: list, capacity: dict, note: str) -> dict:
    """A scenario document; ``capacity`` maps a cell id to its schedule."""
    cells = []
    for cid in CELLS:
        cap = capacity.get(cid, [6.0 * lanes(cid)] * horizon)
        cells.append({"id": cid, "v": SPEED, "w": SPEED, "L": LENGTH,
                      "lanes": lanes(cid), "jam": 10.0 * lanes(cid),
                      "capacity": [float(c) for c in cap]})
    routing = {f"{i}->{j}": [RATIOS.get((i, j), 1.0)] for i, j in ADJACENCY}
    return {"units": UNITS, "note": note, "cells": cells,
            "adjacency": [list(p) for p in ADJACENCY],
            "sources": ["1"], "sinks": ["10"], "routing": routing,
            "inflow": {"1": [float(v) for v in inflow]},
            "x0": [0.0] * len(CELLS), "T": horizon, "tau": TAU}


def table_doc(burst=TABLE_BURST) -> dict:
    """The bundled T = 25 table scenario, with an optional other burst."""
    T = 25
    cap4 = [6.0] * T
    cap4[4] = cap4[5] = 0.0
    cap4[6] = cap4[7] = 3.0
    inflow = list(burst) + [0.0] * (T - len(burst))
    return scenario_doc(T, inflow, {"4": cap4}, f"table scenario, burst {list(burst)}")


def control_doc(rng: random.Random) -> dict:
    """T = 25: a three-step burst and a temporary capacity drop on one cell."""
    T = 25
    burst = [float(rng.randint(4, 16)) for _ in range(3)]
    cell = rng.choice(INTERIOR)
    start = rng.randint(2, 8)
    length = rng.randint(2, 4)
    level = rng.choice((0.0, 0.5)) * 6.0
    cap = [6.0] * T
    for t in range(start, start + length):
        cap[t] = level
    inflow = burst + [0.0] * (T - 3)
    return scenario_doc(T, inflow, {cell: cap},
                        f"burst {burst}, cell {cell} at {level} for steps "
                        f"{start}..{start + length - 1}")


def freeflow_limit(capacity: dict) -> float:
    """Largest constant inflow whose free-flow equilibrium respects every
    capacity and every supply (unit slopes: x_i = share_i * inflow)."""
    limits = []
    for cid in CELLS:
        cap = capacity.get(cid, [6.0 * lanes(cid)])[0]
        jam = 10.0 * lanes(cid)
        limits.append(min(cap, jam / 2.0) / SHARE[cid])
    return min(limits)


def sweep_doc(rng: random.Random, horizon: int = 200) -> dict:
    """T = 200: a standing capacity reduction and a constant inflow below
    the free-flow limit it leaves."""
    cell = rng.choice(INTERIOR)
    reduced = round(rng.uniform(3.5, 5.5), 3)
    capacity = {cell: [reduced] * horizon}
    level = round(rng.uniform(0.55, 0.85) * freeflow_limit(capacity), 3)
    return scenario_doc(horizon, [level] * horizon, capacity,
                        f"inflow {level}, cell {cell} capacity {reduced}")


def write(doc: dict, path: Path) -> Path:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True))
    return path
