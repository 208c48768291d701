"""Bundled benchmark network and scenarios (single-source, single-sink).

The ten-cell network: a two-lane trunk (cells 1, 2) splits at cell 2 into
cells 3 (ratio 2/3) and 5 (1/3); cell 3 splits again into 4 (2/3) and
6 (1/3); cells 4 and 5 merge into 7; cell 6 continues through 8; cells 7
and 8 merge into the two-lane exit trunk 9 -> 10 (the sink).

Parameters: v = w = 50 ft/s, L = 500 ft, tau = 10 s (so demand and supply
slopes are exactly 1 per step), capacity 6 veh/step per lane, jam volume
10 veh per lane, two lanes on cells 1, 2, 9, 10.

Two scenario builders:
  * table_scenario: T = 25, inflow burst (8, 16, 8), cell-4 bottleneck
    closed for two steps then half-capacity for two.
  * robustness_scenario: T = 200, constant inflow 5, no bottleneck.
"""

from __future__ import annotations

import numpy as np

from .network import Cell, Network, Scenario, constant_routing

TAU = 10.0
V = 50.0
W = 50.0
LENGTH = 500.0
LANES = {"1": 2, "2": 2, "3": 1, "4": 1, "5": 1, "6": 1, "7": 1, "8": 1, "9": 2, "10": 2}
ADJACENCY = (
    ("1", "2"),
    ("2", "3"), ("2", "5"),
    ("3", "4"), ("3", "6"),
    ("4", "7"), ("5", "7"),
    ("6", "8"),
    ("7", "9"), ("8", "9"),
    ("9", "10"),
)
TURNING_RATIOS = {
    ("1", "2"): 1.0,
    ("2", "3"): 2.0 / 3.0, ("2", "5"): 1.0 / 3.0,
    ("3", "4"): 2.0 / 3.0, ("3", "6"): 1.0 / 3.0,
    ("4", "7"): 1.0, ("5", "7"): 1.0,
    ("6", "8"): 1.0,
    ("7", "9"): 1.0, ("8", "9"): 1.0,
    ("9", "10"): 1.0,
}

RATIO_NOTE = ("turning ratio 2->5 set to 1/3 so the routing row sums to 1; "
              "the source table lists 1/13, which is inconsistent with the "
              "row-sum requirement")


def figure_network(horizon: int, cell4_capacity=None) -> Network:
    """Build the ten-cell network with an optional cell-4 capacity schedule."""
    cells = []
    for cid in ("1", "2", "3", "4", "5", "6", "7", "8", "9", "10"):
        lanes = LANES[cid]
        cap = [6.0 * lanes] * horizon
        if cid == "4" and cell4_capacity is not None:
            cap = list(cell4_capacity)
        cells.append(Cell(cid, V, W, LENGTH, lanes, 10.0 * lanes, cap))
    return Network(cells=tuple(cells), adjacency=ADJACENCY,
                   sources=frozenset({"1"}), sinks=frozenset({"10"}), tau=TAU)


def routing_for(net: Network) -> np.ndarray:
    return constant_routing(net, TURNING_RATIOS)


def table_scenario() -> Scenario:
    """T = 25 burst-inflow scenario with the cell-4 bottleneck."""
    T = 25
    cap4 = [6.0] * T
    cap4[4] = cap4[5] = 0.0
    cap4[6] = cap4[7] = 3.0
    net = figure_network(T, cell4_capacity=cap4)
    lam = np.zeros((T, net.n))
    src = net.index["1"]
    lam[0, src], lam[1, src], lam[2, src] = 8.0, 16.0, 8.0
    return Scenario(network=net, x0=np.zeros(net.n), inflow=lam,
                    routing=routing_for(net), note=RATIO_NOTE)


def robustness_scenario(horizon: int = 200, inflow: float = 5.0) -> Scenario:
    """T = 200 constant-inflow scenario, constant capacity 6 on cell 4."""
    net = figure_network(horizon)
    lam = np.zeros((horizon, net.n))
    lam[:, net.index["1"]] = inflow
    return Scenario(network=net, x0=np.zeros(net.n), inflow=lam,
                    routing=routing_for(net), note=RATIO_NOTE)

