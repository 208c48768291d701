"""Helpers for oracle-sized test instances."""

import numpy as np

from ctmflow.network import Cell, Network, RoutingSchedule, Scenario


def var_index(program) -> dict:
    """Column of each variable name (``ConvexProgram.names``) of a program."""
    return {name: k for k, name in enumerate(program.names)}


def tiny_chain_scenario(rng) -> Scenario:
    """Two-cell chain over two steps: at most four free variables."""
    slope = float(rng.uniform(0.4, 1.0))
    cap = float(rng.uniform(1.5, 5.0))
    jam = float(rng.uniform(6.0, 12.0))
    cells = (Cell("a", slope, slope, 1.0, 1, jam, [cap]),
             Cell("b", slope, slope, 1.0, 1, jam, [cap]))
    net = Network(cells=cells, adjacency=(("a", "b"),),
                  sources=frozenset({"a"}), sinks=frozenset({"b"}), tau=1.0)
    lam = np.zeros((2, 2))
    lam[0, 0] = float(rng.uniform(0.5, 3.0))
    return Scenario(network=net, horizon=2, initial_volumes=(0.0, 0.0),
                    inflow=lam,
                    routing=RoutingSchedule.constant(net, {("a", "b"): 1.0}))
