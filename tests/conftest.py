"""Shared fixtures and randomized scenario generators."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from ctmflow import scenarios
from ctmflow.ctm import simulate
from ctmflow.network import Cell, Network, Scenario, constant_routing

TAU = 1.0


def build_network(shape: str, rng, slopes=None, slope_hi=1.0) -> tuple[Network, dict]:
    """Small test networks: chain, diverge, merge, diamond, or cross (a
    general junction: s splits to a and b, and u also feeds b).

    slope_hi = 0.5 keeps demand_slope + supply_slope <= 1 per cell, which is
    what makes the one-step CTM map monotone outside free-flow.
    """
    def cell(cid, lanes=1, cap=None, jam=None, slope=None):
        s = slope if slope is not None else (slopes or rng.uniform(0.15, slope_hi))
        if isinstance(s, np.ndarray):
            s = float(s)
        cap = cap if cap is not None else rng.uniform(1.0, 6.0)
        jam = jam if jam is not None else rng.uniform(6.0, 20.0)
        length = 1.0
        v = s * length / TAU
        return Cell(cid, v, v, length, lanes, jam, (cap,))

    if shape == "chain":
        n = rng.integers(2, 5)
        ids = [f"c{k}" for k in range(n)]
        cells = [cell(ids[0])] + [cell(i) for i in ids[1:]]
        adjacency = tuple((ids[k], ids[k + 1]) for k in range(n - 1))
        sources, sinks = {ids[0]}, {ids[-1]}
        ratios = {p: 1.0 for p in adjacency}
    elif shape == "diverge":
        ids = ["s", "a", "b", "ta", "tb"]
        cells = [cell("s"), cell("a"), cell("b"), cell("ta"), cell("tb")]
        adjacency = (("s", "a"), ("s", "b"), ("a", "ta"), ("b", "tb"))
        sources, sinks = {"s"}, {"ta", "tb"}
        r = rng.uniform(0.2, 0.8)
        ratios = {("s", "a"): r, ("s", "b"): 1 - r, ("a", "ta"): 1.0, ("b", "tb"): 1.0}
    elif shape == "merge":
        ids = ["s1", "s2", "m", "t"]
        cells = [cell("s1"), cell("s2"), cell("m"), cell("t")]
        adjacency = (("s1", "m"), ("s2", "m"), ("m", "t"))
        sources, sinks = {"s1", "s2"}, {"t"}
        ratios = {p: 1.0 for p in adjacency}
    elif shape == "cross":
        cells = [cell("s"), cell("u"), cell("a"), cell("b"), cell("ta"), cell("tb")]
        adjacency = (("s", "a"), ("s", "b"), ("u", "b"), ("a", "ta"), ("b", "tb"))
        sources, sinks = {"s", "u"}, {"ta", "tb"}
        r = rng.uniform(0.2, 0.8)
        ratios = {("s", "a"): r, ("s", "b"): 1 - r, ("u", "b"): 1.0,
                  ("a", "ta"): 1.0, ("b", "tb"): 1.0}
    else:  # diamond
        ids = ["s", "u", "a", "b", "m", "t"]
        cells = [cell("s"), cell("u"), cell("a"), cell("b"), cell("m"), cell("t")]
        adjacency = (("s", "u"), ("u", "a"), ("u", "b"), ("a", "m"), ("b", "m"), ("m", "t"))
        sources, sinks = {"s"}, {"t"}
        r = rng.uniform(0.2, 0.8)
        ratios = {("s", "u"): 1.0, ("u", "a"): r, ("u", "b"): 1 - r,
                  ("a", "m"): 1.0, ("b", "m"): 1.0, ("m", "t"): 1.0}
    net = Network(cells=tuple(cells), adjacency=adjacency,
                  sources=frozenset(sources), sinks=frozenset(sinks), tau=TAU)
    return net, ratios


def random_scenario(rng, shape=None, horizon=None, inflow_scale=1.0,
                    x0_scale=0.4, slope_hi=1.0) -> Scenario:
    shape = shape or rng.choice(["chain", "diverge", "merge", "diamond"])
    net, ratios = build_network(shape, rng, slope_hi=slope_hi)
    T = int(horizon or rng.integers(4, 12))
    lam = np.zeros((T, net.n))
    for k, c in enumerate(net.cells):     # cell order: net.sources is a frozenset
        if net.is_source(c.id):
            lam[:, k] = rng.uniform(0.0, 2.0 * inflow_scale, size=T)
    x0 = np.zeros(net.n)
    for k, c in enumerate(net.cells):
        lim = c.jam_volume if not net.is_source(c.id) else 10.0
        x0[k] = rng.uniform(0.0, x0_scale * lim)
    return Scenario(network=net, x0=x0, inflow=lam, routing=constant_routing(net, ratios))


def freeflow_scenario(rng, shape=None, horizon=None) -> Scenario:
    """Randomized scenario rescaled until the FIFO run stays in free-flow."""
    sc = random_scenario(rng, shape=shape, horizon=horizon,
                         inflow_scale=0.3, x0_scale=0.1)
    for _ in range(8):
        traj = simulate(sc)
        if traj.is_freeflow():
            return sc
        sc = replace(sc, x0=sc.x0 * 0.5, inflow=sc.inflow * 0.5)
    traj = simulate(sc)
    assert traj.is_freeflow(), "could not produce a free-flow scenario"
    return sc


def dominated_pair(rng, sc: Scenario, shrink=0.7):
    """A second scenario elementwise below the given one."""
    lam = sc.inflow * rng.uniform(shrink, 1.0, size=(sc.horizon, sc.network.n))
    return replace(sc, x0=[v * rng.uniform(shrink, 1.0) for v in sc.x0], inflow=lam)


@pytest.fixture(scope="session")
def table_scenario():
    return scenarios.table_scenario()


@pytest.fixture(scope="session")
def robustness_scenario():
    return scenarios.robustness_scenario()


@pytest.fixture(scope="session")
def table_fifo(table_scenario):
    return simulate(table_scenario)
