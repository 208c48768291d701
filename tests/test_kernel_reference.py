"""The array CTM kernel against the slow per-cell reference (ctm_reference).

Random chain, diverge, merge, diamond and cross (general junction)
networks with capacity drops to zero, under all three junction models,
with and without speed limits alpha < 1 and per-step (DTA) routing, for
batches of one and of several runs: every state, rate, congestion
coefficient and pair flow agrees to 1e-12.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ctm_reference
from conftest import build_network
from ctmflow.ctm import MODELS, simulate_batch
from ctmflow.network import Network, RoutingSchedule, Scenario, make_cell
from ctmflow.synthesis import ControlSchedule

TOL = 1e-12


def random_case(rng, shape: str, horizon: int) -> Scenario:
    """Congestion-prone scenario: capacities drop to half or zero after step 0."""
    base, ratios = build_network(shape, rng)
    cells = []
    for c in base.cells:
        cap = c.diagram.capacity_schedule[0]
        drops = rng.choice([cap, 0.5 * cap, 0.0], size=horizon - 1, p=[0.6, 0.2, 0.2])
        cells.append(make_cell(c.id, c.free_flow_speed, c.wave_speed, c.length, c.lanes,
                               c.diagram.jam_volume, [cap, *drops], 1.0,
                               is_source=c.diagram.is_source))
    net = Network(cells=tuple(cells), adjacency=base.adjacency,
                  sources=base.sources, sinks=base.sinks)
    lam = np.zeros((horizon, net.n))
    x0 = np.zeros(net.n)
    for k, c in enumerate(net.cells):
        if c.diagram.is_source:
            lam[:, k] = rng.uniform(0.0, 4.0, size=horizon)
            x0[k] = rng.uniform(0.0, 10.0)
        else:
            x0[k] = rng.uniform(0.0, 0.9 * c.diagram.jam_volume)
    return Scenario(network=net, horizon=horizon, tau=1.0, initial_volumes=tuple(x0),
                    inflow=lam, routing=RoutingSchedule.constant(net, ratios))


def random_controls(rng, sc: Scenario, speed_limits: bool, dta: bool) -> ControlSchedule:
    net = sc.network
    alphas = np.ones((sc.horizon, net.n))
    if speed_limits:
        alphas = np.where(rng.random(alphas.shape) < 0.5, 1.0,
                          rng.uniform(0.2, 1.0, size=alphas.shape))
    routing = None
    if dta:
        routing = np.zeros((sc.horizon, len(net.adjacency)))
        for t in range(sc.horizon):
            for c in net.cells:
                out = [net.edge_index[c.id, j] for j in net.downstream(c.id)]
                if not out:
                    continue
                w = rng.uniform(0.0, 1.0, size=len(out))
                if len(out) > 1 and rng.random() < 0.3:
                    w[rng.integers(len(out))] = 0.0   # a blocked branch
                routing[t, out] = w / w.sum()
    return ControlSchedule(alphas=alphas, routing=routing)


def with_run(sc: Scenario, x0, lam) -> Scenario:
    return Scenario(network=sc.network, horizon=sc.horizon, tau=sc.tau,
                    initial_volumes=tuple(x0), inflow=lam, routing=sc.routing)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("shape", ["chain", "diverge", "merge", "diamond", "cross"])
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(batch=st.sampled_from([1, 4]), speed_limits=st.booleans(), dta=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_kernel_matches_reference(shape, model, batch, speed_limits, dta, seed):
    rng = np.random.default_rng(seed)
    sc = random_case(rng, shape, int(rng.integers(3, 10)))
    controls = random_controls(rng, sc, speed_limits, dta)
    x0 = sc.x0_array() * rng.uniform(0.5, 1.0, size=(batch, 1))
    lam = sc.inflow_array() * rng.uniform(0.5, 1.5, size=(batch, 1, 1))
    runs = simulate_batch(sc, x0=x0, inflow=lam, controls=controls, model=model)
    assert runs.states.shape == (batch, sc.horizon + 1, sc.network.n)
    for b in range(batch):
        states, rates = ctm_reference.simulate(with_run(sc, x0[b], lam[b]), controls, model)
        run = runs[b]
        np.testing.assert_allclose(run.states, states, rtol=0, atol=TOL)
        for name in ("y", "z", "mu", "gamma"):
            np.testing.assert_allclose(getattr(run, name),
                                       [getattr(r, name) for r in rates], rtol=0, atol=TOL)
        flows = [[r.f[pair] for pair in sc.network.adjacency] for r in rates]
        np.testing.assert_allclose(run.f, flows, rtol=0, atol=TOL)
