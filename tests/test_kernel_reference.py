"""The array CTM kernel against the slow per-cell reference (ctm_reference).

Random chain, diverge, merge, diamond and cross (general junction)
networks with capacity drops to zero, under all three junction models,
with and without speed limits alpha < 1 and per-step (DTA) routing, for
batches of one and of several runs: every state, rate, congestion
coefficient and pair flow agrees to 1e-12. The steady-state exit of
``simulate_batch`` is held bit for bit to the full-horizon step loop.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ctm_reference
from conftest import build_network
from ctmflow import ctm, scenarios
from ctmflow.ctm import MODELS, Drive, junction_rates, simulate_batch, step
from ctmflow.network import Scenario, constant_routing
from ctmflow.synthesis import ControlSchedule

TOL = 1e-12


def random_case(rng, shape: str, horizon: int) -> Scenario:
    """Congestion-prone scenario: capacities drop to half or zero after step 0."""
    base, ratios = build_network(shape, rng)
    cells = []
    for c in base.cells:
        cap = c.capacity_schedule[0]
        drops = rng.choice([cap, 0.5 * cap, 0.0], size=horizon - 1, p=[0.6, 0.2, 0.2])
        cells.append(replace(c, capacity_schedule=[cap, *drops]))
    net = replace(base, cells=tuple(cells))
    lam = np.zeros((horizon, net.n))
    x0 = np.zeros(net.n)
    for k, c in enumerate(net.cells):
        if net.is_source(c.id):
            lam[:, k] = rng.uniform(0.0, 4.0, size=horizon)
            x0[k] = rng.uniform(0.0, 10.0)
        else:
            x0[k] = rng.uniform(0.0, 0.9 * c.jam_volume)
    return Scenario(network=net, x0=x0, inflow=lam, routing=constant_routing(net, ratios))


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
    return replace(sc, x0=x0, inflow=lam)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("shape", ["chain", "diverge", "merge", "diamond", "cross"])
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(batch=st.sampled_from([1, 4]), speed_limits=st.booleans(), dta=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_kernel_matches_reference(shape, model, batch, speed_limits, dta, seed):
    rng = np.random.default_rng(seed)
    sc = random_case(rng, shape, int(rng.integers(3, 10)))
    controls = random_controls(rng, sc, speed_limits, dta)
    x0 = sc.x0 * rng.uniform(0.5, 1.0, size=(batch, 1))
    lam = sc.inflow * rng.uniform(0.5, 1.5, size=(batch, 1, 1))
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


def full_horizon(sc: Scenario, x0, lam, controls, model) -> dict:
    """The step loop without the steady-state exit: every array of a batch
    run, each step computed."""
    net, drive = sc.compiled, Drive.for_run(sc, controls)
    states, rates = [np.asarray(x0, dtype=float)], []
    for t in range(sc.horizon):
        rates.append(junction_rates(net, states[t], drive, t, lam[:, t], model))
        states.append(step(net, states[t], *rates[t][:2]))
    out = dict(zip(("y", "z", "gamma", "f"), map(np.array, zip(*rates))), states=np.array(states))
    out["f"] = out["f"][..., :-1]     # the padding edge
    return {k: v.swapaxes(0, 1) for k, v in out.items()}


def settling_case(rng, shape: str, horizon: int, late: str, unit_slopes: bool):
    """Constant capacities, inflows and controls, except for one change at
    step horizon - 3 when ``late`` names it (capacity, inflow or control).
    Unit demand slopes empty a cell in one step, so runs reach an exact
    fixed point or 2-cycle; other slopes mostly approach one geometrically.
    Shape "figure" is the paper's ten-cell network (unit slopes), whose
    runs often end in a 2-cycle of rounding (states 1e-15 apart)."""
    if shape == "figure":
        base, ratios, level = scenarios.figure_network(horizon), scenarios.TURNING_RATIOS, 9.0
    else:
        base, ratios = build_network(shape, rng, slopes=1.0 if unit_slopes else None)
        level = 4.0
    drop, cells = int(rng.integers(base.n)), []
    for k, c in enumerate(base.cells):
        cap = c.capacity_schedule[0]
        late_cap = 0.3 * cap if late == "capacity" and k == drop else cap
        cells.append(replace(c, capacity_schedule=[cap] * (horizon - 3) + [late_cap] * 3))
    net = replace(base, cells=tuple(cells))
    source = net.compiled.source
    lam = np.where(source, rng.uniform(0.0, level, size=net.n), 0.0) * np.ones((horizon, 1))
    if late == "inflow":
        lam[horizon - 3:] *= 2.0
    alphas = np.ones((horizon, net.n))
    if not unit_slopes:
        alphas[:] = np.where(rng.random(net.n) < 0.3, rng.uniform(0.3, 1.0, size=net.n), 1.0)
    if late == "control":
        alphas[horizon - 3:, rng.integers(net.n)] *= 0.5
    x0 = np.where(source, rng.uniform(0.0, 10.0, size=net.n),
                  rng.uniform(0.0, 0.5, size=net.n) * net.compiled.jam)
    sc = Scenario(network=net, x0=x0, inflow=lam, routing=constant_routing(net, ratios))
    return sc, ControlSchedule(alphas=alphas, routing=None)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("late", [None, "capacity", "inflow", "control"])
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(shape=st.sampled_from(["chain", "diverge", "merge", "diamond", "cross", "figure"]),
       batch=st.sampled_from([1, 3]), horizon=st.integers(12, 60), unit_slopes=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_steady_state_exit_is_exact(model, late, shape, batch, horizon, unit_slopes, seed):
    # runs that settle (an exact fixed point or 2-cycle) and runs whose
    # inputs change at step T - 3: the exit copies a cycle only where every
    # later step would repeat it, so every array is bit-equal to the full loop
    rng = np.random.default_rng(seed)
    sc, controls = settling_case(rng, shape, horizon, late, unit_slopes)
    x0 = sc.x0 * rng.uniform(0.5, 1.0, size=(batch, 1))
    lam = sc.inflow * rng.uniform(0.5, 1.5, size=(batch, 1, 1))
    run = simulate_batch(sc, x0=x0, inflow=lam, controls=controls, model=model)
    for name, want in full_horizon(sc, x0, lam, controls, model).items():
        got = getattr(run, name)
        assert np.array_equal(got, want) and got.tobytes() == want.tobytes(), name


def test_steady_state_exit_fires_and_waits(robustness_scenario, monkeypatch):
    # the T = 200 constant-inflow run settles within a few dozen steps; a
    # capacity drop at step T - 3 keeps the loop going until T - 2
    calls = []
    rates = ctm.junction_rates
    monkeypatch.setattr(ctm, "junction_rates", lambda *a: calls.append(1) or rates(*a))
    sc, T = robustness_scenario, robustness_scenario.horizon
    simulate_batch(sc)
    assert len(calls) < 50
    dropped = replace(sc, network=scenarios.figure_network(T, [6.0] * (T - 3) + [0.5] * 3))
    calls.clear()
    run = simulate_batch(dropped)
    assert len(calls) >= T - 2 and run.min_gamma() < 1.0
