"""Perturbation bounds: formulas, equilibria, thresholds, soundness."""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctmflow import robustness, scenarios
from ctmflow.ctm import (FREEFLOW_TOL, MODELS, CostSpec, Drive, junction_rates, simulate,
                         simulate_batch, step)
from ctmflow.network import Cell, Network, Scenario, constant_routing
from ctmflow.program import build_fnc
from ctmflow.robustness import (EQ_TOL, PerturbationSpec, contraction_bound,
                                equilibrium_envelope_bound, combined_bound, compute_envelope,
                                find_equilibria, freeflow_margin, lipschitz_constant,
                                sensitivity_bound, sweep)
from ctmflow.solver import solve
from ctmflow.synthesis import extract_controls

from conftest import freeflow_scenario, random_scenario


def zero_pert(sc) -> PerturbationSpec:
    return PerturbationSpec(x0=sc.x0, inflow=sc.inflow)


def reference_equilibrium(sc, inflow, model: str):
    """The single-run search that ``find_equilibria`` batches: the
    equilibrium volumes, or None where the search signals overload."""
    net = sc.network
    drive = Drive.for_run(sc)
    x = np.zeros((1, sc.network.n))
    lam = np.asarray(inflow, dtype=float)[None]
    overload = robustness.OVERLOAD_FACTOR * net.jam.max()
    recent, inner = [], ~net.source
    for _ in range(robustness.EQ_MAX_STEPS):
        y, z, _, _ = junction_rates(net, x, drive, -1, lam, model)
        x_next = step(net, x, y, z)
        if np.max(np.abs(x_next - x)) <= EQ_TOL:
            return x_next[0]
        x = x_next
        if (x[0, net.source] > overload).any():
            return None
        recent = recent[-4:] + [x[0]]
        if len(recent) == 5 and (abs(recent[4] - recent[2]) <= 1e-12 * abs(recent[2]))[inner].all():
            grow = (recent[4] - recent[2])[net.source]
            if grow.max() > EQ_TOL >= np.abs(grow - (recent[2] - recent[0])[net.source]).max():
                return None
    return None


def full_horizon_free(net, drive, x0, lam, model: str = "fifo") -> bool:
    """The free-flow probe of ``freeflow_margin`` without the
    steady-state exit, under any junction rule: every step of the horizon is
    checked."""
    x = np.asarray(x0, dtype=float)[None]
    for t in range(len(lam)):
        y, z, gamma, _ = junction_rates(net, x, drive, t, lam[t:t + 1], model)
        if gamma.min() < 1.0 - FREEFLOW_TOL:
            return False
        x = step(net, x, y, z)
    return True


def divergence(sc, pert) -> np.ndarray:
    """||x~(t) - x(t)||_1 per step of the uncontrolled FIFO runs."""
    run = simulate_batch(sc, x0=pert.x0, inflow=pert.inflow)
    return np.abs(run.states[0] - simulate(sc).states).sum(axis=1)


@pytest.fixture(scope="module")
def swept(robustness_scenario):
    """lam_hat and the FIFO sweep at one point below and one above it (level 6 and 7)."""
    hat, points = sweep(robustness_scenario, [1.0, 2.0])
    return 5.0 + hat, points["fifo"]


class TestContractionBound:
    def test_zero_perturbation_zero_curve(self, robustness_scenario):
        curve = contraction_bound(robustness_scenario, zero_pert(robustness_scenario))
        assert np.all(curve == 0.0)

    def test_linear_in_time(self, robustness_scenario):
        pert = PerturbationSpec.inflow_shift(robustness_scenario, 0.5)
        curve = contraction_bound(robustness_scenario, pert)
        t = np.arange(robustness_scenario.horizon + 1)
        np.testing.assert_allclose(curve, 0.5 * t, atol=1e-12)

    def test_simulated_divergence_below_curve(self, robustness_scenario):
        pert = PerturbationSpec.inflow_shift(robustness_scenario, 0.5)
        diff = divergence(robustness_scenario, pert)
        curve = contraction_bound(robustness_scenario, pert)
        assert np.all(diff <= curve + 1e-9)

    def test_freeflow_probe_flag(self, robustness_scenario):
        # the hypothesis of the bound: the perturbed run stays in free flow
        # below lam_hat (level 5.5) and leaves it above (level 7.5)
        runs = simulate_batch(robustness_scenario, inflow=[
            PerturbationSpec.inflow_shift(robustness_scenario, d).inflow for d in (0.5, 2.5)])
        assert runs[0].is_freeflow() is True
        assert runs[1].is_freeflow() is False

    def test_soundness_sweep_freeflow(self):
        rng = np.random.default_rng(61)
        done = 0
        while done < 25:
            sc = freeflow_scenario(rng)
            delta = rng.uniform(0.0, 0.2)
            pert = PerturbationSpec.inflow_shift(sc, delta)
            run = simulate_batch(sc, x0=pert.x0, inflow=pert.inflow)
            if not run.is_freeflow():
                continue
            diff = np.abs(run.states[0] - simulate(sc).states).sum(axis=1)
            assert np.all(diff <= contraction_bound(sc, pert) + 1e-9)
            done += 1


class TestEnvelope:
    def test_constant_shift(self, robustness_scenario):
        pert = PerturbationSpec.inflow_shift(robustness_scenario, 0.5)
        env = compute_envelope(robustness_scenario, pert)
        src = robustness_scenario.network.index["1"]
        assert env.lam_upper[src] == pytest.approx(5.5)
        assert env.lam_lower[src] == pytest.approx(4.5)

    def test_zero_initial_volumes(self, robustness_scenario):
        env = compute_envelope(robustness_scenario, zero_pert(robustness_scenario))
        assert np.all(env.x0_upper == 0.0) and np.all(env.x0_lower == 0.0)

    def test_lower_clamped_at_zero(self, robustness_scenario):
        base = replace(robustness_scenario, inflow=robustness_scenario.inflow * 0.0)
        pert = PerturbationSpec.inflow_shift(base, 0.3)
        env = compute_envelope(base, pert)
        assert np.all(env.lam_lower == 0.0)


class TestEquilibrium:
    def test_zero_inflow_zero_equilibrium(self, robustness_scenario):
        net = robustness_scenario.network
        x_eq = find_equilibria(robustness_scenario, [np.zeros(net.n)])[0]
        assert x_eq is not None
        np.testing.assert_allclose(x_eq, 0.0, atol=1e-7)

    def test_nominal_inflow_has_equilibrium(self, robustness_scenario):
        net = robustness_scenario.network
        x_eq = find_equilibria(robustness_scenario, [robustness_scenario.inflow[0]])[0]
        assert x_eq is not None
        # free-flow equilibrium: volume = throughput on every cell
        assert x_eq[net.index["1"]] == pytest.approx(5.0, abs=1e-6)
        assert x_eq[net.index["3"]] == pytest.approx(10.0 / 3.0, abs=1e-6)

    def test_overload_signal(self, robustness_scenario):
        lam = robustness_scenario.inflow[0] * 1.4   # level 7 > capacity
        assert find_equilibria(robustness_scenario, [lam]) == [None]

    @pytest.mark.parametrize("model", ["fifo", "nonfifo", "fifo-priority"])
    def test_overload_signalled_by_source_growth(self, robustness_scenario, model, monkeypatch):
        # at level 7 the congested cells settle into a period-2 cycle while
        # the source grows by a constant amount per cycle; that growth is the
        # signal, hundreds of steps in, not the ~35,000 it takes the source
        # to hold OVERLOAD_FACTOR jam volumes
        steps = []
        monkeypatch.setattr(robustness, "step", lambda *a: steps.append(1) or step(*a))
        lam = robustness_scenario.inflow[0] * 1.4
        assert find_equilibria(robustness_scenario, [lam], model=model) == [None]
        assert len(steps) < 1000


class TestBatchedEquilibria:
    def assert_matches_single_runs(self, sc, inflows, model):
        batch = find_equilibria(sc, inflows, model=model)
        assert len(batch) == len(inflows)
        for lam, got in zip(inflows, batch):
            want = reference_equilibrium(sc, lam, model)
            single = find_equilibria(sc, [lam], model=model)[0]
            for x_eq in (got, single):
                assert (x_eq is None) == (want is None)
                if want is not None:
                    assert x_eq.tobytes() == want.tobytes()
        return [x_eq is not None for x_eq in batch]

    def test_mixed_batch(self, robustness_scenario):
        # converging, zero-inflow and overloaded rows leave the batch at
        # different steps; results come back in input order
        src = robustness_scenario.network.index["1"]
        levels = [5.0, 0.0, 7.0, 3.0, 9.0, 0.0, 6.4]
        inflows = np.zeros((len(levels), robustness_scenario.network.n))
        inflows[:, src] = levels
        for model in MODELS:
            exists = self.assert_matches_single_runs(robustness_scenario, inflows, model)
            assert exists == [True, True, False, True, False, True, True]

    @pytest.mark.parametrize("model", MODELS)
    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(shape=st.sampled_from(["figure", "chain", "diverge", "merge", "diamond"]),
           scales=st.lists(st.sampled_from([0.0, 1.0, 1.3, 2.5]) | st.floats(0.0, 2.5),
                           min_size=1, max_size=6),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_single_runs(self, model, shape, scales, seed):
        # random networks that neither converge nor show the overload
        # pattern run to the step cap, lowered here to keep the test short
        rng = np.random.default_rng(seed)
        if shape == "figure":
            sc, cap = scenarios.robustness_scenario(), robustness.EQ_MAX_STEPS
        else:
            sc, cap = random_scenario(rng, shape=shape), 1500
        inflows = sc.inflow[0] * np.array(scales)[:, None]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(robustness, "EQ_MAX_STEPS", cap)
            self.assert_matches_single_runs(sc, inflows, model)


class TestFreeflowSupremum:
    def test_threshold_both_models(self, robustness_scenario):
        # measured supremum of this network: 45/7 (merge of shares 4/9 and
        # 1/3 against the single-lane steady maximum 5); one sweep serves
        # every model with it
        lam_hat = 5.0 + freeflow_margin(robustness_scenario)
        assert lam_hat == pytest.approx(45.0 / 7.0, abs=2e-3)
        got, points = sweep(robustness_scenario, [0.0], models=MODELS)
        assert 5.0 + got == lam_hat and list(points) == list(MODELS)

    def test_under_the_replayed_controls(self, robustness_scenario):
        # the eps = 0.4 FNC TTT controller's FIFO replay is free at inflow
        # 5.57 and congested at 5.58; without its controls the supremum
        # was the uncontrolled 45/7
        prog = build_fnc(robustness_scenario, CostSpec("TTT"), 0.4)
        controls = extract_controls(prog, solve(prog))
        lam_hat = 5.0 + freeflow_margin(robustness_scenario, controls)
        assert 5.57 <= lam_hat <= 5.58
        assert 5.0 + sweep(robustness_scenario, [0.0], controls)[0] == lam_hat

    def test_zero_capacity_bottleneck(self):
        # sole path closes from step 1 on, so the nominal inflow 1 congests:
        # no shift keeps the run free
        cells = (Cell("a", 1, 1, 1, 1, 10.0, [6.0]),
                 Cell("b", 1, 1, 1, 1, 10.0, [6.0] + [0.0] * 29))
        net = Network(cells=cells, adjacency=(("a", "b"),),
                      sources=frozenset({"a"}), sinks=frozenset({"b"}), tau=1.0)
        lam = np.full((30, 2), 0.0)
        lam[:, 0] = 1.0
        sc = Scenario(network=net, x0=(0.0, 0.0), inflow=lam,
                      routing=constant_routing(net, {("a", "b"): 1.0}))
        assert freeflow_margin(sc) == 0.0

    @pytest.mark.parametrize("model", MODELS)
    @settings(max_examples=6, deadline=None, derandomize=True, database=None)
    @given(shape=st.sampled_from(["figure", "chain", "diverge", "diamond"]),
           horizon=st.integers(10, 60), late_capacity=st.none() | st.floats(0.0, 6.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_full_horizon_bisection(self, model, shape, horizon, late_capacity, seed):
        # the probe's steady-state exit changes no probe's answer, also
        # when the figure network's cell 4 loses capacity at step T - 3, and
        # the FIFO probe answers for every junction rule
        rng = np.random.default_rng(seed)
        if shape == "figure":
            cap4 = None if late_capacity is None else [6.0] * (horizon - 3) + [late_capacity] * 3
            sc = replace(scenarios.robustness_scenario(horizon),
                         network=scenarios.figure_network(horizon, cap4))
        else:
            sc = random_scenario(rng, shape=shape, horizon=horizon)
            sc = replace(sc, inflow=sc.inflow[[0] * horizon])
        got = freeflow_margin(sc)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(robustness, "stays_free", partial(full_horizon_free, model=model))
            assert freeflow_margin(sc) == got

    @pytest.mark.parametrize("shape", ["chain", "diverge", "merge", "diamond", "cross"])
    def test_margin_is_the_freeflow_edge(self, shape):
        # random networks of one or two sources with time-varying inflow,
        # uncontrolled and under the FNC TTT controller: the margin is 0 where
        # the nominal run congests; otherwise a full-horizon run is free at it
        # and congested BISECT_WIDTH above it, unless the search stopped at
        # its 2^16 cap. A controlled nominal often runs at the edge of free
        # flow, where the margin is 0 too
        rng = np.random.default_rng(63)
        for _ in range(6):
            sc = random_scenario(rng, shape=shape)
            prog = build_fnc(sc, CostSpec("TTT"), 0.0)
            for controls in (None, extract_controls(prog, solve(prog))):
                def free(delta):
                    lam = PerturbationSpec.inflow_shift(sc, delta).inflow
                    return simulate_batch(sc, inflow=lam, controls=controls).is_freeflow()
                hat = freeflow_margin(sc, controls)
                if not free(0.0):
                    assert hat == 0.0
                    continue
                assert free(hat)
                if hat < 2.0 ** 16 * max(1.0, sc.inflow.max()):
                    assert not free(hat + robustness.BISECT_WIDTH)

    def test_sourceless_refused(self):
        # no source, no shift direction
        net = Network(cells=tuple(Cell(c, 1, 1, 1, 1, 10.0, (3.0,)) for c in "abt"),
                      adjacency=(("a", "b"), ("b", "a"), ("b", "t")),
                      sources=frozenset(), sinks=frozenset({"t"}), tau=1.0)
        sc = Scenario(network=net, x0=(4.0, 2.0, 0.0), inflow=np.zeros((6, 3)),
                      routing=constant_routing(net, {("a", "b"): 1.0, ("b", "a"): 0.5,
                                                     ("b", "t"): 0.5}))
        with pytest.raises(ValueError, match="needs a source"):
            freeflow_margin(sc)


class TestEnvelopeAndOverload:
    def test_inapplicable_above_capacity(self, robustness_scenario):
        pert = PerturbationSpec.inflow_shift(robustness_scenario, 2.0)  # 7.0 > 45/7
        curve = equilibrium_envelope_bound(robustness_scenario, pert)
        assert np.all(curve == np.inf)
        combo = combined_bound(robustness_scenario, pert)
        assert combo.tobytes() == contraction_bound(robustness_scenario, pert).tobytes()

    def test_constant_curve_when_applicable(self, robustness_scenario):
        pert = PerturbationSpec.inflow_shift(robustness_scenario, 0.5)
        curve = equilibrium_envelope_bound(robustness_scenario, pert)
        assert np.isfinite(curve[0])
        assert np.all(curve == curve[0])

    def test_envelope_dominates_equilibrium_gap(self, robustness_scenario):
        pert = PerturbationSpec.inflow_shift(robustness_scenario, 0.5)
        diff = divergence(robustness_scenario, pert)
        curve = equilibrium_envelope_bound(robustness_scenario, pert)
        assert np.all(diff <= curve + 1e-9)

    def test_overload_reduces_to_combined_at_lam_hat(self, robustness_scenario, swept):
        # above lam_hat the sweep's curve is the combined bound at lam_hat
        # plus the excess (level 7 - lam_hat) times t
        lam_hat, points = swept
        at_hat = combined_bound(robustness_scenario,
                                PerturbationSpec.inflow_shift(robustness_scenario, lam_hat - 5.0))
        t = np.arange(robustness_scenario.horizon + 1)
        np.testing.assert_allclose(points[1].combined - (7.0 - lam_hat) * t, at_hat, atol=1e-9)

    def test_overload_slope_matches_excess(self, robustness_scenario):
        # late-time growth of the simulated divergence approaches the
        # excess-above-supremum rate (within 10%)
        lam_hat = 5.0 + freeflow_margin(robustness_scenario)
        delta = 2.0
        diff = divergence(robustness_scenario,
                          PerturbationSpec.inflow_shift(robustness_scenario, delta))
        late = np.polyfit(np.arange(120, 201), diff[120:201], 1)[0]
        excess = 5.0 + delta - lam_hat
        assert late == pytest.approx(excess, rel=0.10)


class TestLipschitzAndSensitivity:
    def test_unit_slope_constant(self, robustness_scenario):
        assert lipschitz_constant(robustness_scenario.network) == pytest.approx(4.0)

    def test_sources_excluded_from_supply_min(self):
        cells = (Cell("a", 0.5, 3.0, 1.0, 1, 10.0, [6.0]),
                 Cell("b", 0.5, 0.5, 1.0, 1, 10.0, [6.0]))
        net = Network(cells=cells, adjacency=(("a", "b"),),
                      sources=frozenset({"a"}), sinks=frozenset({"b"}), tau=1.0)
        # source wave slope 3 must not enter: L = 2*(0.5 + 0.5) = 2
        assert lipschitz_constant(net) == pytest.approx(2.0)

    def test_zero_perturbation_zero_curve(self, robustness_scenario):
        curve = sensitivity_bound(robustness_scenario, zero_pert(robustness_scenario))
        assert np.all(curve == 0.0)

    def test_closed_form_value(self, robustness_scenario):
        pert = PerturbationSpec.inflow_shift(robustness_scenario, 0.5)
        curve = sensitivity_bound(robustness_scenario, pert)
        assert curve[3] == pytest.approx((np.exp(12.0) - 1.0) / 4.0 * 0.5, rel=1e-12)

    def test_nudged_shift_keeps_its_bound(self, robustness_scenario):
        # a constant and a non-constant dlam used to take two formulas that
        # differ by e^L L / (e^L - 1) = 4.07: nudging one step of a 0.5
        # shift by 1e-11 multiplied the bound at every step by that factor
        pert = PerturbationSpec.inflow_shift(robustness_scenario, 0.5)
        lam = pert.inflow.copy()
        lam[17, robustness_scenario.network.index["1"]] += 1e-11
        plain = sensitivity_bound(robustness_scenario, pert)
        nudged = sensitivity_bound(robustness_scenario, PerturbationSpec(x0=pert.x0, inflow=lam))
        finite = np.isfinite(plain)
        assert finite[:100].all() and np.array_equal(finite, np.isfinite(nudged))
        np.testing.assert_allclose(nudged[finite], plain[finite], rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_direct_gronwall_sum(self, seed):
        # e^{Lt} dx0 + sum_{s<t} e^{L(t-1-s)} (e^L - 1) / L dlam(s), for a
        # random non-constant dlam and a random dx0
        rng = np.random.default_rng(seed)
        sc = scenarios.robustness_scenario(horizon=int(rng.integers(1, 13)))
        pert = PerturbationSpec(x0=sc.x0 + rng.uniform(0.0, 1.0, sc.network.n),
                                inflow=sc.inflow + rng.uniform(-0.5, 0.5, sc.inflow.shape))
        L = lipschitz_constant(sc.network)
        dx0 = np.abs(pert.x0 - sc.x0).sum()
        dlam = np.abs(pert.inflow - sc.inflow).sum(axis=1)
        want = [np.exp(L * t) * dx0 + sum(np.exp(L * (t - 1 - s)) * (np.exp(L) - 1.0) / L * dlam[s]
                                          for s in range(t)) for t in range(sc.horizon + 1)]
        np.testing.assert_allclose(sensitivity_bound(sc, pert), want, rtol=1e-12, atol=0.0)

    def test_exceeds_contraction_from_step_one(self, robustness_scenario):
        pert = PerturbationSpec.inflow_shift(robustness_scenario, 0.5)
        sens = sensitivity_bound(robustness_scenario, pert)
        p3 = contraction_bound(robustness_scenario, pert)
        assert np.all(sens[1:] >= p3[1:])


class TestCombined:
    def test_tiny_perturbation_selects_contraction(self, robustness_scenario):
        pert = PerturbationSpec.inflow_shift(robustness_scenario, 0.01)
        curve = combined_bound(robustness_scenario, pert)
        assert curve[1] == contraction_bound(robustness_scenario, pert)[1]
        assert curve[1] == pytest.approx(0.01)

    def test_late_steps_select_envelope(self, robustness_scenario):
        pert = PerturbationSpec.inflow_shift(robustness_scenario, 1.0)
        curve = combined_bound(robustness_scenario, pert)
        p3 = contraction_bound(robustness_scenario, pert)
        p4 = equilibrium_envelope_bound(robustness_scenario, pert)
        assert curve[-1] == p4[-1] < p3[-1]
        assert curve[1] == p3[1]

    def test_overload_branch_engaged(self, robustness_scenario, swept):
        # the sweep switches to the overload heuristic above lam_hat only:
        # below it a point's curve is the combined bound at its own level
        lam_hat, (below, above) = swept
        assert 6.0 < lam_hat < 7.0

        def at(level):
            return combined_bound(robustness_scenario,
                                  PerturbationSpec.inflow_shift(robustness_scenario, level - 5.0))
        assert below.combined.tobytes() == at(6.0).tobytes()
        t = np.arange(robustness_scenario.horizon + 1)
        assert above.combined.tobytes() == (at(lam_hat) + (7.0 - lam_hat) * t).tobytes()
        assert not np.array_equal(above.combined, at(7.0))

    def test_below_each_constituent(self, robustness_scenario):
        pert = PerturbationSpec.inflow_shift(robustness_scenario, 1.0)
        combo = combined_bound(robustness_scenario, pert)
        p3 = contraction_bound(robustness_scenario, pert)
        p4 = equilibrium_envelope_bound(robustness_scenario, pert)
        assert np.all(combo <= p3 + 1e-12)
        assert np.all(combo <= p4 + 1e-12)
