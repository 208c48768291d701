"""CTM rates, stepping, simulation invariants, and cost evaluation."""

from dataclasses import replace

import numpy as np
import pytest

from ctmflow.cli import main
from ctmflow.ctm import MODELS, CostSpec, evaluate_cost, priority_merge_flows, simulate, step
from ctmflow.network import Cell, Network, Scenario, constant_routing

from conftest import dominated_pair, freeflow_scenario, random_scenario
from ctm_reference import mass_balance_error


def two_to_one(cap=6.0, jam=10.0):
    cells = (Cell("a", 1, 1, 1, 1, jam, [cap]),
             Cell("b", 1, 1, 1, 1, jam, [cap]),
             Cell("m", 1, 1, 1, 1, jam, [cap]))
    net = Network(cells=cells, adjacency=(("a", "m"), ("b", "m")),
                  sources=frozenset({"a", "b"}), sinks=frozenset({"m"}), tau=1.0)
    R = constant_routing(net, {("a", "m"): 1.0, ("b", "m"): 1.0})
    return net, R


def one_step(net, R, x, model="fifo"):
    """Rates of one step from state x, no inflow: (z, gamma, flows by pair)."""
    sc = Scenario(network=net, x0=x, inflow=np.zeros((1, net.n)), routing=R)
    traj = simulate(sc, model=model)
    return traj.z[0], traj.gamma[0], dict(zip(net.adjacency, traj.f[0]))


def one_to_two(r=2.0 / 3.0, caps=(6.0, 6.0)):
    cells = (Cell("d", 1, 1, 1, 1, 30.0, [6.0]),
             Cell("p", 1, 1, 1, 1, 30.0, [caps[0]]),
             Cell("q", 1, 1, 1, 1, 30.0, [caps[1]]))
    net = Network(cells=cells, adjacency=(("d", "p"), ("d", "q")),
                  sources=frozenset({"d"}), sinks=frozenset({"p", "q"}), tau=1.0)
    R = constant_routing(net, {("d", "p"): r, ("d", "q"): 1 - r})
    return net, R


class TestFifoRates:
    def test_symmetric_proportional_merge(self):
        # demands 4 and 4 against supply 6 -> outflows 3 and 3
        net, R = two_to_one()
        x = np.array([4.0, 4.0, 4.0])   # m at 4: supply = min(10-4, 6) = 6
        z, _, _ = one_step(net, R, x)
        assert z[0] == pytest.approx(3.0)
        assert z[1] == pytest.approx(3.0)

    def test_diverge_common_throttle(self):
        # demand 6 split 2/3-1/3 against supplies {2, 10}:
        # gamma = min(2/4, 10/2, 1) = 1/2, outflow 3, flows {2, 1}
        net, R = one_to_two()
        x = np.array([6.0, 28.0, 20.0])  # p supply = min(30-28, 6) = 2, q = min(10,6)=6
        # want q supply 10 -> use jam 30, x_q = 20 -> min(10, 6)=6; adjust cap
        net, R = one_to_two(caps=(6.0, 10.0))
        z, gamma, f = one_step(net, R, x)
        assert gamma[0] == pytest.approx(0.5)
        assert z[0] == pytest.approx(3.0)
        assert f[("d", "p")] == pytest.approx(2.0)
        assert f[("d", "q")] == pytest.approx(1.0)

    def test_zero_ratio_successor_does_not_throttle(self):
        # s routes everything to the empty cell a and nothing to the jammed
        # cell b, which u also feeds: b's zero supply throttles u, not s
        cells = (Cell("s", 1, 1, 1, 1, 10.0, [6.0]),
                 Cell("u", 1, 1, 1, 1, 10.0, [6.0]),
                 Cell("a", 1, 1, 1, 1, 10.0, [6.0]),
                 Cell("b", 1, 1, 1, 1, 10.0, [6.0]))
        net = Network(cells=cells, adjacency=(("s", "a"), ("s", "b"), ("u", "b")),
                      sources=frozenset({"s", "u"}), sinks=frozenset({"a", "b"}), tau=1.0)
        R = constant_routing(net, {("s", "a"): 1.0, ("s", "b"): 0.0,
                                           ("u", "b"): 1.0})
        x = np.array([4.0, 4.0, 0.0, 10.0])
        z, gamma, f = one_step(net, R, x)
        assert gamma[0] == 1.0
        assert z[0] == pytest.approx(4.0)
        assert f[("s", "a")] == pytest.approx(4.0)
        assert gamma[1] == 0.0
        assert z[1] == 0.0

    def test_slack_supplies_no_throttle(self):
        net, R = one_to_two()
        x = np.array([3.0, 0.0, 0.0])
        z, gamma, _ = one_step(net, R, x)
        assert np.all(gamma == 1.0)
        assert z[0] == pytest.approx(3.0)


class TestNonFifoRates:
    def test_congested_branch_only_throttled(self):
        # demand 6 split 2/3-1/3, supplies {2, 10}: congested branch passes
        # 2, the other is unthrottled at 2 -> z = 4
        net, R = one_to_two(caps=(6.0, 10.0))
        x = np.array([6.0, 28.0, 20.0])
        z, _, f = one_step(net, R, x, model="nonfifo")
        assert f[("d", "p")] == pytest.approx(2.0)
        assert f[("d", "q")] == pytest.approx(2.0)
        assert z[0] == pytest.approx(4.0)

    def test_freeflow_matches_fifo(self, table_scenario):
        rng = np.random.default_rng(7)
        for _ in range(20):
            sc = freeflow_scenario(rng)
            f = simulate(sc, model="fifo")
            nf = simulate(sc, model="nonfifo")
            fp = simulate(sc, model="fifo-priority")
            np.testing.assert_allclose(f.states, nf.states, atol=1e-12)
            np.testing.assert_allclose(f.states, fp.states, atol=1e-12)

    def test_single_chain_matches_fifo_any_state(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            sc = random_scenario(rng, shape="chain")
            f = simulate(sc, model="fifo")
            nf = simulate(sc, model="nonfifo")
            np.testing.assert_allclose(f.states, nf.states, atol=1e-12)


class TestPriorityMerge:
    def test_full_priority(self):
        # d = {4,4}, s = 6, p = {1,0} -> median rules give {4, 2}
        f = priority_merge_flows((4.0, 4.0), 6.0, (1.0, 0.0))
        assert f == (4.0, 2.0)

    def test_uncongested_passes_demands(self):
        assert priority_merge_flows((4.0, 4.0), 10.0, (0.3, 0.7)) == (4.0, 4.0)

    def test_even_priorities_match_proportional(self):
        f = priority_merge_flows((4.0, 4.0), 6.0, (0.5, 0.5))
        assert f == (3.0, 3.0)

    def test_rejects_more_than_two(self):
        with pytest.raises(ValueError):
            priority_merge_flows((1.0, 1.0, 1.0), 6.0, (0.3, 0.3, 0.4))

    def test_negligible_demand_passes_under_every_rule(self):
        # 1e-12 veh from each source reaches m at step 1, when m's supply is
        # 0: a demand below ZERO_DEMAND_TOL passes under every rule, and the
        # priority merge held it back on the sources
        cells = tuple(Cell(c, 1, 1, 1, 1, 10.0, [6.0, 0.0, 6.0] if c == "m" else [3.0])
                      for c in ("s1", "s2", "m", "t"))
        net = Network(cells=cells, adjacency=(("s1", "m"), ("s2", "m"), ("m", "t")),
                      sources=frozenset({"s1", "s2"}), sinks=frozenset({"t"}), tau=1.0)
        lam = np.zeros((4, 4))
        lam[0, :2] = 1e-12
        sc = Scenario(network=net, x0=np.zeros(4), inflow=lam,
                      routing=constant_routing(net, dict.fromkeys(net.adjacency, 1.0)))
        runs = {model: simulate(sc, model=model) for model in MODELS}
        assert runs["fifo"].states[2].tolist() == [0.0, 0.0, 2e-12, 0.0]
        for model, run in runs.items():
            assert run.states.tobytes() == runs["fifo"].states.tobytes(), model
            assert run.min_gamma() == 1.0

    def test_flows_never_exceed_supply(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            d = rng.uniform(0, 8, size=2)
            s = rng.uniform(0.5, 10)
            p = rng.uniform(0, 1)
            f = priority_merge_flows(d, s, (p, 1 - p))
            assert f[0] + f[1] <= max(s, d[0] + d[1] if d[0] + d[1] <= s else s) + 1e-9
            assert f[0] <= d[0] + 1e-12 and f[1] <= d[1] + 1e-12


class TestStepAndSimulate:
    def test_zero_fixed_point(self):
        net, R = two_to_one()
        sc = Scenario(network=net, x0=(0, 0, 0), inflow=np.zeros((4, 3)), routing=R)
        traj = simulate(sc)
        assert np.all(traj.states == 0.0)
        assert evaluate_cost(traj, CostSpec("TTT")) == 0.0

    def test_step_arithmetic(self):
        net, _ = two_to_one()
        out = step(net, np.array([[5.0, 0, 0]]), np.array([[2.0, 0, 0]]),
                   np.array([[3.0, 0, 0]]))
        assert out[0, 0] == pytest.approx(4.0)

    def test_mass_conservation_benchmark(self, table_scenario, table_fifo):
        assert mass_balance_error(table_fifo, table_scenario) < 1e-9

    def test_box_confinement_benchmark(self, table_fifo):
        net = table_fifo.network
        for k, c in enumerate(net.cells):
            xs = table_fifo.states[:, k]
            assert np.all(xs >= 0.0)
            if c.id not in net.sources:
                assert np.all(xs <= c.jam_volume + 1e-9)

    def test_supply_never_exceeded(self, table_scenario, table_fifo):
        from ctm_reference import supply
        net = table_scenario.network
        for t in range(table_fifo.horizon):
            for k, c in enumerate(net.cells):
                s = supply(c, net.tau, min(table_fifo.states[t][k], c.jam_volume), t,
                           c.id in net.sources)
                assert table_fifo.y[t, k] <= s + 1e-12

    def test_unknown_model_rejected(self, table_scenario):
        with pytest.raises(ValueError, match="unknown model"):
            simulate(table_scenario, model="metanet")


class TestMonotonicityProperties:
    def test_freeflow_order_preservation_fifo(self):
        rng = np.random.default_rng(21)
        done = 0
        while done < 40:
            hi = freeflow_scenario(rng)
            lo = dominated_pair(rng, hi)
            t_lo = simulate(lo)
            if not t_lo.is_freeflow():
                continue
            t_hi = simulate(hi)
            assert np.all(t_lo.states <= t_hi.states + 1e-9)
            done += 1

    def test_nonfifo_order_preservation_unrestricted(self):
        # the one-step map is monotone off free-flow only when
        # demand_slope + supply_slope <= 1, hence slope_hi = 0.5
        rng = np.random.default_rng(22)
        for _ in range(40):
            hi = random_scenario(rng, inflow_scale=2.5, x0_scale=0.8, slope_hi=0.5)
            lo = dominated_pair(rng, hi)
            t_hi = simulate(hi, model="nonfifo")
            t_lo = simulate(lo, model="nonfifo")
            assert np.all(t_lo.states <= t_hi.states + 1e-9)

    def test_l1_contraction_equal_inflows(self):
        rng = np.random.default_rng(23)
        done = 0
        while done < 30:
            a = freeflow_scenario(rng)
            b = replace(a, x0=[v * rng.uniform(0.5, 1.0) for v in a.x0])
            ta, tb = simulate(a), simulate(b)
            if not (ta.is_freeflow() and tb.is_freeflow()):
                continue
            d0 = np.abs(ta.states[0] - tb.states[0]).sum()
            for t in range(a.horizon + 1):
                assert np.abs(ta.states[t] - tb.states[t]).sum() <= d0 + 1e-9
            done += 1


class TestCosts:
    def test_delay_zero_in_freeflow_chain(self):
        cells = (Cell("a", 1, 1, 1, 1, 50.0, [50.0]),
                 Cell("b", 1, 1, 1, 1, 50.0, [50.0]))
        net = Network(cells=cells, adjacency=(("a", "b"),),
                      sources=frozenset({"a"}), sinks=frozenset({"b"}), tau=1.0)
        R = constant_routing(net, {("a", "b"): 1.0})
        lam = np.zeros((6, 2))
        lam[0, 0] = 3.0
        sc = Scenario(network=net, x0=(0.0, 0.0), inflow=lam, routing=R)
        traj = simulate(sc)
        # slope-1 free flow: z = x each step, so x - z/slope vanishes
        assert evaluate_cost(traj, CostSpec("Delay")) == pytest.approx(0.0, abs=1e-12)

    def test_ttd_is_negated_distance(self, table_scenario, table_fifo):
        val = evaluate_cost(table_fifo, CostSpec("TTD"))
        total_flow = float(table_fifo.z.sum())
        assert val == pytest.approx(-500.0 * total_flow)

    def test_weighted_sum(self, table_fifo):
        ttt = evaluate_cost(table_fifo, CostSpec("TTT"))
        quad = evaluate_cost(table_fifo, CostSpec("QuadraticVolume"))
        combo = CostSpec("WeightedSum",
                         components=((2.0, CostSpec("TTT")), (0.5, CostSpec("QuadraticVolume"))))
        assert evaluate_cost(table_fifo, combo) == pytest.approx(2 * ttt + 0.5 * quad)

    def test_quadratic_benchmark_value(self, table_fifo):
        # pipeline self-consistency (published table value documented in README)
        assert evaluate_cost(table_fifo, CostSpec("QuadraticVolume")) == pytest.approx(
            1940.4761912217784, rel=1e-12)


class TestExport:
    def test_csv_shape_and_determinism(self, tmp_path):
        p1, p2 = (tmp_path / run / "trajectory.csv" for run in ("a", "b"))
        for p in (p1, p2):
            assert main(["simulate", "--scenario", "bundled:table", "--out", str(p.parent)]) == 0
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0].startswith("step,cell,x_veh")
        assert len(lines) == 1 + 26 * 10
