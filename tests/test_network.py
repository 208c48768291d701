"""Network construction, validation, demand/supply, general-junction refusal."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctmflow import scenarios
from ctmflow.ctm import CostSpec, Drive, simulate
from ctmflow.network import (Cell, Network, RoutingSchedule, Scenario, load_scenario,
                             save_scenario, scenario_from_dict, scenario_to_dict, validate)
from ctmflow.program import build_fnc
from ctmflow.scenarios import figure_network, robustness_scenario, routing_for
from ctmflow.solver import solve
from ctmflow.synthesis import check_fnc_structure

from conftest import build_network, random_scenario
from ctm_reference import demand, supply

TAU = 1.0     # with L = 1, the per-step slopes equal v and w


def _cell(slope=1.0, cap=6.0, jam=10.0):
    return Cell("c", slope, slope, 1.0, 1, jam, (cap,))


class TestDemandSupply:
    """The reference diagram helpers of ``ctm_reference``."""

    def test_nonsource_demand_unsaturated(self):
        # slope 1, x = 4, alpha = 1, C = 6 -> 4
        assert demand(_cell(), TAU, 4.0, 1.0, 0) == 4.0

    def test_source_demand_metered(self):
        # source with x = 10, alpha = 0.5, C = 6 -> min(10, 3) = 3
        assert demand(_cell(), TAU, 10.0, 0.5, 0, source=True) == 3.0

    def test_demand_zero_at_empty(self):
        for alpha in (0.0, 0.3, 1.0):
            assert demand(_cell(), TAU, 0.0, alpha, 0) == 0.0

    def test_negative_volume_rejected(self):
        with pytest.raises(ValueError):
            demand(_cell(), TAU, -1.0, 1.0, 0)

    def test_supply_capacity_binding(self):
        assert supply(_cell(), TAU, 0.0, 0) == 6.0

    def test_supply_zero_at_jam(self):
        assert supply(_cell(), TAU, 10.0, 0) == 0.0

    def test_supply_affine_branch(self):
        assert supply(_cell(), TAU, 7.0, 0) == 3.0

    def test_supply_infinite_on_sources(self):
        assert supply(_cell(), TAU, 3.0, 0, source=True) == math.inf

    def test_supply_rejects_above_jam(self):
        with pytest.raises(ValueError):
            supply(_cell(), TAU, 10.5, 0)

    @given(x=st.floats(0.0, 10.0), alpha=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_control_only_restricts(self, x, alpha):
        c = _cell()
        assert demand(c, TAU, x, alpha, 0) <= demand(c, TAU, x, 1.0, 0) + 1e-12

    @given(x1=st.floats(0.0, 10.0), x2=st.floats(0.0, 10.0))
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_demand_nondecreasing_supply_nonincreasing(self, x1, x2):
        lo, hi = sorted((x1, x2))
        c = _cell()
        assert demand(c, TAU, lo, 1.0, 0) <= demand(c, TAU, hi, 1.0, 0) + 1e-12
        assert supply(c, TAU, lo, 0) >= supply(c, TAU, hi, 0) - 1e-12


class TestValidation:
    def test_benchmark_scenario_is_valid(self, table_scenario):
        report = validate(table_scenario)
        assert report.ok, str(report)

    def test_validation_is_pure(self, table_scenario):
        r1 = validate(table_scenario)
        r2 = validate(table_scenario)
        assert r1.ok and r2.ok

    def test_bad_routing_rowsum_flagged(self, table_scenario):
        data = scenario_to_dict(table_scenario)
        data["routing"]["2->5"] = [1.0 / 13.0]   # row sums to 2/3 + 1/13
        sc = scenario_from_dict(data)
        report = validate(sc)
        assert any(v.code == "routing-rowsum" for v in report.violations)

    def test_cfl_boundary_passes(self):
        # tau = 10 s, v = 50 ft/s, L = 500 ft -> ratio exactly 1
        net = Network(cells=(Cell("c", 50.0, 50.0, 500.0, 1, 10.0, (6.0,)),), adjacency=(),
                      sources=frozenset({"c"}), sinks=frozenset({"c"}), tau=10.0)
        assert net.compiled.demand_slope[0] == pytest.approx(1.0)

    def test_cfl_violation_flagged(self):
        from ctmflow.network import Network, RoutingSchedule, Scenario
        cells = (Cell("a", 60.0, 50.0, 500.0, 1, 10.0, (6.0,)),
                 Cell("b", 50.0, 50.0, 500.0, 1, 10.0, (6.0,)))
        net = Network(cells=cells, adjacency=(("a", "b"),),
                      sources=frozenset({"a"}), sinks=frozenset({"b"}), tau=10.0)
        sc = Scenario(network=net, horizon=2, initial_volumes=(0.0, 0.0),
                      inflow=np.zeros((2, 2)),
                      routing=RoutingSchedule.constant(net, {("a", "b"): 1.0}))
        report = validate(sc)
        assert any(v.code == "cfl" for v in report.violations)

    def test_duplicate_adjacency_pair_rejected(self):
        # a pair listed twice used to double its flow and create vehicles
        cells = (Cell("s", 1, 1, 1, 1, 10.0, (6.0,)), Cell("b", 1, 1, 1, 1, 10.0, (6.0,)))
        with pytest.raises(ValueError, match="duplicate adjacency"):
            Network(cells=cells, adjacency=(("s", "b"), ("s", "b")),
                    sources=frozenset({"s"}), sinks=frozenset({"b"}), tau=1.0)

    def test_inflow_on_nonsource_flagged(self, table_scenario):
        lam = table_scenario.inflow_array().copy()
        lam[0, table_scenario.network.index["5"]] = 1.0
        from ctmflow.network import Scenario
        sc = Scenario(network=table_scenario.network, horizon=table_scenario.horizon,
                      initial_volumes=table_scenario.initial_volumes,
                      inflow=lam, routing=table_scenario.routing)
        report = validate(sc)
        assert any(v.code == "inflow-nonsource" for v in report.violations)


class TestJunctions:
    """check_fnc_structure refuses a general junction: a cell that splits to
    two or more cells, one of which another cell also feeds."""

    @staticmethod
    def structure(sc: Scenario):
        prog = build_fnc(sc, CostSpec("TTT"))
        return check_fnc_structure(prog, solve(prog), sc, 0.0)

    @staticmethod
    def scenario(net: Network, ratios: dict) -> Scenario:
        lam = np.zeros((2, net.n))
        for cid in net.sources:
            lam[0, net.index[cid]] = 1.0
        return Scenario(network=net, horizon=2, initial_volumes=(0.0,) * net.n,
                        inflow=lam, routing=RoutingSchedule.constant(net, ratios))

    def test_benchmark_has_no_general_junction(self):
        assert self.structure(robustness_scenario(horizon=3)).checked_cells > 0

    def test_degree_based_kinds(self):
        # a diverge whose branches meet again at a merge is no general junction
        cells = tuple(Cell(i, 1, 1, 1, 1, 10, (6,)) for i in ("s", "a", "b", "c"))
        net = Network(cells=cells, adjacency=(("s", "a"), ("s", "b"), ("a", "c"), ("b", "c")),
                      sources=frozenset({"s"}), sinks=frozenset({"c"}), tau=1.0)
        ratios = {("s", "a"): 0.5, ("s", "b"): 0.5, ("a", "c"): 1.0, ("b", "c"): 1.0}
        assert self.structure(self.scenario(net, ratios)).checked_cells > 0

    def test_general_junction_flagged(self):
        # conftest's cross: s splits to a and b, and u also feeds b
        net, ratios = build_network("cross", np.random.default_rng(7), slopes=0.5)
        with pytest.raises(ValueError, match="general junctions"):
            self.structure(self.scenario(net, ratios))


class TestScenarioFile:
    def test_round_trip(self, tmp_path, table_scenario):
        path = tmp_path / "scenario.json"
        save_scenario(table_scenario, path)
        back = load_scenario(path)
        assert back.horizon == table_scenario.horizon
        np.testing.assert_allclose(back.inflow_array(), table_scenario.inflow_array())
        np.testing.assert_array_equal(back.routing.ratios, table_scenario.routing.ratios)
        assert back.content_hash() == table_scenario.content_hash()

    def test_round_trip_keeps_tau(self, tmp_path, table_scenario):
        # tau is stored once, on the network, and the file's tau is the one
        # the reloaded slopes derive from
        sc = replace(table_scenario, network=replace(table_scenario.network, tau=5.0))
        assert (sc.compiled.demand_slope == 0.5).all()
        path = tmp_path / "scenario.json"
        save_scenario(sc, path)
        back = load_scenario(path)
        np.testing.assert_array_equal(back.compiled.demand_slope, sc.compiled.demand_slope)
        np.testing.assert_array_equal(back.compiled.supply_slope, sc.compiled.supply_slope)
        np.testing.assert_array_equal(simulate(back).states, simulate(sc).states)
        assert back.content_hash() == sc.content_hash() != table_scenario.content_hash()

    @pytest.mark.parametrize("shape", ["chain", "diverge", "merge", "diamond", "cross"])
    def test_round_trip_unequal_routing_series(self, tmp_path, shape):
        rng = np.random.default_rng(5)
        data = scenario_to_dict(random_scenario(rng, shape=shape, horizon=6))
        lengths = {key: int(rng.integers(1, 7)) for key in data["routing"]}
        data["routing"] = {key: list(rng.uniform(0.0, 1.0, size=m)) for key, m in lengths.items()}
        sc = scenario_from_dict(data)
        ratios = sc.routing.ratios
        assert ratios.shape == (max(lengths.values()), len(sc.network.adjacency))
        for e, (i, j) in enumerate(sc.network.adjacency):
            series = data["routing"][f"{i}->{j}"]
            np.testing.assert_array_equal(ratios[:len(series), e], series)
            assert (ratios[len(series):, e] == series[-1]).all()     # last entry held
        path = tmp_path / "scenario.json"
        save_scenario(sc, path)
        back = load_scenario(path)
        np.testing.assert_array_equal(back.routing.ratios, ratios)
        assert back.content_hash() == sc.content_hash()

    def test_constant_routing_rejects_non_edge(self, table_scenario):
        with pytest.raises(ValueError, match="not an edge"):
            RoutingSchedule.constant(table_scenario.network, {("1", "10"): 1.0})

    def test_units_header_required(self, tmp_path, table_scenario):
        data = scenario_to_dict(table_scenario)
        del data["units"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="units"):
            load_scenario(path)

    def test_ratio_note_recorded(self, table_scenario):
        assert "1/13" in table_scenario.note

    def test_routing_constant_extension(self, table_scenario):
        # a one-row schedule drives the last step as it drives the first
        assert len(table_scenario.routing.ratios) == 1
        ratio = Drive.for_run(table_scenario).ratio
        assert ratio.shape[0] == table_scenario.horizon
        np.testing.assert_array_equal(ratio[-1], ratio[0])
        np.testing.assert_array_equal(ratio[0, :-1], table_scenario.routing.ratios[0])
