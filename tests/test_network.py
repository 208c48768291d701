"""Network construction, validation, demand/supply, general-junction refusal."""

import json
import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctmflow import scenarios
from ctmflow.ctm import CostSpec, Drive, simulate
from ctmflow.network import (Cell, Network, Scenario, constant_routing, load_scenario,
                             save_scenario, scenario_from_dict, scenario_to_dict)
from ctmflow.program import build_fnc
from ctmflow.scenarios import figure_network, robustness_scenario, routing_for
from ctmflow.solver import solve
from ctmflow.synthesis import _junction_heads, check_fnc_structure

from conftest import build_network, random_scenario
from ctm_reference import demand, downstream, priority_merges, supply, upstream

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


class TestScenario:
    """x0, inflow and routing are stored once, as read-only float arrays,
    and the capacity matrix is read-only too; a scenario equals only itself."""

    def test_eq_and_hash(self):
        a, b = scenarios.table_scenario(), scenarios.table_scenario()
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b, a}) == 2

    @pytest.mark.parametrize("field", ["x0", "inflow", "routing", "capacity"])
    def test_inputs_read_only(self, field):
        sc = scenarios.table_scenario()
        with pytest.raises(ValueError, match="read-only"):
            getattr(sc, field)[0] = 1.0

    def test_network_arrays_read_only(self):
        # every scenario on a network shares its derived arrays; a write to
        # jam used to reach the program's right-hand side
        sc = scenarios.table_scenario()
        net = sc.network
        derived = [getattr(net, f.name) for f in fields(net) if not f.init]
        arrays = [a for v in derived for a in (v if isinstance(v, tuple) else [v])
                  if isinstance(a, np.ndarray)]
        assert len(arrays) == 12 + len(net.in_edges) + len(net.out_edges)
        assert not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError, match="read-only"):
            net.jam[3] = -7.0
        assert build_fnc(sc, CostSpec("TTT")).b_ub.min() >= 0.0

    def test_negative_inflow_after_validation_refused(self):
        # a write after validation used to reach the program's right-hand side
        sc = scenarios.table_scenario()
        with pytest.raises(ValueError, match="read-only"):
            sc.inflow[3, 0] = -5
        assert build_fnc(sc, CostSpec("TTT")).b_eq.min() == 0.0

    def test_caller_arrays_are_copied(self, table_scenario):
        lam = table_scenario.inflow.copy()
        sc = replace(table_scenario, inflow=lam)
        lam[0, 0] = 100.0
        assert sc.inflow[0, 0] == table_scenario.inflow[0, 0]
        assert lam.flags.writeable

    def test_replace_shortens_horizon(self, table_scenario):
        sc = replace(table_scenario, inflow=table_scenario.inflow[:10])
        assert sc.horizon == 10
        assert sc.capacity.shape == (10, table_scenario.network.n)


def _two_cell_scenario(cells="ab", adjacency=("ab",), sources="a", sinks="b", v=0.5, w=0.5,
                       cap_b=6.0, x0=None, inflow=None, routing=None) -> Scenario:
    """Cells named by one letter each, edges as two-letter strings; by
    default the valid chain a -> b with even turning ratios."""
    net = Network(cells=tuple(Cell(c, v, w, 1.0, 1, 10.0, (cap_b if c == "b" else 6.0,))
                              for c in cells),
                  adjacency=tuple(map(tuple, adjacency)), sources=frozenset(sources),
                  sinks=frozenset(sinks), tau=1.0)
    if routing is None:
        routing = [[1.0 / sum(q[0] == p[0] for q in adjacency) for p in adjacency]]
    return Scenario(network=net, x0=np.zeros(net.n) if x0 is None else x0,
                    inflow=np.zeros((2, net.n)) if inflow is None else inflow, routing=routing)


class TestValidation:
    @pytest.mark.parametrize("code, edit", [
        ("supply-positive", dict(cap_b=0.0)),
        ("source-upstream", dict(cells="abc", adjacency=("ab", "bc"), sources="ab", sinks="c")),
        ("sink-downstream", dict(cells="abc", adjacency=("ab", "bc"), sinks="bc")),
        ("dead-end", dict(cells="abc", adjacency=("ab", "ac"))),
        ("no-feed", dict(cells="abc", adjacency=("ab", "cb"))),
        ("x0-shape", dict(x0=np.zeros(3))),
        ("x0-finite", dict(x0=[np.nan, 0.0])),
        ("x0-negative", dict(x0=[-1.0, 0.0])),
        ("x0-jam", dict(x0=[0.0, 11.0])),
        ("inflow-shape", dict(inflow=np.zeros((2, 3)))),
        ("inflow-finite", dict(inflow=[[np.inf, 0.0]])),
        ("inflow-negative", dict(inflow=[[-1.0, 0.0]])),
        ("inflow-nonsource", dict(inflow=[[0.0, 1.0]])),
        ("cfl", dict(v=2.0)),
        ("cfl-wave", dict(w=2.0)),
        ("routing-shape", dict(routing=np.ones((1, 2)))),
        ("routing-finite", dict(routing=[[np.nan]])),
        ("routing-negative", dict(routing=[[-1.0]])),
        ("routing-rowsum", dict(routing=[[0.5]])),
    ])
    def test_invalid_scenario_refused_with_code(self, code, edit):
        assert _two_cell_scenario().horizon == 2     # the unedited chain is valid
        with pytest.raises(ValueError, match=re.escape(f"[{code}] ")) as err:
            _two_cell_scenario(**edit)
        assert str(err.value).startswith("invalid scenario:\n")

    def test_bad_routing_rowsum_flagged(self, table_scenario):
        data = scenario_to_dict(table_scenario)
        data["routing"]["2->5"] = [1.0 / 13.0]   # row sums to 2/3 + 1/13
        with pytest.raises(ValueError, match=re.escape("[routing-rowsum] ratios out of 2")):
            scenario_from_dict(data)

    def test_cfl_boundary_passes(self):
        # tau = 10 s, v = 50 ft/s, L = 500 ft -> ratio exactly 1
        net = Network(cells=(Cell("c", 50.0, 50.0, 500.0, 1, 10.0, (6.0,)),), adjacency=(),
                      sources=frozenset({"c"}), sinks=frozenset({"c"}), tau=10.0)
        assert net.demand_slope[0] == pytest.approx(1.0)

    def test_cfl_violation_flagged(self):
        cells = (Cell("a", 60.0, 50.0, 500.0, 1, 10.0, (6.0,)),
                 Cell("b", 50.0, 50.0, 500.0, 1, 10.0, (6.0,)))
        net = Network(cells=cells, adjacency=(("a", "b"),),
                      sources=frozenset({"a"}), sinks=frozenset({"b"}), tau=10.0)
        with pytest.raises(ValueError, match=re.escape("[cfl] ")):
            Scenario(network=net, x0=(0.0, 0.0), inflow=np.zeros((2, 2)),
                     routing=constant_routing(net, {("a", "b"): 1.0}))

    def test_duplicate_adjacency_pair_rejected(self):
        # a pair listed twice used to double its flow and create vehicles
        cells = (Cell("s", 1, 1, 1, 1, 10.0, (6.0,)), Cell("b", 1, 1, 1, 1, 10.0, (6.0,)))
        with pytest.raises(ValueError, match="duplicate adjacency"):
            Network(cells=cells, adjacency=(("s", "b"), ("s", "b")),
                    sources=frozenset({"s"}), sinks=frozenset({"b"}), tau=1.0)

    def test_inflow_on_nonsource_flagged(self, table_scenario):
        lam = table_scenario.inflow.copy()
        lam[0, table_scenario.network.index["5"]] = 1.0
        with pytest.raises(ValueError, match=re.escape("[inflow-nonsource] lambda_5(0)")):
            replace(table_scenario, inflow=lam)


class TestJunctions:
    """check_fnc_structure refuses a general junction: a cell that splits to
    two or more cells, one of which another cell also feeds."""

    @staticmethod
    def structure(sc: Scenario):
        prog = build_fnc(sc, CostSpec("TTT"))
        return check_fnc_structure(prog, solve(prog), 0.0)

    @staticmethod
    def scenario(net: Network, ratios: dict) -> Scenario:
        lam = np.zeros((2, net.n))
        for cid in net.sources:
            lam[0, net.index[cid]] = 1.0
        return Scenario(network=net, x0=np.zeros(net.n), inflow=lam,
                        routing=constant_routing(net, ratios))

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

    @staticmethod
    def random_dag(rng) -> Network:
        """Cells c0..c{n-1} with random forward edges; cells without inputs
        are sources and cells without outputs sinks."""
        n = int(rng.integers(2, 9))
        ids = [f"c{k}" for k in range(n)]
        pairs = tuple((ids[i], ids[j]) for i in range(n) for j in range(i + 1, n)
                      if rng.random() < 0.35)
        fed, feeding = {j for _, j in pairs}, {i for i, _ in pairs}
        return Network(cells=tuple(Cell(c, 1, 1, 1, 1, 10, (6,)) for c in ids), adjacency=pairs,
                       sources=frozenset(set(ids) - fed), sinks=frozenset(set(ids) - feeding),
                       tau=1.0)

    @pytest.mark.parametrize("shape", ["chain", "diverge", "merge", "diamond", "cross", "dag"])
    def test_degree_arrays_match_neighbour_lists(self, shape):
        # merges, structure-check heads and the general-junction refusal read
        # degree arrays; the reference walks ctm_reference's neighbour lists
        rng = np.random.default_rng(23)
        nets = ([self.random_dag(rng) for _ in range(150)] if shape == "dag"
                else [build_network(shape, rng)[0]])
        for net in nets:
            ids = [c.id for c in net.cells]
            merges = [tuple(net.index[c] for c in m) for m in priority_merges(net)]
            assert net.merges.tolist() == [list(m) for m in merges]
            assert net.merges.shape == (len(merges), 3)
            general = any(len(downstream(net, c)) > 1
                          and any(len(upstream(net, j)) > 1 for j in downstream(net, c))
                          for c in ids)
            heads = [k for k, c in enumerate(ids) if downstream(net, c)
                     and all(len(upstream(net, j)) == 1 for j in downstream(net, c))]
            if general:
                with pytest.raises(ValueError, match="general junctions"):
                    _junction_heads(net)
            else:
                assert _junction_heads(net).tolist() == heads


class TestScenarioFile:
    def test_round_trip(self, tmp_path, table_scenario):
        path = tmp_path / "scenario.json"
        save_scenario(table_scenario, path)
        back = load_scenario(path)
        assert back.horizon == table_scenario.horizon
        np.testing.assert_allclose(back.inflow, table_scenario.inflow)
        np.testing.assert_array_equal(back.routing, table_scenario.routing)
        assert back.content_hash() == table_scenario.content_hash()

    def test_round_trip_keeps_tau(self, tmp_path, table_scenario):
        # tau is stored once, on the network, and the file's tau is the one
        # the reloaded slopes derive from
        sc = replace(table_scenario, network=replace(table_scenario.network, tau=5.0))
        assert (sc.network.demand_slope == 0.5).all()
        path = tmp_path / "scenario.json"
        save_scenario(sc, path)
        back = load_scenario(path)
        np.testing.assert_array_equal(back.network.demand_slope, sc.network.demand_slope)
        np.testing.assert_array_equal(back.network.supply_slope, sc.network.supply_slope)
        np.testing.assert_array_equal(simulate(back).states, simulate(sc).states)
        assert back.content_hash() == sc.content_hash() != table_scenario.content_hash()

    @pytest.mark.parametrize("shape", ["chain", "diverge", "merge", "diamond", "cross"])
    def test_round_trip_unequal_routing_series(self, tmp_path, shape):
        rng = np.random.default_rng(5)
        data = scenario_to_dict(random_scenario(rng, shape=shape, horizon=6))
        lengths = {key: int(rng.integers(1, 7)) for key in data["routing"]}
        # per cell, the longest series takes what the others leave, so each
        # cell's ratios sum to 1 at every step, also past a series' end
        by_cell = {}
        for key in lengths:
            by_cell.setdefault(key.partition("->")[0], []).append(key)
        data["routing"] = {}
        for keys in by_cell.values():
            slack = max(keys, key=lengths.get)
            others = [key for key in keys if key != slack]
            for key in others:
                data["routing"][key] = list(rng.uniform(0.0, 1.0 / len(keys), size=lengths[key]))
            data["routing"][slack] = [
                1.0 - sum(data["routing"][key][min(t, lengths[key] - 1)] for key in others)
                for t in range(lengths[slack])]
        assert len(set(lengths.values())) > 1
        sc = scenario_from_dict(data)
        ratios = sc.routing
        assert ratios.shape == (max(lengths.values()), len(sc.network.adjacency))
        for e, (i, j) in enumerate(sc.network.adjacency):
            series = data["routing"][f"{i}->{j}"]
            np.testing.assert_array_equal(ratios[:len(series), e], series)
            assert (ratios[len(series):, e] == series[-1]).all()     # last entry held
        path = tmp_path / "scenario.json"
        save_scenario(sc, path)
        back = load_scenario(path)
        np.testing.assert_array_equal(back.routing, ratios)
        assert back.content_hash() == sc.content_hash()

    def test_constant_routing_rejects_non_edge(self, table_scenario):
        with pytest.raises(ValueError, match="not an edge"):
            constant_routing(table_scenario.network, {("1", "10"): 1.0})

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
        assert len(table_scenario.routing) == 1
        ratio = Drive.for_run(table_scenario).ratio
        assert ratio.shape[0] == table_scenario.horizon
        np.testing.assert_array_equal(ratio[-1], ratio[0])
        np.testing.assert_array_equal(ratio[0, :-1], table_scenario.routing[0])
