"""Relaxation builders: feasibility structure, nesting, epsilon, export."""

import itertools

import numpy as np
import pytest

from ctmflow.ctm import CostSpec, simulate
from ctmflow.network import Network, RoutingSchedule, Scenario, make_cell
from ctmflow.program import build_dta, build_fnc, embed_trajectory, export_lp
from ctmflow.solver import solve, verify_solution

from conftest import random_scenario


def single_cell_scenario():
    cells = (make_cell("a", 1, 1, 1, 1, 10.0, [6.0], 1.0, is_source=True),)
    net = Network(cells=cells, adjacency=(), sources=frozenset({"a"}),
                  sinks=frozenset({"a"}))
    return Scenario(network=net, horizon=1, tau=1.0, initial_volumes=(0.0,),
                    inflow=np.zeros((1, 1)),
                    routing=RoutingSchedule.constant(net, {}))


class TestBuilders:
    def test_single_cell_zero_point(self):
        sc = single_cell_scenario()
        prog = build_dta(sc, CostSpec("TTT"))
        sol = solve(prog)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(sol.values)) <= 1e-9

    def test_fnc_needs_routing(self, table_scenario):
        sc = Scenario(network=table_scenario.network, horizon=table_scenario.horizon,
                      tau=table_scenario.tau,
                      initial_volumes=table_scenario.initial_volumes,
                      inflow=table_scenario.inflow, routing=None)
        with pytest.raises(ValueError, match="routing"):
            build_fnc(sc, CostSpec("TTT"))

    def test_bad_eps_rejected(self, table_scenario):
        for eps in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError, match="eps"):
                build_dta(table_scenario, CostSpec("TTT"), eps)

    def test_objective_mirrors_simulator(self, table_scenario, table_fifo):
        # embedding the simulated trajectory must give identical cost values
        for cost in (CostSpec("TTT"), CostSpec("QuadraticVolume"),
                     CostSpec("TTD"), CostSpec("Delay")):
            prog = build_fnc(table_scenario, cost)
            vals = embed_trajectory(prog, table_fifo)
            from ctmflow.ctm import evaluate_cost
            assert prog.objective_value(vals) == pytest.approx(
                evaluate_cost(table_fifo, cost), rel=1e-12, abs=1e-9)

    def test_metadata(self, table_scenario):
        prog = build_dta(table_scenario, CostSpec("TTT"), eps=0.25)
        assert prog.kind == "DTA" and prog.eps == 0.25
        assert prog.scenario_hash == table_scenario.content_hash()


class TestAssembly:
    def test_builder_matches_loop_reference(self):
        # the index-arithmetic builder against the per-entry loop builder it
        # replaced: bit-equal CSR arrays, right-hand sides, objective and
        # names, on every test shape, both kinds, every cost kind, two eps
        from program_reference import reference_program

        rng = np.random.default_rng(33)
        for shape in ("chain", "diverge", "merge", "diamond", "cross"):
            sc = random_scenario(rng, shape=shape, horizon=4)
            weights = tuple(rng.uniform(0.5, 2.0, size=sc.network.n))
            costs = (CostSpec("TTT"), CostSpec("QuadraticVolume"), CostSpec("TTD"),
                     CostSpec("Delay"),
                     CostSpec("WeightedSum", components=(
                         (0.5, CostSpec("TTT")), (2.0, CostSpec("Delay", weights=weights)),
                         (0.25, CostSpec("QuadraticVolume", weights=weights)))))
            for (kind, build), cost, eps in itertools.product(
                    (("DTA", build_dta), ("FNC", build_fnc)), costs, (0.0, 0.2)):
                got, ref = build(sc, cost, eps), reference_program(sc, cost, eps, kind)
                for mat in ("A_eq", "A_ub"):
                    a, b = getattr(got, mat), getattr(ref, mat)
                    assert a.shape == b.shape
                    for attr in ("indptr", "indices", "data"):
                        assert getattr(a, attr).dtype == getattr(b, attr).dtype
                        np.testing.assert_array_equal(getattr(a, attr), getattr(b, attr))
                for vec in ("b_eq", "b_ub", "c", "q", "nonneg"):
                    a, b = getattr(got, vec), getattr(ref, vec)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
                assert got.names == ref.names
                assert got.var_index == ref.var_index


class TestFeasibilityStructure:
    def test_simulated_trajectories_are_feasible(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            sc = random_scenario(rng)
            traj = simulate(sc)
            for build in (build_dta, build_fnc):
                prog = build(sc, CostSpec("TTT"))
                vals = embed_trajectory(prog, traj)
                assert verify_solution(prog, vals) < 1e-9

    def test_benchmark_trajectory_feasible_both_models(self, table_scenario):
        for model in ("fifo", "nonfifo", "fifo-priority"):
            traj = simulate(table_scenario, model=model)
            prog = build_dta(table_scenario, CostSpec("TTT"))
            assert verify_solution(prog, embed_trajectory(prog, traj)) < 1e-9

    def test_fnc_point_is_dta_feasible(self, table_scenario):
        prog_f = build_fnc(table_scenario, CostSpec("TTT"))
        sol = solve(prog_f)
        prog_d = build_dta(table_scenario, CostSpec("TTT"))
        # same variable layout by construction
        assert prog_d.names == prog_f.names
        assert verify_solution(prog_d, sol.values) < 1e-8

    def test_nested_optimum(self):
        rng = np.random.default_rng(32)
        for _ in range(8):
            sc = random_scenario(rng, horizon=5)
            lo = solve(build_dta(sc, CostSpec("TTT"))).objective
            hi = solve(build_fnc(sc, CostSpec("TTT"))).objective
            assert lo <= hi + 1e-7 * (1 + abs(hi))

    def test_monotone_tightening_in_eps(self, table_scenario):
        values = []
        for eps in (0.0, 0.2, 0.4):
            sol = solve(build_fnc(table_scenario, CostSpec("TTT"), eps))
            assert sol.status == "optimal"
            values.append(sol.objective)
        assert values[0] <= values[1] + 1e-9 <= values[2] + 2e-9

    def test_eps_strictly_increases_constrained_cost(self, table_scenario):
        base = solve(build_fnc(table_scenario, CostSpec("TTT"), 0.0)).objective
        tight = solve(build_fnc(table_scenario, CostSpec("TTT"), 0.5)).objective
        assert tight > base + 1e-6


class TestExport:
    def test_lp_round_trip_values(self, tmp_path, table_scenario):
        prog = build_fnc(table_scenario, CostSpec("TTT"))
        lp_path = tmp_path / "prog.lp"
        export_lp(prog, lp_path)
        text = lp_path.read_text()
        assert text.startswith("\\ ctmflow FNC")
        assert "Minimize" in text and "Subject To" in text and "End" in text

    def test_quadratic_marker_in_lp(self, tmp_path, table_scenario):
        prog = build_fnc(table_scenario, CostSpec("QuadraticVolume"))
        path = tmp_path / "quad.lp"
        export_lp(prog, path)
        assert "^2" in path.read_text()
