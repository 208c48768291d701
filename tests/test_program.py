"""Relaxation builders: feasibility structure, nesting, epsilon, export."""

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
    def test_vectorized_assembly_matches_lil_reference(self, monkeypatch, table_scenario):
        # the CSR arrays must equal those of per-entry lil_matrix writes,
        # the reference the vectorized assembly replaced
        import scipy.sparse as sp

        import ctmflow.program as program
        from ctmflow.scenarios import robustness_scenario

        def lil_reference(rows, width):
            mat = sp.lil_matrix((len(rows), width))
            for r, (cols, vals) in enumerate(rows):
                for col, val in zip(cols, vals):
                    mat[r, col] += val
            return mat.tocsr()

        checked = []
        real = program._assemble

        def checking(rows, width):
            got, ref = real(rows, width), lil_reference(rows, width)
            for attr in ("indptr", "indices", "data"):
                a, b = getattr(got, attr), getattr(ref, attr)
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)
            assert got.shape == ref.shape
            checked.append(got.shape)
            return got

        monkeypatch.setattr(program, "_assemble", checking)
        for sc in (table_scenario, robustness_scenario(horizon=30)):
            for build in (build_dta, build_fnc):
                build(sc, CostSpec("TTT"), eps=0.2)
        assert len(checked) == 8


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
