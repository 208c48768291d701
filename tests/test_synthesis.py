"""Control extraction, replay tightness, and the optimal-structure check."""

import numpy as np
import pytest

from ctmflow import scenarios
from ctmflow.cli import main
from ctmflow.ctm import CostSpec, InvariantError, evaluate_cost, simulate
from ctmflow.program import build_dta, build_fnc
from ctmflow.solver import freeflow_optimum, solve
from ctmflow.synthesis import (ControlSchedule, check_fnc_structure, extract_controls,
                               verify_realization)

from conftest import random_scenario
from ctm_reference import downstream
from tests_support import var_index


@pytest.fixture(scope="module")
def fnc_ttt(table_scenario):
    prog = build_fnc(table_scenario, CostSpec("TTT"))
    return prog, solve(prog)


@pytest.fixture(scope="module")
def dta_ttt(table_scenario):
    prog = build_dta(table_scenario, CostSpec("TTT"))
    return prog, solve(prog)


class TestExtraction:
    def test_binding_speed_limit_ratio(self, table_scenario, dta_ttt):
        # hand case z = 3, d(x) = 4 -> alpha = 0.75: realized on a synthetic
        # solution vector patched into the program layout
        prog, sol = dta_ttt
        vals = sol.values.copy()
        cell = "5"
        vals[var_index(prog)[("x", 3, cell)]] = 4.0
        _set_outflow(prog, vals, 3, cell, 3.0)
        controls = extract_controls(prog, _patched(sol, vals))
        k = table_scenario.network.index[cell]
        assert controls.alphas[3, k] == pytest.approx(0.75)

    def test_zero_over_zero_convention(self, table_scenario, dta_ttt):
        prog, sol = dta_ttt
        # early steps of far-downstream cells have x = z = 0
        controls = extract_controls(prog, sol)
        k = table_scenario.network.index["9"]
        assert controls.alphas[0, k] == 1.0

    def test_uniform_routing_on_zero_outflow(self, table_scenario, dta_ttt):
        prog, sol = dta_ttt
        controls = extract_controls(prog, sol)
        net = table_scenario.network
        ratios = controls.routing[0]     # nothing reaches cell 3 at t = 0
        assert ratios[net.edge_index["3", "4"]] == pytest.approx(0.5)
        assert ratios[net.edge_index["3", "6"]] == pytest.approx(0.5)

    def test_extracted_rows_sum_to_one(self, table_scenario, dta_ttt):
        prog, sol = dta_ttt
        controls = extract_controls(prog, sol)
        net = table_scenario.network
        for t in range(table_scenario.horizon):
            for c in net.cells:
                if c.id in net.sinks:
                    continue
                total = sum(controls.routing[t, net.edge_index[c.id, j]]
                            for j in downstream(net, c.id))
                assert float(total) == pytest.approx(1.0, abs=1e-9)

    def test_infeasible_input_guard(self, table_scenario, dta_ttt):
        prog, sol = dta_ttt
        vals = sol.values.copy()
        _set_outflow(prog, vals, 2, "5", 5.0)
        vals[var_index(prog)[("x", 2, "5")]] = 0.0
        with pytest.raises(InvariantError, match="demand"):
            extract_controls(prog, _patched(sol, vals))


def _set_outflow(prog, vals, t, cell, z):
    """Give a cell the outflow z at step t, all on its first outgoing column."""
    idx, net = var_index(prog), prog.scenario.network
    cols = [idx[("f", t, i, j)] for i, j in net.adjacency if i == cell]
    cols += [idx[("mu", t, cell)]] if cell in net.sinks else []
    vals[cols] = 0.0
    vals[cols[0]] = z
    assert prog.states(vals, "z")[t, net.index[cell]] == z


def _patched(sol, vals):
    from ctmflow.solver import Residuals, Solution
    return Solution(values=vals, objective=sol.objective, status=sol.status,
                    residuals=Residuals(0.0, 0.0))


class TestReplayTightness:
    @pytest.mark.parametrize("model", ["fifo", "nonfifo"])
    def test_fnc_replay(self, table_scenario, fnc_ttt, model):
        prog, sol = fnc_ttt
        controls = extract_controls(prog, sol)
        ref = prog.states(sol.values)
        rep = verify_realization(controls, table_scenario, ref, model=model)
        assert rep.realized
        assert rep.always_freeflow
        assert rep.demand_identity <= 1e-9

    @pytest.mark.parametrize("model", ["fifo", "nonfifo"])
    def test_dta_replay(self, table_scenario, dta_ttt, model):
        prog, sol = dta_ttt
        controls = extract_controls(prog, sol)
        ref = prog.states(sol.values)
        rep = verify_realization(controls, table_scenario, ref, model=model)
        assert rep.realized and rep.always_freeflow

    def test_replayed_cost_matches_objective(self, table_scenario, dta_ttt):
        prog, sol = dta_ttt
        controls = extract_controls(prog, sol)
        traj = simulate(table_scenario, controls=controls)
        assert evaluate_cost(traj, CostSpec("TTT")) == pytest.approx(sol.objective, abs=1e-6)

    def test_random_feasible_points_replay(self):
        # tightness must hold for any optimum of randomized instances
        rng = np.random.default_rng(51)
        done = 0
        while done < 10:
            sc = random_scenario(rng, horizon=6)
            prog = build_fnc(sc, CostSpec("TTT"))
            sol = solve(prog)
            if sol.status != "optimal":
                continue
            controls = extract_controls(prog, sol)
            ref = prog.states(sol.values)
            rep = verify_realization(controls, sc, ref)
            assert rep.realized, f"deviation {rep.max_deviation} > {rep.tolerance}"
            assert rep.always_freeflow
            done += 1

    def test_congested_uncontrolled_flags_non_freeflow(self, table_scenario, table_fifo):
        # all-ones controls on the bottleneck scenario: gamma < 1 somewhere
        controls = ControlSchedule(alphas=np.ones((table_scenario.horizon,
                                                   table_scenario.network.n)))
        rep = verify_realization(controls, table_scenario, table_fifo.states)
        assert rep.max_deviation <= rep.tolerance     # same dynamics replayed
        assert not rep.always_freeflow                # bottleneck forces gamma < 1


class TestStructureCheck:
    def test_structure_holds_at_refined_optimum(self, table_scenario, table_fifo):
        prog = build_fnc(table_scenario, CostSpec("TTT"))
        sol = solve(prog)
        fifo_cost = evaluate_cost(table_fifo, CostSpec("TTT"))
        rep = check_fnc_structure(prog, sol, fifo_cost)
        assert rep.ok
        assert rep.cost_gap <= 1e-3
        assert rep.max_flow_deviation <= 1e-6
        assert rep.checked_cells > 0

    def test_structure_holds_at_t200(self, robustness_scenario):
        # criterion 3 on the long horizon: the solved FNC optimum is the
        # uncontrolled FIFO run's cost, with the free-flow sending rule
        # solved by HiGHS, though the commands take the closed form, which
        # the direct solve must match
        prog = build_fnc(robustness_scenario, CostSpec("TTT"))
        sol = solve(prog)
        fifo_cost = evaluate_cost(simulate(robustness_scenario), CostSpec("TTT"))
        assert sol.status == "optimal" and sol.iterations > 0
        assert sol.objective == pytest.approx(fifo_cost, rel=1e-9)
        assert check_fnc_structure(prog, sol, fifo_cost).ok
        closed = freeflow_optimum(prog)
        assert abs(closed.objective - sol.objective) <= 1e-9 * sol.objective
        np.testing.assert_allclose(closed.values, sol.values, rtol=0, atol=1e-9)

    def test_refuses_wrong_cost(self, table_scenario):
        prog = build_fnc(table_scenario, CostSpec("QuadraticVolume"))
        sol = solve(prog)
        with pytest.raises(ValueError, match="total-volume"):
            check_fnc_structure(prog, sol, 0.0)

    def test_total_volume_as_the_lemma_reads_it(self):
        # the check and the free-flow lemma take one test of total-volume
        # cost: per-cell weights are refused by both, though the cost kind
        # is TTT (the check used to run and report a 0.375 cost gap), and
        # twice the total volume is accepted by both
        sc = scenarios.robustness_scenario(horizon=40)
        fifo = simulate(sc)
        weighted = CostSpec("TTT", weights=tuple(float(w) for w in range(1, sc.network.n + 1)))
        prog = build_fnc(sc, weighted)
        assert not prog.is_total_volume and freeflow_optimum(prog) is None
        with pytest.raises(ValueError, match="total-volume"):
            check_fnc_structure(prog, solve(prog), evaluate_cost(fifo, weighted))
        doubled = CostSpec("WeightedSum", components=((2.0, CostSpec("TTT")),))
        prog = build_fnc(sc, doubled)
        sol = freeflow_optimum(prog)
        assert prog.is_total_volume and sol is not None
        assert check_fnc_structure(prog, sol, evaluate_cost(fifo, doubled)).ok

    def test_refuses_unequal_slopes(self):
        rng = np.random.default_rng(52)
        sc = random_scenario(rng, shape="diamond", horizon=4)
        prog = build_fnc(sc, CostSpec("TTT"))
        sol = solve(prog)
        with pytest.raises(ValueError, match="slopes"):
            check_fnc_structure(prog, sol, 0.0)

    def test_refuses_dta(self, table_scenario, dta_ttt):
        prog, sol = dta_ttt
        with pytest.raises(ValueError, match="FNC"):
            check_fnc_structure(prog, sol, 0.0)


class TestControlExport:
    def test_csv_files(self, tmp_path):
        assert main(["synthesize", "--scenario", "bundled:table", "--kind", "dta",
                     "--cost", "ttt", "--out", str(tmp_path)]) == 0
        a, r = tmp_path / "controls_alpha.csv", tmp_path / "controls_routing.csv"
        assert a.read_text().startswith("step,cell,alpha")
        assert r.read_text().startswith("step,from_cell,to_cell,ratio")
        assert len(a.read_text().splitlines()) == 1 + 25 * 10
