"""Acceptance gate: one test per criterion, printing a pass/fail line each.

Criteria 1, 2, and 5 assert the published benchmark values; with the
reconstructed network those specific absolute numbers are not reproduced
(see the README reproduction notes), so those tests report the measured
values in their failure messages. All structural criteria pass.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from ctmflow.ctm import CostSpec, evaluate_cost, simulate
from ctmflow.program import build_dta, build_fnc
from ctmflow.robustness import (PerturbationSpec, max_freeflow_inflow, simulate_perturbed,
                                sweep)
from ctmflow.scenarios import robustness_scenario, table_scenario
from ctmflow.solver import freeflow_optimum, solve
from ctmflow.synthesis import check_fnc_structure, extract_controls, verify_realization

from conftest import dominated_pair, freeflow_scenario, random_scenario
from ctm_reference import mass_balance_error
from solver_reference import brute_force_oracle


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def bench():
    """Scenario, FIFO runs, and the four solved programs of criteria 1-2."""
    sc = table_scenario()
    t0 = time.perf_counter()
    fifo = simulate(sc)
    solved = {}
    for kind, build in (("DTA", build_dta), ("FNC", build_fnc)):
        for cname, cost in (("TTT", CostSpec("TTT")),
                            ("Quad", CostSpec("QuadraticVolume"))):
            prog = build(sc, cost)
            solved[(kind, cname)] = (prog, solve(prog))
    runtime = time.perf_counter() - t0
    return {"sc": sc, "fifo": fifo, "solved": solved, "runtime": runtime}


class TestCriterion1:
    def test_table2_linear_cost(self, bench):
        fifo_ttt = evaluate_cost(bench["fifo"], CostSpec("TTT"))
        dta = bench["solved"][("DTA", "TTT")][1].objective
        fnc = bench["solved"][("FNC", "TTT")][1].objective
        runtime = bench["runtime"]
        checks = {
            "FIFO TTT 281.6 +- 0.05": abs(fifo_ttt - 281.6) <= 0.05,
            "DTA 246 +- 1%": abs(dta - 246.0) <= 2.46,
            "FNC 281.6 +- 1%": abs(fnc - 281.6) <= 2.816,
            "runtime < 30 s": runtime < 30.0,
        }
        ok = all(checks.values())
        report("1 (Table 2)", ok,
               f"FIFO={fifo_ttt:.4f} DTA={dta:.4f} FNC={fnc:.4f} "
               f"runtime={runtime:.1f}s "
               + " ".join(f"[{k}: {'ok' if v else 'FAIL'}]" for k, v in checks.items()))
        assert ok, f"measured FIFO={fifo_ttt:.4f}, DTA={dta:.4f}, FNC={fnc:.4f}"


class TestCriterion2:
    def test_table3_quadratic_cost(self, bench):
        fifo_q = evaluate_cost(bench["fifo"], CostSpec("QuadraticVolume"))
        dta = bench["solved"][("DTA", "Quad")][1].objective
        fnc = bench["solved"][("FNC", "Quad")][1].objective
        checks = {
            "FIFO 1930.5 +- 0.05": abs(fifo_q - 1930.5) <= 0.05,
            "DTA 1393.5 +- 1%": abs(dta - 1393.5) <= 13.935,
            "FNC 1595.7 +- 1%": abs(fnc - 1595.7) <= 15.957,
        }
        ok = all(checks.values())
        report("2 (Table 3)", ok,
               f"FIFO={fifo_q:.4f} DTA={dta:.4f} FNC={fnc:.4f} "
               + " ".join(f"[{k}: {'ok' if v else 'FAIL'}]" for k, v in checks.items()))
        assert ok, f"measured FIFO={fifo_q:.4f}, DTA={dta:.4f}, FNC={fnc:.4f}"


class TestCriterion3:
    def test_optimal_control_structure(self, bench):
        sc = bench["sc"]
        fifo_cost = evaluate_cost(bench["fifo"], CostSpec("TTT"))
        prog, sol = bench["solved"][("FNC", "TTT")]
        rep = check_fnc_structure(prog, sol, fifo_cost)
        ok = rep.cost_gap <= 1e-3 and rep.max_flow_deviation <= 1e-6
        report("3 (structure)", ok,
               f"|FNC-FIFO|/cost={rep.cost_gap:.2e}, "
               f"max z deviation from sending rule={rep.max_flow_deviation:.2e} "
               f"over {rep.checked_cells} cells")
        assert ok


class TestCriterion4:
    def test_tightness_replay(self, bench):
        sc = bench["sc"]
        worst_dev, worst_gamma = 0.0, 1.0
        ok = True
        for (kind, cname), (prog, sol) in bench["solved"].items():
            controls = extract_controls(prog, sol)
            ref = prog.states(sol.values)
            for model in ("fifo", "nonfifo"):
                rep = verify_realization(controls, sc, ref, model=model)
                worst_dev = max(worst_dev, rep.max_deviation / rep.tolerance)
                worst_gamma = min(worst_gamma, rep.trajectory.min_gamma())
                ok = ok and rep.realized and rep.always_freeflow
        report("4 (tightness replay)", ok,
               f"worst deviation/tolerance={worst_dev:.3f}, "
               f"min gamma across replays={worst_gamma:.12f}")
        assert ok


class TestCriterion5:
    def test_transition_points(self):
        sc = robustness_scenario()
        hat_f = max_freeflow_inflow(sc, model="fifo") - 5.0
        hat_n = max_freeflow_inflow(sc, model="nonfifo") - 5.0
        perts = [PerturbationSpec.inflow_shift(sc, delta) for delta in (0.2, 0.5, 0.8)]
        a = simulate_perturbed(sc, perts, model="fifo")
        b = simulate_perturbed(sc, perts, model="nonfifo")
        identical = bool(np.max(np.abs(a.states - b.states)) <= 1e-12)
        checks = {
            "FIFO delta 0.8 +- 0.1": abs(hat_f - 0.8) <= 0.1,
            "non-FIFO delta 2.8 +- 0.1": abs(hat_n - 2.8) <= 0.1,
            "models identical below 0.8": identical,
        }
        ok = all(checks.values())
        report("5 (transitions)", ok,
               f"measured FIFO delta={hat_f:.4f}, non-FIFO delta={hat_n:.4f}, "
               f"identical-below-0.8={identical} "
               + " ".join(f"[{k}: {'ok' if v else 'FAIL'}]" for k, v in checks.items()))
        assert ok, f"measured transitions {hat_f:.4f} / {hat_n:.4f}"


@pytest.fixture(scope="module")
def sweep_setup():
    sc = robustness_scenario()
    prog = build_fnc(sc, CostSpec("TTT"))
    sol = freeflow_optimum(prog)
    assert sol is not None and sol.residuals.primal < 1e-8
    controls = extract_controls(prog, sol)
    return sc, controls


class TestCriterion6:
    def test_bound_soundness_sweep(self, sweep_setup):
        sc, controls = sweep_setup
        grid = np.round(np.arange(0.0, 3.0 + 1e-9, 0.1), 10)
        worst_margin = np.inf
        ok = True
        for model in ("fifo", "nonfifo"):
            _, points = sweep(sc, grid, controls=controls, model=model)
            for p in points:
                total = float(p.combined.sum())
                ok = ok and p.cost_perturbation <= total + 1e-6
                if total > 0:
                    worst_margin = min(worst_margin, total - p.cost_perturbation)
        report("6 (bound soundness)", ok,
               f"{len(grid)} grid points x 2 models, "
               f"smallest bound margin={worst_margin:.3f} veh-steps")
        assert ok


class TestCriterion7:
    def test_sensitivity_is_over_conservative(self, sweep_setup):
        sc, controls = sweep_setup
        grid = np.round(np.arange(0.1, 3.0 + 1e-9, 0.1), 10)
        _, points = sweep(sc, grid, controls=controls)
        ok = all(bool(np.all(p.sensitivity[1:] >= p.combined[1:]))
                 for p in points)
        report("7 (sensitivity ordering)", ok,
               "exp bound exceeds combined bound for all t >= 1 and every delta > 0")
        assert ok


class TestCriterion8:
    def test_epsilon_tradeoff(self):
        sc = table_scenario()
        eps_grid = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
        gamma0 = {}
        cost0 = {}
        freeflow_extent = {}
        grid = np.round(np.arange(0.0, 3.0 + 1e-9, 0.1), 10)
        for eps in eps_grid:
            prog = build_fnc(sc, CostSpec("TTT"), eps)
            sol = solve(prog)
            controls = extract_controls(prog, sol)
            last_ff_index = -1
            runs = simulate_perturbed(
                sc, [PerturbationSpec.inflow_shift(sc, float(d)) for d in grid], controls=controls)
            for idx in range(len(grid)):
                traj = runs[idx]
                if idx == 0:
                    gamma0[eps] = traj.min_gamma()
                    cost0[eps] = float(traj.states.sum())
                if traj.min_gamma() >= 1.0 - 1e-9 and last_ff_index == idx - 1:
                    last_ff_index = idx
            freeflow_extent[eps] = float(grid[last_ff_index]) if last_ff_index >= 0 else -1.0
        costs = [cost0[e] for e in eps_grid]
        checks = {
            "gamma(eps,0)=1": all(abs(gamma0[e] - 1.0) <= 1e-9 for e in eps_grid),
            "cost nondecreasing in eps": all(costs[i] <= costs[i + 1] + 1e-9
                                             for i in range(len(costs) - 1)),
            "eps=0.5 free-flow strictly longer": freeflow_extent[0.5] > freeflow_extent[0.0],
        }
        ok = all(checks.values())
        report("8 (eps tradeoff)", ok,
               f"gamma0={[round(gamma0[e], 6) for e in eps_grid]}, "
               f"cost0={[round(c, 1) for c in costs]}, "
               f"free-flow extent: eps0={freeflow_extent[0.0]}, eps0.5={freeflow_extent[0.5]}")
        assert ok


class TestCriterion9:
    def test_mass_conservation_1000(self):
        rng = np.random.default_rng(91)
        worst = 0.0
        for _ in range(1000):
            sc = random_scenario(rng, horizon=6)
            traj = simulate(sc)
            worst = max(worst, mass_balance_error(traj, sc)
                        / max(1.0, float(np.abs(traj.states).sum())))
        ok = worst <= 1e-9
        report("9a (mass conservation)", ok, f"1000 scenarios, worst relative error={worst:.2e}")
        assert ok

    def test_freeflow_monotonicity_200(self):
        rng = np.random.default_rng(92)
        done, ok = 0, True
        while done < 200:
            hi = freeflow_scenario(rng)
            lo = dominated_pair(rng, hi)
            t_lo = simulate(lo)
            if not t_lo.is_freeflow():
                continue
            t_hi = simulate(hi)
            ok = ok and bool(np.all(t_lo.states <= t_hi.states + 1e-9))
            done += 1
        report("9b (free-flow monotonicity, FIFO)", ok, "200 ordered pairs")
        assert ok

    def test_nonfifo_monotonicity_200(self):
        rng = np.random.default_rng(93)
        ok = True
        for _ in range(200):
            hi = random_scenario(rng, inflow_scale=2.5, x0_scale=0.8, slope_hi=0.5)
            lo = dominated_pair(rng, hi)
            t_hi = simulate(hi, model="nonfifo")
            t_lo = simulate(lo, model="nonfifo")
            ok = ok and bool(np.all(t_lo.states <= t_hi.states + 1e-9))
        report("9c (non-FIFO monotonicity)", ok, "200 unrestricted ordered pairs")
        assert ok

    def test_l1_contraction_100(self):
        rng = np.random.default_rng(94)
        done, ok = 0, True
        while done < 100:
            a = freeflow_scenario(rng)
            b = replace(a, x0=[v * rng.uniform(0.4, 1.0) for v in a.x0])
            ta, tb = simulate(a), simulate(b)
            if not tb.is_freeflow():
                continue
            d0 = float(np.abs(ta.states[0] - tb.states[0]).sum())
            diffs = np.abs(ta.states - tb.states).sum(axis=1)
            ok = ok and bool(np.all(diffs <= d0 + 1e-9))
            done += 1
        report("9d (l1 contraction)", ok, "100 equal-inflow pairs in monotone regime")
        assert ok

    def test_nested_optimum_50(self):
        rng = np.random.default_rng(95)
        ok = True
        for _ in range(50):
            sc = random_scenario(rng, horizon=5)
            dta = solve(build_dta(sc, CostSpec("TTT")))
            fnc = solve(build_fnc(sc, CostSpec("TTT")))
            ok = ok and dta.objective <= fnc.objective + 1e-7 * (1 + abs(fnc.objective))
        report("9e (nested optimum)", ok, "50 instances, optimum(DTA) <= optimum(FNC)")
        assert ok

    def test_oracle_equivalence_20(self):
        from tests_support import tiny_chain_scenario
        rng = np.random.default_rng(96)
        ok = True
        worst_lp, worst_qp = 0.0, 0.0
        for k in range(14):
            sc = tiny_chain_scenario(rng)
            prog = build_fnc(sc, CostSpec("TTT"))
            a, b = solve(prog), brute_force_oracle(prog)
            worst_lp = max(worst_lp, abs(a.objective - b.objective))
            ok = ok and abs(a.objective - b.objective) <= 1e-6
        for k in range(6):
            sc = tiny_chain_scenario(rng)
            prog = build_fnc(sc, CostSpec("QuadraticVolume"))
            a, b = solve(prog), brute_force_oracle(prog)
            gap = abs(a.objective - b.objective) / (1.0 + abs(b.objective))
            worst_qp = max(worst_qp, gap)
            ok = ok and gap <= 1e-6
        report("9f (oracle equivalence)", ok,
               f"14 LPs (worst gap {worst_lp:.2e} <= 1e-6) + "
               f"6 QPs (worst relative gap {worst_qp:.2e} <= 1e-6)")
        assert ok
