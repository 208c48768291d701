"""HiGHS LP solves, the certified interior-point QP path, status
mapping, and the null-space oracle.

The oracle parametrizes the equality manifold by the null space of A_eq
and enumerates active sets exactly; it never calls HiGHS, so it judges the
solver independently.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctmflow import solver
from ctmflow.cli import main
from ctmflow.ctm import CostSpec, simulate
from ctmflow.network import Cell, Network, Scenario, constant_routing, load_scenario
from ctmflow.program import build_dta, build_fnc
from ctmflow.scenarios import robustness_scenario
from ctmflow.solver import (FW_TOL, LP_RESIDUAL_TOL, SolverError, freeflow_optimum, solve,
                            verify_solution)

from conftest import freeflow_scenario, random_scenario
from program_reference import full_space_program
from solver_reference import brute_force_oracle, drained_lp, frank_wolfe_gap, highs_qp

# valid QPs that are hard to certify:
# - a 3-cell chain (T = 11, one inflow entry of 2.7e-6, the 8th
#   random_scenario draw of default_rng(5)) on which HiGHS's active-set QP
#   ends in "Solve error", with presolve off as well
# - the FNC programs of two random_scenario draws (default_rng(129), cross,
#   T = 16; default_rng(143), diamond, T = 24) on which HiGHS ends in "Solve
#   error" and one interior-point round, certified by a Frank-Wolfe LP at
#   HiGHS's default 1e-7 tolerances, did not certify
# - the FNC program of default_rng(1149) (cross, T = 25), whose polish
#   misreads the active set at the first iterate at IPM_TOL and whose
#   interior point never reaches 0.1 IPM_TOL, so only a later iterate of
#   the same run certifies it
HARD_QPS = [Path(__file__).with_name(name) for name in (
    "chain_qp_highs_solve_error.json", "cross_qp_uncertified.json",
    "diamond_qp_uncertified.json", "cross_qp_stalled_residual.json")]

SHAPES = ["chain", "diverge", "merge", "diamond", "cross"]

QP_COSTS = {
    "quad": CostSpec("QuadraticVolume"),
    "ttt+quad": CostSpec("WeightedSum", components=((1.0, CostSpec("TTT")),
                                                    (0.5, CostSpec("QuadraticVolume")))),
}


def chain_scenario(n=2, T=2, inflow=2.0, cap=4.0, jam=8.0, slope=0.8):
    ids = [f"c{k}" for k in range(n)]
    cells = tuple(Cell(i, slope, slope, 1.0, 1, jam, [cap]) for i in ids)
    net = Network(cells=cells, adjacency=tuple((ids[k], ids[k + 1]) for k in range(n - 1)),
                  sources=frozenset({ids[0]}), sinks=frozenset({ids[-1]}), tau=1.0)
    lam = np.zeros((T, n))
    lam[0, 0] = inflow
    return Scenario(network=net, x0=np.zeros(n), inflow=lam,
                    routing=constant_routing(
                        net, {(ids[k], ids[k + 1]): 1.0 for k in range(n - 1)}))


def _infeasible(prog):
    """Force infeasibility through one capacity row (the flow f(0) >= 0
    against f(0) <= -1)."""
    prog.b_ub = prog.b_ub.copy()
    prog.b_ub[1] = -1.0
    return prog


def _zero_flow_point(prog):
    """The variable vector in which every flow is 0 and each cell holds its
    initial volume plus all inflow so far."""
    sc = prog.scenario
    values = np.zeros(prog.n_vars)
    values[prog.span("x")] = np.vstack([sc.x0, sc.x0 + np.cumsum(sc.inflow, axis=0)]).ravel()
    return values


class TestLP:
    def test_min_x_subject_to_nonneg(self):
        # one cell, no inflow: minimum volume program collapses to zero
        sc = chain_scenario(n=2, T=1, inflow=0.0)
        sol = solve(build_dta(sc, CostSpec("TTT")))
        assert sol.objective == pytest.approx(0.0, abs=1e-12)

    def test_determinism(self, table_scenario):
        a = solve(build_fnc(table_scenario, CostSpec("TTT")))
        b = solve(build_fnc(table_scenario, CostSpec("TTT")))
        assert a.objective == b.objective
        assert a.iterations == b.iterations
        np.testing.assert_array_equal(a.values, b.values)

    def test_residuals_within_contract(self, table_scenario):
        sol = solve(build_dta(table_scenario, CostSpec("TTT")))
        assert sol.status == "optimal"
        assert sol.residuals.primal <= 1e-8

    def test_full_space_verification(self, table_scenario):
        prog = build_fnc(table_scenario, CostSpec("TTT"))
        sol = solve(prog)
        assert verify_solution(prog, sol.values) <= 1e-8
        wrong = sol.values.copy()
        wrong[0] += 1.0
        assert verify_solution(prog, wrong) > 0.5

    def test_infeasible_lp_raises(self):
        # every program of a valid scenario holds the zero-flow point
        # (TestZeroFlowPoint), so a hand-broken one is a solver error that
        # names HiGHS's status
        sc = chain_scenario(T=2, inflow=1.0)
        prog = build_fnc(sc, CostSpec("TTT"))
        assert solve(prog).status == "optimal"
        with pytest.raises(SolverError, match="status Infeasible"):
            solve(_infeasible(prog))

    def test_iteration_limit_reported(self, table_scenario, monkeypatch):
        from scipy.optimize._highspy import _core
        real = _core._Highs

        class Tiny(real):
            def run(self):
                self.setOptionValue("simplex_iteration_limit", 3)
                self.setOptionValue("presolve", "off")
                return super().run()

        monkeypatch.setattr(_core, "_Highs", Tiny)
        sol = solve(build_fnc(table_scenario, CostSpec("TTT")))
        assert sol.status == "iteration-limit"

    def test_failed_tie_break_reported(self, table_scenario, tmp_path, monkeypatch):
        # a tie-break that stops short leaves the stage-1 vertex undrained:
        # that is iteration-limit, not an optimum, and the command exits 3
        from scipy.optimize._highspy import _core

        class StopsTieBreak(_core._Highs):
            runs = 0

            def run(self):
                self.runs += 1
                if self.runs == 2:
                    self.setOptionValue("simplex_iteration_limit", 0)
                return super().run()

        monkeypatch.setattr(_core, "_Highs", StopsTieBreak)
        assert solve(build_fnc(table_scenario, CostSpec("TTT"))).status == "iteration-limit"
        assert main(["solve", "--scenario", "bundled:table", "--kind", "fnc", "--cost", "ttt",
                     "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("kind", ["dta", "fnc"])
    @pytest.mark.parametrize("path", HARD_QPS, ids=[p.stem for p in HARD_QPS])
    def test_saved_programs_total_volume(self, tmp_path, path, kind):
        # at HiGHS's default 1e-7 feasibility tolerance the stage-1 optimum
        # broke an inequality row by 3e-8 to 8e-8, outside LP_RESIDUAL_TOL,
        # and solve exited 3 on cross_qp_uncertified (fnc) and
        # cross_qp_stalled_residual (dta, fnc)
        assert main(["solve", "--scenario", str(path), "--kind", kind, "--cost", "ttt",
                     "--out", str(tmp_path)]) == 0


class TestZeroFlowPoint:
    """No program of a valid scenario is infeasible: each holds the point in
    which every flow is 0, which is why solve has no infeasible status."""

    @pytest.mark.parametrize("x0_scale", [0.0, 0.4, 1.0])
    @pytest.mark.parametrize("shape", SHAPES)
    @settings(max_examples=4, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_zero_flow_point_feasible(self, shape, x0_scale, seed):
        sc = random_scenario(np.random.default_rng(seed), shape=shape, x0_scale=x0_scale)
        for build in (build_dta, build_fnc):
            for eps in (0.0, 0.3, 0.9):
                prog = build(sc, CostSpec("TTT"), eps)
                assert verify_solution(prog, _zero_flow_point(prog)) <= 1e-12


class TestOracle:
    def test_lp_oracle_matches_simplex(self):
        rng = np.random.default_rng(41)
        for k in range(8):
            sc = chain_scenario(T=2, inflow=float(rng.uniform(0.5, 3.0)),
                                cap=float(rng.uniform(1.0, 5.0)))
            prog = build_fnc(sc, CostSpec("TTT"))
            a = solve(prog)
            b = brute_force_oracle(prog)
            assert a.objective == pytest.approx(b.objective, abs=1e-6)

    def test_singleton_feasible_set(self):
        sc = chain_scenario(n=2, T=1, inflow=0.0)
        prog = build_fnc(sc, CostSpec("TTT"))
        sol = brute_force_oracle(prog)
        assert sol.objective == pytest.approx(0.0, abs=1e-9)
        assert np.max(np.abs(sol.values)) <= 1e-9

    def test_qp_oracle_matches_solve(self):
        sc = chain_scenario(n=2, T=2, inflow=2.0)
        prog = build_fnc(sc, CostSpec("QuadraticVolume"))
        a = solve(prog)
        b = brute_force_oracle(prog)
        assert abs(a.objective - b.objective) <= 1e-6 * (1.0 + abs(b.objective))

    def test_too_large_rejected(self, table_scenario):
        prog = build_fnc(table_scenario, CostSpec("TTT"))
        with pytest.raises(SolverError, match="12"):
            brute_force_oracle(prog)


class TestLexicographic:
    def test_secondary_stage_keeps_cost(self, table_scenario):
        # solve returns the max-early-outflow vertex of the optimal face: its
        # cost is the optimum of an independent linprog solve, and it drains
        # at least as early as the vertex linprog happens to return
        from scipy.optimize import linprog
        prog = build_fnc(table_scenario, CostSpec("TTT"))
        ref = linprog(prog.c, A_ub=prog.A_ub, b_ub=prog.b_ub, A_eq=prog.A_eq, b_eq=prog.b_eq,
                      bounds=(0, None), method="highs")
        assert ref.status == 0
        sol = solve(prog)
        assert sol.objective == pytest.approx(ref.fun, abs=1e-7)
        assert verify_solution(prog, sol.values) <= 1e-8
        T = table_scenario.horizon
        weight = (T - np.arange(T))[:, None]
        drained = float((weight * prog.states(sol.values, "z")).sum())
        reference = float((weight * prog.states(ref.x, "z")).sum())
        assert drained >= reference - 1e-9 * (1.0 + abs(reference))


    @pytest.mark.parametrize("kind", ["DTA", "FNC"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_face_fixed_tiebreak_matches_reference(self, shape, kind):
        # the tie-break with the stage-1 reduced costs fixing columns at zero
        # reaches the same optimum and the same early outflow as the one
        # with only the cost row on the whole optimal face; the states may
        # differ, between drained vertices that tie
        build = build_dta if kind == "DTA" else build_fnc
        for seed in range(8):
            rng = np.random.default_rng(2700 + 10 * SHAPES.index(shape) + seed)
            # cells that start empty hold columns of positive reduced cost
            sc = random_scenario(rng, shape=shape, horizon=int(rng.integers(4, 26)),
                                 x0_scale=float(rng.choice([0.0, 0.4])))
            prog = build(sc, CostSpec("TTT"), float(rng.choice([0.0, 0.1, 0.3])))
            sol, ref = solve(prog), drained_lp(prog)
            assert sol.status == "optimal"
            assert abs(sol.objective - ref.objective) <= 1e-9 * (1.0 + abs(ref.objective))
            weight = (sc.horizon - np.arange(sc.horizon))[:, None]
            early, expected = (float((weight * prog.states(v, "z")).sum())
                               for v in (sol.values, ref.values))
            assert abs(early - expected) <= 1e-9 * (1.0 + abs(expected))


class TestQP:
    def test_qp_contract_residuals(self, table_scenario):
        sol = solve(build_dta(table_scenario, CostSpec("QuadraticVolume")))
        assert sol.status == "optimal"
        assert sol.residuals.primal <= 1e-6

    def test_qp_determinism(self, table_scenario):
        a = solve(build_fnc(table_scenario, CostSpec("QuadraticVolume")))
        b = solve(build_fnc(table_scenario, CostSpec("QuadraticVolume")))
        np.testing.assert_array_equal(a.values, b.values)

    def test_qp_beats_any_feasible_point(self, table_scenario):
        prog = build_fnc(table_scenario, CostSpec("QuadraticVolume"))
        sol = solve(prog)
        sim_point = prog.pack(simulate(table_scenario))
        assert sol.objective <= prog.objective_value(sim_point) + 1e-6

    def test_qp_infeasible_reports_iteration_limit(self, monkeypatch):
        # a QP with no certified iterate is reported at once: no LP on HiGHS
        from scipy.optimize._highspy import _core
        built = []

        class Counted(_core._Highs):
            def __init__(self):
                built.append(1)
                super().__init__()

        monkeypatch.setattr(_core, "_Highs", Counted)
        sc = chain_scenario(T=2, inflow=1.0)
        prog = build_fnc(sc, CostSpec("QuadraticVolume"))
        assert solve(prog).status == "optimal"
        assert solve(_infeasible(prog)).status == "iteration-limit"
        assert built == []

    def test_qp_iteration_limit_reported(self, table_scenario, monkeypatch):
        monkeypatch.setattr(solver, "IPM_MAX_ITER", 0)   # the interior point gives up at once
        sol = solve(build_fnc(table_scenario, CostSpec("QuadraticVolume")))
        assert sol.status == "iteration-limit"

    def test_table_states_frank_wolfe_gap(self, table_scenario):
        # the Table 3 optima, judged by an LP outside the solver
        for build in (build_dta, build_fnc):
            prog = build(table_scenario, CostSpec("QuadraticVolume"))
            sol = solve(prog)
            assert frank_wolfe_gap(prog, sol.values) <= 1e-10 * (1.0 + sol.objective)


class TestCertifiedQP:
    """The interior point with its active-set polish, property-tested
    against HiGHS's active-set QP as an independent reference."""

    @pytest.mark.parametrize("cost", sorted(QP_COSTS))
    @pytest.mark.parametrize("kind", ["DTA", "FNC"])
    @pytest.mark.parametrize("shape", ["chain", "diverge", "merge", "diamond", "cross"])
    @settings(max_examples=6, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_highs(self, shape, kind, cost, seed):
        sc = random_scenario(np.random.default_rng(seed), shape=shape)
        prog = (build_dta if kind == "DTA" else build_fnc)(sc, QP_COSTS[cost])
        new = solve(prog)
        assert new.status == "optimal"
        assert frank_wolfe_gap(prog, new.values) <= FW_TOL * (1.0 + abs(new.objective))
        # HiGHS solves the full-space program (y, z and mu as variables),
        # where its states have stayed within 1e-6 of the optimum; on the
        # program's own smaller layout it stops 1.5e-6 away (diamond DTA
        # quad, seed 22710816, at a Frank-Wolfe gap of 4.7e-6)
        full = full_space_program(sc, QP_COSTS[cost], 0.0, kind)
        try:
            ref = highs_qp(full)
        except SolverError as exc:
            # HiGHS's active-set QP ends in "Solve error" on some of these
            # programs (as on three of HARD_QPS); the certificate above is
            # then the only judge
            assert "Solve error" in str(exc)
            return
        assert abs(new.objective - ref.objective) <= 1e-9 * abs(ref.objective)
        np.testing.assert_allclose(prog.states(new.values), full.states(ref.values),
                                   rtol=0, atol=1e-6)

    def test_highs_solve_error_program_certified(self, tmp_path):
        for path in HARD_QPS:
            sc = load_scenario(path)
            for build in (build_dta, build_fnc):
                prog = build(sc, CostSpec("QuadraticVolume"))
                sol = solve(prog)
                assert sol.status == "optimal"
                assert sol.residuals.dual <= FW_TOL * (1.0 + abs(sol.objective))
                assert frank_wolfe_gap(prog, sol.values) <= FW_TOL * (1.0 + abs(sol.objective))
            assert main(["solve", "--scenario", str(path), "--kind", "fnc",
                         "--cost", "quad", "--out", str(tmp_path / path.stem)]) == 0

    def test_first_certified_iterate_of_the_run(self, monkeypatch):
        # the polish runs at every iterate whose indicator has settled and
        # at every iterate from IPM_TOL on; the solution is the first of
        # them that certifies, from one run (the two-candidate rule
        # certified this program at iterate 27)
        calls, yielded, polishes = [], [], []
        factor, run, polish = solver._KKT.factor, solver._interior_point, solver._polish
        monkeypatch.setattr(solver._KKT, "factor",
                            lambda self, *args: calls.append(1) or factor(self, *args))
        monkeypatch.setattr(solver, "_interior_point",
                            lambda prog: (yielded.append(item) or item for item in run(prog)))
        monkeypatch.setattr(solver, "_polish", lambda *args: polishes.append(1) or polish(*args))
        prog = build_fnc(load_scenario(HARD_QPS[3]), CostSpec("QuadraticVolume"))
        sol = solve(prog)
        assert sol.status == "optimal"
        assert sol.iterations == yielded[-1][-1] <= 27
        # the starting point, one per iteration, at most POLISH_ROUNDS per polish
        assert len(calls) <= sol.iterations + 1 + solver.POLISH_ROUNDS * len(polishes)
        upper = solver._implied_bounds(prog)

        def certifies(point, fixed, active, it):
            polished = polish(prog, point, fixed, active)
            if polished is None:
                return False
            v, y, w = polished
            f = prog.objective_value(v)
            return bool(verify_solution(prog, v) <= LP_RESIDUAL_TOL and
                        f - solver._lagrangian_bound(prog, y, w, upper) <= FW_TOL * (1.0 + abs(f)))

        assert [certifies(*item) for item in yielded] == [False] * (len(yielded) - 1) + [True]

    @pytest.mark.parametrize("cost", sorted(QP_COSTS))
    @pytest.mark.parametrize("kind", ["DTA", "FNC"])
    @pytest.mark.parametrize("shape", ["chain", "diverge", "merge", "diamond", "cross"])
    @settings(max_examples=3, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_lagrangian_bound(self, shape, kind, cost, seed):
        # the certificate's parts against the references: the implied
        # bounds hold the certified optimum and the uncontrolled run, and
        # g stays below HiGHS's optimum at the certified multipliers and
        # at perturbed ones
        sc = random_scenario(np.random.default_rng(seed), shape=shape)
        prog = (build_dta if kind == "DTA" else build_fnc)(sc, QP_COSTS[cost])
        polished, polish = [], solver._polish
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "_polish",
                          lambda *args: polished.append(polish(*args)) or polished[-1])
            sol = solve(prog)
        assert sol.status == "optimal"
        upper = solver._implied_bounds(prog)
        run = prog.pack(simulate(sc))
        assert verify_solution(prog, run) <= LP_RESIDUAL_TOL
        for point in (sol.values, run):
            assert (point <= upper + 1e-9 * (1.0 + upper)).all()
        try:
            reference = highs_qp(full_space_program(sc, QP_COSTS[cost], 0.0, kind)).objective
        except SolverError as exc:      # "Solve error": the certified point is then the reference
            assert "Solve error" in str(exc)
            reference = sol.objective
        _, y, w = polished[-1]
        assert sol.residuals.dual == sol.objective - solver._lagrangian_bound(prog, y, w, upper)
        rng = np.random.default_rng(seed)
        for scale in (0.0, 1e-6, 1e-2, 1.0):
            g = solver._lagrangian_bound(prog, y + scale * rng.normal(size=y.shape),
                                         w + scale * rng.normal(size=w.shape), upper)
            assert g <= reference + 1e-9 * (1.0 + abs(reference))

    def test_unbounded_falling_column_gives_no_bound(self, table_scenario):
        # y = e_k on a dynamics row prices a flow out of the cell at -1:
        # its term is -u_j, and -inf where no row bounds the flow
        prog = build_dta(table_scenario, CostSpec("QuadraticVolume"))
        upper = solver._implied_bounds(prog)
        assert np.isfinite(upper[prog.q == 0.0]).all()      # every linear column is bounded
        j = prog.span("f").start
        k = prog.eq.rows[(prog.eq.cols == j) & (prog.eq.data > 0.0)][0]
        y, w = np.zeros(len(prog.b_eq)), np.zeros(len(prog.b_ub))
        y[k] = 1.0
        assert np.isfinite(solver._lagrangian_bound(prog, y, w, upper))
        upper[j] = np.inf
        assert solver._lagrangian_bound(prog, y, w, upper) == -np.inf
        # a rising or zero price needs no bound
        assert np.isfinite(solver._lagrangian_bound(prog, 0.0 * y, w, upper))

    def test_uncertified_qp_reported(self, table_scenario, monkeypatch, tmp_path):
        # no gap certifies: every polished iterate of the run is refused, and
        # no point is passed off as an optimum
        monkeypatch.setattr(solver, "FW_TOL", -1.0)
        sol = solve(build_fnc(table_scenario, CostSpec("QuadraticVolume")))
        assert sol.status == "iteration-limit"
        assert main(["solve", "--scenario", "bundled:table", "--kind", "fnc",
                     "--cost", "quad", "--out", str(tmp_path / "out")]) == 3



class TestFreeflowOptimum:
    """The closed-form optimum of free-flow FNC total-volume programs (the
    free-flow lemma in ctmflow.solver), property-tested against solve()."""

    @pytest.mark.parametrize("eps", [0.0, 0.2])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_solve(self, shape, eps):
        taken = 0
        for seed in range(8):
            rng = np.random.default_rng(1000 * SHAPES.index(shape) + seed)
            sc = freeflow_scenario(rng, shape=shape, horizon=int(rng.integers(4, 26)))
            prog = build_fnc(sc, CostSpec("TTT"), eps)
            closed = freeflow_optimum(prog)
            if closed is None:
                # only the shrunk supply can refuse the free-flow run
                run = simulate(sc)
                assert eps > 0 and (run.gamma == 1.0).all()
                assert verify_solution(prog, prog.pack(run)) > LP_RESIDUAL_TOL
                continue
            taken += 1
            ref = solve(prog)
            assert closed.status == ref.status == "optimal"
            assert closed.iterations == 0
            assert abs(closed.objective - ref.objective) <= 1e-9 * abs(ref.objective)
            for block in ("x", "z", "f"):
                np.testing.assert_allclose(prog.states(closed.values, block),
                                           prog.states(ref.values, block), rtol=0, atol=1e-9)
        assert taken >= 4

    def test_pack_inverts_states(self):
        sc = freeflow_scenario(np.random.default_rng(7), shape="diamond", horizon=9)
        run = simulate(sc)
        prog = build_fnc(sc, CostSpec("TTT"))
        values = prog.pack(run)
        for block, rows in (("x", run.states), ("y", run.y), ("z", run.z), ("mu", run.mu),
                            ("f", run.f)):
            np.testing.assert_array_equal(prog.states(values, block), rows)

    def test_refuses_outside_hypotheses(self, table_scenario):
        sc = freeflow_scenario(np.random.default_rng(11), shape="diverge", horizon=8)
        assert freeflow_optimum(build_fnc(sc, CostSpec("TTT"))) is not None
        # congested: the uncontrolled FIFO run has gamma < 1
        assert freeflow_optimum(build_fnc(table_scenario, CostSpec("TTT"))) is None
        # time-varying routing, still in free flow
        ratios = np.repeat(sc.routing, 2, axis=0)
        ratios[1, :2] = ratios[0, 1::-1]
        varying = replace(sc, routing=ratios)
        assert simulate(varying).is_freeflow()
        assert freeflow_optimum(build_fnc(varying, CostSpec("TTT"))) is None
        # costs other than total volume, and the DTA
        weights = tuple(float(w) for w in np.arange(1.0, sc.network.n + 1.0))
        for cost in (CostSpec("QuadraticVolume"), CostSpec("TTT", weights=weights),
                     CostSpec("TTD"), CostSpec("Delay")):
            assert freeflow_optimum(build_fnc(sc, cost)) is None
        assert freeflow_optimum(build_dta(sc, CostSpec("TTT"))) is None
        # another scenario's free-flow run, feasible for the program but
        # slower than its own (half the free-flow speed on every cell): the
        # program holds its scenario, so the closed form is its own run
        slow = replace(sc.network, cells=tuple(replace(c, free_flow_speed=c.free_flow_speed / 2)
                                               for c in sc.network.cells))
        other = replace(sc, network=slow)
        prog = build_fnc(sc, CostSpec("TTT"))
        run = simulate(other)
        assert (run.gamma == 1.0).all() and verify_solution(prog, prog.pack(run)) <= LP_RESIDUAL_TOL
        closed = freeflow_optimum(prog)
        np.testing.assert_array_equal(closed.values, prog.pack(simulate(sc)))
        assert closed.objective < prog.objective_value(prog.pack(run))
        # an eps at which the free-flow run overfills the shrunk supply
        rb = robustness_scenario()
        assert simulate(rb).is_freeflow()
        assert freeflow_optimum(build_fnc(rb, CostSpec("TTT"), 0.5)) is None
