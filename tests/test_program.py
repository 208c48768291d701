"""Relaxation builders: feasibility structure, nesting, epsilon, export."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from ctmflow import solver
from ctmflow.ctm import CostSpec, simulate
from ctmflow.network import Cell, Network, Scenario, constant_routing
from ctmflow.program import build_dta, build_fnc, export_lp
from ctmflow.solver import solve, verify_solution

from conftest import random_scenario
from tests_support import var_index


def single_cell_scenario():
    cells = (Cell("a", 1, 1, 1, 1, 10.0, [6.0]),)
    net = Network(cells=cells, adjacency=(), sources=frozenset({"a"}),
                  sinks=frozenset({"a"}), tau=1.0)
    return Scenario(network=net, x0=(0.0,), inflow=np.zeros((1, 1)),
                    routing=constant_routing(net, {}))


class TestBuilders:
    def test_single_cell_zero_point(self):
        sc = single_cell_scenario()
        prog = build_dta(sc, CostSpec("TTT"))
        sol = solve(prog)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(sol.values)) <= 1e-9

    def test_fnc_needs_routing(self, table_scenario):
        sc = replace(table_scenario, routing=None)
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
            vals = prog.pack(table_fifo)
            from ctmflow.ctm import evaluate_cost
            assert prog.objective_value(vals) == pytest.approx(
                evaluate_cost(table_fifo, cost), rel=1e-12, abs=1e-9)

    def test_metadata(self, table_scenario):
        prog = build_dta(table_scenario, CostSpec("TTT"), eps=0.25)
        assert prog.kind == "DTA" and prog.eps == 0.25
        assert prog.scenario is table_scenario


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
                assert var_index(got) == ref.var_index


class TestKernels:
    """The numpy triplet kernels against the scipy.sparse operations they
    replace, bit for bit."""

    @staticmethod
    def assert_same(a, b):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("eps", [0.0, 0.2])
    @pytest.mark.parametrize("kind", ["DTA", "FNC"])
    @pytest.mark.parametrize("shape", ["chain", "diverge", "merge", "diamond", "cross"])
    @settings(max_examples=4, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_kernels_match_scipy(self, shape, kind, eps, seed):
        rng = np.random.default_rng(seed)
        sc = random_scenario(rng, shape=shape)
        prog = (build_dta if kind == "DTA" else build_fnc)(sc, CostSpec("QuadraticVolume"), eps)
        n = prog.n_vars
        v = rng.normal(size=n)
        for mat, A in ((prog.eq, prog.A_eq), (prog.ub, prog.A_ub)):
            u = rng.normal(size=mat.shape[0])
            self.assert_same(mat.matvec(v), A @ v)
            self.assert_same(mat.rmatvec(u), A.T.tocsr() @ u)
        # verify_solution's residual, with each equality row scaled by its
        # largest |coefficient|
        v = np.abs(v)
        scale = np.maximum(abs(prog.A_eq).max(axis=1).toarray().ravel(), 1e-30)
        want = max(np.max(np.abs(prog.A_eq @ v - prog.b_eq) / scale),
                   np.max(np.maximum(prog.A_ub @ v - prog.b_ub, 0.0)))
        assert verify_solution(prog, v) == want

        # the stacked column-major arrays of the HiGHS model
        ref = sp.vstack([prog.A_eq, prog.A_ub]).tocsc()
        for got, want in zip(prog.eq.vstack(prog.ub).csc(), (ref.indptr, ref.indices, ref.data)):
            self.assert_same(got, want)

        # the polish selection: every equality row, the active inequality
        # rows and the free columns
        active = rng.random(prog.ub.shape[0]) < 0.5
        free = rng.random(n) < 0.7
        A = prog.eq.vstack(prog.ub).take(np.concatenate([np.ones(prog.eq.shape[0], bool), active]),
                                         free)
        ref = sp.vstack([prog.A_eq, prog.A_ub[active]]).tocsc()[:, free].tocsr()
        got = A.csr()
        assert got.shape == ref.shape
        for attr in ("indptr", "indices", "data"):
            self.assert_same(getattr(got, attr), getattr(ref, attr))

        # the KKT fill and the refinement matvec, against the CSR fill
        # matrix and the CSC KKT matrix that scipy.sparse made of them
        kkt = solver._KKT(prog.eq, prog.ub)
        theta, diagonal = rng.uniform(0.1, 10.0, prog.ub.shape[0]), rng.uniform(0.1, 10.0, n)
        params = np.concatenate([theta, diagonal, [1.0]])
        fill = sp.csr_matrix((kkt.fill.data, (kkt.fill.rows, kkt.fill.cols)),
                             shape=kkt.fill.shape)
        data = kkt.fill.matvec(params)
        self.assert_same(data, fill @ params)
        N = len(kkt.indptr) - 1
        K = sp.csc_matrix((data, kkt.indices, kkt.indptr), shape=(N, N))
        x = rng.normal(size=N)
        kkt.factor(diagonal, theta)
        self.assert_same(kkt.matrix.matvec(x), K @ x)
        # and the filled matrix is the KKT matrix of the docstring
        want = sp.bmat([[sp.diags(diagonal + solver.KKT_REG)
                         + prog.A_ub.T @ sp.diags(theta) @ prog.A_ub, -prog.A_eq.T],
                        [-prog.A_eq, -solver.KKT_REG * sp.identity(prog.eq.shape[0])]])
        np.testing.assert_allclose(K.toarray(), want.toarray(), rtol=1e-14, atol=1e-14)


class TestFeasibilityStructure:
    def test_simulated_trajectories_are_feasible(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            sc = random_scenario(rng)
            traj = simulate(sc)
            for build in (build_dta, build_fnc):
                prog = build(sc, CostSpec("TTT"))
                vals = prog.pack(traj)
                assert verify_solution(prog, vals) < 1e-9

    def test_benchmark_trajectory_feasible_both_models(self, table_scenario):
        for model in ("fifo", "nonfifo", "fifo-priority"):
            traj = simulate(table_scenario, model=model)
            prog = build_dta(table_scenario, CostSpec("TTT"))
            assert verify_solution(prog, prog.pack(traj)) < 1e-9

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
