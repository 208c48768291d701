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
from ctmflow.robustness import PerturbationSpec, SweepPoint, compute_envelope
from ctmflow.solver import solve, verify_solution
from ctmflow.synthesis import ControlSchedule, verify_realization

from conftest import random_scenario
from tests_support import read_lp, underscore_scenario, var_index


def single_cell_scenario():
    cells = (Cell("a", 1, 1, 1, 1, 10.0, [6.0]),)
    net = Network(cells=cells, adjacency=(), sources=frozenset({"a"}),
                  sinks=frozenset({"a"}), tau=1.0)
    return Scenario(network=net, x0=(0.0,), inflow=np.zeros((1, 1)),
                    routing=constant_routing(net, {}))


def self_loop_scenario():
    cells = tuple(Cell(c, 0.5, 0.5, 1.0, 1, 10.0, [3.0]) for c in ("s", "a", "t"))
    net = Network(cells=cells, adjacency=(("s", "a"), ("a", "a"), ("a", "t")),
                  sources=frozenset({"s"}), sinks=frozenset({"t"}), tau=1.0)
    lam = np.zeros((4, 3))
    lam[:2, 0] = 2.0
    return Scenario(network=net, x0=np.zeros(3), inflow=lam, routing=constant_routing(
        net, {("s", "a"): 1.0, ("a", "a"): 0.3, ("a", "t"): 0.7}))


def _no_control(sc):
    return ControlSchedule(alphas=np.ones((sc.horizon, sc.network.n)))


# one fresh instance per call, each call with the same content
ARRAY_RECORDS = {
    "ConvexProgram": lambda sc: build_fnc(sc, CostSpec("TTT")),
    "Sparse": lambda sc: build_fnc(sc, CostSpec("TTT")).eq,
    "Trajectory": lambda sc: simulate(sc),
    "Solution": lambda sc: solve(build_dta(sc, CostSpec("TTT"))),
    "ControlSchedule": _no_control,
    "RealizationReport": lambda sc: verify_realization(_no_control(sc), sc, simulate(sc).states),
    "PerturbationSpec": lambda sc: PerturbationSpec.inflow_shift(sc, 0.5),
    "Envelope": lambda sc: compute_envelope(sc, PerturbationSpec.inflow_shift(sc, 0.5)),
    "SweepPoint": lambda sc: SweepPoint(0.5, 1.0, np.zeros(3), np.zeros(3)),
}


@pytest.mark.parametrize("kind", sorted(ARRAY_RECORDS))
def test_array_records_compare_by_identity(table_scenario, kind):
    # field-wise == on array fields raised ValueError, and hash() TypeError
    a, b = (ARRAY_RECORDS[kind](table_scenario) for _ in range(2))
    assert type(a).__name__ == kind
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b, a}) == 2


class TestBuilders:
    def test_single_cell_zero_point(self):
        sc = single_cell_scenario()
        prog = build_dta(sc, CostSpec("TTT"))
        sol = solve(prog)
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
        # the index-arithmetic builder against the per-entry loop builder:
        # bit-equal CSR arrays, right-hand sides, objective and names, on
        # every test shape and a cell that feeds itself (whose flow enters
        # its dynamics row twice), both kinds, every cost kind, two eps
        from program_reference import reference_program

        rng = np.random.default_rng(33)
        for shape in ("chain", "diverge", "merge", "diamond", "cross", "loop"):
            sc = self_loop_scenario() if shape == "loop" else random_scenario(
                rng, shape=shape, horizon=4)
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

        # the polish selection: every equality row and the active inequality
        # rows, on the free columns
        active = rng.random(prog.ub.shape[0]) < 0.5
        free = rng.random(n) < 0.7
        for mat, rows, ref in ((prog.eq, np.ones(prog.eq.shape[0], bool), prog.A_eq),
                               (prog.ub, active, prog.A_ub[active])):
            got, want = mat.take(rows, free).csr(), ref.tocsc()[:, free].tocsr()
            assert got.shape == want.shape
            for attr in ("indptr", "indices", "data"):
                self.assert_same(getattr(got, attr), getattr(want, attr))

        # the KKT matrix against the CSC matrix that scipy.sparse makes of
        # its arrays and against the docstring's blocks, at finite theta and
        # with theta = inf (a row read as an equality: its block is -d) on
        # some rows
        m_eq, m_ub, reg = prog.eq.shape[0], prog.ub.shape[0], solver.KKT_REG
        N = n + m_eq + m_ub
        kkt = solver._KKT(prog.eq, prog.ub)
        diagonal = rng.uniform(0.1, 10.0, n)
        for theta in (rng.uniform(0.1, 10.0, m_ub),
                      np.where(rng.random(m_ub) < 0.3, np.inf, rng.uniform(0.1, 10.0, m_ub))):
            kkt.factor(diagonal, theta)
            K = sp.csc_matrix((kkt.matrix.data, kkt.indices, kkt.indptr), shape=(N, N))
            x = rng.normal(size=N)
            self.assert_same(kkt.matrix.matvec(x), K @ x)
            want = sp.bmat([[sp.diags(diagonal + reg), -prog.A_eq.T, prog.A_ub.T],
                            [-prog.A_eq, -reg * sp.identity(m_eq), None],
                            [prog.A_ub, None, -sp.diags(1.0 / theta + reg)]])
            np.testing.assert_allclose(K.toarray(), want.toarray(), rtol=1e-14, atol=1e-14)
            # solve answers the unregularized three-block system
            three = sp.bmat([[sp.diags(diagonal), -prog.A_eq.T, prog.A_ub.T],
                             [-prog.A_eq, None, None],
                             [prog.A_ub, None, -sp.diags(1.0 / theta)]])
            rhs = three @ rng.normal(size=N)
            got = kkt.solve(rhs, solver.REFINE_STEPS)
            assert np.abs(three @ got - rhs).max() <= 1e-8 * (1.0 + np.abs(rhs).max())


class TestFullSpaceEquivalence:
    """The program against the full-space relaxation it shrank, which also
    declares y, z and mu on every cell as variables with their defining
    rows (``program_reference.full_space_program``): the same optimum on
    every test shape, both kinds, three costs and two eps."""

    COSTS = {"ttt": CostSpec("TTT"), "quad": CostSpec("QuadraticVolume"),
             "ttt+quad": CostSpec("WeightedSum", components=((1.0, CostSpec("TTT")),
                                                             (0.5, CostSpec("QuadraticVolume"))))}

    @pytest.mark.parametrize("eps", [0.0, 0.3])
    @pytest.mark.parametrize("cost", sorted(COSTS))
    @pytest.mark.parametrize("kind", ["DTA", "FNC"])
    @pytest.mark.parametrize("shape", ["chain", "diverge", "merge", "diamond", "cross"])
    @settings(max_examples=3, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_same_optimum(self, shape, kind, cost, eps, seed):
        from program_reference import full_space_program, lift

        sc = random_scenario(np.random.default_rng(seed), shape=shape)
        prog = (build_dta if kind == "DTA" else build_fnc)(sc, self.COSTS[cost], eps)
        full = full_space_program(sc, self.COSTS[cost], eps, kind)
        got, ref = solve(prog), solve(full)
        assert abs(got.objective - ref.objective) <= 1e-9 * abs(ref.objective)
        if prog.is_quadratic:
            np.testing.assert_allclose(prog.states(got.values), full.states(ref.values),
                                       rtol=0, atol=1e-8)
            return
        # LP optima are faces: the drained point, with y = lambda + sum f_in
        # and z = sum f_out + mu, is a drained optimum of the full space
        point = lift(prog, got.values)
        assert verify_solution(full, point) <= solver.LP_RESIDUAL_TOL
        assert full.objective_value(point) == pytest.approx(ref.objective, rel=1e-9)
        assert full.early_outflow(point) == pytest.approx(full.early_outflow(ref.values),
                                                          rel=1e-9)


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
            values.append(solve(build_fnc(table_scenario, CostSpec("TTT"), eps)).objective)
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

    @staticmethod
    def assert_file_is_program(path, prog):
        # every number of the file reads back as the program's double:
        # objective, matrix entries, row bounds and Hessian diagonal
        read = read_lp(path, prog)
        assert len(set(read.names)) == len(read.names) == prog.n_vars
        assert read.c.tobytes() == prog.c.tobytes()
        a = prog.eq.vstack(prog.ub)
        rows, cols, values = read.matrix
        assert np.array_equal(rows, a.rows) and np.array_equal(cols, a.cols)
        assert values.tobytes() == a.data.tobytes()
        n_eq = len(prog.b_eq)
        assert read.upper.tobytes() == np.concatenate([prog.b_eq, prog.b_ub]).tobytes()
        assert read.lower[:n_eq].tobytes() == prog.b_eq.tobytes()
        assert (read.lower[n_eq:] == -np.inf).all()
        assert read.hessian.tobytes() == (2 * prog.q).tobytes()

    @pytest.mark.parametrize("case", ["table-dta", "table-fnc", "quad", "ids", "self-loop",
                                      "underscores"])
    def test_lp_file_reads_back(self, tmp_path, table_scenario, case):
        # HiGHS's own LP reader loads the written file as the same program,
        # number for number, and solved there it has the program's optimum
        if case == "table-dta":
            prog = build_dta(table_scenario, CostSpec("TTT"), 0.2)
        elif case == "table-fnc":
            prog = build_fnc(table_scenario, CostSpec("TTT"), 0.2)
        elif case == "quad":
            prog = build_fnc(random_scenario(np.random.default_rng(3), shape="diverge", horizon=6),
                             CostSpec("QuadraticVolume"))
        elif case == "ids":
            # "_" and "." in ids, and ids that differ only in them
            ids = ("in.1", "mid_a", "mid.a", "out_1")
            cells = tuple(Cell(c, 0.6, 0.6, 1.0, 1, 10.0, [3.0]) for c in ids)
            pairs = tuple(zip(ids, ids[1:]))
            net = Network(cells=cells, adjacency=pairs, sources=frozenset({ids[0]}),
                          sinks=frozenset({ids[-1]}), tau=1.0)
            lam = np.zeros((6, 4))
            lam[:3, 0] = 2.5
            prog = build_fnc(Scenario(network=net, x0=np.array([1.0, 2.0, 0.5, 0.0]), inflow=lam,
                                      routing=constant_routing(net, dict.fromkeys(pairs, 1.0))),
                             CostSpec("TTT"))
        elif case == "underscores":
            # edges (a, b_c) and (a_b, c): once both named f_0_a_b_c
            prog = build_fnc(underscore_scenario(), CostSpec("TTT"))
        else:
            prog = build_fnc(self_loop_scenario(), CostSpec("TTT"))
        path = tmp_path / "prog.lp"
        export_lp(prog, path)
        self.assert_file_is_program(path, prog)
        core = solver._extension("scipy.optimize._highspy._core")
        highs = core._Highs()
        highs.setOptionValue("output_flag", False)
        assert highs.readModel(str(path)) == core.HighsStatus.kOk
        assert highs.getNumCol() == prog.n_vars
        assert highs.getNumRow() == len(prog.b_eq) + len(prog.b_ub)
        highs.run()
        assert highs.getModelStatus() == core.HighsModelStatus.kOptimal
        read = highs.getInfo().objective_function_value
        optimum = solve(prog).objective
        assert abs(read - optimum) <= 1e-9 * abs(optimum)

    @pytest.mark.parametrize("kind", ["DTA", "FNC"])
    @pytest.mark.parametrize("shape", ["chain", "diverge", "merge", "cross", "diamond"])
    def test_lp_file_is_program_property(self, tmp_path, shape, kind):
        # seeded random programs: every cost form (linear, quadratic, both)
        # and eps, written and read back number for number
        build = {"DTA": build_dta, "FNC": build_fnc}[kind]
        costs = (CostSpec("TTT"), CostSpec("QuadraticVolume"),
                 CostSpec("WeightedSum", components=((1.0, CostSpec("TTT")),
                                                     (0.5, CostSpec("QuadraticVolume")))))
        rng = np.random.default_rng(29)
        for cost, eps in itertools.product(costs, (0.0, 0.3)):
            prog = build(random_scenario(rng, shape=shape), cost, eps)
            path = tmp_path / "prog.lp"
            export_lp(prog, path)
            self.assert_file_is_program(path, prog)
