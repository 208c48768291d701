"""The references that ``ctmflow.solver.solve`` is checked against.

- ``brute_force_oracle``: the slow exact reference on tiny instances. It
  never calls HiGHS or the interior point: it parametrizes the equality
  manifold by the null space of A_eq and finds the exact optimum by
  active-set enumeration.
- ``highs_qp``: HiGHS's active-set QP method, an independent QP solver.
- ``drained_lp``: the LP's max-early-outflow vertex by the slow path: every
  row a row, presolve on, a tie-break by the cost row alone.
- ``frank_wolfe_gap``: an optimality bound judged by scipy's linprog.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ctmflow.program import ConvexProgram
from ctmflow.solver import (LP_FEASIBILITY_TOL, LP_RESIDUAL_TOL, Residuals, Solution,
                            SolverError, _extension, _unsolved, verify_solution)


def brute_force_oracle(program: ConvexProgram) -> Solution:
    """Exact optimum for tiny instances by active-set enumeration.

    The equality manifold is parametrized as v = N u + v0 (N spans the null
    space of A_eq, v0 a least-squares particular point), leaving G u <= h.
    For each candidate active set S, in order of size, whose
    equality-constrained KKT system [P G_S'; G_S 0] [u; w] = [-g; h_S] is
    nonsingular, that system is solved; the first point that is primal
    feasible (G u <= h) and dual feasible (w >= 0) is optimal, as the
    program is convex. With P = 0 this is vertex enumeration over the LP's
    bases.
    """
    k_min = program.n_vars - program.A_eq.shape[0]
    if k_min > 12:
        raise SolverError(f"oracle accepts at most 12 free variables, got at least {k_min}")
    from scipy.linalg import null_space
    A_eq = program.A_eq.toarray()
    N = null_space(A_eq)
    k = N.shape[1]
    if k > 12:
        raise SolverError(f"oracle accepts at most 12 free variables, got {k}")
    v0 = np.linalg.lstsq(A_eq, program.b_eq, rcond=None)[0]
    if np.max(np.abs(A_eq @ v0 - program.b_eq), initial=0.0) > 1e-9:
        return _unsolved(program, "infeasible")
    # G u <= h: the A_ub rows, then -v <= 0 on the nonneg block
    nn = program.nonneg
    G = np.vstack([program.A_ub @ N, -N[nn]])
    h = np.concatenate([program.b_ub - program.A_ub @ v0, v0[nn]])
    scale = np.max(np.abs(G), axis=1, initial=0.0)
    fixed = scale < 1e-10      # rows the equalities already decide
    if np.any(h[fixed] < -1e-9):
        return _unsolved(program, "infeasible")
    G, h = G[~fixed] / scale[~fixed, None], h[~fixed] / scale[~fixed]
    # drop repeated rows, keeping the tightest bound of each
    order = np.argsort(h, kind="stable")
    _, first = np.unique(np.round(G[order], 9), axis=0, return_index=True)
    keep = np.sort(order[first])
    G, h = G[keep], h[keep]
    P = 2.0 * N.T @ (program.q[:, None] * N)
    g = N.T @ (program.c + 2.0 * program.q * v0)
    m = len(h)
    if sum(math.comb(m, s) for s in range(min(k, m) + 1)) > 2_000_000:
        raise SolverError("too many active-set candidates")
    for size in range(min(k, m) + 1):
        for S in itertools.combinations(range(m), size):
            G_S = G[list(S)]
            K = np.block([[P, G_S.T], [G_S, np.zeros((size, size))]])
            if np.linalg.cond(K) > 1e12:
                continue
            sol = np.linalg.solve(K, np.concatenate([-g, h[list(S)]]))
            u, w = sol[:k], sol[k:]
            if np.all(w >= -1e-9) and np.all(G @ u <= h + 1e-9):
                values = N @ u + v0
                return Solution(values=values, objective=program.objective_value(values),
                                status="optimal",
                                residuals=Residuals(verify_solution(program, values), 0.0))
    return _unsolved(program, "infeasible")


def full_model(core, program: ConvexProgram, cost: np.ndarray | None = None):
    """The LP min cost'v (default c'v) over the program's feasible set on
    one HiGHS model in which every constraint is a row, v >= 0 the only
    column bounds, at HiGHS's defaults (presolve on) apart from a 1e-9
    primal feasibility tolerance. The references keep this model so that
    they do not move with the product's."""
    n = program.n_vars
    start, index, value = program.eq.vstack(program.ub).csc()
    lp = core.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n
    lp.num_row_ = lp.a_matrix_.num_row_ = len(program.b_eq) + len(program.b_ub)
    lp.col_cost_ = program.c if cost is None else cost
    lp.col_lower_ = np.zeros(n)
    lp.col_upper_ = np.full(n, np.inf)
    lp.row_lower_ = np.concatenate([program.b_eq, np.full(len(program.b_ub), -np.inf)])
    lp.row_upper_ = np.concatenate([program.b_eq, program.b_ub])
    lp.a_matrix_.format_ = core.MatrixFormat.kColwise
    lp.a_matrix_.start_ = start
    lp.a_matrix_.index_ = index
    lp.a_matrix_.value_ = value
    model = core.HighsModel()
    model.lp_ = lp
    highs = core._Highs()
    highs.setOptionValue("output_flag", False)
    highs.setOptionValue("primal_feasibility_tolerance", LP_FEASIBILITY_TOL)
    if highs.passModel(model) == core.HighsStatus.kError:
        raise SolverError("HiGHS rejected the model")
    return highs


def drained_lp(program: ConvexProgram) -> Solution:
    """The LP's optimum on ``full_model``, then the max-early-outflow
    tie-break sum_t (T - t) * sum_i z_i(t) with only a cost row pinning the
    optimal face, by primal simplex from the optimal basis. Any status but
    optimal in either stage raises SolverError."""
    core = _extension("scipy.optimize._highspy._core")
    highs = full_model(core, program)
    highs.run()
    if highs.getModelStatus() != core.HighsModelStatus.kOptimal:
        raise SolverError("stage 1 is not optimal")
    base = program.objective_value(np.array(highs.getSolution().col_value))
    n, T = program.n_vars, program.scenario.horizon
    cost_cols = np.flatnonzero(program.c).astype(np.int32)
    highs.addRow(-np.inf, base, len(cost_cols), cost_cols, program.c[cost_cols])
    drain = np.zeros(n)
    for block in ("mu", "f"):
        cols = program.span(block)
        drain[cols] = np.repeat(np.arange(T) - T, (cols.stop - cols.start) // T)
    highs.changeColsCost(n, np.arange(n, dtype=np.int32), drain)
    highs.setOptionValue("simplex_strategy", 4)
    highs.run()
    if highs.getModelStatus() != core.HighsModelStatus.kOptimal:
        raise SolverError("the tie-break is not optimal")
    values = np.array(highs.getSolution().col_value) + 0.0
    primal = verify_solution(program, values)
    if primal > LP_RESIDUAL_TOL:
        raise SolverError(f"the drained vertex breaks a row by {primal}")
    return Solution(values=values, objective=program.objective_value(values), status="optimal",
                    residuals=Residuals(primal, 0.0))


def highs_qp(program: ConvexProgram) -> Solution:
    """The program on HiGHS's active-set QP method. HiGHS minimizes
    c'v + 0.5 v'Hv, so the Hessian is diag(2q). Any status but optimal
    raises SolverError; HiGHS ends in "Solve error" on some valid programs."""
    core = _extension("scipy.optimize._highspy._core")
    highs = full_model(core, program)
    n, diag = program.n_vars, np.flatnonzero(program.q)
    hessian = core.HighsHessian()
    hessian.dim_ = n
    hessian.format_ = core.HessianFormat.kTriangular
    hessian.start_ = np.searchsorted(diag, np.arange(n + 1))
    hessian.index_ = diag
    hessian.value_ = 2.0 * program.q[diag]
    if highs.passHessian(hessian) == core.HighsStatus.kError:
        raise SolverError("HiGHS rejected the Hessian")
    highs.run()
    status = highs.getModelStatus()
    if status != core.HighsModelStatus.kOptimal:
        raise SolverError(f"HiGHS ended with status {highs.modelStatusToString(status)}")
    values = np.array(highs.getSolution().col_value) + 0.0
    return Solution(values=values, objective=program.objective_value(values), status="optimal",
                    residuals=Residuals(verify_solution(program, values), 0.0))


def frank_wolfe_gap(program: ConvexProgram, values: np.ndarray) -> float:
    """g'v - min{g'u : u feasible}, g = c + 2qv: an upper bound on
    f(v) - f* for the convex objective c'v + v'diag(q)v. The LP goes to
    scipy.optimize.linprog, apart from the solver's own HiGHS model. Its
    feasibility tolerances are 1e-10: at HiGHS's default 1e-7 the returned
    u can violate rows by ~1e-7, which moves the gap by up to ~1e-6."""
    from scipy.optimize import linprog
    g = program.c + 2.0 * program.q * values
    res = linprog(g, A_ub=program.A_ub, b_ub=program.b_ub, A_eq=program.A_eq, b_eq=program.b_eq,
                  bounds=[(0.0, None) if nn else (None, None) for nn in program.nonneg],
                  method="highs", options={"primal_feasibility_tolerance": 1e-10,
                                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise SolverError(f"linprog: {res.message}")
    return float(g @ values) - res.fun
