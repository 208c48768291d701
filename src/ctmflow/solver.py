"""Solvers for the relaxation programs.

Both program kinds go to HiGHS on the program's sparse full-space
constraints: LPs through scipy.optimize.linprog (method="highs") with a
weak-duality check on its marginals, convex QPs through HiGHS's active-set
QP method with the Hessian diag(2q). An infeasible program carries a
Farkas certificate from an auxiliary LP. Every returned Solution holds the
full variable vector and is re-verified against the program's own
constraint list.

A brute-force oracle for tiny instances stays independent of HiGHS: it
parametrizes the equality manifold by the null space of A_eq and finds the
exact optimum by active-set enumeration.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .program import ConvexProgram

LP_RESIDUAL_TOL = 1e-8
QP_RESIDUAL_TOL = 1e-6


@dataclass
class Residuals:
    primal: float
    dual: float
    complementarity: float


@dataclass
class Solution:
    values: np.ndarray            # full variable vector
    objective: float
    status: str                   # optimal | infeasible | iteration-limit
    residuals: Residuals
    iterations: int = 0
    certificate: np.ndarray | None = field(default=None, repr=False)

    def var(self, program: ConvexProgram, *name) -> float:
        return program.var(self.values, *name)


class SolverError(RuntimeError):
    pass


def verify_solution(program: ConvexProgram, values: np.ndarray) -> float:
    """Primal infeasibility (infinity norm) against the full constraint list."""
    r_eq = 0.0
    if program.A_eq.shape[0]:
        scale = np.maximum(np.abs(program.A_eq).max(axis=1).toarray().ravel(), 1e-30)
        r_eq = float(np.max(np.abs(program.A_eq @ values - program.b_eq) / scale))
    r_ub = 0.0
    if program.A_ub.shape[0]:
        r_ub = float(np.max(np.maximum(program.A_ub @ values - program.b_ub, 0.0)))
    r_nn = float(np.max(np.maximum(-values[program.nonneg], 0.0))) if program.nonneg.any() else 0.0
    return max(r_eq, r_ub, r_nn)


# ---------------------------------------------------------------------------
# sparse full-space LP through HiGHS: min c'v  s.t.  A_eq v = b_eq,
# A_ub v <= b_ub,  v >= 0 on the nonneg mask


def _highs(c, A_ub, b_ub, A_eq, b_eq, nonneg):
    # imported on first use: loading scipy.optimize takes ~0.1 s and ~18 MB,
    # which runs that solve no LP (simulate, sweeps) should not pay
    from scipy.optimize import linprog
    bounds = np.column_stack([np.where(nonneg, 0.0, -np.inf), np.full(len(c), np.inf)])
    return linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds,
                   method="highs")


def _farkas(program: ConvexProgram) -> np.ndarray | None:
    """Infeasibility certificate y = (y_eq, y_ub) from an auxiliary LP.

    y_ub >= 0, A'y >= 0 on nonneg columns (= 0 on free ones) and b'y = -1,
    so any feasible v would give 0 <= (A'y)'v <= b'y = -1.
    """
    A_t = sp.vstack([program.A_eq, program.A_ub]).T.tocsr()
    b = np.concatenate([program.b_eq, program.b_ub])
    nn = program.nonneg
    res = _highs(np.zeros(len(b)), -A_t[nn], np.zeros(int(nn.sum())),
                 sp.vstack([A_t[~nn], sp.csr_matrix(b)]),
                 np.append(np.zeros(int((~nn).sum())), -1.0),
                 np.arange(len(b)) >= program.A_eq.shape[0])
    return res.x if res.status == 0 else None


def _unsolved(program: ConvexProgram, status: str, iters: int = 0,
              certificate: np.ndarray | None = None) -> Solution:
    return Solution(values=np.zeros(program.n_vars), objective=math.nan, status=status,
                    residuals=Residuals(math.inf, math.inf, math.inf),
                    iterations=iters, certificate=certificate)


def _solve_lp(program: ConvexProgram) -> Solution:
    res = _highs(program.c, program.A_ub, program.b_ub, program.A_eq, program.b_eq,
                 program.nonneg)
    if res.status == 1:
        return _unsolved(program, "iteration-limit", res.nit)
    if res.status == 2:
        return _unsolved(program, "infeasible", res.nit, _farkas(program))
    if res.status != 0:
        raise SolverError(f"HiGHS ended with status {res.status}: {res.message}")
    values = res.x + 0.0    # HiGHS returns -0.0 at some bounds; artifacts print "0"
    objective = program.objective_value(values)
    # weak-duality check from the HiGHS marginals: dual objective b'y
    y_ub = res.ineqlin.marginals
    dual_obj = float(program.b_eq @ res.eqlin.marginals + program.b_ub @ y_ub)
    gap = abs(dual_obj - objective) / (1.0 + abs(objective))
    if gap > LP_RESIDUAL_TOL:
        raise SolverError(f"HiGHS duality gap {gap} exceeds {LP_RESIDUAL_TOL}")
    primal = verify_solution(program, values)
    comp = float(np.max(np.abs(y_ub * (program.b_ub - program.A_ub @ values)), initial=0.0))
    dual_feas = float(np.max(y_ub, initial=0.0))  # duals must be <= 0
    status = "optimal" if primal <= LP_RESIDUAL_TOL else "iteration-limit"
    return Solution(values=values, objective=objective, status=status,
                    residuals=Residuals(primal, dual_feas, comp),
                    iterations=res.nit)


# ---------------------------------------------------------------------------
# sparse full-space QP through HiGHS: min c'v + v' diag(q) v over the same
# constraints; HiGHS minimizes c'v + 0.5 v'Hv, so the Hessian is diag(2q)


def _solve_qp(program: ConvexProgram) -> Solution:
    # the HiGHS binding that linprog(method="highs") loads, imported on first
    # use like _highs; nothing else touches it
    try:
        import scipy.optimize._highspy._core as hc
    except ImportError as exc:
        raise SolverError(f"the HiGHS QP binding is unavailable: {exc}") from exc
    n = program.n_vars
    A = sp.vstack([program.A_eq, program.A_ub]).tocsc()
    lp = hc.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n
    lp.num_row_ = lp.a_matrix_.num_row_ = A.shape[0]
    lp.col_cost_ = program.c
    lp.col_lower_ = np.where(program.nonneg, 0.0, -np.inf)
    lp.col_upper_ = np.full(n, np.inf)
    lp.row_lower_ = np.concatenate([program.b_eq, np.full(len(program.b_ub), -np.inf)])
    lp.row_upper_ = np.concatenate([program.b_eq, program.b_ub])
    lp.a_matrix_.format_ = hc.MatrixFormat.kColwise
    lp.a_matrix_.start_ = A.indptr
    lp.a_matrix_.index_ = A.indices
    lp.a_matrix_.value_ = A.data
    diag = np.flatnonzero(program.q)
    hessian = hc.HighsHessian()
    hessian.dim_ = n
    hessian.format_ = hc.HessianFormat.kTriangular
    hessian.start_ = np.searchsorted(diag, np.arange(n + 1))
    hessian.index_ = diag
    hessian.value_ = 2.0 * program.q[diag]
    model = hc.HighsModel()
    model.lp_ = lp
    model.hessian_ = hessian
    highs = hc._Highs()
    highs.setOptionValue("output_flag", False)
    if highs.passModel(model) == hc.HighsStatus.kError:
        raise SolverError("HiGHS rejected the QP model")
    highs.run()
    status = highs.getModelStatus()
    info = highs.getInfo()
    iters = int(info.qp_iteration_count)
    if status == hc.HighsModelStatus.kIterationLimit:
        return _unsolved(program, "iteration-limit", iters)
    if status == hc.HighsModelStatus.kInfeasible:
        # the feasible set does not depend on the objective
        return _unsolved(program, "infeasible", iters, _farkas(program))
    if status != hc.HighsModelStatus.kOptimal:
        raise SolverError(f"HiGHS ended with status {highs.modelStatusToString(status)}")
    values = np.array(highs.getSolution().col_value) + 0.0
    primal = verify_solution(program, values)
    status = "optimal" if primal <= QP_RESIDUAL_TOL else "iteration-limit"
    return Solution(values=values, objective=program.objective_value(values), status=status,
                    residuals=Residuals(primal, info.max_dual_infeasibility,
                                        info.max_complementarity_violation),
                    iterations=iters)


def solve(program: ConvexProgram) -> Solution:
    """Solve the program with HiGHS: simplex for LPs, active set for QPs."""
    if program.is_quadratic:
        return _solve_qp(program)
    return _solve_lp(program)


def solve_max_outflow(program: ConvexProgram) -> Solution:
    """Lexicographic LP solve: optimal cost, then maximal early outflow.

    The relaxation LPs are highly degenerate (whole faces of optima); the
    structure results describe the optimum that drains greedily, so ties
    are broken by maximizing sum_t (T - t) * sum_i z_i(t) at fixed optimal
    cost. Quadratic programs are strictly convex in x and skip the stage.
    """
    base = solve(program)
    if program.is_quadratic or base.status != "optimal":
        return base
    steps = sorted({name[1] for name in program.names if name[0] == "z"})
    T = max(steps) + 1 if steps else 0
    c2 = np.zeros(program.n_vars)
    for k, name in enumerate(program.names):
        if name[0] == "z":
            c2[k] = -(T - name[1])
    # the tie-break row sits exactly at the optimal cost: HiGHS spends any
    # slack above it and returns a point outside LP_RESIDUAL_TOL
    res = _highs(c2, sp.vstack([program.A_ub, sp.csr_matrix(program.c)]),
                 np.append(program.b_ub, base.objective), program.A_eq, program.b_eq,
                 program.nonneg)
    if res.status != 0:
        return base
    values = res.x + 0.0
    primal = verify_solution(program, values)
    objective = program.objective_value(values)
    if primal > LP_RESIDUAL_TOL or objective > base.objective + 1e-7 * (1 + abs(base.objective)):
        return base
    return Solution(values=values, objective=objective, status="optimal",
                    residuals=Residuals(primal, base.residuals.dual, base.residuals.complementarity),
                    iterations=base.iterations + res.nit)


# ---------------------------------------------------------------------------
# brute-force oracle: a test reference, kept independent of HiGHS and solve


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
                                residuals=Residuals(verify_solution(program, values), 0.0, 0.0))
    return _unsolved(program, "infeasible")
