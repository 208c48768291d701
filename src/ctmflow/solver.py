"""Solvers for the relaxation programs.

Every program becomes one HiGHS model object, built from the program's
sparse full-space constraints through scipy's binding to HiGHS: LPs go to
its simplex method, convex QPs to its active-set QP method with the
Hessian diag(2q). An LP optimum is degenerate (whole faces of optima), and
the structure results describe the optimum that drains greedily. So the
same object then breaks ties: one row pins the cost at the optimum, the
objective becomes maximal early outflow, and the primal simplex restarts
from the optimal basis. An infeasible program carries HiGHS's dual ray as
its Farkas certificate. Every returned Solution holds the full variable
vector and is re-verified against the program's own constraint list.

A brute-force oracle for tiny instances stays independent of HiGHS: it
parametrizes the equality manifold by the null space of A_eq and finds the
exact optimum by active-set enumeration.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import itertools
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np
import scipy
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
# one HiGHS model per program: min c'v + v' diag(q) v  s.t.  A_eq v = b_eq,
# A_ub v <= b_ub,  v >= 0 on the nonneg mask; HiGHS minimizes
# c'v + 0.5 v'Hv, so the Hessian is diag(2q)

_BINDING = "scipy.optimize._highspy._core"


def _binding():
    """scipy's HiGHS binding, loaded without running scipy.optimize's
    package init (~45 MB and ~0.1 s that no solve needs). It is registered
    under its full name, so a later ``import scipy.optimize`` reuses it
    instead of registering its types a second time. A None entry in
    sys.modules marks it unavailable."""
    if _BINDING in sys.modules:
        if sys.modules[_BINDING] is None:
            raise SolverError("the HiGHS binding is unavailable")
        return sys.modules[_BINDING]
    found = importlib.machinery.PathFinder.find_spec(
        "_core", [os.path.join(os.path.dirname(scipy.__file__), "optimize", "_highspy")])
    if found is None:
        raise SolverError("the HiGHS binding is unavailable: scipy ships no _highspy._core")
    spec = importlib.util.spec_from_file_location(_BINDING, found.origin)
    try:
        core = sys.modules[_BINDING] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(core)
    except ImportError as exc:
        sys.modules.pop(_BINDING, None)
        raise SolverError(f"the HiGHS binding is unavailable: {exc}") from exc
    return core


def _model(core, program: ConvexProgram):
    n = program.n_vars
    A = sp.vstack([program.A_eq, program.A_ub]).tocsc()
    lp = core.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n
    lp.num_row_ = lp.a_matrix_.num_row_ = A.shape[0]
    lp.col_cost_ = program.c
    lp.col_lower_ = np.where(program.nonneg, 0.0, -np.inf)
    lp.col_upper_ = np.full(n, np.inf)
    lp.row_lower_ = np.concatenate([program.b_eq, np.full(len(program.b_ub), -np.inf)])
    lp.row_upper_ = np.concatenate([program.b_eq, program.b_ub])
    lp.a_matrix_.format_ = core.MatrixFormat.kColwise
    lp.a_matrix_.start_ = A.indptr
    lp.a_matrix_.index_ = A.indices
    lp.a_matrix_.value_ = A.data
    model = core.HighsModel()
    model.lp_ = lp
    if program.is_quadratic:
        diag = np.flatnonzero(program.q)
        hessian = core.HighsHessian()
        hessian.dim_ = n
        hessian.format_ = core.HessianFormat.kTriangular
        hessian.start_ = np.searchsorted(diag, np.arange(n + 1))
        hessian.index_ = diag
        hessian.value_ = 2.0 * program.q[diag]
        model.hessian_ = hessian
    highs = core._Highs()
    highs.setOptionValue("output_flag", False)
    if highs.passModel(model) == core.HighsStatus.kError:
        raise SolverError("HiGHS rejected the model")
    return highs


def _unsolved(program: ConvexProgram, status: str, iters: int = 0,
              certificate: np.ndarray | None = None) -> Solution:
    return Solution(values=np.zeros(program.n_vars), objective=math.nan, status=status,
                    residuals=Residuals(math.inf, math.inf, math.inf),
                    iterations=iters, certificate=certificate)


def _drain(core, highs, program: ConvexProgram, values: np.ndarray):
    """Tie-break on the LP's optimal face: maximize the early outflow
    sum_t (T - t) * sum_i z_i(t) at fixed optimal cost, by primal simplex
    from the optimal basis. Returns the drained vertex and its
    iterations, or (values, 0) where that stage fails."""
    base = program.objective_value(values)
    n, T = program.n_vars, program.horizon
    # the cost row sits exactly at the optimum: HiGHS spends any slack above
    # it and returns a point outside LP_RESIDUAL_TOL
    cost_cols = np.flatnonzero(program.c).astype(np.int32)
    highs.addRow(-np.inf, base, len(cost_cols), cost_cols, program.c[cost_cols])
    drain = np.zeros(n)
    drain[program.span("z")] = np.repeat(np.arange(T) - T, len(program.cells))
    highs.changeColsCost(n, np.arange(n, dtype=np.int32), drain)
    highs.setOptionValue("simplex_strategy", 4)
    highs.run()
    if highs.getModelStatus() != core.HighsModelStatus.kOptimal:
        return values, 0
    drained = np.array(highs.getSolution().col_value) + 0.0
    if (verify_solution(program, drained) > LP_RESIDUAL_TOL
            or program.objective_value(drained) > base + 1e-7 * (1 + abs(base))):
        return values, 0
    return drained, int(highs.getInfo().simplex_iteration_count)


def solve(program: ConvexProgram) -> Solution:
    """Solve the program on one HiGHS model: simplex plus the max-early-
    outflow tie-break for LPs, the active-set method for QPs. Quadratic
    programs are strictly convex in x and need no tie-break."""
    core = _binding()
    highs = _model(core, program)
    highs.run()
    status = highs.getModelStatus()
    info = highs.getInfo()
    quadratic = program.is_quadratic
    iters = int(info.qp_iteration_count if quadratic else info.simplex_iteration_count)
    if status == core.HighsModelStatus.kIterationLimit:
        return _unsolved(program, "iteration-limit", iters)
    if status == core.HighsModelStatus.kInfeasible:
        # -ray = (y_eq, y_ub): y_ub >= 0, A'y >= 0 on nonneg columns and
        # b'y < 0, so any feasible v would give 0 <= (A'y)'v <= b'y < 0
        _, has_ray, ray = highs.getDualRay()
        return _unsolved(program, "infeasible", iters, -np.asarray(ray) if has_ray else None)
    if status != core.HighsModelStatus.kOptimal:
        raise SolverError(f"HiGHS ended with status {highs.modelStatusToString(status)}")
    solution = highs.getSolution()
    values = np.array(solution.col_value) + 0.0  # -0.0 at some bounds; artifacts print "0"
    residuals = Residuals(0.0, info.max_dual_infeasibility, info.max_complementarity_violation)
    if not quadratic:
        # weak-duality check from the row duals: dual objective b'y
        y = np.asarray(solution.row_dual)
        dual_obj = float(program.b_eq @ y[:len(program.b_eq)] + program.b_ub @ y[len(program.b_eq):])
        objective = program.objective_value(values)
        gap = abs(dual_obj - objective) / (1.0 + abs(objective))
        if gap > LP_RESIDUAL_TOL:
            raise SolverError(f"HiGHS duality gap {gap} exceeds {LP_RESIDUAL_TOL}")
        values, more = _drain(core, highs, program, values)
        iters += more
    residuals.primal = verify_solution(program, values)
    tol = QP_RESIDUAL_TOL if quadratic else LP_RESIDUAL_TOL
    return Solution(values=values, objective=program.objective_value(values),
                    status="optimal" if residuals.primal <= tol else "iteration-limit",
                    residuals=residuals, iterations=iters)


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
