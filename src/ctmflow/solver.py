"""Embedded solvers for the relaxation programs.

LPs go to HiGHS (scipy.optimize.linprog, method="highs") on the program's
sparse full-space constraints, with a weak-duality check on its marginals
and an auxiliary-LP Farkas certificate on infeasibility; convex QPs go
through over-relaxed operator splitting (ADMM with a fixed step scaled by
the constraint-matrix norm) with an exact active-set polish. A vertex
enumeration / refined grid search oracle covers tiny instances.

The QP and the oracle run on the program's affine reduction (the equality
constraints are eliminated through v_full = M v + v0). Every returned
Solution holds the full variable vector and is re-verified against the
program's own constraint list.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .program import ConvexProgram

LP_RESIDUAL_TOL = 1e-8
QP_RESIDUAL_TOL = 1e-6
ADMM_MAX_ITER = 200_000


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


# ---------------------------------------------------------------------------
# reduced-form assembly


def _reduced(program: ConvexProgram):
    """Return (G, h, g_lin, P or None, const) for min over v >= implicit.

    Feasible set: {v : G v <= h};  objective g'v + 0.5 v'P v + const.
    Rows of G are scaled to unit infinity norm.
    """
    red = program.reduction
    M = red.M.tocsr()
    v0 = red.v0
    G_top = (program.A_ub @ M).toarray()
    h_top = program.b_ub - program.A_ub @ v0
    # nonnegativity of every full variable: -(M v) <= v0
    rows = []
    rhs = []
    Md = M.toarray()
    for k in range(program.n_vars):
        if not program.nonneg[k]:
            continue
        row = Md[k]
        if not row.any():
            if v0[k] < -1e-12:
                raise SolverError("infeasible by construction: fixed variable negative")
            continue
        rows.append(-row)
        rhs.append(v0[k])
    G = np.vstack([G_top] + ([np.array(rows)] if rows else []))
    h = np.concatenate([h_top] + ([np.array(rhs)] if rhs else []))
    # deduplicate identical rows (keeps the tighter bound)
    scale = np.maximum(np.abs(G).max(axis=1), 1e-30)
    Gn = G / scale[:, None]
    hn = h / scale
    order = np.lexsort(np.round(Gn, 12).T)
    keep = []
    best: dict = {}
    for r in order:
        key = Gn[r].round(12).tobytes()
        if key not in best or hn[r] < hn[best[key]]:
            best[key] = r
    keep = sorted(best.values())
    Gn, hn = Gn[keep], hn[keep]

    g_lin = np.asarray(M.T @ program.c).ravel()
    const = float(program.c @ v0)
    P = None
    if program.is_quadratic:
        Q = sp.diags(program.q)
        P = 2.0 * (M.T @ (Q @ M)).toarray()
        g_lin = g_lin + 2.0 * np.asarray(M.T @ (program.q * v0)).ravel()
        const += float(v0 @ (program.q * v0))
    return Gn, hn, g_lin, P, const


def _reconstruct(program: ConvexProgram, v_red: np.ndarray) -> np.ndarray:
    red = program.reduction
    return np.asarray(red.M @ v_red).ravel() + red.v0


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
# over-relaxed ADMM for convex QPs (OSQP-style splitting)


def _polish(P, g, A, lo, up, y, v):
    """Exact KKT solve on the detected active set; None if it fails."""
    act_up = (y > 1e-7)
    act_lo = (y < -1e-7)
    rows = np.where(act_up | act_lo)[0]
    if rows.size == 0:
        try:
            v_pol = np.linalg.solve(P + 1e-12 * np.eye(len(g)), -g)
        except np.linalg.LinAlgError:
            return None
        return v_pol
    A_act = A[rows]
    b_act = np.where(act_up[rows], up[rows], lo[rows])
    n = len(g)
    K = np.block([[P + 1e-10 * np.eye(n), A_act.T],
                  [A_act, -1e-10 * np.eye(rows.size)]])
    rhs = np.concatenate([-g, b_act])
    try:
        sol = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError:
        return None
    return sol[:n]


def _solve_qp(program: ConvexProgram, eps_abs: float = QP_RESIDUAL_TOL) -> Solution:
    Gm, h, g_lin, P, const = _reduced(program)
    n = len(g_lin)
    m = Gm.shape[0]
    A = Gm
    lo = np.full(m, -np.inf)
    up = h.copy()
    sigma = 1e-6
    alpha = 1.6
    # fixed step scaled by the constraint/objective matrix norms
    rho = float(np.clip(0.1 * (np.linalg.norm(P, "fro") + 1.0)
                        / (np.linalg.norm(A, "fro") + 1.0), 1e-2, 1e2))
    # KKT matrix [[P + sigma I, A'], [A, -I/rho]] filled in place: no
    # temporaries next to the (n+m)^2 matrix, which LU overwrites
    K = np.zeros((n + m, n + m))
    K[:n, :n] = P
    K[:n, n:] = A.T
    K[n:, :n] = A
    K[range(n), range(n)] += sigma
    K[range(n, n + m), range(n, n + m)] = -1.0 / rho
    lu, piv = sla.lu_factor(K, overwrite_a=True)
    v = np.zeros(n)
    z = np.zeros(m)
    y = np.zeros(m)
    rhs = np.empty(n + m)
    iters = 0
    polished = None
    for iters in range(1, ADMM_MAX_ITER + 1):
        rhs[:n] = sigma * v - g_lin
        rhs[n:] = z - y / rho
        sol = sla.lu_solve((lu, piv), rhs)
        v_t = sol[:n]
        z_t = z + (sol[n:] - y) / rho
        v = alpha * v_t + (1 - alpha) * v
        z_rel = alpha * z_t + (1 - alpha) * z
        z = np.clip(z_rel + y / rho, lo, up)
        y = y + rho * (z_rel - z)
        if iters % 25 == 0 or iters == ADMM_MAX_ITER:
            r_prim = float(np.max(np.abs(A @ v - z))) if m else 0.0
            r_dual = float(np.max(np.abs(P @ v + g_lin + A.T @ y)))
            converged = r_prim < eps_abs and r_dual < eps_abs
            if converged or (iters % 500 == 0 and r_prim < 1e-3 and r_dual < 1e-3):
                cand = _polish(P, g_lin, A, lo, up, y, v)
                if cand is not None:
                    feas = float(np.max(np.maximum(A @ cand - up, 0.0)))
                    if feas < 1e-9 and program.objective_value(_reconstruct(program, cand)) \
                            <= program.objective_value(_reconstruct(program, v)) + 1e-9:
                        polished = cand
                        break
            if converged:
                break
    v_final = polished if polished is not None else v
    values = _reconstruct(program, v_final)
    # clip the microscopic ADMM noise off the nonnegative block
    values[program.nonneg] = np.maximum(values[program.nonneg], 0.0)
    objective = program.objective_value(values)
    primal = verify_solution(program, values)
    r_dual = float(np.max(np.abs(P @ v_final + g_lin + A.T @ y)))
    comp = float(np.max(np.abs(y * (up - np.clip(A @ v_final, lo, up)))))
    status = "optimal" if (primal <= QP_RESIDUAL_TOL and iters < ADMM_MAX_ITER) \
        else "iteration-limit"
    return Solution(values=values, objective=objective, status=status,
                    residuals=Residuals(primal, r_dual, comp), iterations=iters)


def solve(program: ConvexProgram) -> Solution:
    """Solve the program: HiGHS for LPs, operator splitting for QPs."""
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
# brute-force oracle


def _variable_box(program: ConvexProgram) -> float:
    """Conservative upper bound for flow-type reduced variables."""
    caps = []
    Aub = program.A_ub.tocoo()
    single: dict = {}
    for r, c, vv in zip(Aub.row, Aub.col, Aub.data):
        single.setdefault(r, []).append((c, vv))
    for r, entries in single.items():
        if len(entries) == 1 and entries[0][1] > 0:
            caps.append(program.b_ub[r] / entries[0][1])
    if not caps:
        raise SolverError("cannot derive a variable box for the oracle")
    return float(max(caps))


def brute_force_oracle(program: ConvexProgram, grid_resolution: float = 1e-3) -> Solution:
    """Exhaustive optimum for tiny instances.

    LP: enumerate basic feasible points (vertices of {Gv <= h, v >= 0}).
    QP: box grid refined twice around the incumbent; the returned point is
    within the final grid spacing of the optimum (convex objective).
    """
    G, h, g_lin, P, const = _reduced(program)
    n = G.shape[1]
    if n > 12:
        raise SolverError(f"oracle accepts at most 12 reduced variables, got {n}")
    ub = _variable_box(program)

    if P is None:
        rows = np.vstack([G, -np.eye(n)])
        rhs = np.concatenate([h, np.zeros(n)])
        m_all = rows.shape[0]
        if math.comb(m_all, n) > 2_000_000:
            raise SolverError("too many vertex candidates")
        best = None
        best_obj = np.inf
        for combo in itertools.combinations(range(m_all), n):
            Asq = rows[list(combo)]
            bsq = rhs[list(combo)]
            try:
                v = np.linalg.solve(Asq, bsq)
            except np.linalg.LinAlgError:
                continue
            if np.max(rows @ v - rhs) > 1e-8:
                continue
            obj = float(g_lin @ v)
            if obj < best_obj - 1e-12:
                best_obj = obj
                best = v
        if best is None:
            return _unsolved(program, "infeasible")
        values = _reconstruct(program, best)
        return Solution(values=values, objective=program.objective_value(values),
                        status="optimal",
                        residuals=Residuals(verify_solution(program, values), 0.0, 0.0))

    # QP grid search with two refinements
    span = ub
    pts = max(5, int(math.ceil((8.0 * span / grid_resolution) ** (1.0 / 3.0))) + 1)
    while pts ** n > 6_000_000 and pts > 5:
        pts -= 2
    center = np.full(n, span / 2.0)
    width = span / 2.0

    def stage(center, width, pts):
        axes = [np.linspace(max(0.0, center[k] - width), center[k] + width, pts)
                for k in range(n)]
        best = None
        best_obj = np.inf
        for combo in itertools.product(*axes):
            v = np.array(combo)
            if np.max(G @ v - h) > 1e-9 or np.min(v) < -1e-12:
                continue
            obj = float(g_lin @ v + 0.5 * v @ (P @ v))
            if obj < best_obj:
                best_obj = obj
                best = v
        return best, best_obj

    best, _ = stage(center, width, pts)
    if best is None:
        return _unsolved(program, "infeasible")
    spacing = span / (pts - 1)
    for _ in range(2):
        cand, _ = stage(best, spacing, pts)
        if cand is not None:
            best = cand
        spacing = 2.0 * spacing / (pts - 1)
    values = _reconstruct(program, best)
    return Solution(values=values, objective=program.objective_value(values),
                    status="optimal",
                    residuals=Residuals(verify_solution(program, values), 0.0, 0.0))
