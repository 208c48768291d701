"""Solvers for the relaxation programs.

Routing: every LP goes to HiGHS, every convex QP to a sparse primal-dual
interior point; there is one path for each. Both read the program's sparse
triplet constraints; scipy's compiled HiGHS binding and SuperLU are each
loaded on their own, without the scipy.optimize and scipy.sparse packages.

LPs run HiGHS's simplex method on one model object. An LP optimum is
degenerate (whole faces of optima), and the structure results describe the
optimum that drains greedily. So the same object then breaks ties: one row
pins the cost at the optimum, the objective becomes maximal early outflow,
and the primal simplex restarts from the optimal basis.

QPs run Mehrotra's predictor-corrector on the regularized quasi-definite
KKT system [[H + D + A_ub' W/S A_ub, -A_eq'], [-A_eq, -delta I]], one
SuperLU factorization per iteration on a pattern built once, until the
relative gap and primal residual reach IPM_TOL. The polish then fixes the
bounds and rows that the last step marks active and solves the
equality-constrained KKT system there, so zero flows come back as exact
zeros. The point is returned only with a certificate: it is primal
feasible to LP_RESIDUAL_TOL, and its Frank-Wolfe gap g'v - min{g'u : u
feasible}, g = c + 2qv, an upper bound on f(v) - f*, is at most
FW_TOL (1 + |f|). The gap comes from one HiGHS LP and is returned as the
dual residual. A point without a certificate gives way to the same run's
iterate RETRY_STEPS iterations further. A QP with neither certified is
reported by its feasible-set LP: infeasible where that LP is,
iteration-limit otherwise.

An infeasible program carries HiGHS's dual ray as its Farkas certificate.
Every returned Solution holds the full variable vector and is re-verified
against the program's own constraint list.

Free-flow lemma (``freeflow_optimum``), which settles some FNC LPs without
a solve. Hypotheses: the cost is total volume (q = 0, one positive constant
on the x block, zero elsewhere), the turning ratios R are the same at every
step, every demand slope v is at most 1, and the uncontrolled FIFO run has
gamma == 1 at every step and cell, so its outflow is z = min(v x, C(t)).
Claim: that run gives every cell the largest cumulative outflow N(t) at
every step over the whole feasible set. By induction on t, with N' and x'
any feasible point's, x' = x0 + Lambda + R'N' - N' and N' <= N at t:

    where z = v x:   N'(t+1) <= (1 - v) N'(t) + v (x0 + N'_in(t)) <= N(t+1)
    where z = C(t):  N'(t+1) <= N'(t) + C(t) <= N(t+1)

using v <= 1 and R constant and nonnegative (N'_in = Lambda + R'N').
Vehicles leave only through mu = (1 - sum R) z, so the run has the least
total volume at every step: it is optimal. It is also the only maximizer of
the tie-break's early outflow sum_t (T - t) sum_i z_i(t) = sum_t sum_i
N_i(t), so it is exactly the drained vertex of the simplex path. Supply
rows and eps enter only through the run's own feasibility, which is the one
check left: the run, packed into the variable vector, is returned only when
it is primal feasible to LP_RESIDUAL_TOL, with zero iterations.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np
import scipy

from .ctm import InvariantError, held_rows, simulate
from .program import ConvexProgram, Sparse

LP_RESIDUAL_TOL = 1e-8
FW_TOL = 1e-9             # certified Frank-Wolfe gap, relative to 1 + |f|
FW_LP_TOL = 1e-10         # its LP's feasibility tolerances; HiGHS's 1e-7 moves the gap ~1e-6
IPM_TOL = 1e-10           # relative gap and primal residual; at 1e-8 the active set is misread
IPM_MAX_ITER = 60
RETRY_STEPS = 2           # iterations past IPM_TOL of the second candidate
POLISH_ROUNDS = 4
REFINE_STEPS = 4
KKT_REG = 1e-9            # primal and dual regularization of the KKT matrix


@dataclass
class Residuals:
    primal: float
    dual: float


@dataclass(eq=False)
class Solution:
    values: np.ndarray            # full variable vector
    objective: float
    status: str                   # optimal | infeasible | iteration-limit
    residuals: Residuals
    iterations: int = 0           # simplex iterations, or a certified QP's iterate index
    certificate: np.ndarray | None = field(default=None, repr=False)


class SolverError(RuntimeError):
    pass


def verify_solution(program: ConvexProgram, values: np.ndarray) -> float:
    """Primal infeasibility (infinity norm) against the full constraint list."""
    r_eq = 0.0
    if program.eq.shape[0]:
        scale = np.full(program.eq.shape[0], 1e-30)     # each row's largest |coefficient|
        np.maximum.at(scale, program.eq.rows, np.abs(program.eq.data))
        r_eq = float(np.max(np.abs(program.eq.matvec(values) - program.b_eq) / scale))
    r_ub = 0.0
    if program.ub.shape[0]:
        r_ub = float(np.max(np.maximum(program.ub.matvec(values) - program.b_ub, 0.0)))
    r_nn = float(np.max(np.maximum(-values, 0.0), initial=0.0))
    return max(r_eq, r_ub, r_nn)


def _extension(name: str):
    """One of scipy's compiled extensions, loaded by itself: HiGHS's binding
    without scipy.optimize's package init (~45 MB and ~0.1 s that no solve
    needs), SuperLU without scipy.sparse and its linalg (~30 MB, ~0.35 s). It is
    registered under its full name, so a later import of its package reuses
    it instead of registering its types a second time. A None entry in
    sys.modules marks it unavailable."""
    if name in sys.modules:
        if sys.modules[name] is None:
            raise SolverError(f"{name} is unavailable")
        return sys.modules[name]
    package, _, leaf = name.rpartition(".")
    found = importlib.machinery.PathFinder.find_spec(
        leaf, [os.path.join(os.path.dirname(scipy.__file__), *package.split(".")[1:])])
    if found is None:
        raise SolverError(f"{name} is unavailable: scipy ships no {leaf}")
    spec = importlib.util.spec_from_file_location(name, found.origin)
    try:
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except ImportError as exc:
        sys.modules.pop(name, None)
        raise SolverError(f"{name} is unavailable: {exc}") from exc
    return module


# ---------------------------------------------------------------------------
# one HiGHS model per program: min c'v  s.t.  A_eq v = b_eq,  A_ub v <= b_ub,
# v >= 0


def _model(core, program: ConvexProgram, cost: np.ndarray | None = None):
    """The LP min cost'v (default c'v) over the program's feasible set."""
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
    if highs.passModel(model) == core.HighsStatus.kError:
        raise SolverError("HiGHS rejected the model")
    return highs


def _unsolved(program: ConvexProgram, status: str, iters: int = 0,
              certificate: np.ndarray | None = None) -> Solution:
    return Solution(values=np.zeros(program.n_vars), objective=math.nan, status=status,
                    residuals=Residuals(math.inf, math.inf),
                    iterations=iters, certificate=certificate)


def _drain(core, highs, program: ConvexProgram, values: np.ndarray):
    """Tie-break on the LP's optimal face: maximize the early outflow
    sum_t (T - t) * sum_i z_i(t) at fixed optimal cost, by primal simplex
    from the optimal basis. Returns the drained vertex and its
    iterations, or (values, 0) where that stage fails."""
    base = program.objective_value(values)
    n, T = program.n_vars, program.scenario.horizon
    # the cost row sits exactly at the optimum: HiGHS spends any slack above
    # it and returns a point outside LP_RESIDUAL_TOL
    cost_cols = np.flatnonzero(program.c).astype(np.int32)
    highs.addRow(-np.inf, base, len(cost_cols), cost_cols, program.c[cost_cols])
    drain = np.zeros(n)
    drain[program.span("z")] = np.repeat(np.arange(T) - T, program.scenario.network.n)
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


def _highs(core, program: ConvexProgram) -> Solution:
    """An LP by simplex, then the max-early-outflow tie-break. A QP comes
    here only without a certificate: its feasible-set LP tells an infeasible
    program from a failed solve, which is reported as iteration-limit."""
    highs = _model(core, program, cost=np.zeros(program.n_vars) if program.is_quadratic else None)
    highs.run()
    status = highs.getModelStatus()
    info = highs.getInfo()
    iters = int(info.simplex_iteration_count)
    if status == core.HighsModelStatus.kIterationLimit:
        return _unsolved(program, "iteration-limit", iters)
    if status == core.HighsModelStatus.kInfeasible:
        # -ray = (y_eq, y_ub): y_ub >= 0, A'y >= 0 and
        # b'y < 0, so any feasible v would give 0 <= (A'y)'v <= b'y < 0
        _, has_ray, ray = highs.getDualRay()
        return _unsolved(program, "infeasible", iters, -np.asarray(ray) if has_ray else None)
    if status != core.HighsModelStatus.kOptimal:
        raise SolverError(f"HiGHS ended with status {highs.modelStatusToString(status)}")
    if program.is_quadratic:
        return _unsolved(program, "iteration-limit", iters)
    solution = highs.getSolution()
    values = np.array(solution.col_value) + 0.0  # -0.0 at some bounds; artifacts print "0"
    residuals = Residuals(0.0, info.max_dual_infeasibility)
    # weak-duality check from the row duals: dual objective b'y
    y = np.asarray(solution.row_dual)
    dual_obj = float(program.b_eq @ y[:len(program.b_eq)] + program.b_ub @ y[len(program.b_eq):])
    objective = program.objective_value(values)
    gap = abs(dual_obj - objective) / (1.0 + abs(objective))
    if gap > LP_RESIDUAL_TOL:
        raise SolverError(f"HiGHS duality gap {gap} exceeds {LP_RESIDUAL_TOL}")
    values, more = _drain(core, highs, program, values)
    residuals.primal = verify_solution(program, values)
    return Solution(values=values, objective=program.objective_value(values),
                    status="optimal" if residuals.primal <= LP_RESIDUAL_TOL else "iteration-limit",
                    residuals=residuals, iterations=iters + more)


def solve(program: ConvexProgram) -> Solution:
    """Solve the program: an LP on one HiGHS model, a QP by the certified
    interior point."""
    core = _extension("scipy.optimize._highspy._core")
    if program.is_quadratic and (solution := _certified_qp(core, program)):
        return solution
    return _highs(core, program)


def _lemma_applies(program: ConvexProgram) -> bool:
    """The free-flow lemma's hypotheses: an FNC program with total-volume
    cost, and a scenario with the same turning ratios at every step and
    demand slopes at most 1."""
    x = program.span("x")
    weight = program.c[x]
    if (program.kind != "FNC" or program.is_quadratic or not weight[0] > 0.0
            or (weight != weight[0]).any() or program.c[x.stop:].any()):
        return False
    scenario = program.scenario
    ratio = held_rows(scenario.routing, scenario.horizon)
    return bool((ratio == ratio[0]).all() and (scenario.network.demand_slope <= 1.0).all())


def freeflow_optimum(program: ConvexProgram) -> Solution | None:
    """The drained optimum of an FNC total-volume program whose uncontrolled
    FIFO run of its scenario stays in free flow, in closed form: that run,
    certified by the free-flow lemma (module docstring). None where a
    hypothesis fails or the run is not feasible for the program. The
    residuals are the primal infeasibility and zero: the lemma, not a dual
    point, proves optimality."""
    if not _lemma_applies(program):
        return None
    try:
        run = simulate(program.scenario)
    except InvariantError:
        return None
    if not (run.gamma == 1.0).all():
        return None
    values = program.pack(run)
    primal = verify_solution(program, values)
    if primal > LP_RESIDUAL_TOL:
        return None
    return Solution(values=values, objective=program.objective_value(values), status="optimal",
                    residuals=Residuals(primal, 0.0))


# ---------------------------------------------------------------------------
# quadratic programs: interior point, active-set polish, certificate


class _KKT:
    """The regularized quasi-definite KKT system of the interior point,
    [[H + D + A_ub' diag(theta) A_ub, -A_eq'], [-A_eq, -KKT_REG I]] with
    H + D a diagonal, plus KKT_REG on it. The inequality rows are eliminated
    from [[H + D, -A_eq', A_ub'], [-A_eq, 0, 0], [A_ub, 0, -diag(1/theta)]],
    which solve takes and answers in full. The CSC pattern is built once;
    a factorization only refills the values, as one matvec of the sorted
    (entry, parameter) pairs with (theta, diagonal, 1)."""

    def __init__(self, eq: Sparse, ub: Sparse):
        (m, n), m_ub = eq.shape, ub.shape[0]
        N = n + m
        # A_ub' diag(theta) A_ub: one term per ordered pair of entries of a row
        counts = np.bincount(ub.rows, minlength=m_ub)
        pairs = counts[ub.rows]
        k1 = np.repeat(np.arange(len(pairs)), pairs)
        k2 = (np.cumsum(counts) - counts)[ub.rows[k1]] + np.arange(len(k1)) \
            - np.repeat(np.cumsum(pairs) - pairs, pairs)
        diag, duals = np.arange(n), n + np.arange(m)
        rows = np.concatenate([ub.cols[k1], diag, diag, eq.cols, n + eq.rows, duals])
        cols = np.concatenate([ub.cols[k2], diag, diag, n + eq.rows, eq.cols, duals])
        coef = np.concatenate([ub.data[k1] * ub.data[k2], np.ones(n), np.full(n, KKT_REG),
                               -eq.data, -eq.data, np.full(m, -KKT_REG)])
        param = np.concatenate([ub.rows[k1], m_ub + diag,
                                np.full(n + 2 * len(eq.data) + m, m_ub + n)])
        keys, pos = np.unique(cols.astype(np.int64) * N + rows, return_inverse=True)
        self.indices = (keys % N).astype(np.intc)
        self.indptr = np.searchsorted(keys // N, np.arange(N + 1)).astype(np.intc)
        order = np.lexsort((param, pos))
        self.fill = Sparse(pos[order], param[order], coef[order], (len(keys), m_ub + n + 1))
        self.entry_cols = np.repeat(np.arange(N), np.diff(self.indptr))
        self.reg = np.concatenate([np.full(n, KKT_REG), np.full(m, -KKT_REG)])
        self.ub = ub
        self.n = n
        self.lu = self.matrix = self.theta = self.order = None

    def factor(self, diagonal, theta):
        """Factorize at the given diagonal and theta. The first
        factorization lets COLAMD order the columns; later ones reuse that
        order on the column-permuted matrix."""
        data = self.fill.matvec(np.concatenate([theta, diagonal, [1.0]]))
        N = len(self.indptr) - 1
        self.matrix = Sparse(self.indices, self.entry_cols, data, (N, N))   # CSC order
        self.theta = theta
        self.lu = None      # one factorization alive at a time
        if self.order is None:
            self.lu = _gstrf(data, self.indices, self.indptr, "COLAMD")
            self.order = np.argsort(self.lu.perm_c)
            counts = np.diff(self.indptr)[self.order]
            ends = np.cumsum(counts)
            self.gather = np.arange(ends[-1]) + np.repeat(self.indptr[self.order] - ends + counts,
                                                          counts)
            self.ordered_indptr = np.concatenate([[0], ends]).astype(np.intc)
            self.permuted = False
        else:
            self.lu = _gstrf(data[self.gather], self.indices[self.gather], self.ordered_indptr,
                             "NATURAL")
            self.permuted = True

    def _lu_solve(self, b):
        u = self.lu.solve(b)
        if not self.permuted:
            return u
        x = np.empty_like(u)
        x[self.order] = u
        return x

    def solve(self, rhs, steps, start=None):
        """(dv, dy, dw) for the right-hand side (r_v, r_eq, r_ub) of the
        three-block system: one regularized solve from start (default 0),
        then steps of refinement against the unregularized matrix. Where
        that matrix is singular, the result stays near start."""
        n, N = self.n, len(self.indptr) - 1
        r_ub = rhs[N:]
        b = rhs[:N].copy()
        b[:n] += self.ub.rmatvec(self.theta * r_ub)
        x = np.zeros(N) if start is None else start.copy()
        for _ in range(steps + 1):
            x += self._lu_solve(b - self.matrix.matvec(x) + self.reg * x)
        return np.concatenate([x, self.theta * (self.ub.matvec(x[:n]) - r_ub)])


def _gstrf(data, indices, indptr, order):
    """SuperLU's LU with partial pivoting, its compiled extension loaded on
    the first call. Panels and relaxed supernodes of one column: on these
    KKT matrices wider ones add half again as much fill. L and U are never
    built, so they need no csc_construct_func."""
    superlu = _extension("scipy.sparse.linalg._dsolve._superlu")
    return superlu.gstrf(len(indptr) - 1, len(data), data, indices, indptr,
                         csc_construct_func=None, ilu=False,
                         options={"ColPerm": order, "PanelSize": 1, "Relax": 1})


def _step(x, dx):
    """Largest step in [0, 1] keeping x + step * dx nonnegative."""
    neg = dx < 0
    return min(1.0, float(np.min(-x[neg] / dx[neg], initial=np.inf)))


def _interior_point(program: ConvexProgram):
    """Mehrotra's predictor-corrector on min c'v + 0.5 v'diag(h)v, h = 2q,
    with slacks A_ub v + s = b_ub and duals y (A_eq rows), w >= 0 (A_ub
    rows), z >= 0 (bounds). Yields the point (v, s, y, z, w), the primal
    and dual values (v, s, z, w) one step before it, and its index at the
    first iterate whose relative primal residual and gap reach IPM_TOL
    (within IPM_MAX_ITER) and again RETRY_STEPS iterations later."""
    c, h = program.c, 2.0 * program.q
    eq, ub, b_eq, b_ub = program.eq, program.ub, program.b_eq, program.b_ub
    n, m_eq, m_ub = len(c), len(b_eq), len(b_ub)
    kkt = _KKT(eq, ub)
    count = n + m_ub
    b_scale = 1.0 + max(np.abs(b_eq).max(initial=0.0), np.abs(b_ub).max(initial=0.0))

    # Mehrotra's starting point: least-norm primal and dual points, shifted
    # into the interior
    kkt.factor(h + 1.0, np.ones(m_ub))
    d = kkt.solve(np.concatenate([np.zeros(n), -b_eq, b_ub]), 1)
    v, y, s = d[:n], np.zeros(m_eq), -d[n + m_eq:]
    d = kkt.solve(np.concatenate([c + h * v, np.zeros(m_eq + m_ub)]), 1)
    z, w = d[:n], -d[n + m_eq:]
    primal, dual = np.concatenate([v, s]), np.concatenate([z, w])
    dp = max(-1.5 * primal.min(initial=0.0), 0.0)
    dd = max(-1.5 * dual.min(initial=0.0), 0.0)
    pd = ((primal + dp) * (dual + dd)).sum()
    dp += 0.5 * pd / max((dual + dd).sum(), 1e-300)
    dd += 0.5 * pd / max((primal + dp).sum(), 1e-300)
    v, s, z, w = v + dp, s + dp, z + dd, w + dd
    prev = v, s, z, w
    reached = math.inf

    for it in range(IPM_MAX_ITER + RETRY_STEPS):
        r_d = h * v + c - eq.rmatvec(y) + ub.rmatvec(w) - z
        r_p = eq.matvec(v) - b_eq
        r_u = ub.matvec(v) + s - b_ub
        # elementwise sums, not BLAS dot products: OpenBLAS threads a dot
        # product over 10,000 entries, and the wake-up costs milliseconds
        gap = (v * z).sum() + (s * w).sum()
        f = (c * v).sum() + 0.5 * (h * v * v).sum()
        if not (np.isfinite(gap) and np.isfinite(f)):
            return
        if it < min(reached, IPM_MAX_ITER) and gap <= IPM_TOL * (1.0 + abs(f)) and max(
                np.abs(r_p).max(initial=0.0), np.abs(r_u).max(initial=0.0)) <= IPM_TOL * b_scale:
            reached = it
        if it in (reached, reached + RETRY_STEPS):
            kkt.lu = kkt.matrix = None      # freed while the candidate is polished
            yield (v, s, y, z, w), prev, it
            if it > reached:
                return
        mu = gap / count
        try:
            kkt.factor(h + z / v, w / s)
        except RuntimeError:      # SuperLU: exactly singular
            return

        def direction(r_vz, r_sw):
            rhs = np.concatenate([r_vz / v - r_d, r_p, -r_u - r_sw / w])
            d = kkt.solve(rhs, 1)
            dv, dw = d[:n], d[n + m_eq:]
            return dv, (r_sw - s * dw) / w, d[n:n + m_eq], (r_vz - z * dv) / v, dw

        def longest(dv, ds, dz, dw):
            return min(_step(v, dv), _step(s, ds), _step(z, dz), _step(w, dw))

        dv, ds, _, dz, dw = direction(-v * z, -s * w)
        a = longest(dv, ds, dz, dw)
        mu_aff = (((v + a * dv) * (z + a * dz)).sum() + ((s + a * ds) * (w + a * dw)).sum()) / count
        sigma = (mu_aff / mu) ** 3
        dv, ds, dy, dz, dw = direction(sigma * mu - v * z - dv * dz,
                                       sigma * mu - s * w - ds * dw)
        a = min(1.0, 0.995 * longest(dv, ds, dz, dw))
        prev = v, s, z, w
        v, s, y, z, w = v + a * dv, s + a * ds, y + a * dy, z + a * dz, w + a * dw


def _polish(program: ConvexProgram, point, prev):
    """Solve the equality-constrained KKT system at the active set that the
    interior point's last step marks, the fixed variables removed and set
    to exact zeros. A bound or row counts as active where its primal value
    fell faster than its dual over that step (Tapia's indicator): on a
    slack of 1e-7 the dual has not yet fallen below it at a gap of 1e-10,
    so comparing v with z and s with w misreads the row. The solve starts
    from the interior point, so on a degenerate face (flows that the
    objective does not price) it stays near that point. A variable
    that comes out negative or an inactive row that comes out violated
    joins the active set for the next round."""
    v, s, y, z, w = point
    v0, s0, z0, w0 = prev
    h = 2.0 * program.q
    fixed = v / v0 < z / z0
    active = s / s0 < w / w0
    for _ in range(POLISH_ROUNDS):
        free = ~fixed
        k = int(free.sum())
        A = program.eq.vstack(program.ub).take(np.concatenate([np.ones(len(program.b_eq), bool),
                                                               active]), free)
        kkt = _KKT(A, Sparse(A.rows[:0], A.cols[:0], A.data[:0], (0, k)))   # no inequality rows
        try:
            kkt.factor(h[free], np.zeros(0))
        except RuntimeError:
            return None
        b = np.concatenate([program.b_eq, program.b_ub[active]])
        polished = np.zeros(program.n_vars)
        polished[free] = kkt.solve(np.concatenate([-program.c[free], -b]), REFINE_STEPS,
                                   np.concatenate([v[free], y, -w[active]]))[:k]
        negative = free & (polished < 0.0)
        violated = ~active & (program.ub.matvec(polished) > program.b_ub)
        if not (negative.any() or violated.any()):
            break
        fixed |= negative
        active |= violated
    return polished + 0.0


def _certified_qp(core, program: ConvexProgram) -> Solution | None:
    """The polished interior-point optimum, or None where neither candidate
    of its one run certifies: the first iterate at IPM_TOL, then the one
    RETRY_STEPS further (a tighter IPM_TOL would stop at that same iterate
    where it is met, and is never met where the primal residual stalls).
    The residuals are the primal infeasibility and the Frank-Wolfe gap."""
    for point, prev, it in _interior_point(program):
        v = _polish(program, point, prev)
        if v is None or (primal := verify_solution(program, v)) > LP_RESIDUAL_TOL:
            continue
        g = program.c + 2.0 * program.q * v
        highs = _model(core, program, cost=g)
        highs.setOptionValue("primal_feasibility_tolerance", FW_LP_TOL)
        highs.setOptionValue("dual_feasibility_tolerance", FW_LP_TOL)
        highs.run()
        if highs.getModelStatus() != core.HighsModelStatus.kOptimal:
            continue
        objective = program.objective_value(v)
        gap = float((g * v).sum()) - highs.getInfo().objective_function_value
        if gap <= FW_TOL * (1.0 + abs(objective)):
            return Solution(values=v, objective=objective, status="optimal",
                            residuals=Residuals(primal, gap), iterations=it)
    return None
