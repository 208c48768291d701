"""Solvers for the relaxation programs.

Routing: ``solve`` is the whole solver. A convex QP goes to a sparse
primal-dual interior point; an LP to the free-flow lemma (below) where it
applies, else to HiGHS. Both read the program's sparse triplet constraints;
scipy's compiled HiGHS binding and SuperLU are each loaded on their own, by
the first solve that needs them, without running scipy, scipy.optimize or
scipy.sparse.

LPs run HiGHS's simplex method, without presolve, on one model object in
which each single-entry <= row a v_j <= b (a > 0) is the column bound
v_j <= b/a and every other constraint is a row. An LP optimum is
degenerate (whole faces of optima), and the structure results describe the
optimum that drains greedily. So the same object then breaks ties: the
columns whose reduced cost is above HiGHS's dual feasibility tolerance are
fixed at zero, where every optimum holds them (complementary slackness),
one row pins the cost at the optimum (the larger of the primal and dual
objective values), the objective becomes maximal early outflow, and the
primal simplex restarts from the optimal basis.

QPs run Mehrotra's predictor-corrector on a regularized quasi-definite KKT
system (``_KKT``) in which every inequality row is its own row, one SuperLU
factorization per iteration of a pattern built once with only its diagonal
refreshed. The polish fixes the bounds and rows that Tapia's indicator marks
active and solves the same system there, the active rows read as
equalities, so zero flows come back as exact zeros. It runs at every
iterate whose indicator matches the previous iterate's and at every one
from the first at IPM_TOL (relative gap and primal residual). The first
polished point that certifies is returned: it is primal feasible to
LP_RESIDUAL_TOL, and f - g <= FW_TOL (1 + |f|) for the weak-duality bound
g = b_eq'y - b_ub'w+ + sum_j min{r_j v_j + q_j v_j^2 : 0 <= v_j <= u_j} <= f*
at its own KKT multipliers (y, w), w+ = max(w, 0), r = c - A_eq'y + A_ub'w+,
over bounds u that the program's rows imply (g = -inf where r_j < 0 on a
linear column with no finite u_j). f - g is returned as the dual residual.

A solve returns only a verified optimum: the drained LP vertex or the
lemma's run, primal feasible to LP_RESIDUAL_TOL against the program's own
constraint list, or the certified QP point. Where the simplex, the
tie-break or the QP certificate stops short, it raises a SolverError that
names iteration-limit. Every program built from a valid scenario holds the
zero-flow point (x(t) = x0 + sum of the inflows, every flow 0), so none is
infeasible, and any other HiGHS status is a SolverError too.

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
import os
import sys
from dataclasses import dataclass

import numpy as np

from .ctm import Drive, InvariantError, held_rows, simulate, stays_free
from .program import ConvexProgram, Sparse

LP_RESIDUAL_TOL = 1e-8
LP_FEASIBILITY_TOL = 1e-9  # HiGHS's; its default 1e-7 returns optima outside LP_RESIDUAL_TOL
FW_TOL = 1e-9             # certified Lagrangian gap f - g, relative to 1 + |f|
IPM_TOL = 1e-10           # relative gap and primal residual; at 1e-8 the active set is misread
IPM_MAX_ITER = 60
POLISH_ROUNDS = 4
REFINE_STEPS = 4
KKT_REG = 1e-9            # primal and dual regularization of the KKT matrix


@dataclass
class Residuals:
    primal: float     # infeasibility against the full constraint list
    dual: float       # LP: HiGHS's dual infeasibility; QP: the Lagrangian gap f - g


@dataclass(eq=False)
class Solution:
    values: np.ndarray            # full variable vector
    objective: float
    residuals: Residuals
    iterations: int = 0           # simplex iterations, or the certified QP iterate's index


class SolverError(RuntimeError):
    pass


def verify_solution(program: ConvexProgram, values: np.ndarray) -> float:
    """Primal infeasibility (infinity norm) against the full constraint list."""
    scale = np.full(program.eq.shape[0], 1e-30)     # each equality row's largest |coefficient|
    np.maximum.at(scale, program.eq.rows, np.abs(program.eq.data))
    r_eq = np.abs(program.eq.matvec(values) - program.b_eq) / scale
    r_ub = program.ub.matvec(values) - program.b_ub
    return float(max(r_eq.max(initial=0.0), r_ub.max(initial=0.0), (-values).max(initial=0.0)))


def _extension(name: str):
    """One of scipy's compiled extensions, loaded by itself: HiGHS's binding
    without scipy.optimize's package init (~45 MB and ~0.1 s that no solve
    needs), SuperLU without scipy.sparse and its linalg (~30 MB, ~0.35 s),
    and neither runs the scipy package itself (~1.3 MB, ~14 ms): its
    directory comes from its import spec. The extension is registered under
    its full name, so a later import of its package reuses it instead of
    registering its types a second time. A None entry in sys.modules marks
    it unavailable."""
    if name in sys.modules:
        if sys.modules[name] is None:
            raise SolverError(f"{name} is unavailable")
        return sys.modules[name]
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise SolverError("scipy is not installed")
    package, _, leaf = name.rpartition(".")
    where = os.path.join(scipy_spec.submodule_search_locations[0], *package.split(".")[1:])
    found = importlib.machinery.PathFinder.find_spec(leaf, [where])
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
# v >= 0, the single-entry rows of A_ub as column bounds


def _model(core, program: ConvexProgram):
    """The LP as HiGHS sees it: each single-entry <= row a v_j <= b (a > 0)
    is the column bound v_j <= b/a, the tightest per column, and the other
    rows stay rows. HiGHS runs without presolve. Returns the HiGHS object,
    the mask of the <= rows that stay rows and the column upper bounds."""
    n, ub = program.n_vars, program.ub
    single = (np.bincount(ub.rows, minlength=ub.shape[0])[ub.rows] == 1) & (ub.data > 0.0)
    upper = np.full(n, np.inf)
    np.minimum.at(upper, ub.cols[single], program.b_ub[ub.rows[single]] / ub.data[single])
    kept = np.ones(ub.shape[0], bool)
    kept[ub.rows[single]] = False
    start, index, value = program.eq.vstack(ub.take(kept, np.ones(n, bool))).csc()
    rhs = np.concatenate([program.b_eq, program.b_ub[kept]])
    lhs = np.concatenate([program.b_eq, np.full(int(kept.sum()), -np.inf)])
    highs = core._Highs()
    highs.setOptionValue("output_flag", False)
    highs.setOptionValue("presolve", "off")
    highs.setOptionValue("primal_feasibility_tolerance", LP_FEASIBILITY_TOL)
    # the arrays go to HiGHS as they are, where a HighsLp converts them
    # entry by entry; the last one marks every column continuous
    if highs.passModel(n, len(rhs), len(value), int(core.MatrixFormat.kColwise),
                       int(core.ObjSense.kMinimize), 0.0, program.c,
                       np.zeros(n), upper, lhs, rhs, start, index, value,
                       np.zeros(n, np.int32)) == core.HighsStatus.kError:
        raise SolverError("HiGHS rejected the model")
    return highs, kept, upper


def _solution(highs, program: ConvexProgram):
    """HiGHS's solution, its primal point and that point's residual. The
    simplex updates the point pivot by pivot, and on some programs it drifts
    from its basis (a dynamics row broken by 1.8e-8 while HiGHS reads it as
    exact); there a fresh factorization of the same basis recomputes it."""
    solution = highs.getSolution()
    values = np.array(solution.col_value) + 0.0  # -0.0 at some bounds; artifacts print "0"
    primal = verify_solution(program, values)
    if primal > LP_RESIDUAL_TOL:
        highs.setBasis(highs.getBasis())
        highs.run()
        solution = highs.getSolution()
        values = np.array(solution.col_value) + 0.0
        primal = verify_solution(program, values)
    return solution, values, primal


def _drain(core, highs, program: ConvexProgram, reduced: np.ndarray, base: float):
    """Tie-break on the LP's optimal face: maximize the early outflow
    sum_t (T - t) * sum_i z_i(t) at cost at most base, the optimum, by
    primal simplex from the optimal basis. The columns whose stage-1 reduced
    cost is above HiGHS's dual feasibility tolerance are zero on the optimal
    face (complementary slackness) and are fixed there first. Returns the
    drained vertex and its primal residual; raises SolverError where that
    stage stops short of a verified vertex."""
    n, T = program.n_vars, program.scenario.horizon
    face = np.flatnonzero(reduced > highs.getOptionValue("dual_feasibility_tolerance")[1])
    highs.changeColsBounds(len(face), face.astype(np.int32), np.zeros(len(face)),
                           np.zeros(len(face)))
    # the cost row sits exactly at the optimum: HiGHS spends any slack above
    # it and returns a point outside LP_RESIDUAL_TOL
    cost_cols = np.flatnonzero(program.c).astype(np.int32)
    highs.addRow(-np.inf, base, len(cost_cols), cost_cols, program.c[cost_cols])
    drain = np.zeros(n)
    for block in ("mu", "f"):       # z_i = sum_j f_ij + mu_i
        cols = program.span(block)
        drain[cols] = np.repeat(np.arange(T) - T, (cols.stop - cols.start) // T)
    highs.changeColsCost(n, np.arange(n, dtype=np.int32), drain)
    highs.setOptionValue("simplex_strategy", 4)
    highs.run()
    if (status := highs.getModelStatus()) != core.HighsModelStatus.kOptimal:
        raise SolverError(f"iteration-limit in the tie-break: {highs.modelStatusToString(status)}")
    _, drained, primal = _solution(highs, program)
    if (primal > LP_RESIDUAL_TOL
            or program.objective_value(drained) > base + 1e-7 * (1 + abs(base))):
        raise SolverError("iteration-limit: the drained vertex leaves the optimal face")
    return drained, primal


def _highs(core, program: ConvexProgram) -> Solution:
    """An LP by simplex, then the max-early-outflow tie-break."""
    highs, kept, upper = _model(core, program)
    highs.run()
    status = highs.getModelStatus()
    info = highs.getInfo()      # a copy: the tie-break leaves it as it is
    if status == core.HighsModelStatus.kIterationLimit:
        raise SolverError(f"iteration-limit: simplex at {info.simplex_iteration_count} iterations")
    if status != core.HighsModelStatus.kOptimal:
        raise SolverError(f"HiGHS ended with status {highs.modelStatusToString(status)}")
    solution, values, _ = _solution(highs, program)
    # weak-duality check from the row duals y and the reduced costs d: dual
    # objective b'y + sum_j u_j min(d_j, 0) over the bounded columns
    y, d = np.asarray(solution.row_dual), np.asarray(solution.col_dual)
    m_eq, bounded = len(program.b_eq), np.isfinite(upper)
    dual_obj = float(program.b_eq @ y[:m_eq] + program.b_ub[kept] @ y[m_eq:]
                     + (upper[bounded] * np.minimum(d[bounded], 0.0)).sum())
    objective = program.objective_value(values)
    gap = abs(dual_obj - objective) / (1.0 + abs(objective))
    if gap > LP_RESIDUAL_TOL:
        raise SolverError(f"HiGHS duality gap {gap} exceeds {LP_RESIDUAL_TOL}")
    # the optimum is the larger of the two: a vertex that breaks a row by
    # 1e-10 can cost less than any feasible point, and a cost row below the
    # optimum leaves the tie-break infeasible
    values, primal = _drain(core, highs, program, d, max(objective, dual_obj))
    return Solution(values=values, objective=program.objective_value(values),
                    residuals=Residuals(primal, info.max_dual_infeasibility),
                    iterations=info.simplex_iteration_count
                    + highs.getInfo().simplex_iteration_count)


def solve(program: ConvexProgram) -> Solution:
    """The program's verified optimum (module docstring): a QP by the
    certified interior point; an LP by the free-flow lemma where it applies,
    else on one HiGHS model, whose binding is loaded only then. Raises
    SolverError, naming iteration-limit where a stage stops short."""
    if program.is_quadratic:
        return _certified_qp(program)
    return freeflow_optimum(program) or _highs(_extension("scipy.optimize._highspy._core"),
                                               program)


def _lemma_applies(program: ConvexProgram) -> bool:
    """The free-flow lemma's hypotheses: an FNC program with total-volume
    cost, and a scenario with the same turning ratios at every step and
    demand slopes at most 1."""
    if program.kind != "FNC" or not program.is_total_volume:
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
    scenario = program.scenario
    try:
        # a run with gamma < 1 - FREEFLOW_TOL fails gamma == 1 as well, and
        # stays_free stops at its first such step
        if not stays_free(scenario.network, Drive.for_run(scenario), scenario.x0,
                          scenario.inflow):
            return None
        run = simulate(scenario)
    except InvariantError:
        return None
    if not (run.gamma == 1.0).all():
        return None
    values = program.pack(run)
    primal = verify_solution(program, values)
    if primal > LP_RESIDUAL_TOL:
        return None
    return Solution(values=values, objective=program.objective_value(values),
                    residuals=Residuals(primal, 0.0))


# ---------------------------------------------------------------------------
# quadratic programs: interior point, active-set polish, Lagrangian bound


class _KKT:
    """The regularized quasi-definite KKT system of the interior point,
    [[H + D + d I, -A_eq', A_ub'], [-A_eq, -d I, 0], [A_ub, 0, -diag(1/theta)
    - d I]], H + D a diagonal, d = KKT_REG. It is quasi-definite for any
    set of rows (Vanderbei 1995), so every inequality row keeps its own
    row, and theta = inf reads a row as an equality. The CSC pattern is
    built once; a factorization copies the constant entries and writes the
    N diagonal ones."""

    def __init__(self, eq: Sparse, ub: Sparse):
        (m, n), N = eq.shape, eq.shape[1] + eq.shape[0] + ub.shape[0]
        side = Sparse(eq.rows, eq.cols, -eq.data, eq.shape).vstack(ub)
        rows = np.concatenate([side.cols, n + side.rows, np.arange(N)])
        cols = np.concatenate([n + side.rows, side.cols, np.arange(N)])
        order = np.lexsort((rows, cols))
        self.indices, self.entry_cols = rows[order].astype(np.intc), cols[order]
        self.indptr = np.searchsorted(self.entry_cols, np.arange(N + 1)).astype(np.intc)
        self.data = np.concatenate([side.data, side.data, np.zeros(N)])[order]
        self.diag = np.flatnonzero(self.indices == self.entry_cols)     # in column order
        self.reg = np.concatenate([np.full(n, KKT_REG), np.full(N - n, -KKT_REG)])
        self.n, self.m = n, m
        self.lu = self.matrix = self.order = None

    def factor(self, diagonal, theta):
        """Factorize at the given diagonal and theta. The first
        factorization lets COLAMD order the columns; later ones reuse that
        order on the column-permuted matrix."""
        data = self.data.copy()
        data[self.diag] = np.concatenate([diagonal, np.zeros(self.m), -1.0 / theta]) + self.reg
        N = len(self.indptr) - 1
        self.matrix = Sparse(self.indices, self.entry_cols, data, (N, N))   # CSC order
        self.lu = None      # one factorization alive at a time
        if self.order is None:
            self.lu = _gstrf(data, self.indices, self.indptr, "COLAMD")
            self.perm_c = self.lu.perm_c
            self.order = np.argsort(self.perm_c)
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
        return u[self.perm_c] if self.permuted else u     # back in column order

    def solve(self, rhs, steps, start=None):
        """(dv, dy, dw) for the right-hand side (r_v, r_eq, r_ub) of the
        unregularized system [[H + D, -A_eq', A_ub'], [-A_eq, 0, 0], [A_ub,
        0, -diag(1/theta)]]: one regularized solve from start (default 0),
        then steps of refinement against that system. Where it is singular,
        the result stays near start."""
        x = np.zeros(len(rhs)) if start is None else start.copy()
        for _ in range(steps + 1):
            x += self._lu_solve(rhs - self.matrix.matvec(x) + self.reg * x)
        return x


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
    rows), z >= 0 (bounds). Yields (v, y, w), the masks of Tapia's
    indicator over the last step (v/v0 < z/z0 on the bounds, s/s0 < w/w0
    on the rows) and the index, at every iterate whose masks equal the
    previous iterate's and at every iterate from the first whose relative
    primal residual and gap reach IPM_TOL, within IPM_MAX_ITER."""
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
    prev, masks, reached = (v, s, z, w), None, False

    for it in range(IPM_MAX_ITER):
        r_d = h * v + c - eq.rmatvec(y) + ub.rmatvec(w) - z
        r_p = eq.matvec(v) - b_eq
        r_u = ub.matvec(v) + s - b_ub
        # elementwise sums, not BLAS dot products: OpenBLAS threads a dot
        # product over 10,000 entries, and the wake-up costs milliseconds
        gap = (v * z).sum() + (s * w).sum()
        f = (c * v).sum() + 0.5 * (h * v * v).sum()
        if not (np.isfinite(gap) and np.isfinite(f)):
            return
        reached = reached or gap <= IPM_TOL * (1.0 + abs(f)) and max(
            np.abs(r_p).max(initial=0.0), np.abs(r_u).max(initial=0.0)) <= IPM_TOL * b_scale
        v0, s0, z0, w0 = prev
        last, masks = masks, (v / v0 < z / z0, s / s0 < w / w0)
        # iterate 0's masks compare the starting point with itself
        if reached or it > 1 and all((a == b).all() for a, b in zip(last, masks)):
            kkt.lu = kkt.matrix = None      # freed while the iterate is polished
            yield (v, y, w), *masks, it
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


def _polish(program: ConvexProgram, point, fixed, active):
    """Solve the equality-constrained KKT system at the active set that
    the interior point's indicator marks, the fixed variables removed and
    set to exact zeros. A bound or row counts as active where its primal
    value fell faster than its dual over the last step (Tapia's indicator):
    on a slack of 1e-7 the dual has not yet fallen below it at a gap of
    1e-10, so comparing v with z and s with w misreads the row. The solve
    starts from the interior point, so on a degenerate face (flows that the
    objective does not price) it stays near that point. A variable that
    comes out negative or an inactive row that comes out violated joins the
    active set for the next round. Returns the last solve's (v, y, w)."""
    v, y, w = point
    h = 2.0 * program.q
    for _ in range(POLISH_ROUNDS):
        free = ~fixed
        kkt = _KKT(program.eq.take(np.ones(len(program.b_eq), bool), free),
                   program.ub.take(active, free))
        try:
            kkt.factor(h[free], np.full(int(active.sum()), np.inf))    # active rows: equalities
        except RuntimeError:
            return None
        x = kkt.solve(
            np.concatenate([-program.c[free], -program.b_eq, program.b_ub[active]]), REFINE_STEPS,
            np.concatenate([v[free], y, w[active]]))
        polished, duals = np.zeros(program.n_vars), np.zeros(len(program.b_ub))
        polished[free], duals[active] = x[:kkt.n], x[kkt.n + kkt.m:]
        negative = free & (polished < 0.0)
        violated = ~active & (program.ub.matvec(polished) > program.b_ub)
        if not (negative.any() or violated.any()):
            break
        fixed, active = fixed | negative, active | violated
    return polished + 0.0, x[kkt.n:kkt.n + kkt.m], duals


def _implied_bounds(program: ConvexProgram) -> np.ndarray:
    """Upper bounds u >= v on the feasible set by bound propagation, v >= 0:
    a row sum_k a_k v_k <= b (each <= row, each equality row in both senses)
    gives v_j <= (b - sum_{a_k<0} a_k u_k) / a_j where a_j > 0. Passes repeat
    while a linear column is unbounded and the last pass bounded a new one."""
    u = np.full(program.n_vars, np.inf)
    senses = ((program.ub, program.b_ub, 1.0), (program.eq, program.b_eq, 1.0),
              (program.eq, program.b_eq, -1.0))
    linear, known = program.q == 0.0, -1
    while np.isinf(u[linear]).any() and known < np.isfinite(u).sum():
        known = np.isfinite(u).sum()
        for a, b, sign in senses:
            data = sign * a.data
            neg, pos = data < 0.0, data > 0.0
            low = np.bincount(a.rows[neg], weights=data[neg] * u[a.cols[neg]],
                              minlength=a.shape[0])     # -inf on a row with an unbounded term
            np.minimum.at(u, a.cols[pos], (sign * b - low)[a.rows[pos]] / data[pos])
    return u


def _lagrangian_bound(program: ConvexProgram, y, w, upper) -> float:
    """g of the module docstring: the Lagrangian's minimum over the box
    0 <= v <= upper at (y, max(w, 0)), in closed form per column."""
    w = np.maximum(w, 0.0)
    r = program.c - program.eq.rmatvec(y) + program.ub.rmatvec(w)
    curved = program.q > 0.0
    q, rc = program.q[curved], r[curved]
    t = np.minimum(np.maximum(-rc / (2.0 * q), 0.0), upper[curved])
    falling = ~curved & (r < 0.0)
    return float((program.b_eq * y).sum() - (program.b_ub * w).sum() + (rc * t + q * t * t).sum()
                 + (r[falling] * upper[falling]).sum())


def _certified_qp(program: ConvexProgram) -> Solution:
    """The first polished iterate of one interior-point run that certifies
    (module docstring); its residuals are the primal one and f - g. Raises
    SolverError where no iterate certifies."""
    upper = _implied_bounds(program)
    for point, fixed, active, it in _interior_point(program):
        polished = _polish(program, point, fixed, active)
        if polished is None or (primal := verify_solution(program, polished[0])) > LP_RESIDUAL_TOL:
            continue
        v, y, w = polished
        objective = program.objective_value(v)
        gap = objective - _lagrangian_bound(program, y, w, upper)
        if gap <= FW_TOL * (1.0 + abs(objective)):
            return Solution(values=v, objective=objective, residuals=Residuals(primal, gap),
                            iterations=it)
    raise SolverError("iteration-limit: no interior-point iterate of the QP certifies")
