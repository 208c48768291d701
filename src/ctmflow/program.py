"""Discretized convex relaxations of the DTA and FNC problems.

Variables per step t = 0..T-1 (plus states at t = 0..T):

    x_i(t)   traffic volume            f_ij(t)  pair flow, (i,j) adjacent
    y_i(t)   total inflow              mu_i(t)  external outflow
    z_i(t)   total outflow

Equalities: initial state, dynamics x(t+1) = x(t) + y(t) - z(t), flow
aggregation y = lambda + sum f_in and z = mu + sum f_out, mu = 0 off
sinks, and for FNC the exogenous-split rows f_ij = R_ij z_i.

Inequalities (piecewise-affine diagrams expanded to affine rows):

    z_i(t) <= demand_slope_i * x_i(t)          z_i(t) <= C_i(t)
    y_i(t) <= (1-eps) * supply_slope_i * (jam_i - x_i(t))     (non-sources)
    y_i(t) <= (1-eps) * C_i(t)                                (non-sources)

plus f, mu, x, y, z >= 0. The objective mirrors ctm.evaluate_cost exactly
(volume terms include the terminal state), so every simulated trajectory
is a feasible point with identical cost.

The constraint matrices are sparse triplets over the full variable vector,
which the solvers work on directly through numpy kernels. They are
assembled by index arithmetic over the network's arrays and
``Scenario.capacity``; variable names are derived only on request. A
``ConvexProgram`` holds the scenario it was built from, which fixes the
variable layout, so whatever reads a solution back (``states``, ``pack``,
control extraction, the free-flow closed form) takes the program alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ctm import CostSpec, held_rows
from .network import Scenario


@dataclass(frozen=True, eq=False)
class Sparse:
    """A sparse matrix as (rows, cols, data) triplets. The programs' matrices
    are in canonical CSR order: row-major, columns ascending within a row,
    no duplicates, no zeros. The kernels are bit-equal to scipy.sparse's."""

    rows: np.ndarray
    cols: np.ndarray          # int32, as scipy's and HiGHS's indices
    data: np.ndarray
    shape: tuple

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """A v, each row added in stored order from 0.0, as scipy does."""
        return np.bincount(self.rows, weights=self.data * v[self.cols], minlength=self.shape[0])

    def rmatvec(self, u: np.ndarray) -> np.ndarray:
        """A' u; from CSR order, each column is added in row order."""
        return np.bincount(self.cols, weights=self.data * u[self.rows], minlength=self.shape[1])

    def take(self, rows: np.ndarray, cols: np.ndarray) -> "Sparse":
        """The rows and columns set in two boolean masks, renumbered in order."""
        keep = rows[self.rows] & cols[self.cols]
        return Sparse((np.cumsum(rows) - 1)[self.rows[keep]],
                      (np.cumsum(cols) - 1)[self.cols[keep]].astype(np.int32),
                      self.data[keep], (int(rows.sum()), int(cols.sum())))

    def vstack(self, other: "Sparse") -> "Sparse":
        """self above other; CSR order is kept."""
        return Sparse(np.concatenate([self.rows, other.rows + self.shape[0]]),
                      np.concatenate([self.cols, other.cols]),
                      np.concatenate([self.data, other.data]),
                      (self.shape[0] + other.shape[0], self.shape[1]))

    def csc(self) -> tuple:
        """(indptr, indices, data) of the column-major form, rows ascending."""
        order = np.argsort(self.cols, kind="stable")
        indptr = np.searchsorted(self.cols[order], np.arange(self.shape[1] + 1))
        return indptr.astype(np.int32), self.rows[order].astype(np.int32), self.data[order]

    def csr(self):
        """A scipy.sparse CSR view on the same data (imports scipy.sparse)."""
        import scipy.sparse as sp
        indptr = np.searchsorted(self.rows, np.arange(self.shape[0] + 1)).astype(np.int32)
        return sp.csr_matrix((self.data, self.cols, indptr), shape=self.shape)


@dataclass(eq=False)
class ConvexProgram:
    eq: Sparse
    b_eq: np.ndarray
    ub: Sparse
    b_ub: np.ndarray
    c: np.ndarray                   # linear objective
    q: np.ndarray                   # diagonal quadratic objective (v' diag(q) v)
    kind: str                       # "DTA" | "FNC"
    eps: float
    cost_kind: str
    scenario: Scenario              # the one it was built from

    @property
    def n_vars(self) -> int:
        return len(self.c)

    @property
    def nonneg(self) -> np.ndarray:
        """All True: every variable is nonnegative (the bench checks read the mask)."""
        return np.ones(self.n_vars, dtype=bool)

    # scipy.sparse CSR views, built (and scipy.sparse imported) on first use
    A_eq = cached_property(lambda self: self.eq.csr())
    A_ub = cached_property(lambda self: self.ub.csr())

    @property
    def is_quadratic(self) -> bool:
        return bool(np.any(self.q != 0.0))

    def objective_value(self, v: np.ndarray) -> float:
        # elementwise sums: a BLAS dot runs threaded on long vectors
        return float((self.c * v).sum() + (self.q * v * v).sum())

    @cached_property
    def names(self) -> list:
        """Column -> name tuple: ("x", t, cell), ("y" | "z" | "mu", t, cell)
        or ("f", t, i, j)."""
        T, net = self.scenario.horizon, self.scenario.network
        cells = [c.id for c in net.cells]
        names = [("x", t, c) for t in range(T + 1) for c in cells]
        for block in ("y", "z", "mu"):
            names += [(block, t, c) for t in range(T) for c in cells]
        return names + [("f", t, i, j) for t in range(T) for i, j in net.adjacency]

    def span(self, block: str) -> slice:
        """Columns of one variable block (x, y, z, mu or f), step-major."""
        net, T = self.scenario.network, self.scenario.horizon
        if block == "x":
            return slice(0, (T + 1) * net.n)
        start = (T + 1) * net.n + ("y", "z", "mu", "f").index(block) * T * net.n
        return slice(start, start + T * (len(net.adjacency) if block == "f" else net.n))

    def states(self, values: np.ndarray, block: str = "x") -> np.ndarray:
        """The (T+1, n) state trajectory of a solution vector; with block
        y, z or mu, that (T, n) block of rates, with f the (T, E) flows."""
        rows = self.scenario.horizon + (block == "x")
        return np.array(values[self.span(block)]).reshape(rows, -1)

    def pack(self, trajectory) -> np.ndarray:
        """The full variable vector of a CTM run (``ctm.Trajectory``) of the
        program's scenario, the inverse of ``states``."""
        values = np.empty(self.n_vars)
        for block, rows in (("x", trajectory.states), ("y", trajectory.y), ("z", trajectory.z),
                            ("mu", trajectory.mu), ("f", trajectory.f)):
            values[self.span(block)] = rows.ravel()
        return values


def _objective(cost: CostSpec, scenario: Scenario, x: np.ndarray, z: np.ndarray, n_vars: int):
    """c and q over the columns; x and z are the (T+1, n) / (T, n) column
    indices of the volume and outflow blocks."""
    a, b, cz = cost.coefficients(scenario.network)
    if np.any(b < 0):
        raise ValueError("quadratic objective must be convex (nonnegative weights)")
    c = np.zeros(n_vars)
    q = np.zeros(n_vars)
    c[x], q[x], c[z] = a, b, cz
    return c, q


def _sparse(entries: list, n_rows: int, n_cols: int) -> Sparse:
    """Canonical triplets from (rows, cols, values) of broadcastable arrays, zeros
    dropped. No two entries share a (row, column): each names another block or edge."""
    parts = [[a.ravel() for a in np.broadcast_arrays(*e)] for e in entries]
    rows, cols, vals = (np.concatenate([p[i] for p in parts]) for i in range(3))
    order = np.argsort(rows.astype(np.int64) * n_cols + cols)
    order = order[vals[order] != 0.0]
    return Sparse(rows[order], cols[order].astype(np.int32), vals[order], (n_rows, n_cols))


def _build(scenario: Scenario, cost: CostSpec, eps: float, kind: str) -> ConvexProgram:
    if not (0.0 <= eps < 1.0):
        raise ValueError(f"eps must be in [0, 1), got {eps}")
    net = scenario.network
    if kind == "FNC" and scenario.routing is None:
        raise ValueError("FNC needs an exogenous routing schedule on the scenario")
    T, n, E = scenario.horizon, net.n, len(net.adjacency)
    src, dst = net.src[:-1], net.dst[:-1]
    steps = np.arange(T)[:, None]

    # columns: x (T+1, n), then y, z, mu (T, n) each, then f (T, E)
    x = np.arange((T + 1) * n).reshape(T + 1, n)
    y, z, mu = ((T + 1 + b * T) * n + np.arange(T * n).reshape(T, n) for b in range(3))
    f = (4 * T + 1) * n + np.arange(T * E).reshape(T, E)
    n_vars = (4 * T + 1) * n + T * E

    # equality rows: x(0) = x0; per step and cell the dynamics, inflow and
    # outflow aggregation and, off sinks, mu = 0; then for FNC per step and
    # edge f_ij = R_ij z_i
    per = 3 + ~net.sink
    dyn = n + steps * per.sum() + np.cumsum(per) - per
    m_eq = n + T * per.sum()
    eq = [(np.arange(n), x[0], 1.0),
          (dyn, x[1:], 1.0), (dyn, x[:-1], -1.0), (dyn, y, -1.0), (dyn, z, 1.0),
          (dyn + 1, y, 1.0), (dyn[:, dst] + 1, f, -1.0),
          (dyn + 2, z, 1.0), (dyn + 2, mu, -1.0), (dyn[:, src] + 2, f, -1.0),
          (dyn[:, ~net.sink] + 3, mu[:, ~net.sink], 1.0)]
    b_eq = np.zeros(m_eq + (T * E if kind == "FNC" else 0))
    b_eq[:n] = scenario.x0
    b_eq[dyn + 1] = scenario.inflow
    if kind == "FNC":
        ratio = held_rows(scenario.routing, T)
        split = m_eq + steps * E + np.arange(E)
        eq += [(split, f, 1.0), (split, z[:, src], -ratio)]
        m_eq += T * E

    # inequality rows per step and cell: z <= demand_slope x, z <= C and,
    # off sources, y <= (1-eps) supply_slope (jam - x), y <= (1-eps) C
    shrink = 1.0 - eps
    inner = ~net.source
    per = 2 + 2 * inner
    dem = steps * per.sum() + np.cumsum(per) - per
    sup = dem[:, inner] + 2
    ws = shrink * net.supply_slope[inner]
    ub = [(dem, z, 1.0), (dem, x[:-1], -net.demand_slope), (dem + 1, z, 1.0),
          (sup, y[:, inner], 1.0), (sup, x[:-1, inner], ws), (sup + 1, y[:, inner], 1.0)]
    b_ub = np.zeros(T * per.sum())
    b_ub[dem + 1] = scenario.capacity
    b_ub[sup] = ws * net.jam[inner]
    b_ub[sup + 1] = shrink * scenario.capacity[:, inner]

    c_vec, q_vec = _objective(cost, scenario, x, z, n_vars)
    return ConvexProgram(
        eq=_sparse(eq, m_eq, n_vars), b_eq=b_eq, ub=_sparse(ub, len(b_ub), n_vars), b_ub=b_ub,
        c=c_vec, q=q_vec, kind=kind, eps=eps,
        cost_kind=cost.kind, scenario=scenario)


def build_dta(scenario: Scenario, cost: CostSpec, eps: float = 0.0) -> ConvexProgram:
    """Relaxed DTA: routing is free, flows constrained by demand/supply only."""
    return _build(scenario, cost, eps, "DTA")


def build_fnc(scenario: Scenario, cost: CostSpec, eps: float = 0.0) -> ConvexProgram:
    """Relaxed FNC: adds the exogenous-split rows f_ij = R_ij z_i."""
    return _build(scenario, cost, eps, "FNC")


def _lp_terms(cols: np.ndarray, coefs: np.ndarray, names: list) -> list:
    return [f" {'+' if v >= 0 else '-'} {abs(v):.12g} {names[k]}"
            for k, v in zip(cols.tolist(), coefs.tolist())]


def export_lp(program: ConvexProgram, path) -> None:
    """Write the program in LP text interchange format."""
    names = ["_".join(str(p) for p in name) for name in program.names]
    with open(path, "w") as fh:
        fh.write(f"\\ ctmflow {program.kind} eps={program.eps} cost={program.cost_kind} "
                 f"scenario={program.scenario.content_hash()}\n")
        fh.write("Minimize\n obj:")
        priced = np.flatnonzero(program.c)
        terms = _lp_terms(priced, program.c[priced], names)
        fh.write("".join(terms) if terms else " 0 " + names[0])
        if program.is_quadratic:
            fh.write(" + [")
            for k, coef in enumerate(program.q):
                if coef != 0.0:
                    fh.write(f" + {2 * coef:.12g} {names[k]}^2")
            fh.write(" ] / 2")
        fh.write("\nSubject To\n")
        for label, mat, sense, rhs in (("eq", program.eq, "=", program.b_eq),
                                       ("ub", program.ub, "<=", program.b_ub)):
            terms = _lp_terms(mat.cols, mat.data, names)
            starts = np.searchsorted(mat.rows, np.arange(mat.shape[0] + 1)).tolist()
            for r in range(mat.shape[0]):
                fh.write(f" {label}{r}:{''.join(terms[starts[r]:starts[r + 1]])} {sense} "
                         f"{rhs[r]:.12g}\n")
        fh.write("Bounds\nEnd\n")     # every variable has the default bound >= 0
