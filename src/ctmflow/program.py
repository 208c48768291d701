"""Discretized convex relaxations of the DTA and FNC problems, in cell
volumes and cell-to-cell flows as the cell-based SO-DTA LP:

    x_i(t)   traffic volume, t = 0..T      f_ij(t)  pair flow, (i,j) adjacent
    mu_i(t)  external outflow, t < T, on sinks only

Total inflow y = lambda + sum f_in and outflow z = sum f_out + mu are not
variables: the rows read them as those sums, and ``ConvexProgram.states``
returns them. Equalities: x(0) = x0 (a variable, so c'v is the whole
cost), the dynamics x(t+1) - x(t) - sum f_in + sum f_out + mu = lambda(t)
and, for FNC, the exogenous-split rows f_ij = R_ij z_i, less the row of a
cell's only edge, whose R ``Scenario`` holds to 1. Inequalities
(piecewise-affine diagrams expanded to affine rows):

    z_i(t) <= demand_slope_i * x_i(t)          z_i(t) <= C_i(t)
    y_i(t) <= (1-eps) * supply_slope_i * (jam_i - x_i(t))     (non-sources)
    y_i(t) <= (1-eps) * C_i(t)                                (non-sources)

plus x, mu, f >= 0. The objective mirrors ctm.evaluate_cost exactly
(volume terms include the terminal state; a price on z_i sits on each f_ij
and mu_i), so every simulated trajectory is a feasible point with the same
cost.

The matrices are sparse triplets, built by index arithmetic over the
network's arrays and ``Scenario.capacity``, that the solvers' numpy
kernels read directly; names are derived only on request. A
``ConvexProgram`` holds its scenario, which fixes the variable layout, so
whatever reads a solution back (``states``, ``pack``, control extraction,
the free-flow closed form) takes the program alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ctm import CostSpec, _gather_sum, held_rows
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

    @property
    def is_total_volume(self) -> bool:
        """The cost is a positive multiple of total volume: one weight on all x, no other term."""
        w, rest = np.split(self.c, [self.span("x").stop])
        return bool(w[0] > 0.0 and (w == w[0]).all() and not rest.any() and not self.is_quadratic)

    def objective_value(self, v: np.ndarray) -> float:
        # elementwise sums: a BLAS dot runs threaded on long vectors
        return float((self.c * v).sum() + (self.q * v * v).sum())

    @cached_property
    def names(self) -> list:
        """Column -> name tuple: ("x", t, cell), ("mu", t, sink) or ("f", t, i, j)."""
        T, net = self.scenario.horizon, self.scenario.network
        cells = [c.id for c in net.cells]
        sinks = [c for c, s in zip(cells, net.sink) if s]
        return ([("x", t, c) for t in range(T + 1) for c in cells]
                + [("mu", t, c) for t in range(T) for c in sinks]
                + [("f", t, i, j) for t in range(T) for i, j in net.adjacency])

    def span(self, block: str) -> slice:
        """Columns of one variable block (x, mu or f), step-major."""
        net, T = self.scenario.network, self.scenario.horizon
        x, mu = (T + 1) * net.n, T * int(net.sink.sum())
        start, width = {"x": (0, x), "mu": (x, mu), "f": (x + mu, T * len(net.adjacency))}[block]
        return slice(start, start + width)

    def states(self, values: np.ndarray, block: str = "x") -> np.ndarray:
        """The (T+1, n) state trajectory of a solution vector; with block f
        the (T, E) flows; with mu, y or z the (T, n) external outflow,
        total inflow lambda + sum f_in or total outflow sum f_out + mu."""
        net, T = self.scenario.network, self.scenario.horizon
        if block in ("x", "f"):
            return np.array(values[self.span(block)]).reshape(T + (block == "x"), -1)
        mu = np.zeros((T, net.n))
        mu[:, net.sink] = values[self.span("mu")].reshape(T, -1)
        if block == "mu":
            return mu
        f = np.pad(self.states(values, "f"), ((0, 0), (0, 1)))     # the padding edge carries 0
        if block == "y":
            return self.scenario.inflow + _gather_sum(f, net.in_edges)
        return _gather_sum(f, net.out_edges) + mu

    def pack(self, trajectory) -> np.ndarray:
        """The variable vector of a CTM run (``ctm.Trajectory``) of the
        program's scenario, the inverse of ``states``."""
        sink = self.scenario.network.sink
        return np.concatenate([trajectory.states.ravel(), trajectory.mu[:, sink].ravel(),
                               trajectory.f.ravel()])


def _sparse(entries: list, n_rows: int, n_cols: int) -> Sparse:
    """Canonical triplets from (rows, cols, values) of broadcastable arrays:
    entries that share a (row, column) are added, and zeros dropped."""
    parts = [[a.ravel() for a in np.broadcast_arrays(*e)] for e in entries]
    rows, cols, vals = (np.concatenate([p[i] for p in parts]) for i in range(3))
    keys, at = np.unique(rows.astype(np.int64) * n_cols + cols, return_inverse=True)
    vals = np.bincount(at, weights=vals, minlength=len(keys))
    keep = vals != 0.0
    return Sparse(keys[keep] // n_cols, (keys[keep] % n_cols).astype(np.int32), vals[keep],
                  (n_rows, n_cols))


def _build(scenario: Scenario, cost: CostSpec, eps: float, kind: str) -> ConvexProgram:
    if not (0.0 <= eps < 1.0):
        raise ValueError(f"eps must be in [0, 1), got {eps}")
    net = scenario.network
    if kind == "FNC" and scenario.routing is None:
        raise ValueError("FNC needs an exogenous routing schedule on the scenario")
    T, n, E, S = scenario.horizon, net.n, len(net.adjacency), int(net.sink.sum())
    src, dst, sink = net.src[:-1], net.dst[:-1], net.sink
    steps = np.arange(T)[:, None]

    # columns: x (T+1, n), then mu (T, S) on the sinks, then f (T, E)
    x = np.arange((T + 1) * n).reshape(T + 1, n)
    mu = (T + 1) * n + np.arange(T * S).reshape(T, S)
    f = (T + 1) * n + T * S + np.arange(T * E).reshape(T, E)
    n_vars = (T + 1) * n + T * (S + E)

    # equality rows: x(0) = x0; per step and cell the dynamics
    # x(t+1) - x(t) - sum f_in + sum f_out + mu = lambda(t)
    dyn = n + steps * n + np.arange(n)
    eq = [(np.arange(n), x[0], 1.0), (dyn, x[1:], 1.0), (dyn, x[:-1], -1.0),
          (dyn[:, dst], f, -1.0), (dyn[:, src], f, 1.0), (dyn[:, sink], mu, 1.0)]
    b_eq = np.concatenate([scenario.x0, scenario.inflow.ravel()])
    if kind == "FNC":
        # per step and edge e = (i, j): f_e = R_e sum_k f_ik, over the
        # edges k out of i (sinks have none, so mu never enters). The row
        # of i's only edge, (1 - R) f = 0 with R 1 to 1e-9, is left out.
        ratio = held_rows(scenario.routing, T)
        kept = np.broadcast_to(net.out_degree[src] > 1, (T, E))
        split = n * (T + 1) + np.cumsum(kept).reshape(T, E) - 1
        sib = np.stack(net.out_edges)[:, src]     # (D, E): the edges out of src[e], E past them
        on = (sib < E) & kept[:, None]
        coef = np.where(sib == np.arange(E), 1.0 - ratio[:, None], -ratio[:, None])
        eq.append((np.broadcast_to(split[:, None], on.shape)[on],
                   f[:, np.minimum(sib, E - 1)][on], coef[on]))
        b_eq = np.concatenate([b_eq, np.zeros(int(kept.sum()))])

    # inequality rows per step and cell, with z = sum f_out + mu and y =
    # sum f_in (inflow is zero off sources): z <= demand_slope x, z <= C
    # and, off sources, y <= (1-eps) supply_slope (jam - x), y <= (1-eps) C
    shrink, inner = 1.0 - eps, ~net.source
    per = 2 + 2 * inner
    dem = steps * per.sum() + np.cumsum(per) - per
    sup = dem + 2
    ws = shrink * net.supply_slope[inner]
    ub = [(dem[:, src], f, 1.0), (dem[:, sink], mu, 1.0), (dem, x[:-1], -net.demand_slope),
          (dem[:, src] + 1, f, 1.0), (dem[:, sink] + 1, mu, 1.0),
          (sup[:, dst], f, 1.0), (sup[:, inner], x[:-1, inner], ws), (sup[:, dst] + 1, f, 1.0)]
    b_ub = np.zeros(T * per.sum())
    b_ub[dem + 1] = scenario.capacity
    b_ub[sup[:, inner]] = ws * net.jam[inner]
    b_ub[sup[:, inner] + 1] = shrink * scenario.capacity[:, inner]

    a, b, cz = cost.coefficients(net)
    c_vec, q_vec = np.zeros(n_vars), np.zeros(n_vars)
    c_vec[x], q_vec[x], c_vec[mu], c_vec[f] = a, b, cz[sink], cz[src]
    return ConvexProgram(
        eq=_sparse(eq, len(b_eq), n_vars), b_eq=b_eq, ub=_sparse(ub, len(b_ub), n_vars),
        b_ub=b_ub, c=c_vec, q=q_vec, kind=kind, eps=eps, cost_kind=cost.kind, scenario=scenario)


def build_dta(scenario: Scenario, cost: CostSpec, eps: float = 0.0) -> ConvexProgram:
    """Relaxed DTA: routing is free, flows constrained by demand/supply only."""
    return _build(scenario, cost, eps, "DTA")


def build_fnc(scenario: Scenario, cost: CostSpec, eps: float = 0.0) -> ConvexProgram:
    """Relaxed FNC: adds the exogenous-split rows f_ij = R_ij z_i."""
    return _build(scenario, cost, eps, "FNC")


def _once(values: np.ndarray, fmt) -> list:
    """fmt of each value, called once per distinct value (by its bits, so
    -0.0 keeps its sign)."""
    keys, at = np.unique(np.ascontiguousarray(values, dtype=np.float64).view(np.int64),
                         return_inverse=True)
    text = [fmt(v) for v in keys.view(np.float64).tolist()]
    return [text[k] for k in at.ravel().tolist()]


def _exact(v: float) -> str:
    """The shortest text that reads back as v: repr, less an integral's ".0"."""
    return repr(v).removesuffix(".0")


def _lp_terms(cols: np.ndarray, coefs: np.ndarray, names: list) -> list:
    signed = _once(coefs, lambda v: f" {'+' if v >= 0 else '-'} {_exact(abs(v))} ")
    return [s + names[k] for s, k in zip(signed, cols.tolist())]


def export_lp(program: ConvexProgram, path) -> None:
    """Write the program in LP text interchange format; read back, it is the
    program bit for bit. Columns are named x(t,cell), mu(t,sink) and
    f(t,i,j): ``Network`` admits only [A-Za-z0-9_.] in ids, so no two names
    coincide. Every number is the shortest text that reads back as itself."""
    names = [f"{kind}({','.join(map(str, rest))})" for kind, *rest in program.names]
    priced = np.flatnonzero(program.c)
    out = [f"\\ ctmflow {program.kind} eps={program.eps} cost={program.cost_kind} "
           f"scenario={program.scenario.content_hash()}\nMinimize\n obj:",
           "".join(_lp_terms(priced, program.c[priced], names)) if len(priced)
           else " 0 " + names[0]]
    if program.is_quadratic:
        curved = np.flatnonzero(program.q)
        out += [" + ["] + [f" + {_exact(v)} {names[k]}^2" for k, v in
                           zip(curved.tolist(), (2 * program.q[curved]).tolist())] + [" ] / 2"]
    out.append("\nSubject To\n")
    for label, mat, sense, rhs in (("eq", program.eq, "=", program.b_eq),
                                   ("ub", program.ub, "<=", program.b_ub)):
        terms = _lp_terms(mat.cols, mat.data, names)
        bounds = _once(rhs, lambda v: f" {sense} {_exact(v)}\n")
        starts = np.searchsorted(mat.rows, np.arange(mat.shape[0] + 1)).tolist()
        out += [f" {label}{r}:" + "".join(terms[starts[r]:starts[r + 1]]) + bounds[r]
                for r in range(mat.shape[0])]
    out.append("Bounds\nEnd\n")     # every variable has the default bound >= 0
    with open(path, "w") as fh:
        fh.write("".join(out))
