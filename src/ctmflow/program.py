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

The constraint matrices are sparse CSR over the full variable vector,
which the solvers work on directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .ctm import CostSpec
from .network import Scenario


@dataclass
class ConvexProgram:
    var_index: dict                 # name tuple -> column
    names: list                     # column -> name tuple
    A_eq: sp.csr_matrix
    b_eq: np.ndarray
    A_ub: sp.csr_matrix
    b_ub: np.ndarray
    nonneg: np.ndarray              # bool mask over full variables
    c: np.ndarray                   # linear objective
    q: np.ndarray                   # diagonal quadratic objective (v' diag(q) v)
    kind: str                       # "DTA" | "FNC"
    eps: float
    scenario_hash: str
    cost_kind: str

    @property
    def n_vars(self) -> int:
        return len(self.names)

    @property
    def is_quadratic(self) -> bool:
        return bool(np.any(self.q != 0.0))

    def objective_value(self, v: np.ndarray) -> float:
        return float(self.c @ v + v @ (self.q * v))

    def var(self, values: np.ndarray, *name) -> float:
        return float(values[self.var_index[tuple(name)]])

    def span(self, block: str, network, horizon: int) -> slice:
        """Columns of one variable block (x, y, z, mu or f), step-major."""
        first = network.adjacency[0] if block == "f" else (network.cells[0].id,)
        start = self.var_index[(block, 0, *first)]
        width = len(network.adjacency) if block == "f" else network.n
        return slice(start, start + (horizon + (block == "x")) * width)

    def states(self, values: np.ndarray, scenario: Scenario, block: str = "x") -> np.ndarray:
        """The (T+1, n) state trajectory of a solution vector; with block
        y, z or mu, that (T, n) block of rates, with f the (T, E) flows."""
        cols = self.span(block, scenario.network, scenario.horizon)
        return np.array(values[cols]).reshape(scenario.horizon + (block == "x"), -1)


def _objective(cost: CostSpec, scenario: Scenario, var_index: dict, n_vars: int):
    net = scenario.network
    T = scenario.horizon
    c = np.zeros(n_vars)
    q = np.zeros(n_vars)

    def add(spec: CostSpec, coef: float):
        w = spec.cell_weights(net.n)
        if spec.kind == "TTT":
            for t in range(T + 1):
                for k, cell in enumerate(net.cells):
                    c[var_index[("x", t, cell.id)]] += coef * w[k]
        elif spec.kind == "QuadraticVolume":
            for t in range(T + 1):
                for k, cell in enumerate(net.cells):
                    q[var_index[("x", t, cell.id)]] += coef * w[k]
        elif spec.kind == "TTD":
            for t in range(T):
                for k, cell in enumerate(net.cells):
                    c[var_index[("z", t, cell.id)]] -= coef * w[k] * cell.length
        elif spec.kind == "Delay":
            for t in range(T + 1):
                for k, cell in enumerate(net.cells):
                    c[var_index[("x", t, cell.id)]] += coef * w[k]
            for t in range(T):
                for k, cell in enumerate(net.cells):
                    slope = cell.diagram.demand_slope
                    if slope <= 0:
                        raise ValueError("Delay cost needs positive demand slopes")
                    c[var_index[("z", t, cell.id)]] -= coef * w[k] / slope
        elif spec.kind == "WeightedSum":
            for sub_coef, sub in spec.components:
                add(sub, coef * sub_coef)
        else:
            raise AssertionError(spec.kind)

    add(cost, 1.0)
    if np.any(q < 0):
        raise ValueError("quadratic objective must be convex (nonnegative weights)")
    return c, q


def _assemble(rows: list, width: int) -> sp.csr_matrix:
    """CSR matrix from (cols, vals) rows; duplicates are summed and zero
    coefficients (R_ij = 0) dropped."""
    mat = sp.csr_matrix((np.concatenate([vals for _, vals in rows]),
                         (np.repeat(np.arange(len(rows)), [len(cols) for cols, _ in rows]),
                          np.concatenate([cols for cols, _ in rows]))),
                        shape=(len(rows), width))
    mat.eliminate_zeros()
    return mat


def _build(scenario: Scenario, cost: CostSpec, eps: float, kind: str) -> ConvexProgram:
    if not (0.0 <= eps < 1.0):
        raise ValueError(f"eps must be in [0, 1), got {eps}")
    net = scenario.network
    scenario.compiled    # validates, once per scenario
    if kind == "FNC" and scenario.routing is None:
        raise ValueError("FNC needs an exogenous routing schedule on the scenario")
    T = scenario.horizon
    lam = scenario.inflow_array()
    x0 = scenario.x0_array()
    pairs = list(net.adjacency)

    names: list = []
    var_index: dict = {}

    def declare(*name):
        var_index[tuple(name)] = len(names)
        names.append(tuple(name))

    for t in range(T + 1):
        for c in net.cells:
            declare("x", t, c.id)
    for block in ("y", "z", "mu"):
        for t in range(T):
            for c in net.cells:
                declare(block, t, c.id)
    for t in range(T):
        for (i, j) in pairs:
            declare("f", t, i, j)
    n_vars = len(names)
    X = lambda t, cid: var_index[("x", t, cid)]
    Y = lambda t, cid: var_index[("y", t, cid)]
    Z = lambda t, cid: var_index[("z", t, cid)]
    MU = lambda t, cid: var_index[("mu", t, cid)]
    F = lambda t, i, j: var_index[("f", t, i, j)]

    eq_rows: list = []
    eq_b: list = []

    def add_eq(cols, vals, b):
        eq_rows.append((cols, vals))
        eq_b.append(b)

    for k, c in enumerate(net.cells):
        add_eq([X(0, c.id)], [1.0], float(x0[k]))
    for t in range(T):
        for k, c in enumerate(net.cells):
            add_eq([X(t + 1, c.id), X(t, c.id), Y(t, c.id), Z(t, c.id)],
                   [1.0, -1.0, -1.0, 1.0], 0.0)
            cols = [Y(t, c.id)]
            vals = [1.0]
            for (i, j) in pairs:
                if j == c.id:
                    cols.append(F(t, i, j))
                    vals.append(-1.0)
            add_eq(cols, vals, float(lam[t, k]))
            cols = [Z(t, c.id)]
            vals = [1.0]
            cols.append(MU(t, c.id))
            vals.append(-1.0)
            for (i, j) in pairs:
                if i == c.id:
                    cols.append(F(t, i, j))
                    vals.append(-1.0)
            add_eq(cols, vals, 0.0)
            if not net.is_sink(c.id):
                add_eq([MU(t, c.id)], [1.0], 0.0)
    if kind == "FNC":
        for t in range(T):
            R = scenario.routing.at(t)
            for (i, j) in pairs:
                r = float(R[net.index[i], net.index[j]])
                add_eq([F(t, i, j), Z(t, i)], [1.0, -r], 0.0)

    ub_rows: list = []
    ub_b: list = []

    def add_ub(cols, vals, b):
        ub_rows.append((cols, vals))
        ub_b.append(b)

    shrink = 1.0 - eps
    for t in range(T):
        for k, c in enumerate(net.cells):
            cap = c.diagram.capacity(t)
            add_ub([Z(t, c.id), X(t, c.id)], [1.0, -c.diagram.demand_slope], 0.0)
            add_ub([Z(t, c.id)], [1.0], cap)
            if not c.diagram.is_source:
                ws = c.diagram.supply_slope
                add_ub([Y(t, c.id), X(t, c.id)], [1.0, shrink * ws],
                       shrink * ws * c.diagram.jam_volume)
                add_ub([Y(t, c.id)], [1.0], shrink * cap)

    A_eq = _assemble(eq_rows, n_vars)
    A_ub = _assemble(ub_rows, n_vars)
    c_vec, q_vec = _objective(cost, scenario, var_index, n_vars)
    nonneg = np.ones(n_vars, dtype=bool)

    return ConvexProgram(
        var_index=var_index, names=names,
        A_eq=A_eq, b_eq=np.array(eq_b), A_ub=A_ub, b_ub=np.array(ub_b),
        nonneg=nonneg, c=c_vec, q=q_vec, kind=kind, eps=eps,
        scenario_hash=scenario.content_hash(), cost_kind=cost.kind,
    )


def build_dta(scenario: Scenario, cost: CostSpec, eps: float = 0.0) -> ConvexProgram:
    """Relaxed DTA: routing is free, flows constrained by demand/supply only."""
    return _build(scenario, cost, eps, "DTA")


def build_fnc(scenario: Scenario, cost: CostSpec, eps: float = 0.0) -> ConvexProgram:
    """Relaxed FNC: adds the exogenous-split rows f_ij = R_ij z_i."""
    return _build(scenario, cost, eps, "FNC")


def embed_trajectory(program: ConvexProgram, trajectory) -> np.ndarray:
    """Map a simulated trajectory onto the program's variable layout.

    Every CTM trajectory satisfies the relaxation constraints (for eps = 0),
    so the returned vector should verify feasible; useful both as a warm
    upper bound and for structural arguments.
    """
    values = np.zeros(program.n_vars)
    tr = trajectory
    for block, arr in (("x", tr.states), ("y", tr.y), ("z", tr.z), ("mu", tr.mu), ("f", tr.f)):
        values[program.span(block, tr.network, tr.horizon)] = arr.ravel()
    return values


def _lp_name(name: tuple) -> str:
    return "_".join(str(p) for p in name)


def export_lp(program: ConvexProgram, path) -> None:
    """Write the program in LP text interchange format."""
    with open(path, "w") as fh:
        fh.write(f"\\ ctmflow {program.kind} eps={program.eps} cost={program.cost_kind} "
                 f"scenario={program.scenario_hash}\n")
        fh.write("Minimize\n obj:")
        terms = []
        for k, coef in enumerate(program.c):
            if coef != 0.0:
                terms.append(f" {'+' if coef >= 0 else '-'} {abs(coef):.12g} {_lp_name(program.names[k])}")
        fh.write("".join(terms) if terms else " 0 " + _lp_name(program.names[0]))
        if program.is_quadratic:
            fh.write(" + [")
            for k, coef in enumerate(program.q):
                if coef != 0.0:
                    fh.write(f" + {2 * coef:.12g} {_lp_name(program.names[k])}^2")
            fh.write(" ] / 2")
        fh.write("\nSubject To\n")
        Aeq = program.A_eq.tocoo()
        rows_eq: dict = {}
        for r, c, v in zip(Aeq.row, Aeq.col, Aeq.data):
            rows_eq.setdefault(r, []).append((c, v))
        for r in range(program.A_eq.shape[0]):
            body = "".join(f" {'+' if v >= 0 else '-'} {abs(v):.12g} {_lp_name(program.names[c])}"
                           for c, v in sorted(rows_eq.get(r, [])))
            fh.write(f" eq{r}:{body} = {program.b_eq[r]:.12g}\n")
        Aub = program.A_ub.tocoo()
        rows_ub: dict = {}
        for r, c, v in zip(Aub.row, Aub.col, Aub.data):
            rows_ub.setdefault(r, []).append((c, v))
        for r in range(program.A_ub.shape[0]):
            body = "".join(f" {'+' if v >= 0 else '-'} {abs(v):.12g} {_lp_name(program.names[c])}"
                           for c, v in sorted(rows_ub.get(r, [])))
            fh.write(f" ub{r}:{body} <= {program.b_ub[r]:.12g}\n")
        fh.write("Bounds\n")
        for k, name in enumerate(program.names):
            if not program.nonneg[k]:
                fh.write(f" {_lp_name(name)} free\n")
        fh.write("End\n")
