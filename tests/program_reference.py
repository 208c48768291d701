"""The slow references that ``ctmflow.program._build`` is checked against.

- ``reference_program``: the per-entry loop builder of the same program,
  x, mu on sinks and f only. It declares every variable by name, writes
  every row as a (columns, values) list and assembles each matrix with one
  CSR constructor call, dropping zero coefficients. It returns a namespace
  with the fields the product builder fills: A_eq, b_eq, A_ub, b_ub, c, q,
  nonneg, names and var_index. It derives the per-step slopes v tau / L and
  w tau / L from the cells and the step length itself.
- ``full_space_program``: the full-space relaxation that the product
  builder shrank, which also declares y, z and mu on every cell as
  variables with their defining rows. It is a ``ConvexProgram`` whose
  ``span`` and ``states`` read that layout, so ``solve`` takes it as it
  is; ``lift`` maps a solution of the product program onto it.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

from ctmflow.ctm import held_rows
from ctmflow.program import ConvexProgram, _sparse

from ctm_reference import capacity


def cell_weights(spec, n: int) -> np.ndarray:
    if spec.weights is None:
        return np.ones(n)
    w = np.asarray(spec.weights, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"weights shape {w.shape} != ({n},)")
    return w


def _objective(cost, scenario, outflow_cols, var_index: dict, n_vars: int):
    """c and q; outflow_cols(t, cell) lists the columns that a price on
    that cell's outflow z lands on."""
    net = scenario.network
    T = scenario.horizon
    c = np.zeros(n_vars)
    q = np.zeros(n_vars)

    def add(spec, coef: float):
        w = cell_weights(spec, net.n)
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
                    for col in outflow_cols(t, cell.id):
                        c[col] -= coef * w[k] * cell.length
        elif spec.kind == "Delay":
            for t in range(T + 1):
                for k, cell in enumerate(net.cells):
                    c[var_index[("x", t, cell.id)]] += coef * w[k]
            for t in range(T):
                for k, cell in enumerate(net.cells):
                    slope = cell.free_flow_speed * net.tau / cell.length
                    for col in outflow_cols(t, cell.id):
                        c[col] -= coef * w[k] / slope
        elif spec.kind == "WeightedSum":
            for sub_coef, sub in spec.components:
                add(sub, coef * sub_coef)
        else:
            raise AssertionError(spec.kind)

    add(cost, 1.0)
    return c, q


def _assemble(rows: list, width: int) -> sp.csr_matrix:
    mat = sp.csr_matrix((np.concatenate([vals for _, vals in rows]),
                         (np.repeat(np.arange(len(rows)), [len(cols) for cols, _ in rows]),
                          np.concatenate([cols for cols, _ in rows]))),
                        shape=(len(rows), width))
    mat.eliminate_zeros()
    return mat


def reference_program(scenario, cost, eps: float, kind: str) -> SimpleNamespace:
    net = scenario.network
    T = scenario.horizon
    lam = scenario.inflow
    x0 = scenario.x0
    pairs = list(net.adjacency)

    names: list = []
    var_index: dict = {}

    def declare(*name):
        var_index[tuple(name)] = len(names)
        names.append(tuple(name))

    for t in range(T + 1):
        for c in net.cells:
            declare("x", t, c.id)
    for t in range(T):
        for c in net.cells:
            if c.id in net.sinks:
                declare("mu", t, c.id)
    for t in range(T):
        for (i, j) in pairs:
            declare("f", t, i, j)
    n_vars = len(names)
    X = lambda t, cid: var_index[("x", t, cid)]
    F = lambda t, i, j: var_index[("f", t, i, j)]

    def inflow_cols(t, cid):
        return [F(t, i, j) for (i, j) in pairs if j == cid]

    def outflow_cols(t, cid):
        mu = [var_index[("mu", t, cid)]] if cid in net.sinks else []
        return [F(t, i, j) for (i, j) in pairs if i == cid] + mu

    eq_rows: list = []
    eq_b: list = []

    def add_eq(cols, vals, b):
        eq_rows.append((cols, vals))
        eq_b.append(b)

    for k, c in enumerate(net.cells):
        add_eq([X(0, c.id)], [1.0], float(x0[k]))
    for t in range(T):
        for k, c in enumerate(net.cells):
            f_in, out = inflow_cols(t, c.id), outflow_cols(t, c.id)
            add_eq([X(t + 1, c.id), X(t, c.id)] + f_in + out,
                   [1.0, -1.0] + [-1.0] * len(f_in) + [1.0] * len(out), float(lam[t, k]))
    if kind == "FNC":
        ratios = scenario.routing
        for t in range(T):
            for (i, j), r in zip(pairs, ratios[min(t, len(ratios) - 1)]):
                siblings = [k for (h, k) in pairs if h == i]
                if r == 1.0 and siblings == [j]:
                    continue        # f_ij = f_ij
                add_eq([F(t, i, k) for k in siblings],
                       [1.0 - float(r) if k == j else -float(r) for k in siblings], 0.0)

    ub_rows: list = []
    ub_b: list = []

    def add_ub(cols, vals, b):
        ub_rows.append((cols, vals))
        ub_b.append(b)

    shrink = 1.0 - eps
    for t in range(T):
        for k, c in enumerate(net.cells):
            cap = capacity(c, t)
            out = outflow_cols(t, c.id)
            add_ub(out + [X(t, c.id)],
                   [1.0] * len(out) + [-(c.free_flow_speed * net.tau / c.length)], 0.0)
            add_ub(out, [1.0] * len(out), cap)
            if c.id not in net.sources:
                ws = c.wave_speed * net.tau / c.length
                f_in = inflow_cols(t, c.id)
                add_ub(f_in + [X(t, c.id)], [1.0] * len(f_in) + [shrink * ws],
                       shrink * ws * c.jam_volume)
                add_ub(f_in, [1.0] * len(f_in), shrink * cap)

    c_vec, q_vec = _objective(cost, scenario, outflow_cols, var_index, n_vars)
    return SimpleNamespace(
        A_eq=_assemble(eq_rows, n_vars), b_eq=np.array(eq_b),
        A_ub=_assemble(ub_rows, n_vars), b_ub=np.array(ub_b),
        c=c_vec, q=q_vec, nonneg=np.ones(n_vars, dtype=bool),
        names=names, var_index=var_index)


# ---------------------------------------------------------------------------
# the full-space relaxation: y, z and mu on every cell are variables


class FullSpaceProgram(ConvexProgram):
    """A program over x (T+1, n), then y, z and mu (T, n) each, then f (T, E)."""

    BLOCKS = ("y", "z", "mu", "f")

    def span(self, block: str) -> slice:
        net, T = self.scenario.network, self.scenario.horizon
        if block == "x":
            return slice(0, (T + 1) * net.n)
        start = (T + 1) * net.n + self.BLOCKS.index(block) * T * net.n
        return slice(start, start + T * (len(net.adjacency) if block == "f" else net.n))

    def states(self, values: np.ndarray, block: str = "x") -> np.ndarray:
        rows = self.scenario.horizon + (block == "x")
        return np.array(values[self.span(block)]).reshape(rows, -1)

    def early_outflow(self, values: np.ndarray) -> float:
        """sum_t (T - t) sum_i z_i(t), the tie-break's objective."""
        T = self.scenario.horizon
        return float(((T - np.arange(T))[:, None] * self.states(values, "z")).sum())


def lift(program: ConvexProgram, values: np.ndarray) -> np.ndarray:
    """A solution of the product program as a point of the full space, with
    y = lambda + sum f_in and z = sum f_out + mu."""
    return np.concatenate([program.states(values, b).ravel() for b in ("x", "y", "z", "mu", "f")])


def full_space_program(scenario, cost, eps: float, kind: str) -> FullSpaceProgram:
    """The full-space builder: x(0) = x0; per step and cell the dynamics,
    inflow and outflow aggregation and, off sinks, mu = 0; for FNC per step
    and edge f_ij = R_ij z_i; and the demand and supply rows on z and y."""
    if not (0.0 <= eps < 1.0):
        raise ValueError(f"eps must be in [0, 1), got {eps}")
    net = scenario.network
    T, n, E = scenario.horizon, net.n, len(net.adjacency)
    src, dst = net.src[:-1], net.dst[:-1]
    steps = np.arange(T)[:, None]

    x = np.arange((T + 1) * n).reshape(T + 1, n)
    y, z, mu = ((T + 1 + b * T) * n + np.arange(T * n).reshape(T, n) for b in range(3))
    f = (4 * T + 1) * n + np.arange(T * E).reshape(T, E)
    n_vars = (4 * T + 1) * n + T * E

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

    a, b, cz = cost.coefficients(net)
    c_vec, q_vec = np.zeros(n_vars), np.zeros(n_vars)
    c_vec[x], q_vec[x], c_vec[z] = a, b, cz
    return FullSpaceProgram(
        eq=_sparse(eq, m_eq, n_vars), b_eq=b_eq, ub=_sparse(ub, len(b_ub), n_vars), b_ub=b_ub,
        c=c_vec, q=q_vec, kind=kind, eps=eps, cost_kind=cost.kind, scenario=scenario)
