"""The per-entry loop builder of the relaxation programs, kept as the slow
reference that ``ctmflow.program._build`` (index arithmetic over the
compiled network) is checked against.

``reference_program`` declares every variable by name, writes every row as
a (columns, values) list and assembles each matrix with one CSR
constructor call, dropping zero coefficients. It returns a namespace with
the fields the product builder fills: A_eq, b_eq, A_ub, b_ub, c, q,
nonneg, names and var_index. It derives the per-step slopes v tau / L and
w tau / L from the cells and the step length itself.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

from ctm_reference import capacity


def cell_weights(spec, n: int) -> np.ndarray:
    if spec.weights is None:
        return np.ones(n)
    w = np.asarray(spec.weights, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"weights shape {w.shape} != ({n},)")
    return w


def _objective(cost, scenario, var_index: dict, n_vars: int):
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
                    c[var_index[("z", t, cell.id)]] -= coef * w[k] * cell.length
        elif spec.kind == "Delay":
            for t in range(T + 1):
                for k, cell in enumerate(net.cells):
                    c[var_index[("x", t, cell.id)]] += coef * w[k]
            for t in range(T):
                for k, cell in enumerate(net.cells):
                    slope = cell.free_flow_speed * net.tau / cell.length
                    c[var_index[("z", t, cell.id)]] -= coef * w[k] / slope
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
            cols = [Z(t, c.id), MU(t, c.id)]
            vals = [1.0, -1.0]
            for (i, j) in pairs:
                if i == c.id:
                    cols.append(F(t, i, j))
                    vals.append(-1.0)
            add_eq(cols, vals, 0.0)
            if not net.is_sink(c.id):
                add_eq([MU(t, c.id)], [1.0], 0.0)
    if kind == "FNC":
        ratios = scenario.routing
        for t in range(T):
            for (i, j), r in zip(pairs, ratios[min(t, len(ratios) - 1)]):
                add_eq([F(t, i, j), Z(t, i)], [1.0, -float(r)], 0.0)

    ub_rows: list = []
    ub_b: list = []

    def add_ub(cols, vals, b):
        ub_rows.append((cols, vals))
        ub_b.append(b)

    shrink = 1.0 - eps
    for t in range(T):
        for k, c in enumerate(net.cells):
            cap = capacity(c, t)
            add_ub([Z(t, c.id), X(t, c.id)], [1.0, -(c.free_flow_speed * net.tau / c.length)], 0.0)
            add_ub([Z(t, c.id)], [1.0], cap)
            if not net.is_source(c.id):
                ws = c.wave_speed * net.tau / c.length
                add_ub([Y(t, c.id), X(t, c.id)], [1.0, shrink * ws],
                       shrink * ws * c.jam_volume)
                add_ub([Y(t, c.id)], [1.0], shrink * cap)

    c_vec, q_vec = _objective(cost, scenario, var_index, n_vars)
    return SimpleNamespace(
        A_eq=_assemble(eq_rows, n_vars), b_eq=np.array(eq_b),
        A_ub=_assemble(ub_rows, n_vars), b_ub=np.array(ub_b),
        c=c_vec, q=q_vec, nonneg=np.ones(n_vars, dtype=bool),
        names=names, var_index=var_index)
