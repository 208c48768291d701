"""Helpers for oracle-sized test instances, and the LP file read back."""

from typing import NamedTuple

import numpy as np

from ctmflow import solver
from ctmflow.ctm import CostSpec
from ctmflow.network import Cell, Network, Scenario, constant_routing


def var_index(program) -> dict:
    """Column of each variable name (``ConvexProgram.names``) of a program."""
    return {name: k for k, name in enumerate(program.names)}


def cost_program(build, scenario, cost: str, *args):
    """build(scenario, CostSpec, *args) for a test cost: "ttt", "quad", or
    "ttt+quad", the TTT program with 0.5 x^2 set on every volume."""
    prog = build(scenario, CostSpec("QuadraticVolume" if cost == "quad" else "TTT"), *args)
    if cost == "ttt+quad":
        prog.q[prog.span("x")] = 0.5
    return prog


class LpFile(NamedTuple):
    """An LP file as HiGHS's reader loads it, in the program's order: its
    columns and rows are matched to the program's by name."""
    names: list               # the column names, in the file's order
    c: np.ndarray             # the objective, per program column
    matrix: tuple             # (rows, cols, values), rows eq then ub, row-major
    lower: np.ndarray         # per program row
    upper: np.ndarray
    hessian: np.ndarray       # the diagonal, per program column (HiGHS's Q: 1/2 v'Qv)


def read_lp(path, program) -> LpFile:
    """Load an ``export_lp`` file with HiGHS's own reader and map its columns
    to the program's by name (x(t,cell), mu(t,sink), f(t,i,j)) and its rows
    by label (eq<r>, ub<r>). A name the program lacks raises KeyError."""
    core = solver._extension("scipy.optimize._highspy._core")
    highs = core._Highs()
    highs.setOptionValue("output_flag", False)
    assert highs.readModel(str(path)) == core.HighsStatus.kOk
    lp, hess = highs.getLp(), highs.getModel().hessian_
    assert lp.a_matrix_.format_ == core.MatrixFormat.kColwise
    column = {f"{kind}({','.join(map(str, rest))})": k
              for k, (kind, *rest) in enumerate(program.names)}
    col = np.array([column[name] for name in lp.col_names_], dtype=np.int64)
    n_eq = len(program.b_eq)
    row = np.array([int(name[2:]) + (n_eq if name.startswith("ub") else 0)
                    for name in lp.row_names_], dtype=np.int64)

    def entries(start, index, value, rows):
        counts = np.diff(np.asarray(start, dtype=np.int64))
        r, k = rows[np.asarray(index, dtype=np.int64)], np.repeat(col, counts)
        order = np.lexsort((k, r))
        return r[order], k[order], np.asarray(value, dtype=float)[order]

    c = np.zeros(program.n_vars)
    c[col] = lp.col_cost_
    lower, upper = np.zeros(len(row)), np.zeros(len(row))
    lower[row], upper[row] = lp.row_lower_, lp.row_upper_
    hessian = np.zeros(program.n_vars)
    if hess.dim_:     # HiGHS keeps a diagonal entry, zero or not, for every column
        rows, cols, values = entries(hess.start_, hess.index_, hess.value_, col)
        assert np.array_equal(rows, cols), "off-diagonal Hessian entries"
        hessian[cols] = values
    return LpFile(list(lp.col_names_), c,
                  entries(lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_, row),
                  lower, upper, hessian)


def underscore_scenario() -> Scenario:
    """Cells a, b_c, a_b and c, edges (a, b_c) and (a_b, c): ids whose
    "_"-joined edge names coincide (a_b_c)."""
    ids = ("a", "b_c", "a_b", "c")
    net = Network(cells=tuple(Cell(i, 0.8, 0.8, 1.0, 1, 8.0, [4.0]) for i in ids),
                  adjacency=(("a", "b_c"), ("a_b", "c")), sources=frozenset({"a", "a_b"}),
                  sinks=frozenset({"b_c", "c"}), tau=1.0)
    lam = np.zeros((3, 4))
    lam[:, [0, 2]] = 1.0
    return Scenario(network=net, x0=np.zeros(4), inflow=lam,
                    routing=constant_routing(net, {("a", "b_c"): 1.0, ("a_b", "c"): 1.0}))


def tiny_chain_scenario(rng) -> Scenario:
    """Two-cell chain over two steps: at most four free variables."""
    slope = float(rng.uniform(0.4, 1.0))
    cap = float(rng.uniform(1.5, 5.0))
    jam = float(rng.uniform(6.0, 12.0))
    cells = (Cell("a", slope, slope, 1.0, 1, jam, [cap]),
             Cell("b", slope, slope, 1.0, 1, jam, [cap]))
    net = Network(cells=cells, adjacency=(("a", "b"),),
                  sources=frozenset({"a"}), sinks=frozenset({"b"}), tau=1.0)
    lam = np.zeros((2, 2))
    lam[0, 0] = float(rng.uniform(0.5, 3.0))
    return Scenario(network=net, x0=(0.0, 0.0), inflow=lam,
                    routing=constant_routing(net, {("a", "b"): 1.0}))
