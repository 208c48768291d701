"""Output checks made apart from the program's own code paths.

* ``RefCTM``: a small vectorized CTM that reads the scenario documents of
  ``inputs`` directly (paper FIFO rule: a cell is throttled only by
  downstream cells it actually routes to).
* ``highs_optimum`` / ``frank_wolfe_gap``: LP optima and QP optimality
  certificates from ``scipy.optimize.linprog(method="highs")`` on the
  program's own ``ConvexProgram`` arrays.
* helpers that read the CLI artifacts (CSV, summary, manifest).

Every check raises ``CheckError`` with a one-line reason.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

FREEFLOW_TOL = 1e-9        # the program's own free-flow tolerance on gamma
UNSERVED_TOL = 1e-7        # veh/step of demand a free-flow replay may leave
OBJ_RTOL = 1e-6            # optimum agreement, relative to 1 + |value|
FW_RTOL = 1e-6             # Frank-Wolfe gap, relative to 1 + |optimum|
CSV_RTOL = 1e-9            # values printed with 12 significant digits


class CheckError(AssertionError):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * (1.0 + max(abs(a), abs(b)))


# ---------------------------------------------------------------------------
# reference simulator


class RefCTM:
    """CTM on a scenario document, states carried as one vector per step."""

    def __init__(self, doc: dict):
        cells = doc["cells"]
        self.ids = [c["id"] for c in cells]
        self.index = {cid: k for k, cid in enumerate(self.ids)}
        self.n = n = len(cells)
        self.T = T = int(doc["T"])
        tau = float(doc["tau"])
        self.dslope = np.array([c["v"] * tau / c["L"] for c in cells])
        self.sslope = np.array([c["w"] * tau / c["L"] for c in cells])
        self.jam = np.array([float(c["jam"]) for c in cells])
        self.cap = np.empty((T, n))
        for k, c in enumerate(cells):
            sched = list(c["capacity"])
            self.cap[:, k] = [sched[min(t, len(sched) - 1)] for t in range(T)]
        self.source = np.array([cid in doc["sources"] for cid in self.ids])
        self.sink = np.array([cid in doc["sinks"] for cid in self.ids])
        self.lam = np.zeros((T, n))
        for cid, series in doc["inflow"].items():
            self.lam[:, self.index[cid]] = series[:T]
        steps = max(len(s) for s in doc["routing"].values())
        self.routing = [np.zeros((n, n)) for _ in range(steps)]
        for key, series in doc["routing"].items():
            i, j = (self.index[c] for c in key.split("->"))
            for t, m in enumerate(self.routing):
                m[i, j] = series[min(t, len(series) - 1)]
        self.x0 = np.array(doc["x0"], dtype=float)

    def simulate(self, model: str = "fifo", alphas=None, routing=None,
                 source_level: float | None = None):
        """Return (states (T+1, n), min gamma, largest unserved demand).

        The unserved demand, max over steps and cells of d_bar - z, is the
        free-flow measure that survives the 12-digit rounding of control
        CSVs: a 1e-13 flow into a full cell already sets gamma to 0.
        """
        lam = self.lam
        if source_level is not None:
            lam = np.where(self.source, float(source_level), 0.0) * np.ones((self.T, 1))
        x = self.x0.copy()
        states = [x]
        gmin, unserved = 1.0, 0.0
        for t in range(self.T):
            a = np.ones(self.n) if alphas is None else alphas[min(t, len(alphas) - 1)]
            R = (routing if routing is not None else self.routing)
            R = R[min(t, len(R) - 1)]
            cap = self.cap[t]
            d = self.dslope * x
            dbar = np.where(self.source, np.minimum(d, a * cap), np.minimum(a * d, cap))
            s = np.where(self.source, np.inf,
                         np.minimum(self.sslope * (self.jam - np.minimum(x, self.jam)), cap))
            tot = R.T @ dbar
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where((tot > 1e-15) & np.isfinite(s),
                                 np.maximum(s / tot, 0.0), np.inf)
            if model == "nonfifo":
                gamma = np.minimum(ratio, 1.0)
                f = R * dbar[:, None] * gamma[None, :]
                z = np.where(self.sink, dbar, f.sum(axis=1))
            else:
                reach = np.where(R > 0, ratio[None, :], np.inf).min(axis=1)
                gamma = np.where(self.sink, 1.0, np.minimum(reach, 1.0))
                z = gamma * dbar
                f = R * z[:, None]
            y = lam[t] + np.where(self.sink[:, None], 0.0, f).sum(axis=0)
            gmin = min(gmin, float(gamma.min()))
            unserved = max(unserved, float((dbar - z).max()))
            x = np.maximum(x + y - z, 0.0)
            states.append(x)
        return np.array(states), gmin, unserved


def is_freeflow(gmin: float) -> bool:
    return gmin >= 1.0 - FREEFLOW_TOL


def cost_of(states: np.ndarray, cost: str) -> float:
    """The program's volume costs: sum over t = 0..T and all cells."""
    return float((states ** 2).sum() if cost == "quad" else states.sum())


# ---------------------------------------------------------------------------
# optimality against HiGHS


def _bounds(prog):
    return [(0.0, None) if nn else (None, None) for nn in prog.nonneg]


def highs_optimum(prog, c=None) -> tuple[float, np.ndarray]:
    """min c'v over the program's feasible set (c defaults to prog.c)."""
    from scipy.optimize import linprog

    res = linprog(prog.c if c is None else c, A_ub=prog.A_ub, b_ub=prog.b_ub,
                  A_eq=prog.A_eq, b_eq=prog.b_eq, bounds=_bounds(prog),
                  method="highs")
    require(res.status == 0, f"HiGHS did not solve the program: {res.message}")
    return float(res.fun), res.x


def primal_residual(prog, v: np.ndarray) -> float:
    r = [0.0]
    if prog.A_eq.shape[0]:
        r.append(float(np.max(np.abs(prog.A_eq @ v - prog.b_eq))))
    if prog.A_ub.shape[0]:
        r.append(float(np.max(prog.A_ub @ v - prog.b_ub)))
    r.append(float(np.max(-v[prog.nonneg], initial=0.0)))
    return max(r)


def frank_wolfe_gap(prog, v: np.ndarray) -> float:
    """g'v - min over the feasible set of g'v, g = c + 2 q v: an upper
    bound on f(v) - f* for the convex objective c'v + v'diag(q)v."""
    g = prog.c + 2.0 * prog.q * v
    low, _ = highs_optimum(prog, g)
    return float(g @ v) - low


def check_qp_point(prog, v: np.ndarray, objective: float, label: str) -> None:
    res = primal_residual(prog, v)
    require(res <= 1e-6, f"{label}: QP point infeasible (residual {res:.3g})")
    gap = frank_wolfe_gap(prog, v)
    require(gap <= FW_RTOL * (1.0 + abs(objective)),
            f"{label}: Frank-Wolfe gap {gap:.3g} at objective {objective:.10g}")


# ---------------------------------------------------------------------------
# artifacts


def check_manifest(outdir: Path) -> None:
    manifest = json.loads((outdir / "manifest.json").read_text())
    require(bool(manifest), f"{outdir}: empty manifest")
    for name, digest in manifest.items():
        data = (outdir / name).read_bytes()
        require(hashlib.sha256(data).hexdigest() == digest,
                f"{outdir / name}: digest does not match the manifest")


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_controls(outdir: Path, ref: RefCTM):
    """(alphas (T, n), routing list or None) from the synthesize CSVs."""
    alphas = np.ones((ref.T, ref.n))
    for row in read_rows(outdir / "controls_alpha.csv"):
        alphas[int(row["step"]), ref.index[row["cell"]]] = float(row["alpha"])
    routing = None
    rpath = outdir / "controls_routing.csv"
    if rpath.exists():
        routing = [np.zeros((ref.n, ref.n)) for _ in range(ref.T)]
        for row in read_rows(rpath):
            routing[int(row["step"])][ref.index[row["from_cell"]],
                                      ref.index[row["to_cell"]]] = float(row["ratio"])
    return alphas, routing


def read_states(path: Path, ref: RefCTM) -> np.ndarray:
    """(T+1, n) volumes from ``optimal_states.csv``."""
    states = np.full((ref.T + 1, ref.n), np.nan)
    for row in read_rows(path):
        states[int(row["step"]), ref.index[row["cell"]]] = float(row["x_veh"])
    require(not np.isnan(states).any(), f"{path}: missing states")
    return states


def check_sweep_rows(rows: list[dict], label: str) -> None:
    """Simulated cost perturbation <= combined bound <= sensitivity bound."""
    require(len(rows) > 0, f"{label}: empty sweep")
    for r in rows:
        d = float(r["delta_lambda_veh_per_step"])
        sim = float(r["simulated_cost_perturbation_veh_steps"])
        bound = float(r["combined_bound_veh_steps"])
        sens = float(r["sensitivity_bound_veh_steps"])
        require(math.isfinite(sim) and math.isfinite(bound),
                f"{label}: non-finite values at delta {d}")
        require(abs(sim) <= bound * (1 + CSV_RTOL) + 1e-9,
                f"{label}: |cost perturbation| {sim:.6g} above the combined bound "
                f"{bound:.6g} at delta {d}")
        require(sens >= bound * (1 - CSV_RTOL) - 1e-9,
                f"{label}: sensitivity bound {sens:.6g} below the combined bound "
                f"{bound:.6g} at delta {d}")


def check_freeflow_supremum(ref: RefCTM, lam_hat: float, width: float,
                            printed_digits: int, label: str) -> None:
    """A direct simulation is free-flow just below lam_hat and congested
    above lam_hat plus the bisection width (both shifted by the rounding
    of the printed value)."""
    slack = 0.5 * 10.0 ** -printed_digits
    _, g_lo, _ = ref.simulate("fifo", source_level=lam_hat - slack)
    require(is_freeflow(g_lo), f"{label}: congested at lam_hat {lam_hat} (min gamma {g_lo})")
    _, g_hi, _ = ref.simulate("fifo", source_level=lam_hat + width + slack)
    require(not is_freeflow(g_hi),
            f"{label}: still free-flow above lam_hat {lam_hat} + width {width}")
