"""Perturbation bounds for controlled trajectories.

For a nominal trajectory x(t) and a perturbed one x~(t) driven by the same
open-loop controls, with dx0 = ||x~0 - x0||_1 and dlam(t) =
||lam~(t) - lam(t)||_1, every bound is a plain (T+1,) array over steps 0..T:

  * the small-perturbation (monotonicity/contraction) bound
        ||x~(t) - x(t)||_1 <= dx0 + sum_{s<t} dlam(s)
  * the equilibrium-envelope bound, constant in t, built from the extreme
    constant inflows lam_bar / lam_under and initial-volume envelopes; it
    is inf at every step when either extreme inflow has no equilibrium
  * the classical ODE sensitivity bound, the Gronwall integral with
    Lipschitz constant L = 2 (max_i d_i'(0) - min_i s_i'(x_jam_i)) and
    dlam held constant over each step:
        v(0) = dx0,   v(t+1) = e^L v(t) + (e^L - 1) / L * dlam(t)

and the pointwise minimum of the first two. ``sweep`` compares them with
simulation over constant shifts delta of every source inflow; above the
free-flow margin delta_hat it extends the combined bound by the overload
heuristic: the bound at delta_hat plus (delta - delta_hat) * t. The first
two rest on the monotonicity of the compartmental traffic model (Coogan &
Arcak 2015). Their "sufficiently small" hypothesis is that the perturbed
FIFO run stays in free flow; for non-FIFO dynamics, monotone everywhere, it
is vacuous. Free flow, and so delta_hat, does not depend on the junction
rule (``ctm``): ``sweep`` finds delta_hat once for all its models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ctm import Drive, junction_rates, simulate, simulate_batch, stays_free, step
from .network import Network, Scenario

EQ_TOL = 1e-8
EQ_MAX_STEPS = 100_000
OVERLOAD_FACTOR = 1e3
BISECT_WIDTH = 1e-3


@dataclass(frozen=True, eq=False)
class PerturbationSpec:
    """Perturbed initial volumes x0 (n,) and inflow schedule (T, n)."""

    x0: np.ndarray
    inflow: np.ndarray

    @staticmethod
    def inflow_shift(scenario: Scenario, delta: float) -> "PerturbationSpec":
        """Add a constant to every source inflow, initial volumes unchanged."""
        lam = scenario.inflow + delta * scenario.network.source
        return PerturbationSpec(x0=scenario.x0, inflow=lam)


@dataclass(eq=False)
class Envelope:
    lam_upper: np.ndarray    # per cell (nonzero on sources)
    lam_lower: np.ndarray
    x0_upper: np.ndarray
    x0_lower: np.ndarray


def _errors(scenario: Scenario, perturbation: PerturbationSpec) -> tuple:
    """dx0 = ||x~0 - x0||_1 and dlam (T,), ||lam~(t) - lam(t)||_1 per step."""
    return (float(np.abs(perturbation.x0 - scenario.x0).sum()),
            np.abs(perturbation.inflow - scenario.inflow).sum(axis=1))


def contraction_bound(scenario: Scenario, perturbation: PerturbationSpec) -> np.ndarray:
    """Monotonicity/contraction bound dx0 + sum_{s<t} dlam(s), (T+1,)."""
    dx0, dlam = _errors(scenario, perturbation)
    return dx0 + np.concatenate(([0.0], np.cumsum(dlam)))


def compute_envelope(scenario: Scenario, perturbation: PerturbationSpec) -> Envelope:
    lam, lam_t = scenario.inflow, perturbation.inflow
    x0, x0_t = scenario.x0, perturbation.x0
    sup_err = np.abs(lam - lam_t).max(axis=0)
    lam_upper = lam.max(axis=0) + sup_err
    lam_lower = np.maximum(0.0, lam.min(axis=0) - sup_err)
    dx0 = np.abs(x0 - x0_t)
    return Envelope(lam_upper=lam_upper, lam_lower=lam_lower,
                    x0_upper=x0 + dx0, x0_lower=np.maximum(0.0, x0 - dx0))


def find_equilibria(scenario: Scenario, inflows, controls=None,
                    model: str = "fifo") -> list:
    """Iterate the CTM from empty cells under each constant inflow (B, n),
    as one batch, to a fixed point: per inflow, the equilibrium volumes
    (n,), or None for overload. A run leaves the batch at its equilibrium,
    or signals overload once its sources grow by the same positive amount
    (to EQ_TOL) in two consecutive two-step windows while every other cell
    repeats its state of two steps earlier (to rounding), once a source
    holds 1e3 jam volumes, or at the step cap. Controls, routing and
    capacities are those of the horizon's last step (``Drive.for_run``)."""
    net = scenario.network
    drive = Drive.for_run(scenario, controls)
    lam = np.asarray(inflows, dtype=float).reshape(-1, scenario.network.n)
    results = [None] * len(lam)
    rows, x = np.arange(len(lam)), np.zeros(lam.shape)
    overload = OVERLOAD_FACTOR * net.jam.max()
    recent, inner = [], ~net.source     # the states of the last five steps
    for _ in range(EQ_MAX_STEPS):
        if not len(rows):
            break
        y, z, _, _ = junction_rates(net, x, drive, -1, lam, model)
        x_next = step(net, x, y, z)
        done = np.abs(x_next - x).max(axis=1) <= EQ_TOL
        for b in np.flatnonzero(done):
            results[rows[b]] = x_next[b]
        x = x_next
        done |= (x[:, net.source] > overload).any(axis=1)
        recent = recent[-4:] + [x]
        if len(recent) == 5:
            late, early = recent[4] - recent[2], recent[2] - recent[0]
            grow = late[:, net.source]
            done |= ((abs(late) <= 1e-12 * abs(recent[2]))[:, inner].all(axis=1)
                     & (grow.max(axis=1) > EQ_TOL)
                     & (np.abs(grow - early[:, net.source]).max(axis=1) <= EQ_TOL))
        rows, x, lam, recent = rows[~done], x[~done], lam[~done], [r[~done] for r in recent]
    return results


def equilibrium_envelope_bound(scenario: Scenario, perturbation: PerturbationSpec,
                               controls=None, model: str = "fifo",
                               equilibria=None) -> np.ndarray:
    """Equilibrium-envelope bound, constant in t, (T+1,); all inf without
    both extreme equilibria (of the upper and lower inflow, if given)."""
    env = compute_envelope(scenario, perturbation)
    eq_hi, eq_lo = equilibria or find_equilibria(
        scenario, [env.lam_upper, env.lam_lower], controls, model)
    if eq_hi is None or eq_lo is None:
        return np.full(scenario.horizon + 1, np.inf)
    gap = float(np.abs(eq_hi - eq_lo).sum())
    dx0 = float(np.abs(env.x0_upper - env.x0_lower).sum())
    third = min(float(np.abs(eq_lo - xi).sum() + np.abs(eq_hi - xi).sum())
                for xi in (env.x0_upper, env.x0_lower))
    return np.full(scenario.horizon + 1, gap + dx0 + third)


def freeflow_margin(scenario: Scenario, controls=None) -> float:
    """Supremum shift delta >= 0 of every source inflow (``inflow_shift``)
    keeping the whole run, under the controls, in free flow; 0 where the
    nominal run is not free, and ValueError without a source. Bisection down
    to BISECT_WIDTH on a bracket [0, max(1, peak source inflow)] doubled
    while free; after 16 doublings it returns the last one. Each trial shift
    is one ``stays_free`` run, whose answer holds under every junction rule.
    """
    net = scenario.network
    if not net.sources:
        raise ValueError("freeflow_margin needs a source: without one no inflow can shift")
    drive = Drive.for_run(scenario, controls)

    def free(delta: float) -> bool:
        return stays_free(net, drive, scenario.x0,
                          PerturbationSpec.inflow_shift(scenario, delta).inflow)

    if not free(0.0):
        return 0.0
    lo, hi = 0.0, max(float(scenario.inflow.max()), 1.0)
    for _ in range(17):     # the bracket's end, then 16 doublings of it
        if not free(hi):
            break
        lo, hi = hi, 2.0 * hi
    else:
        return lo
    while hi - lo > BISECT_WIDTH:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if free(mid) else (lo, mid)
    return lo


def lipschitz_constant(network: Network) -> float:
    """L_g = 2 (max_i d_i'(0) - min_i s_i'(x_jam)), per-step slopes.

    Supply derivatives are taken on the affine branch (-supply_slope);
    sources (infinite supply) are excluded from the min.
    """
    d_max = network.demand_slope.max()
    s_min = (-network.supply_slope[~network.source]).min()
    return float(2.0 * (d_max - s_min))


def sensitivity_bound(scenario: Scenario, perturbation: PerturbationSpec) -> np.ndarray:
    """Classical ODE sensitivity bound, (T+1,): the Gronwall integral with
    dlam held constant over each step, v(0) = dx0 and
    v(t+1) = e^L v(t) + (e^L - 1) / L * dlam(t); it saturates to inf."""
    L = lipschitz_constant(scenario.network)
    dx0, dlam = _errors(scenario, perturbation)
    grow = math.exp(L)
    values = [dx0]
    for d in ((grow - 1.0) / L * dlam).tolist():
        values.append(grow * values[-1] + d)
    return np.array(values)


def combined_bound(scenario: Scenario, perturbation: PerturbationSpec,
                   controls=None, model: str = "fifo", equilibria=None) -> np.ndarray:
    """Pointwise minimum of the contraction and equilibrium-envelope bounds."""
    return np.minimum(contraction_bound(scenario, perturbation),
                      equilibrium_envelope_bound(scenario, perturbation, controls,
                                                 model, equilibria))


@dataclass(eq=False)
class SweepPoint:
    delta: float
    cost_perturbation: float   # sum over steps and cells of x~ - x
    combined: np.ndarray       # (T+1,) bound curves
    sensitivity: np.ndarray


def sweep(scenario: Scenario, deltas, controls=None,
          models=("fifo",)) -> tuple[float, dict]:
    """The bounds against simulation over constant shifts delta of every
    source inflow: the free-flow margin delta_hat and, per model, one
    SweepPoint per delta.

    Above delta_hat the combined curve is the overload heuristic, the
    combined bound at delta_hat plus (delta - delta_hat) * t. delta_hat and
    the sensitivity curves serve every model. Per model, the perturbed runs
    and the envelope equilibria of delta_hat and of every delta up to it are
    one batch each.
    """
    hat = freeflow_margin(scenario, controls)
    perts = [PerturbationSpec.inflow_shift(scenario, float(d)) for d in deltas]
    bounded = [PerturbationSpec.inflow_shift(scenario, hat)]
    bounded += [p for d, p in zip(deltas, perts) if d <= hat]
    envs = [compute_envelope(scenario, p) for p in bounded]
    inflows = [lam for e in envs for lam in (e.lam_upper, e.lam_lower)]
    sensitivity = [sensitivity_bound(scenario, p) for p in perts]
    t = np.arange(scenario.horizon + 1)
    points = {}
    for model in models:
        eqs = find_equilibria(scenario, inflows, controls, model)
        curves = iter([combined_bound(scenario, p, controls, model, eqs[2 * k:2 * k + 2])
                       for k, p in enumerate(bounded)])
        at_hat = next(curves)
        nominal = simulate(scenario, controls=controls, model=model).states
        runs = simulate_batch(scenario, inflow=[p.inflow for p in perts], controls=controls,
                              model=model)
        points[model] = [
            SweepPoint(delta=float(d), cost_perturbation=float((states - nominal).sum()),
                       combined=next(curves) if d <= hat else at_hat + (d - hat) * t,
                       sensitivity=sens)
            for d, sens, states in zip(deltas, sensitivity, runs.states)]
        del runs     # free this batch before the next model's: the sweep's memory peak
    return hat, points
