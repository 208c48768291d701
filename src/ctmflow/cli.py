"""Command-line front end.

Commands: simulate, solve, synthesize, robustness-sweep, reproduce-paper.
Scenario inputs are JSON files (see network.save_scenario) or the bundled
names ``bundled:table`` and ``bundled:robustness``. Every run writes its
artifacts plus a manifest.json listing each file with a sha256 digest;
outputs are deterministic. Exit codes: 0 ok, 2 configuration error,
3 solver failure, 4 invariant violation (``ctm.InvariantError``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import ctm, program, robustness, scenarios, synthesis
from .ctm import CostSpec, InvariantError
from .network import load_scenario, save_scenario
from .solver import SolverError, solve

COST_KINDS = {"ttt": "TTT", "ttd": "TTD", "delay": "Delay", "quad": "QuadraticVolume"}
JOBS_HELP = "accepted and ignored: a sweep runs all its points as one batch"
MAX_SWEEP_POINTS = 1000     # the sweep batch holds points x (T+1) x n floats per array


class ConfigError(Exception):
    pass


EXIT_CODES = {ConfigError: ("config", 2), SolverError: ("solver", 3),
              InvariantError: ("invariant", 4)}


def _scenario(path: str):
    if path == "bundled:table":
        return scenarios.table_scenario()
    if path == "bundled:robustness":
        return scenarios.robustness_scenario()
    try:     # ValueError covers bad JSON and every invalid scenario
        return load_scenario(path)
    except OSError as e:     # missing, a directory, unreadable
        raise ConfigError(f"cannot read scenario {path}: {e.strerror}") from e
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"malformed scenario {path}: {e}") from e


def _cost(name: str) -> CostSpec:
    return CostSpec(COST_KINDS[name])     # argparse's choices refuse any other name


def _sweep_grid(expr: str) -> np.ndarray:
    try:
        start, step, end = (float(v) for v in expr.split(":"))
    except ValueError as e:
        raise ConfigError(f"bad sweep expression {expr!r}, expected START:STEP:END") from e
    if not all(map(math.isfinite, (start, step, end))):
        raise ConfigError(f"sweep grid {expr!r} must be finite")
    if step <= 0 or end < start:
        raise ConfigError("sweep grid must be increasing")
    span = (end - start) / step + 1e-9     # inf where it overflows; keeps an END rounded short
    if span >= MAX_SWEEP_POINTS:
        raise ConfigError(f"sweep grid {expr!r} has more than {MAX_SWEEP_POINTS} points")
    return np.round(start + step * np.arange(math.floor(span) + 1), 10)


# every artifact goes through _outdir, _csv and _json, except the LP file
# (program.export_lp) and the scenario files (network.save_scenario)


def _outdir(path) -> Path:
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:     # a file in the way, or no permission
        raise ConfigError(f"cannot use output directory {path}: {e.strerror}") from e
    return out


def _csv(path: Path, header: str, rows) -> Path:
    """Write the header line, then one line per row tuple: a str as is, a
    number to 12 significant digits."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(v if isinstance(v, str) else f"{v:.12g}" for v in row) + "\n"
                      for row in rows)
    return path


def _json(path: Path, tree) -> Path:
    with open(path, "w") as fh:
        json.dump(tree, fh, indent=2, sort_keys=True)
    return path


def _by_cell(cells, *arrays) -> list:
    """Rows (t, cell id, a[t, k] for each array), step-major."""
    return [(t, c.id, *(a[t, k] for a in arrays))
            for t in range(len(arrays[0])) for k, c in enumerate(cells)]


def _solve_program(sc, kind: str, cost: CostSpec, eps: float):
    try:     # the builder checks eps and, for FNC, the routing
        prog = {"dta": program.build_dta, "fnc": program.build_fnc}[kind](sc, cost, eps)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    return prog, solve(prog)


def cmd_simulate(args) -> list:
    sc = _scenario(args.scenario)
    if sc.routing is None:
        raise ConfigError("simulate needs a scenario with a routing schedule")
    traj = ctm.simulate(sc, model=args.model)
    with np.errstate(over="ignore", invalid="ignore"):
        cost = ctm.evaluate_cost(traj, _cost(args.cost))
    if not math.isfinite(cost):
        raise ConfigError(f"the run's {args.cost} cost is {cost}: its volumes are too large")
    out = _outdir(args.out)
    cells, T = sc.network.cells, traj.horizon
    rows = _by_cell(cells, traj.states[:T], traj.y, traj.z, traj.mu, traj.gamma)
    rows += [(T, c.id, traj.states[T, k], 0, 0, 0, 1) for k, c in enumerate(cells)]
    print(f"simulate: cost[{args.cost}] = {cost:.6g}, min gamma = {traj.min_gamma():.6g}")
    return [_csv(out / "trajectory.csv",
                 "step,cell,x_veh,y_veh_per_step,z_veh_per_step,mu_veh_per_step,gamma", rows),
            _json(out / "summary.json", {"command": "simulate", "model": args.model,
                                         "cost_kind": args.cost, "cost": cost,
                                         "min_gamma": traj.min_gamma()})]


def cmd_solve(args) -> list:
    sc = _scenario(args.scenario)
    prog, sol = _solve_program(sc, args.kind, _cost(args.cost), args.epsilon)
    out = _outdir(args.out)
    lp_path = out / f"{args.kind}_{args.cost}.lp"
    program.export_lp(prog, lp_path)
    print(f"solve: {args.kind} {args.cost} eps={args.epsilon} -> {sol.objective:.6g} (optimal)")
    return [lp_path,
            _csv(out / "optimal_states.csv", "step,cell,x_veh",
                 _by_cell(sc.network.cells, prog.states(sol.values))),
            _json(out / "summary.json", {"command": "solve", "kind": args.kind,
                                         "cost_kind": args.cost, "epsilon": args.epsilon,
                                         "objective": sol.objective, "status": "optimal",
                                         "iterations": sol.iterations,
                                         "primal_residual": sol.residuals.primal})]


def cmd_synthesize(args) -> list:
    sc = _scenario(args.scenario)
    prog, sol = _solve_program(sc, args.kind, _cost(args.cost), args.epsilon)
    controls = synthesis.extract_controls(prog, sol)
    ref = prog.states(sol.values)
    report = synthesis.verify_realization(controls, sc, ref, model=args.model)
    out = _outdir(args.out)
    net = sc.network
    files = [_csv(out / "controls_alpha.csv", "step,cell,alpha",
                  _by_cell(net.cells, controls.alphas)),
             _json(out / "summary.json", {"command": "synthesize", "kind": args.kind,
                                          "model": args.model, "objective": sol.objective,
                                          "replay_max_deviation": report.max_deviation,
                                          "replay_tolerance": report.tolerance,
                                          "always_freeflow": report.always_freeflow,
                                          "realized": report.realized})]
    if controls.routing is not None:
        files.append(_csv(out / "controls_routing.csv", "step,from_cell,to_cell,ratio",
                          [(t, i, j, r) for t, row in enumerate(controls.routing)
                           for (i, j), r in zip(net.adjacency, row)]))
    print(f"synthesize: replay deviation {report.max_deviation:.3g} "
          f"(tol {report.tolerance:.3g}), free-flow={report.always_freeflow}")
    return files


def _run_sweep(sc, grid, model: str, controls, path: Path) -> tuple:
    """Write the sweep CSV (delta, simulated cost perturbation, combined
    bound, sensitivity bound); return lam_hat and the path."""
    lam_hat, points = robustness.sweep(sc, grid, controls=controls, model=model)
    return lam_hat, _csv(path, "delta_lambda_veh_per_step,simulated_cost_perturbation_veh_steps,"
                               "combined_bound_veh_steps,model,sensitivity_bound_veh_steps",
                         [(p.delta, p.cost_perturbation, p.combined.sum(), model,
                           p.sensitivity.sum()) for p in points])


def cmd_robustness_sweep(args) -> list:
    sc = _scenario(args.scenario)
    grid = _sweep_grid(args.sweep)
    sources = sorted(sc.network.sources)
    if len(sources) != 1:
        raise ConfigError(f"robustness-sweep needs a single-source scenario, got {sources}")
    nominal = sc.inflow[:, sc.network.index[sources[0]]]
    if np.max(np.abs(nominal - nominal[0])) > 1e-12:
        raise ConfigError("robustness-sweep needs a constant nominal inflow")
    if nominal[0] + grid[0] < 0:
        raise ConfigError(f"sweep start {grid[0]:g} drives the inflow {nominal[0]:g} below zero")
    prog, sol = _solve_program(sc, "fnc", CostSpec("TTT"), args.epsilon)
    controls = synthesis.extract_controls(prog, sol)
    lam_hat, path = _run_sweep(sc, grid, args.model, controls,
                               _outdir(args.out) / f"sweep_{args.model}.csv")
    print(f"robustness-sweep: {len(grid)} points, lam_hat = {lam_hat:.4f} "
          f"(delta {lam_hat - sc.inflow[0].max():.4f})")
    return [path]


def reproduce_paper(outdir: Path) -> list:
    """Reproduce the benchmark tables and figure data sets."""
    outdir = _outdir(outdir)
    files = []
    sc = scenarios.table_scenario()
    save_scenario(sc, outdir / "scenario_table.json")
    files.append(outdir / "scenario_table.json")

    # tables: FIFO simulation vs DTA/FNC optima, linear and quadratic costs
    fifo = ctm.simulate(sc)
    results = {}
    states_by = {}
    for cost_name, cost in (("TTT", CostSpec("TTT")), ("Quadratic", CostSpec("QuadraticVolume"))):
        results[("FIFO", cost_name)] = ctm.evaluate_cost(fifo, cost)
        states_by[("FIFO", cost_name)] = fifo.states
        for kind in ("dta", "fnc"):
            prog, sol = _solve_program(sc, kind, cost, 0.0)
            if (kind, cost_name) == ("fnc", "TTT"):
                fnc_ttt = prog, sol     # also fig10's eps = 0 row
            results[(kind.upper(), cost_name)] = sol.objective
            states_by[(kind.upper(), cost_name)] = prog.states(sol.values)
    files.append(_csv(outdir / "tables2_3.csv", "scheme,cost_kind,cost_veh_steps",
                      [(*key, value) for key, value in sorted(results.items())]))

    for fig, cost_name in (("fig6", "TTT"), ("fig7", "Quadratic")):
        files.append(_csv(outdir / f"{fig}_trajectories.csv", "step,scheme,cell,x_veh",
                          [(t, scheme, cid, states_by[scheme, cost_name][t, sc.network.index[cid]])
                           for scheme in ("FIFO", "DTA", "FNC") for t in range(sc.horizon + 1)
                           for cid in ("1", "2", "3", "4")]))

    # robustness sweeps, T = 200
    rb_sc = scenarios.robustness_scenario()
    save_scenario(rb_sc, outdir / "scenario_robustness.json")
    files.append(outdir / "scenario_robustness.json")
    prog200, sol200 = _solve_program(rb_sc, "fnc", CostSpec("TTT"), 0.0)
    controls200 = synthesis.extract_controls(prog200, sol200)
    grid = _sweep_grid("0:0.1:3")
    for fig, model in (("fig8", "fifo"), ("fig9", "nonfifo")):
        files.append(_run_sweep(rb_sc, grid, model, controls200,
                                outdir / f"{fig}_sweep_{model}.csv")[1])

    # epsilon tradeoff on the short scenario
    rows = []
    for eps in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
        prog, sol = fnc_ttt if eps == 0.0 else _solve_program(sc, "fnc", CostSpec("TTT"), eps)
        controls = synthesis.extract_controls(prog, sol)
        runs = robustness.simulate_perturbed(
            sc, [robustness.PerturbationSpec.inflow_shift(sc, float(d)) for d in grid],
            controls=controls, model="fifo")
        rows += [(f"{eps:.1f}", d, float(runs.states[b].sum()), runs[b].min_gamma())
                 for b, d in enumerate(grid)]
    files.append(_csv(outdir / "fig10_epsilon_tradeoff.csv",
                      "epsilon,delta_lambda_veh_per_step,cost_veh_steps,congestion_factor", rows))
    return files


def cmd_reproduce(args) -> list:
    out = Path(args.out)
    files = reproduce_paper(out)
    print(f"reproduce-paper: wrote {len(files)} artifacts to {out}")
    return files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ctmflow",
                                     description="CTM simulation, DTA/FNC relaxations, "
                                                 "control synthesis, robustness bounds")
    sub = parser.add_subparsers(dest="command", required=True)

    options = {
        "--cost": dict(default="ttt", choices=sorted(COST_KINDS)),
        "--model": dict(default="fifo", choices=ctm.MODELS),
        "--kind": dict(default="fnc", choices=("dta", "fnc")),
        "--epsilon": dict(type=float, default=0.0),
        "--sweep": dict(default="0:0.1:3", help="START:STEP:END grid"),
        "--jobs": dict(type=int, default=1, help=JOBS_HELP),
    }
    for name, names in (("simulate", ("--cost", "--model")),
                        ("solve", ("--cost", "--kind", "--epsilon")),
                        ("synthesize", ("--cost", "--model", "--kind", "--epsilon")),
                        ("robustness-sweep", ("--model", "--epsilon", "--sweep", "--jobs"))):
        p = sub.add_parser(name)
        p.add_argument("--scenario", required=True,
                       help="scenario JSON path or bundled:table / bundled:robustness")
        p.add_argument("--out", default="out", help="output directory")
        for option in names:
            p.add_argument(option, **options[option])
    rep = sub.add_parser("reproduce-paper")
    rep.add_argument("--out", default="paper_out")
    rep.add_argument("--jobs", **options["--jobs"])

    args = parser.parse_args(argv)
    handlers = {"simulate": cmd_simulate, "solve": cmd_solve, "synthesize": cmd_synthesize,
                "robustness-sweep": cmd_robustness_sweep, "reproduce-paper": cmd_reproduce}
    try:
        files = handlers[args.command](args)
        out = Path(args.out)
        _json(out / "manifest.json", {str(f.relative_to(out)): hashlib.sha256(f.read_bytes())
                                      .hexdigest() for f in files})
        return 0
    except OSError as e:     # writing an artifact or the manifest: a directory in its place
        error, code, message = "config", 2, f"cannot write an artifact: {e}"
    except (ConfigError, SolverError, InvariantError) as e:
        (error, code), message = next(v for k, v in EXIT_CODES.items() if isinstance(e, k)), str(e)
    sys.stderr.write(json.dumps({"error": error, "message": message}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
