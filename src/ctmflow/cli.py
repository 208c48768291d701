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
import sys
from pathlib import Path

import numpy as np

from . import ctm, program, robustness, scenarios, synthesis
from .ctm import CostSpec, InvariantError
from .network import load_scenario, save_scenario
from .solver import SolverError, freeflow_optimum, solve

COST_KINDS = {"ttt": "TTT", "ttd": "TTD", "delay": "Delay", "quad": "QuadraticVolume"}
JOBS_HELP = "accepted and ignored: a sweep runs all its points as one batch"


class ConfigError(Exception):
    pass


def _scenario(path: str):
    if path == "bundled:table":
        return scenarios.table_scenario()
    if path == "bundled:robustness":
        return scenarios.robustness_scenario()
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"scenario file not found: {path}")
    try:
        sc = load_scenario(p)
    except (KeyError, TypeError, ValueError) as e:   # ValueError covers bad JSON
        raise ConfigError(f"malformed scenario {path}: {e}") from e
    try:
        sc.compiled    # validates once, with the violation report
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e
    return sc


def _cost(name: str) -> CostSpec:
    if name not in COST_KINDS:
        raise ConfigError(f"unknown cost {name!r}; choose from {sorted(COST_KINDS)}")
    return CostSpec(COST_KINDS[name])


def _sweep_grid(expr: str) -> np.ndarray:
    try:
        start, step, end = (float(v) for v in expr.split(":"))
    except ValueError as e:
        raise ConfigError(f"bad sweep expression {expr!r}, expected START:STEP:END") from e
    if step <= 0 or end < start:
        raise ConfigError("sweep grid must be increasing")
    n = int(round((end - start) / step)) + 1
    return np.round(start + step * np.arange(n), 10)


def _write_manifest(outdir: Path, files: list) -> None:
    manifest = {}
    for f in sorted(files):
        digest = hashlib.sha256(Path(f).read_bytes()).hexdigest()
        manifest[str(Path(f).relative_to(outdir))] = digest
    with open(outdir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def _solve_program(sc, kind: str, cost: CostSpec, eps: float):
    try:     # the builder checks eps and, for FNC, the routing
        prog = {"dta": program.build_dta, "fnc": program.build_fnc}[kind](sc, cost, eps)
    except InvariantError:
        raise
    except ValueError as e:
        raise ConfigError(str(e)) from e
    sol = freeflow_optimum(prog) or solve(prog)
    if sol.status != "optimal":
        raise SolverError(f"{kind} solve ended with status {sol.status}")
    return prog, sol


def cmd_simulate(args) -> list:
    sc = _scenario(args.scenario)
    if sc.routing is None:
        raise ConfigError("simulate needs a scenario with a routing schedule")
    traj = ctm.simulate(sc, model=args.model)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "trajectory.csv"
    ctm.trajectory_to_csv(traj, path)
    cost = ctm.evaluate_cost(traj, _cost(args.cost))
    summary = out / "summary.json"
    with open(summary, "w") as fh:
        json.dump({"command": "simulate", "model": args.model, "cost_kind": args.cost,
                   "cost": cost, "min_gamma": traj.min_gamma()}, fh, indent=2, sort_keys=True)
    print(f"simulate: cost[{args.cost}] = {cost:.6g}, min gamma = {traj.min_gamma():.6g}")
    return [path, summary]


def cmd_solve(args) -> list:
    sc = _scenario(args.scenario)
    prog, sol = _solve_program(sc, args.kind, _cost(args.cost), args.epsilon)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lp_path = out / f"{args.kind}_{args.cost}.lp"
    program.export_lp(prog, lp_path)
    states = prog.states(sol.values)
    traj_path = out / "optimal_states.csv"
    with open(traj_path, "w") as fh:
        fh.write("step,cell,x_veh\n")
        for t in range(sc.horizon + 1):
            for k, c in enumerate(sc.network.cells):
                fh.write(f"{t},{c.id},{states[t, k]:.12g}\n")
    summary = out / "summary.json"
    with open(summary, "w") as fh:
        json.dump({"command": "solve", "kind": args.kind, "cost_kind": args.cost,
                   "epsilon": args.epsilon, "objective": sol.objective,
                   "status": sol.status, "iterations": sol.iterations,
                   "primal_residual": sol.residuals.primal}, fh, indent=2, sort_keys=True)
    print(f"solve: {args.kind} {args.cost} eps={args.epsilon} -> {sol.objective:.6g} ({sol.status})")
    return [lp_path, traj_path, summary]


def cmd_synthesize(args) -> list:
    sc = _scenario(args.scenario)
    prog, sol = _solve_program(sc, args.kind, _cost(args.cost), args.epsilon)
    controls = synthesis.extract_controls(prog, sol)
    ref = prog.states(sol.values)
    report = synthesis.verify_realization(controls, sc, ref, model=args.model)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    alpha_path = out / "controls_alpha.csv"
    routing_path = out / "controls_routing.csv"
    synthesis.controls_to_csv(controls, sc, alpha_path,
                              routing_path if controls.routing is not None else None)
    summary = out / "summary.json"
    with open(summary, "w") as fh:
        json.dump({"command": "synthesize", "kind": args.kind, "model": args.model,
                   "objective": sol.objective,
                   "replay_max_deviation": report.max_deviation,
                   "replay_tolerance": report.tolerance,
                   "always_freeflow": report.always_freeflow,
                   "realized": report.realized}, fh, indent=2, sort_keys=True)
    print(f"synthesize: replay deviation {report.max_deviation:.3g} "
          f"(tol {report.tolerance:.3g}), free-flow={report.always_freeflow}")
    files = [alpha_path, summary]
    if controls.routing is not None:
        files.append(routing_path)
    return files


def _run_sweep(sc, grid, model: str, controls, path: Path) -> float:
    """Write the sweep CSV (delta, simulated cost perturbation, combined
    bound, sensitivity bound) and return lam_hat."""
    lam_hat, points = robustness.sweep(sc, grid, controls=controls, model=model)
    with open(path, "w") as fh:
        fh.write("delta_lambda_veh_per_step,simulated_cost_perturbation_veh_steps,"
                 "combined_bound_veh_steps,model,sensitivity_bound_veh_steps\n")
        for p in points:
            fh.write(f"{p.delta:.12g},{p.cost_perturbation:.12g},{p.combined.sum():.12g},"
                     f"{model},{p.sensitivity.sum():.12g}\n")
    return lam_hat


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
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"sweep_{args.model}.csv"
    lam_hat = _run_sweep(sc, grid, args.model, controls, path)
    print(f"robustness-sweep: {len(grid)} points, lam_hat = {lam_hat:.4f} "
          f"(delta {lam_hat - sc.inflow[0].max():.4f})")
    return [path]


def reproduce_paper(outdir: Path) -> list:
    """Reproduce the benchmark tables and figure data sets."""
    outdir.mkdir(parents=True, exist_ok=True)
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
    tables = outdir / "tables2_3.csv"
    with open(tables, "w") as fh:
        fh.write("scheme,cost_kind,cost_veh_steps\n")
        for (scheme, cost_name), value in sorted(results.items()):
            fh.write(f"{scheme},{cost_name},{value:.12g}\n")
    files.append(tables)

    for fig, cost_name in (("fig6", "TTT"), ("fig7", "Quadratic")):
        path = outdir / f"{fig}_trajectories.csv"
        with open(path, "w") as fh:
            fh.write("step,scheme,cell,x_veh\n")
            for scheme in ("FIFO", "DTA", "FNC"):
                states = states_by[(scheme, cost_name)]
                for t in range(sc.horizon + 1):
                    for cid in ("1", "2", "3", "4"):
                        fh.write(f"{t},{scheme},{cid},{states[t, sc.network.index[cid]]:.12g}\n")
        files.append(path)

    # robustness sweeps, T = 200
    rb_sc = scenarios.robustness_scenario()
    save_scenario(rb_sc, outdir / "scenario_robustness.json")
    files.append(outdir / "scenario_robustness.json")
    prog200, sol200 = _solve_program(rb_sc, "fnc", CostSpec("TTT"), 0.0)
    controls200 = synthesis.extract_controls(prog200, sol200)
    grid = _sweep_grid("0:0.1:3")
    for fig, model in (("fig8", "fifo"), ("fig9", "nonfifo")):
        path = outdir / f"{fig}_sweep_{model}.csv"
        _run_sweep(rb_sc, grid, model, controls200, path)
        files.append(path)

    # epsilon tradeoff on the short scenario
    fig10 = outdir / "fig10_epsilon_tradeoff.csv"
    with open(fig10, "w") as fh:
        fh.write("epsilon,delta_lambda_veh_per_step,cost_veh_steps,congestion_factor\n")
        for eps in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
            prog, sol = fnc_ttt if eps == 0.0 else _solve_program(sc, "fnc", CostSpec("TTT"), eps)
            controls = synthesis.extract_controls(prog, sol)
            deltas = _sweep_grid("0:0.1:3")
            runs = robustness.simulate_perturbed(
                sc, [robustness.PerturbationSpec.inflow_shift(sc, float(d)) for d in deltas],
                controls=controls, model="fifo")
            for b, d in enumerate(deltas):
                cost = float(runs.states[b].sum())
                fh.write(f"{eps:.1f},{d:.12g},{cost:.12g},{runs[b].min_gamma():.12g}\n")
    files.append(fig10)
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
    handlers = {
        "simulate": cmd_simulate,
        "solve": cmd_solve,
        "synthesize": cmd_synthesize,
        "robustness-sweep": cmd_robustness_sweep,
        "reproduce-paper": cmd_reproduce,
    }
    try:
        files = handlers[args.command](args)
        _write_manifest(Path(args.out), [Path(f) for f in files])
        return 0
    except ConfigError as e:
        json.dump({"error": "config", "message": str(e)}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except SolverError as e:
        json.dump({"error": "solver", "message": str(e)}, sys.stderr)
        sys.stderr.write("\n")
        return 3
    except InvariantError as e:
        json.dump({"error": "invariant", "message": str(e)}, sys.stderr)
        sys.stderr.write("\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
