"""One benchmark workload in one process: set-up, timed rounds, checks.

Started by ``bench/run.py`` with OpenBLAS/OpenMP pinned to one thread;
not meant to be run by hand except with ``--probe`` (set-up only).

A round is a fixed list of CLI calls (operations), run in-process through
``ctmflow.cli.main``. The timed part runs whole rounds until the next one
would end after ``--seconds``; it runs at least one. Outputs are checked
after the timed part. With ``--trace 1`` the process runs one untimed
round, then the same round again under the tracer, and reports per-layer
metrics instead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import re
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs
from checks import CheckError, require

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

POOL = 16            # generated scenarios per run; rounds cycle through them
BISECT_WIDTH = 1e-3  # robustness.BISECT_WIDTH, the CLI's bisection width
LAM_HAT = re.compile(r"lam_hat = ([0-9.]+)")


@dataclass
class Op:
    label: str
    argv: list
    out: Path
    meta: dict = field(default_factory=dict)
    seconds: float = 0.0
    rc: int = -1
    stdout: str = ""
    failed: bool = False


def run_op(cli, op: Op) -> None:
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        op.rc = cli.main(op.argv)
    op.seconds = time.perf_counter() - t0
    op.stdout = buf.getvalue()


# ---------------------------------------------------------------------------
# workloads


class Workload:
    def __init__(self, work: Path):
        self.work = work
        self.paths: dict[str, Path] = {}
        self.docs: dict[str, dict] = {}
        self._cache: dict = {}

    def add_input(self, key: str, doc: dict) -> None:
        self.docs[key] = doc
        self.paths[key] = inputs.write(doc, self.work / f"{key}.json")

    def warmup(self, cli) -> None:
        key = next(iter(self.paths))
        run_op(cli, Op("warmup", ["simulate", "--scenario", str(self.paths[key]),
                                  "--out", str(self.work / "warmup")], self.work))

    def judge(self, op: Op) -> None:
        op.failed = op.rc != 0

    def cached(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def program(self, key: str, kind: str, cost: str, eps: float = 0.0):
        from ctmflow import program
        from ctmflow.ctm import CostSpec
        from ctmflow.network import load_scenario

        sc = load_scenario(self.paths[key])
        build = program.build_dta if kind == "dta" else program.build_fnc
        spec = CostSpec("QuadraticVolume" if cost == "quad" else "TTT")
        return build(sc, spec, eps)

    def lp_optimum(self, key: str, kind: str, eps: float = 0.0) -> float:
        return self.cached(("lp", key, kind, eps), lambda: checks.highs_optimum(
            self.program(key, kind, "ttt", eps))[0])

    def qp_optimum(self, key: str, kind: str, label: str) -> float:
        """Re-solve the QP with the program's solver and certify it."""
        def compute():
            from ctmflow import solver
            prog = self.program(key, kind, "quad")
            sol = solver.solve(prog)
            checks.check_qp_point(prog, sol.values, sol.objective, label)
            return sol.objective
        return self.cached(("qp", key, kind), compute)

    def fifo_cost(self, key: str, cost: str) -> float:
        return self.cached(("fifo", key, cost), lambda: checks.cost_of(
            checks.RefCTM(self.docs[key]).simulate("fifo")[0], cost))


class Control(Workload):
    """``ctmflow synthesize`` over DTA/FNC x ttt/quad x FIFO/non-FIFO on fixed
    inputs, and ``ctmflow solve`` (LP) on seeded ones."""

    # (input, command, kind, cost, replay model). table is the bundled table
    # scenario, fault the same with burst 10/10/10; gen0/gen1 are the
    # round's two seeded scenarios. synthesize runs only on the fixed
    # inputs: on seeded ones its replay fails on some seeds (solver noise,
    # see bench/README.md), which would make the failure count seed-dependent.
    DESIGNS = (
        ("table", "synthesize", "dta", "ttt", "fifo"),
        ("table", "synthesize", "fnc", "ttt", "nonfifo"),
        ("table", "synthesize", "dta", "quad", "fifo"),
        ("table", "synthesize", "fnc", "quad", "nonfifo"),
        ("fault", "synthesize", "dta", "ttt", "nonfifo"),
        ("fault", "synthesize", "fnc", "ttt", "fifo"),
        ("fault", "synthesize", "dta", "quad", "nonfifo"),
        ("fault", "synthesize", "fnc", "quad", "fifo"),
        ("gen0", "solve", "dta", "ttt", None), ("gen0", "solve", "fnc", "ttt", None),
        ("gen1", "solve", "dta", "ttt", None), ("gen1", "solve", "fnc", "ttt", None),
    )

    def __init__(self, seed, work):
        super().__init__(work)
        self.add_input("table", inputs.table_doc())
        self.add_input("fault", inputs.table_doc(inputs.FAULT_BURST))
        rng = random.Random(seed)
        for k in range(POOL):
            self.add_input(f"gen{k:02d}", inputs.control_doc(rng))

    def round_ops(self, r: int, tag: str) -> list:
        ops = []
        for k, (src, command, kind, cost, model) in enumerate(self.DESIGNS):
            key = src if src in self.paths else f"gen{(2 * r + int(src[-1])) % POOL:02d}"
            out = self.work / tag / f"op{k}"
            argv = [command, "--scenario", str(self.paths[key]), "--kind", kind,
                    "--cost", cost, "--out", str(out)]
            if model:
                argv += ["--model", model]
            ops.append(Op(f"{src}/{command}/{kind}/{cost}/{model or '-'}", argv, out,
                          {"key": key, "command": command, "kind": kind, "cost": cost,
                           "model": model}))
        return ops

    def judge(self, op: Op) -> None:
        if op.rc != 0:
            op.failed = True
            return
        summary = json.loads((op.out / "summary.json").read_text())
        op.meta["objective"] = summary["objective"]
        op.failed = op.meta["command"] == "synthesize" and not (
            summary["realized"] and summary["always_freeflow"])

    def check(self, ops: list) -> None:
        best = {}
        for op in ops:
            if not op.failed:
                self.check_op(op)
                m = op.meta
                best[(m["key"], m["cost"], m["kind"])] = m["objective"]
        self.check_order(best)

    def check_op(self, op: Op) -> None:
        """Optimality against HiGHS, then the states: replayed from the
        written controls (synthesize) or as written (solve)."""
        m = op.meta
        key, kind, cost, obj = m["key"], m["kind"], m["cost"], m["objective"]
        label = f"{op.label} {key}"
        checks.check_manifest(op.out)
        if cost == "ttt":
            exact = self.lp_optimum(key, kind)
            require(checks.close(obj, exact, checks.OBJ_RTOL),
                    f"{label}: LP optimum {obj:.10g}, HiGHS {exact:.10g}")
        else:
            again = self.qp_optimum(key, kind, label)
            require(checks.close(obj, again, checks.CSV_RTOL),
                    f"{label}: QP optimum {obj:.10g} differs from a certified re-solve "
                    f"{again:.10g}")
        ref = checks.RefCTM(self.docs[key])
        if m["command"] == "solve":
            states = checks.read_states(op.out / "optimal_states.csv", ref)
            what = "cost of the written states"
        else:
            alphas, routing = checks.read_controls(op.out, ref)
            states, _, unserved = ref.simulate(m["model"], alphas, routing)
            require(unserved <= checks.UNSERVED_TOL,
                    f"{label}: replay leaves {unserved:.3g} veh/step unserved")
            what = "replayed cost"
        value = checks.cost_of(states, cost)
        require(checks.close(value, obj, checks.OBJ_RTOL),
                f"{label}: {what} {value:.10g} != optimum {obj:.10g}")

    def check_order(self, best: dict) -> None:
        """DTA <= FNC <= uncontrolled FIFO; FNC ttt = FIFO on the table."""
        for (key, cost, kind), fnc in best.items():
            if kind != "fnc":
                continue
            fifo = self.fifo_cost(key, cost)
            tol = checks.OBJ_RTOL * (1.0 + abs(fifo))
            require(fnc <= fifo + tol, f"{key} {cost}: FNC {fnc:.10g} above FIFO {fifo:.10g}")
            dta = best.get((key, cost, "dta"))
            require(dta is None or dta <= fnc + tol,
                    f"{key} {cost}: DTA {dta} above FNC {fnc:.10g}")
            if key == "table" and cost == "ttt":
                require(checks.close(fnc, fifo, checks.OBJ_RTOL),
                        f"table: FNC ttt optimum {fnc:.10g} != FIFO cost {fifo:.10g}")


class Sweep(Workload):
    """``ctmflow robustness-sweep`` at T = 200, alternating FIFO / non-FIFO."""

    GRID, POINTS = "0:0.1:3", 31

    def __init__(self, seed, work):
        super().__init__(work)
        rng = random.Random(seed)
        for k in range(POOL // 2):
            self.add_input(f"sweep{k:02d}", inputs.sweep_doc(rng))

    def round_ops(self, r: int, tag: str) -> list:
        key = f"sweep{r % (POOL // 2):02d}"
        ops = []
        for k, model in enumerate(("fifo", "nonfifo")):
            out = self.work / tag / f"op{k}"
            ops.append(Op(f"{key}/{model}",
                          ["robustness-sweep", "--scenario", str(self.paths[key]),
                           "--sweep", self.GRID, "--model", model, "--jobs", "1",
                           "--out", str(out)], out, {"key": key, "model": model}))
        return ops

    def check(self, ops: list) -> None:
        lam = {}
        for op in ops:
            if not op.failed:
                lam.setdefault(op.meta["key"], []).append(self.check_op(op))
        self.check_agreement(lam)

    def check_op(self, op: Op) -> float:
        """Bound ordering at every point and the printed lam_hat; returns it."""
        checks.check_manifest(op.out)
        rows = checks.read_rows(op.out / f"sweep_{op.meta['model']}.csv")
        require(len(rows) == self.POINTS,
                f"{op.label}: {len(rows)} sweep points, expected {self.POINTS}")
        checks.check_sweep_rows(rows, op.label)
        found = LAM_HAT.search(op.stdout)
        require(found is not None, f"{op.label}: no lam_hat in the output")
        lam_hat = float(found.group(1))
        key = op.meta["key"]
        self.cached(("lam", key, lam_hat), lambda: checks.check_freeflow_supremum(
            checks.RefCTM(self.docs[key]), lam_hat, BISECT_WIDTH, 4, op.label))
        return lam_hat

    @staticmethod
    def check_agreement(lam: dict) -> None:
        """The free-flow supremum does not depend on the junction model."""
        for key, values in lam.items():
            require(max(values) - min(values) <= BISECT_WIDTH,
                    f"{key}: FIFO and non-FIFO lam_hat disagree: {values}")


class Paper(Workload):
    """``ctmflow reproduce-paper``; it takes no inputs, so the seed is unused."""

    def __init__(self, seed, work):
        super().__init__(work)
        self.add_input("table", inputs.table_doc())

    def round_ops(self, r: int, tag: str) -> list:
        out = self.work / tag / "paper"
        return [Op("reproduce-paper", ["reproduce-paper", "--out", str(out), "--jobs", "1"],
                   out)]

    def check(self, ops: list) -> None:
        for op in ops:
            if not op.failed:
                self.check_paper(op.out)

    def check_paper(self, out: Path) -> None:
        checks.check_manifest(out)
        table = {(r["scheme"], r["cost_kind"]): float(r["cost_veh_steps"])
                 for r in checks.read_rows(out / "tables2_3.csv")}
        for cost_kind, cost in (("TTT", "ttt"), ("Quadratic", "quad")):
            fifo = self.fifo_cost("table", cost)
            require(checks.close(table[("FIFO", cost_kind)], fifo, checks.CSV_RTOL),
                    f"paper: FIFO {cost_kind} {table[('FIFO', cost_kind)]} != {fifo:.12g}")
            for kind in ("dta", "fnc"):
                value = table[(kind.upper(), cost_kind)]
                exact = (self.lp_optimum("table", kind) if cost == "ttt"
                         else self.qp_optimum("table", kind, f"paper {kind} quad"))
                require(checks.close(value, exact, checks.CSV_RTOL if cost == "quad"
                                     else checks.OBJ_RTOL),
                        f"paper: {kind} {cost_kind} {value:.12g}, expected {exact:.12g}")
            tol = checks.OBJ_RTOL * (1.0 + abs(fifo))
            dta, fnc = table[("DTA", cost_kind)], table[("FNC", cost_kind)]
            require(dta <= fnc + tol and fnc <= fifo + tol,
                    f"paper {cost_kind}: DTA {dta} <= FNC {fnc} <= FIFO {fifo} fails")
        require(checks.close(table[("FNC", "TTT")], table[("FIFO", "TTT")], checks.OBJ_RTOL),
                "paper: FNC TTT optimum differs from the FIFO cost")
        for fig, model in (("fig8", "fifo"), ("fig9", "nonfifo")):
            rows = checks.read_rows(out / f"{fig}_sweep_{model}.csv")
            require(len(rows) == Sweep.POINTS,
                    f"paper {fig}: {len(rows)} points, expected {Sweep.POINTS}")
            checks.check_sweep_rows(rows, f"paper {fig}")
        eps_rows = [r for r in checks.read_rows(out / "fig10_epsilon_tradeoff.csv")
                    if float(r["delta_lambda_veh_per_step"]) == 0.0]
        require(len(eps_rows) == 6, f"paper fig10: {len(eps_rows)} nominal rows, expected 6")
        for r in eps_rows:
            eps = float(r["epsilon"])
            exact = self.lp_optimum("table", "fnc", eps)
            require(checks.close(float(r["cost_veh_steps"]), exact, checks.OBJ_RTOL),
                    f"paper fig10: nominal cost {r['cost_veh_steps']} at epsilon {eps}, "
                    f"HiGHS FNC optimum {exact:.12g}")


WORKLOADS = {"paper": Paper, "control": Control, "sweep": Sweep}


# ---------------------------------------------------------------------------
# process


def run_round(cli, wl: Workload, r: int, tag: str) -> list:
    ops = wl.round_ops(r, tag)
    for op in ops:
        run_op(cli, op)
    return ops


def timed(cli, wl: Workload, seconds: float):
    """Whole rounds until the next would end after ``seconds``. Also returns
    the peak RSS in MB through the first round: what one CLI call per
    process peaks at, whatever the number of rounds."""
    ops, rounds = [], 0
    t0 = time.perf_counter()
    while True:
        ops += run_round(cli, wl, rounds, f"r{rounds}")
        rounds += 1
        wall = time.perf_counter() - t0
        if rounds == 1:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if wall + wall / rounds > seconds:
            return ops, rounds, wall, rss_mb


def traced(cli, wl: Workload, trace_path: Path):
    import tracing

    t0 = time.perf_counter()
    ops = run_round(cli, wl, 0, "plain")
    plain = time.perf_counter() - t0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        ops += run_round(cli, wl, 0, "traced")   # cli.main is wrapped now
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(wall)
    metrics["trace.overhead_s"] = wall - plain
    metrics["cli.artifact_bytes"] = sum(
        f.stat().st_size for f in (wl.work / "traced").rglob("*") if f.is_file())
    tracer.dump(trace_path)
    return ops, metrics


LAYER_UNITS = {"_s": "s", "us_per_step": "us", "artifact_bytes": "bytes"}


def unit_of(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() of the parent just before it started this process")
    p.add_argument("--probe", action="store_true", help="set up, print setup_s, exit")
    args = p.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import ctmflow.cli as cli
    require(Path(cli.__file__).resolve().is_relative_to(ROOT / "src"),
            f"imported ctmflow from {cli.__file__}, not from {ROOT / 'src'}")
    work = OUT / f"{args.workload}-{'probe-' if args.probe else ''}{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
        wl.warmup(cli)
        setup_s = time.monotonic() - args.spawned_at
        if args.probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            ops, layer = traced(cli, wl, OUT / f"trace-{args.workload}-{args.seed}.json")
            metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(layer.items())}
        else:
            ops, rounds, wall, rss_mb = timed(cli, wl, args.seconds)
        for op in ops:
            wl.judge(op)
        correct, reason = True, ""
        try:
            wl.check(ops)
        except CheckError as e:
            correct, reason = False, str(e)
        if not args.trace:
            good = [op.seconds for op in ops if not op.failed] or [op.seconds for op in ops]
            metrics = {
                "wall_s": {"value": wall / rounds, "unit": "s"},
                "op_p50_s": {"value": statistics.median(good), "unit": "s"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            }
        failed = [op.label for op in ops if op.failed]
        print(json.dumps({"ops": len(ops), "failed_ops": sorted(set(failed)),
                          "reason": reason}), file=sys.stderr)
        print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failed),
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
