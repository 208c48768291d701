"""Self-test of the benchmark checks.

    python3 bench/selftest.py

Runs the control and sweep workloads at a tiny size and one
reproduce-paper, checks that the good outputs pass, then corrupts one
result at a time and checks that the check meant for it rejects it. Exits
non-zero on the first surprise. Takes about half a minute, most of it the
reproduce-paper call.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import sys
from pathlib import Path

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import workload  # noqa: E402
from checks import CheckError  # noqa: E402

import ctmflow.cli as cli  # noqa: E402

# T = 8: a two-step burst into a cell-4 closure. Its quad designs hit the
# near-zero QP flow fault (bench/README.md), so the QP checks run on the
# T = 25 table scenario instead.
TINY_CONTROL = inputs.scenario_doc(8, [6.0, 6.0] + [0.0] * 6,
                                   {"4": [6.0, 6.0, 6.0, 0.0, 0.0, 6.0, 6.0, 6.0]},
                                   "tiny control scenario")


class TinyControl(workload.Control):
    DESIGNS = (("tiny", "synthesize", "dta", "ttt", "fifo"),
               ("tiny", "solve", "fnc", "ttt", None),
               ("table", "synthesize", "dta", "quad", "nonfifo"),
               ("table", "synthesize", "fnc", "quad", "fifo"))

    def __init__(self, work):
        workload.Workload.__init__(self, work)
        self.add_input("tiny", TINY_CONTROL)
        self.add_input("table", inputs.table_doc())


class TinySweep(workload.Sweep):
    GRID, POINTS = "0:0.5:3", 7

    def __init__(self, work):
        workload.Workload.__init__(self, work)
        self.add_input("sweep00", inputs.sweep_doc(random.Random(0), horizon=90))


def redigest(outdir: Path) -> None:
    """Rewrite the manifest so a corrupted artifact passes the digest check."""
    path = outdir / "manifest.json"
    manifest = json.loads(path.read_text())
    for name in manifest:
        manifest[name] = hashlib.sha256((outdir / name).read_bytes()).hexdigest()
    path.write_text(json.dumps(manifest))


def edit_csv(path: Path, column: str, change, where=lambda row: True) -> None:
    rows = checks.read_rows(path)
    for row in rows:
        if where(row):
            row[column] = repr(change(float(row[column]), row))
    with open(path, "w") as fh:
        fh.write(",".join(rows[0]) + "\n")
        for row in rows:
            fh.write(",".join(row.values()) + "\n")


def expect_reject(name: str, fn, needle: str) -> None:
    try:
        fn()
    except CheckError as e:
        if needle not in str(e):
            sys.exit(f"FAIL {name}: rejected for another reason: {e}")
        print(f"ok   {name}: {e}")
        return
    sys.exit(f"FAIL {name}: corrupted result passed")


def copy_op(op: workload.Op, tag: str) -> workload.Op:
    out = op.out.with_name(op.out.name + tag)
    shutil.copytree(op.out, out)
    return workload.Op(op.label, op.argv, out, dict(op.meta), op.seconds, op.rc,
                       op.stdout, op.failed)


def run(wl, tag="r0"):
    ops = workload.run_round(cli, wl, 0, tag)
    for op in ops:
        wl.judge(op)
    failed = [op.label for op in ops if op.failed]
    if failed:
        sys.exit(f"FAIL {type(wl).__name__}: operations failed: {failed}")
    wl.check(ops)
    print(f"ok   {type(wl).__name__}: {len(ops)} operations pass every check")
    return ops


def control(work: Path) -> None:
    wl = TinyControl(work)
    ops = run(wl)
    lp, qp = ops[0], ops[3]

    def corrupt_objective(op, factor):
        bad = copy_op(op, "-obj")
        bad.meta["objective"] *= factor
        return lambda: wl.check_op(bad)

    expect_reject("LP optimum off HiGHS", corrupt_objective(lp, 1.001), "HiGHS")
    expect_reject("QP optimum off its re-solve", corrupt_objective(qp, 1.001), "re-solve")

    prog_q = wl.program("table", "fnc", "quad")
    _, vertex = checks.highs_optimum(wl.program("table", "fnc", "ttt"))
    expect_reject("QP certificate at a feasible non-optimal point",
                  lambda: checks.check_qp_point(prog_q, vertex, prog_q.objective_value(vertex),
                                                "table fnc quad"), "Frank-Wolfe")

    bad = copy_op(lp, "-alpha")
    edit_csv(bad.out / "controls_alpha.csv", "alpha", lambda a, row: 0.5 * a)
    redigest(bad.out)
    expect_reject("controls that do not replay the optimum", lambda: wl.check_op(bad),
                  "replay")

    bad = copy_op(ops[1], "-states")
    edit_csv(bad.out / "optimal_states.csv", "x_veh", lambda x, row: x + 0.5,
             lambda row: row["step"] == "3")
    redigest(bad.out)
    expect_reject("written states that do not cost the optimum", lambda: wl.check_op(bad),
                  "written states")

    bad = copy_op(lp, "-digest")
    (bad.out / "summary.json").write_text("{}")
    expect_reject("artifact changed after the manifest", lambda: wl.check_op(bad), "digest")

    best = {(op.meta["key"], op.meta["cost"], op.meta["kind"]): op.meta["objective"]
            for op in ops}
    fifo = wl.fifo_cost("tiny", "ttt")
    expect_reject("DTA above FNC", lambda: wl.check_order(
        {**best, ("tiny", "ttt", "dta"): best[("tiny", "ttt", "fnc")] + 1.0}), "DTA")
    expect_reject("FNC above FIFO", lambda: wl.check_order(
        {("tiny", "ttt", "fnc"): fifo + 1.0}), "FIFO")
    table_fifo = wl.fifo_cost("table", "ttt")
    expect_reject("table FNC ttt below the FIFO cost", lambda: wl.check_order(
        {("table", "ttt", "fnc"): table_fifo - 1.0}), "FNC ttt optimum")


def sweep(work: Path) -> None:
    wl = TinySweep(work)
    ops = run(wl)
    fifo = ops[0]
    column = {"sim": "simulated_cost_perturbation_veh_steps",
              "bound": "combined_bound_veh_steps", "sens": "sensitivity_bound_veh_steps"}

    def corrupt(col, change, name):
        bad = copy_op(fifo, name)
        edit_csv(bad.out / "sweep_fifo.csv", col, change, moving)
        redigest(bad.out)
        return lambda: wl.check([bad])

    moving = lambda row: float(row[column["sim"]]) > 0  # noqa: E731
    expect_reject("combined bound scaled below the simulation",
                  corrupt(column["bound"], lambda v, row: 0.99 * float(row[column["sim"]]),
                          "-bound"), "above the combined bound")
    expect_reject("sensitivity bound below the combined bound",
                  corrupt(column["sens"], lambda v, row: 0.99 * float(row[column["bound"]]),
                          "-sens"), "sensitivity bound")

    def lam_shift(delta, name):
        bad = copy_op(fifo, name)
        lam = float(workload.LAM_HAT.search(bad.stdout).group(1))
        bad.stdout = bad.stdout.replace(f"lam_hat = {lam:.4f}", f"lam_hat = {lam + delta:.4f}")
        return bad

    expect_reject("lam_hat above the free-flow supremum",
                  lambda: wl.check([lam_shift(0.01, "-up")]), "congested at lam_hat")
    expect_reject("lam_hat below the free-flow supremum",
                  lambda: wl.check([lam_shift(-0.01, "-down")]), "still free-flow")
    lam_hat = [wl.check_op(op) for op in ops]
    expect_reject("FIFO and non-FIFO lam_hat disagree",
                  lambda: wl.check_agreement({"sweep00": [lam_hat[0], lam_hat[1] + 0.01]}),
                  "disagree")


def paper(work: Path) -> None:
    wl = workload.Paper(0, work)
    (op,) = run(wl)

    def corrupt(name, path, col, change, where):
        bad = copy_op(op, name)
        edit_csv(bad.out / path, col, change, where)
        redigest(bad.out)
        return lambda: wl.check([bad])

    expect_reject("paper DTA TTT optimum off HiGHS",
                  corrupt("-dta", "tables2_3.csv", "cost_veh_steps", lambda v, r: v + 0.5,
                          lambda r: (r["scheme"], r["cost_kind"]) == ("DTA", "TTT")), "dta TTT")
    expect_reject("paper FNC quadratic optimum off its re-solve",
                  corrupt("-fncq", "tables2_3.csv", "cost_veh_steps", lambda v, r: v * 0.999,
                          lambda r: (r["scheme"], r["cost_kind"]) == ("FNC", "Quadratic")),
                  "fnc Quadratic")
    expect_reject("paper sweep bound below the simulation",
                  corrupt("-fig9", "fig9_sweep_nonfifo.csv", "combined_bound_veh_steps",
                          lambda v, r: 0.99 * float(r["simulated_cost_perturbation_veh_steps"]),
                          lambda r: float(r["simulated_cost_perturbation_veh_steps"]) > 0),
                  "above the combined bound")
    expect_reject("paper epsilon trade-off off the HiGHS optimum",
                  corrupt("-fig10", "fig10_epsilon_tradeoff.csv", "cost_veh_steps",
                          lambda v, r: v + 1.0, lambda r: r["epsilon"] == "0.3"), "fig10")


def main() -> int:
    root = BENCH.parent / ".bench_out" / f"selftest-{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    try:
        for name, fn in (("control", control), ("sweep", sweep), ("paper", paper)):
            (root / name).mkdir(parents=True)
            fn(root / name)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
