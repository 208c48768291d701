"""Spans around the calls into each ctmflow module, from outside the program.

``Tracer.install`` replaces every public function of the traced modules by
a wrapper, at its defining module and at every module that imported it by
name (``robustness`` and ``synthesis`` import ``simulate``; ``cli``
imports ``solve``), so calls between layers are recorded too. Each call
records one span (name, parent span, start, end) in memory; nothing is
written until ``dump``. ``uninstall`` puts the originals back.

The scalar fundamental-diagram helpers ``network.demand`` and
``network.supply`` run once per cell per step inside the CTM loops; they
are left unwrapped, so their time counts as CTM self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from collections import Counter, defaultdict

LAYERS = ("network", "scenarios", "ctm", "program", "solver", "synthesis",
          "robustness", "cli")
UNWRAPPED = {"network.demand", "network.supply"}
SOLVES = {"solver.solve", "solver.solve_max_outflow"}
BUILDS = {"program.build_dta", "program.build_fnc"}


def _info(name, args, out):
    if name in SOLVES:
        return ["qp" if args[0].is_quadratic else "lp", int(out.iterations)]
    if name in BUILDS:
        return [int(out.A_eq.nnz + out.A_ub.nnz)]
    return None


class Tracer:
    """Spans in flat arrays (no per-span objects for the garbage collector
    to walk): function id, parent span, start and end times, plus
    ``info`` for solver and builder calls."""

    def __init__(self):
        self.names: list[str] = []
        self.func = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.info: dict[int, list] = {}
        self._stack = [-1]
        self._patched: list = []

    def _wrap(self, fn, name):
        fid = len(self.names)
        self.names.append(name)
        func, parent, start, end = self.func, self.parent, self.start, self.end
        info, stack, clock = self.info, self._stack, time.perf_counter
        want_info = name in SOLVES or name in BUILDS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            k = len(start)
            func.append(fid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(k)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[k] = clock()
                stack.pop()
            if want_info:
                info[k] = _info(name, args, out)
            return out

        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"ctmflow.{layer}") for layer in LAYERS}
        modules["__init__"] = importlib.import_module("ctmflow")
        wrappers = {}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or attr.startswith("_"):
                    continue
                home = obj.__module__.rpartition(".")[2]
                name = f"{home}.{obj.__name__}"
                if home not in LAYERS or obj.__name__.startswith("_") or name in UNWRAPPED:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, name)
                self._patched.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def spans(self) -> list:
        """[name, parent, start, end, info] per span, in call order."""
        return [[self.names[f], p, a, b, self.info.get(k)]
                for k, (f, p, a, b) in enumerate(zip(self.func, self.parent,
                                                     self.start, self.end))]

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "parent", "start", "end", "info"],
                       "spans": self.spans()}, fh)

    def layer_metrics(self, wall: float) -> dict:
        """Per-layer counts and self times over the recorded spans.

        A span's self time is its duration minus its direct children's;
        the benchmark's own time is ``wall`` minus the root spans, so the
        self times of all layers plus ``trace.bench_self_s`` add up to
        ``wall``.
        """
        spans = self.spans()
        child = [0.0] * len(spans)
        for s in spans:
            if s[1] >= 0:
                child[s[1]] += s[3] - s[2]
        layer = [s[0].partition(".")[0] for s in spans]
        self_s = defaultdict(float)
        calls = Counter()
        names = Counter()
        solver_kind = [None] * len(spans)
        m = defaultdict(float)
        for k, s in enumerate(spans):
            name, parent = s[0], s[1]
            names[name] += 1
            own = (s[3] - s[2]) - child[k]
            lay = layer[k]
            if parent < 0 or layer[parent] != lay:
                calls[lay] += 1
            if lay == "solver":
                if name in SOLVES and (parent < 0 or solver_kind[parent] is None):
                    solver_kind[k] = s[4][0]
                    m[f"solver.{s[4][0]}_calls"] += 1
                    m[f"solver.{s[4][0]}_iterations"] += s[4][1]
                elif parent >= 0 and layer[parent] == "solver":
                    solver_kind[k] = solver_kind[parent]
                self_s[f"solver.{solver_kind[k] or 'other'}"] += own
            else:
                self_s[lay] += own
            if name in BUILDS:
                m["program.nnz"] += s[4][0]
            if name == "ctm.simulate" and _under(spans, k, "robustness.max_freeflow_inflow"):
                m["robustness.bisect_probes"] += 1
        steps = names["ctm.step"]
        roots = sum(s[3] - s[2] for s in spans if s[1] < 0)
        m.update({
            "ctm.calls": calls["ctm"], "ctm.steps": steps,
            "ctm.self_s": self_s["ctm"],
            "ctm.us_per_step": 1e6 * self_s["ctm"] / steps if steps else 0.0,
            "network.calls": calls["network"], "network.self_s": self_s["network"],
            "scenarios.calls": calls["scenarios"], "scenarios.self_s": self_s["scenarios"],
            "program.builds": sum(names[b] for b in BUILDS),
            "program.self_s": self_s["program"],
            "solver.lp_self_s": self_s["solver.lp"], "solver.qp_self_s": self_s["solver.qp"],
            "solver.other_self_s": self_s["solver.other"],
            "synthesis.calls": calls["synthesis"], "synthesis.self_s": self_s["synthesis"],
            "robustness.calls": calls["robustness"], "robustness.self_s": self_s["robustness"],
            "cli.self_s": self_s["cli"],
            "trace.spans": len(spans),
            "trace.wall_s": wall,
            "trace.bench_self_s": wall - roots,
        })
        for key in ("solver.lp_calls", "solver.lp_iterations", "solver.qp_calls",
                    "solver.qp_iterations", "program.nnz", "robustness.bisect_probes"):
            m[key] = int(m[key])
        return dict(m)


def _under(spans, k, name) -> bool:
    p = spans[k][1]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][1]
    return False
