"""CLI commands, exit codes, artifacts, and manifest determinism."""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ctmflow
from ctmflow import ctm, robustness, solver, synthesis
from ctmflow.cli import main
from ctmflow.ctm import InvariantError, simulate
from ctmflow.network import (Scenario, constant_routing, load_scenario, save_scenario,
                             scenario_to_dict)
from ctmflow.scenarios import figure_network, robustness_scenario, routing_for, table_scenario
from ctmflow.synthesis import ControlSchedule

from conftest import build_network, random_scenario


@pytest.fixture()
def zero_inflow_file(tmp_path):
    sc = table_scenario()
    quiet = replace(sc, inflow=np.zeros((sc.horizon, sc.network.n)))
    path = tmp_path / "quiet.json"
    save_scenario(quiet, path)
    return path


class TestExitCodes:
    def test_simulate_zero_inflow_ok(self, tmp_path, zero_inflow_file, capsys):
        rc = main(["simulate", "--scenario", str(zero_inflow_file),
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[1:]
        assert all(row.split(",")[2] == "0" for row in rows)

    def test_missing_scenario_config_error(self, tmp_path):
        rc = main(["simulate", "--scenario", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_fnc_without_routing_config_error(self, tmp_path):
        rng = np.random.default_rng(71)
        sc = random_scenario(rng, horizon=4)
        stripped = replace(sc, routing=None)
        path = tmp_path / "noroute.json"
        save_scenario(stripped, path)
        rc = main(["solve", "--scenario", str(path), "--kind", "fnc",
                   "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_simulate_without_routing_config_error(self, tmp_path, capsys):
        # the simulator needs turning ratios; without them the run used to
        # end as an invariant violation (exit 4)
        sc = table_scenario()
        path = tmp_path / "noroute.json"
        save_scenario(replace(sc, routing=None), path)
        rc = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"

    def test_only_invariant_errors_exit_4(self, tmp_path, monkeypatch, capsys):
        argv = ["simulate", "--scenario", "bundled:table", "--out", str(tmp_path / "out")]

        def broken(net, x, y, z):
            raise InvariantError("cell 1: negative volume -1.0 after step")
        monkeypatch.setattr(ctm, "step", broken)
        assert main(argv) == 4
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "invariant", "message": "step 0: cell 1: negative volume -1.0 "
                                                        "after step"}

        def buggy(net, x, y, z):
            raise ValueError("not an invariant")
        monkeypatch.setattr(ctm, "step", buggy)
        with pytest.raises(ValueError, match="not an invariant"):
            main(argv)

    def test_non_json_scenario_config_error(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("this is not json")
        rc = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_scenario_missing_key_config_error(self, tmp_path):
        path = tmp_path / "notau.json"
        save_scenario(table_scenario(), path)
        doc = json.loads(path.read_text())
        del doc["tau"]
        path.write_text(json.dumps(doc))
        rc = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2

    @pytest.mark.parametrize("edit, named", [
        # these surfaced as KeyError('x0'), KeyError('v'),
        # TypeError("'float' object is not iterable") and a NoneType message
        (lambda doc: doc.pop("x0"), "scenario: missing key 'x0'"),
        (lambda doc: doc["cells"][3].pop("v"), "cell 4: missing key 'v'"),
        (lambda doc: doc["cells"][3].update(capacity=6.0),
         "cell 4: capacity must be a list of numbers, got 6.0"),
        (lambda doc: doc["cells"][3].update(lanes="one"), "cell 4: lanes must be a number"),
        (lambda doc: doc.update(tau=None), "tau must be a number, got None"),
        # a list here ended in an AttributeError traceback (exit 1)
        (lambda doc: doc.update(routing=[1.0]), "routing must be an object, got [1.0]"),
        # these gave "not enough values to unpack", "'int' object is not
        # iterable", and a string split into the ids {"1", "0"}
        (lambda doc: doc["adjacency"].append(["1"]),
         "adjacency must be a list of [from, to] pairs, got ["),
        (lambda doc: doc.update(cells=5), "cells must be a list of cell objects, got 5"),
        (lambda doc: doc.update(sinks="10"), "sinks must be a list of cell ids, got '10'"),
        # these gave "unhashable type: 'list'" (or 'dict'), and an integer
        # id blamed the adjacency pair (1,2)
        (lambda doc: doc.update(sources=[["1"]]), "sources must be a list of cell ids, got [["),
        (lambda doc: doc.update(sinks=[{"a": 1}]), "sinks must be a list of cell ids, got [{"),
        (lambda doc: doc["adjacency"].append([["1"], "2"]),
         "adjacency must be a list of [from, to] pairs, got ["),
        (lambda doc: doc["cells"][0].update(id=["1"]), "cell id must be a string, got ['1']"),
        (lambda doc: doc["cells"][0].update(id=1), "cell id must be a string, got 1"),
        # unknown ids loaded as a valid scenario with another content hash
        (lambda doc: doc.update(sources=["1", "zz"]), "source 'zz' is not a cell of the network"),
        (lambda doc: doc.update(sinks=["10", "99"]), "sink '99' is not a cell of the network"),
        # these reported ten supply-positive violations, or negative slopes
        (lambda doc: doc.update(tau=0), "tau must be positive and finite"),
        (lambda doc: doc.update(tau=-10), "tau must be positive and finite"),
        (lambda doc: doc["cells"][3].update(jam=0), "cell 4: jam volume must be positive"),
    ], ids=["missing-x0", "missing-cell-v", "scalar-capacity", "string-lanes", "null-tau",
            "routing-list", "short-adjacency-pair", "scalar-cells", "string-sinks",
            "list-source-id", "object-sink-id", "list-adjacency-id", "list-cell-id",
            "integer-cell-id", "unknown-source-id", "unknown-sink-id", "zero-tau",
            "negative-tau", "zero-jam"])
    def test_malformed_field_named(self, tmp_path, capsys, edit, named):
        doc = scenario_to_dict(table_scenario())
        edit(doc)
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc))
        rc = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and named in err["message"]

    def test_bad_epsilon_config_error(self, tmp_path):
        rc = main(["solve", "--scenario", "bundled:table", "--epsilon", "1.5",
                   "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_bad_sweep_grid_config_error(self, tmp_path, zero_inflow_file):
        rc = main(["robustness-sweep", "--scenario", str(zero_inflow_file),
                   "--sweep", "junk", "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_negative_inflow_sweep_config_error(self, tmp_path, capsys):
        # a grid that drives the nominal inflow 5 below zero used to end in
        # a ValueError traceback from simulate_batch (exit 1)
        rc = main(["robustness-sweep", "--scenario", "bundled:robustness",
                   "--sweep=-6:1:0", "--out", str(tmp_path / "out")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "config",
                       "message": "sweep start -6 drives the inflow 5 below zero"}

    def test_inflow_longer_than_horizon_config_error(self, tmp_path):
        # five inflow entries past T = 25 used to be cut off without a word
        doc = scenario_to_dict(table_scenario())
        doc["inflow"]["1"] += [99.0] * 5
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc))
        rc = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2

    @pytest.mark.parametrize("entries", [0, 26])
    def test_routing_series_length_config_error(self, tmp_path, capsys, entries):
        # an empty series used to raise IndexError (exit 1); one longer
        # than T = 25 was accepted without a word
        doc = scenario_to_dict(table_scenario())
        doc["routing"]["2->3"] = [2.0 / 3.0] * entries
        path = tmp_path / "routing.json"
        path.write_text(json.dumps(doc))
        rc = main(["solve", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"

    @pytest.mark.parametrize("field, key, value, named", [
        # a routing key on a non-edge used to be accepted (exit 0)
        ("routing", "1->10", [0.0], "is not an edge"),
        # T = 2.7 used to be truncated to 2, and an inflow series was blamed
        ("T", None, 2.7, "T must be a positive integer"),
        # unknown cell ids used to surface as KeyError('99')
        ("inflow", "99", [1.0], "unknown cell '99'"),
        ("routing", "9->99", [1.0], "unknown cell '99'"),
    ], ids=["non-edge", "fractional-T", "unknown-inflow-cell", "unknown-routing-cell"])
    def test_malformed_scenario_config_error(self, tmp_path, capsys, field, key, value, named):
        doc = scenario_to_dict(table_scenario())
        if key is None:
            doc[field] = value
        else:
            doc[field][key] = value
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc))
        rc = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and named in err["message"]

    def test_duplicate_adjacency_pair_config_error(self, tmp_path, capsys):
        # a pair listed twice doubled its flow: simulate exited 0 after
        # creating vehicles
        doc = scenario_to_dict(table_scenario())
        doc["adjacency"].append(["1", "2"])
        path = tmp_path / "duplicate.json"
        path.write_text(json.dumps(doc))
        rc = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and "duplicate adjacency" in err["message"]

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize("field", ["x0", "inflow", "capacity", "jam", "v", "w", "L", "tau",
                                       "ratio"])
    def test_nonfinite_number_config_error(self, tmp_path, capsys, field, value):
        # NaN passed every check (x < 0 and |rowsum - 1| > tol are False
        # for it): simulate wrote a NaN cost, solve exited 3
        doc = scenario_to_dict(table_scenario())
        cell = doc["cells"][3]
        if field == "x0":
            doc["x0"][3] = value
        elif field == "inflow":
            doc["inflow"]["1"][5] = value
        elif field == "capacity":
            cell["capacity"][5] = value
        elif field == "ratio":
            doc["routing"]["3->4"] = [value]
        elif field == "tau":
            doc["tau"] = value
        else:
            cell[field] = value
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(doc))
        for argv in (["simulate"], ["solve", "--kind", "fnc"]):
            rc = main(argv + ["--scenario", str(path), "--out", str(tmp_path / "out")])
            assert rc == 2
            assert json.loads(capsys.readouterr().err)["error"] == "config"

    def test_sweep_two_sources_config_error(self, tmp_path, capsys):
        net, ratios = build_network("cross", np.random.default_rng(3), slopes=0.5)
        lam = np.zeros((6, net.n))
        lam[:, [net.index["s"], net.index["u"]]] = 0.5
        path = tmp_path / "cross.json"
        save_scenario(Scenario(network=net, x0=np.zeros(net.n), inflow=lam,
                               routing=constant_routing(net, ratios)), path)
        rc = main(["robustness-sweep", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"

    def test_sweep_rejects_unread_kind_option(self, tmp_path):
        # each command registers only the options it reads; the sweep
        # always solves FNC, so --kind is a usage error
        with pytest.raises(SystemExit) as exc:
            main(["robustness-sweep", "--scenario", "bundled:robustness", "--kind", "dta",
                  "--out", str(tmp_path / "out")])
        assert exc.value.code == 2

    def test_sweep_varying_inflow_config_error(self, tmp_path, capsys):
        rc = main(["robustness-sweep", "--scenario", "bundled:table",
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"


class TestArtifacts:
    def test_solve_writes_lp_and_manifest(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["solve", "--scenario", "bundled:table", "--kind", "dta",
                   "--cost", "ttt", "--out", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert any(name.endswith(".lp") for name in manifest)
        assert all(len(digest) == 64 for digest in manifest.values())
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "optimal"

    def test_synthesize_round_trip(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["synthesize", "--scenario", "bundled:table", "--kind", "dta",
                   "--cost", "ttt", "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["realized"] is True
        assert summary["replay_max_deviation"] <= summary["replay_tolerance"]

    def test_simulate_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["simulate", "--scenario", "bundled:table",
                         "--out", str(out)]) == 0
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
        assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()

    def test_csv_headers_name_units(self, tmp_path):
        out = tmp_path / "out"
        main(["simulate", "--scenario", "bundled:table", "--out", str(out)])
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert "veh" in header


class TestImports:
    """No command imports scipy.sparse, scipy.sparse.linalg or scipy.optimize:
    the programs' matrices are numpy triplets, and the solver loads HiGHS's
    binding and SuperLU's compiled extension alone."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--scenario", "bundled:table"],
        ["solve", "--scenario", "bundled:table", "--cost", "ttt"],
        ["solve", "--scenario", "bundled:table", "--cost", "quad"],
        ["synthesize", "--scenario", "bundled:table", "--kind", "dta"],
        ["robustness-sweep", "--scenario", "bundled:robustness", "--sweep", "0:0.5:1"],
        ["reproduce-paper"],
    ], ids=["simulate", "solve-ttt", "solve-quad", "synthesize", "robustness-sweep",
            "reproduce-paper"])
    def test_command_leaves_scipy_packages_unloaded(self, tmp_path, argv):
        code = ("import sys\nfrom ctmflow.cli import main\n"
                f"rc = main({argv + ['--out', str(tmp_path)]!r})\n"
                "print(rc, *(name in sys.modules for name in "
                "('scipy.sparse', 'scipy.sparse.linalg', 'scipy.optimize')))")
        src = str(Path(ctmflow.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=120)
        assert run.stdout.splitlines()[-1] == "0 False False False", run.stdout + run.stderr


# sha256 of the reproduce-paper artifacts that the LP vertex choice does not
# move; fig6 and fig10 depend on it and are left out
PINNED = {
    "tables2_3.csv": "a83fd772e1ef8c3891be3c2959f864c86c7872ca7defdb2be7ab9bf5d05da67a",
    "fig7_trajectories.csv": "d5d5cda1431e05bc810a4df95087134cff6c0c16d13e4f8c23f9e9f4ef74c1ff",
    "fig8_sweep_fifo.csv": "826c02e8a8d3360c87de2856b4a71c6e7548aa195168ffeaa3f75639ea929de9",
    "fig9_sweep_nonfifo.csv": "6c2c6b30e18f7a267496bb3b772c1f80dce50dc60d4cdb77cfd88d6928b594a7",
    "scenario_table.json": "9ebc6df2d546d3348373c9a9a1f159f4ff8fbe03fe0e492054675b4619130112",
    "scenario_robustness.json": "db55faee181e4d1ce67229db4782fb1585db3c6c8e23784fedd10dbd0b72aa59",
}


class TestReproducePaper:
    def test_deterministic_and_pinned(self, tmp_path):
        for run in ("a", "b"):
            assert main(["reproduce-paper", "--out", str(tmp_path / run)]) == 0
        manifest = (tmp_path / "a" / "manifest.json").read_bytes()
        assert manifest == (tmp_path / "b" / "manifest.json").read_bytes()
        listed = json.loads(manifest)
        for name, digest in PINNED.items():
            assert hashlib.sha256((tmp_path / "a" / name).read_bytes()).hexdigest() == digest, name
            assert listed[name] == digest

    def test_sensitivity_column_is_the_bound(self, tmp_path):
        # the classical sensitivity bound grows by e^L = e^4 per step, so it
        # is inf at every positive shift over T = 200 steps and 0 without one
        assert main(["reproduce-paper", "--out", str(tmp_path)]) == 0
        for name in ("fig8_sweep_fifo.csv", "fig9_sweep_nonfifo.csv"):
            with open(tmp_path / name) as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == 31
            for row in rows:
                bound = float(row["sensitivity_bound_veh_steps"])
                assert bound == (0.0 if float(row["delta_lambda_veh_per_step"]) == 0 else math.inf)

    def test_t200_program_skips_highs(self, tmp_path, monkeypatch):
        # the bundled T = 200 FNC program is settled by the free-flow lemma;
        # the congested T = 25 programs still reach HiGHS
        horizons = []
        highs = solver._highs

        def counted(core, prog):
            horizons.append(prog.scenario.horizon)
            return highs(core, prog)

        monkeypatch.setattr(solver, "_highs", counted)
        assert main(["reproduce-paper", "--out", str(tmp_path / "paper")]) == 0
        assert main(["robustness-sweep", "--scenario", "bundled:robustness", "--sweep", "0:0.5:1",
                     "--out", str(tmp_path / "sweep")]) == 0
        assert 200 not in horizons and 25 in horizons

    def test_kernel_steps_bounded(self, tmp_path, monkeypatch):
        # constant-input runs stop at their exact steady state and each sweep
        # finds its equilibria as one batch: 820 kernel steps, against 3,951
        # when every run went the whole horizon one level at a time
        calls = []
        rates = ctm.junction_rates
        counted = lambda *a, **k: calls.append(1) or rates(*a, **k)
        for module in (ctm, robustness, synthesis):
            monkeypatch.setattr(module, "junction_rates", counted)
        assert main(["reproduce-paper", "--out", str(tmp_path / "paper")]) == 0
        assert len(calls) < 1500


class TestSweep:
    def test_small_sweep(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["robustness-sweep", "--scenario", "bundled:robustness",
                   "--sweep", "0:0.5:1", "--model", "fifo", "--out", str(out)])
        assert rc == 0
        lines = (out / "sweep_fifo.csv").read_text().splitlines()
        assert len(lines) == 4
        header = lines[0].split(",")
        assert header[0].startswith("delta_lambda")
        for row in lines[1:]:
            cols = row.split(",")
            assert float(cols[1]) <= float(cols[2]) + 1e-6   # sound bound

    def test_jobs_parallel_same_output(self, tmp_path):
        serial, parallel = tmp_path / "s", tmp_path / "p"
        for out, jobs in ((serial, "1"), (parallel, "2")):
            rc = main(["robustness-sweep", "--scenario", "bundled:robustness",
                       "--sweep", "0:0.5:1", "--jobs", jobs, "--out", str(out)])
            assert rc == 0
        assert (serial / "sweep_fifo.csv").read_bytes() == \
            (parallel / "sweep_fifo.csv").read_bytes()


class TestQuadraticSynthesis:
    """QP optima whose zero flows come back as exact zeros: a flow of 1e-7
    where the optimum has none makes control extraction see outflow without
    demand, or a near-zero speed limit that breaks free flow on replay."""

    @staticmethod
    def synthesize(path, out, kind, model):
        rc = main(["synthesize", "--scenario", str(path), "--kind", kind, "--cost", "quad",
                   "--model", model, "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text()) if rc == 0 else None
        return rc, summary

    def test_table_burst_fnc_stays_freeflow(self, tmp_path):
        sc = table_scenario()
        lam = np.zeros_like(sc.inflow)
        lam[:3, sc.network.index["1"]] = 10.0
        path = tmp_path / "burst10.json"
        save_scenario(replace(sc, inflow=lam), path)
        for model in ("fifo", "nonfifo"):
            rc, summary = self.synthesize(path, tmp_path / model, "fnc", model)
            assert rc == 0
            assert summary["realized"] and summary["always_freeflow"]

    def test_short_closure_dta_and_fnc_stay_freeflow(self, tmp_path):
        T = 8
        cap4 = [6.0] * T
        cap4[3] = cap4[4] = 0.0
        net = figure_network(T, cell4_capacity=cap4)
        lam = np.zeros((T, net.n))
        lam[:2, net.index["1"]] = 6.0
        path = tmp_path / "closure.json"
        save_scenario(Scenario(network=net, x0=np.zeros(net.n), inflow=lam,
                               routing=routing_for(net)), path)
        for kind in ("dta", "fnc"):
            rc, summary = self.synthesize(path, tmp_path / kind, kind, "fifo")
            assert rc == 0
            assert summary["replay_max_deviation"] <= summary["replay_tolerance"]
            assert summary["realized"] and summary["always_freeflow"]

    def test_missing_qp_binding_exits_3(self, tmp_path, monkeypatch, capsys):
        import sys
        monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
        rc = main(["solve", "--scenario", "bundled:table", "--cost", "quad",
                   "--out", str(tmp_path / "out")])
        assert rc == 3
        assert json.loads(capsys.readouterr().err)["error"] == "solver"


class TestRoundedControlsReplay:
    def test_zero_supply_cell_ignores_rounding_demand(self, tmp_path):
        # burst 8, 13, 7 with cell 7 closed at steps 2-5: replaying the
        # 12-digit controls_alpha.csv sends ~3e-12 veh/step into the jammed
        # cell 4 (zero supply), which must not count as congestion
        doc = scenario_to_dict(robustness_scenario(horizon=25, inflow=0.0))
        next(c for c in doc["cells"] if c["id"] == "7")["capacity"] = \
            [6.0] * 2 + [0.0] * 4 + [6.0] * 19
        doc["inflow"]["1"] = [8.0, 13.0, 7.0] + [0.0] * 22
        path = tmp_path / "closure7.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["synthesize", "--scenario", str(path), "--kind", "fnc", "--cost", "ttt",
                     "--model", "nonfifo", "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["always_freeflow"]
        sc = load_scenario(path)
        alphas = np.ones((sc.horizon, sc.network.n))
        with open(out / "controls_alpha.csv") as fh:
            for row in csv.DictReader(fh):
                alphas[int(row["step"]), sc.network.index[row["cell"]]] = float(row["alpha"])
        replay = simulate(sc, controls=ControlSchedule(alphas=alphas), model="nonfifo")
        assert replay.min_gamma() == pytest.approx(1.0, abs=1e-9)
