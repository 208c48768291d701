"""CLI commands, exit codes, artifacts, and manifest determinism."""

import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import operator
import os
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ctmflow
from ctmflow import ctm, robustness, solver, synthesis
from ctmflow.cli import MAX_SWEEP_POINTS, ConfigError, _sweep_grid, main
from ctmflow.ctm import CostSpec, InvariantError, simulate
from ctmflow.network import (MAX_HORIZON, Cell, Network, Scenario, constant_routing,
                             load_scenario, save_scenario, scenario_to_dict)
from ctmflow.program import build_fnc
from ctmflow.scenarios import figure_network, robustness_scenario, routing_for, table_scenario
from ctmflow.synthesis import ControlSchedule

from conftest import build_network, random_scenario
from tests_support import read_lp, underscore_scenario


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

    @pytest.mark.parametrize("command", ["simulate", "solve", "synthesize"])
    def test_unknown_cost_refused(self, tmp_path, command):
        # argparse's choices refuse the name before any command runs
        with pytest.raises(SystemExit) as exit_:
            main([command, "--scenario", "bundled:table", "--cost", "bogus",
                  "--out", str(tmp_path / "out")])
        assert exit_.value.code == 2
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("case", ["scenario-is-dir", "out-under-file", "out-is-file",
                                      "artifact-is-dir", "manifest-is-dir"])
    def test_unusable_path_config_error(self, tmp_path, capsys, case):
        # each of these ended in an OSError traceback (exit 1)
        blocker = tmp_path / "file"
        blocker.write_text("")
        for taken in ("artifact/trajectory.csv", "manifest/manifest.json"):
            (tmp_path / taken).mkdir(parents=True)
        argv = {"scenario-is-dir": ["simulate", "--scenario", str(tmp_path),
                                    "--out", str(tmp_path / "out")],
                "out-under-file": ["simulate", "--scenario", "bundled:table",
                                   "--out", str(blocker / "sub")],
                "out-is-file": ["reproduce-paper", "--out", str(blocker)],
                "artifact-is-dir": ["simulate", "--scenario", "bundled:table",
                                    "--out", str(tmp_path / "artifact")],
                "manifest-is-dir": ["simulate", "--scenario", "bundled:table",
                                    "--out", str(tmp_path / "manifest")]}[case]
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and str(tmp_path) in err["message"]    # names the path

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

    @pytest.mark.parametrize("sweep", ["0:nan:3", "nan:0.1:3", "0:0.1:inf", "0:1e-12:3"])
    def test_unbounded_sweep_config_error(self, tmp_path, capsys, sweep):
        # these ended in a traceback (exit 1): NaN converted to int, an
        # OverflowError, and a 21.8 TiB allocation
        rc = main(["robustness-sweep", "--scenario", "bundled:robustness",
                   f"--sweep={sweep}", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"

    @pytest.mark.parametrize("expr, grid", [("0:0.6:1", [0.0, 0.6]), ("0:0.4:1", [0.0, 0.4, 0.8]),
                                            ("0:0.1:3", np.round(np.arange(31) * 0.1, 10))])
    def test_sweep_grid_stops_at_end(self, expr, grid):
        # the point count was rounded to the nearest integer, so 0:0.6:1
        # swept 1.2, past END
        np.testing.assert_array_equal(_sweep_grid(expr), grid)

    def test_sweep_grid_point_limit(self):
        assert len(_sweep_grid("0:1:999")) == MAX_SWEEP_POINTS
        with pytest.raises(ConfigError, match=f"more than {MAX_SWEEP_POINTS} points"):
            _sweep_grid("0:1:1000")

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

    @pytest.mark.parametrize("value", [10 ** 400, -10 ** 400], ids=["+huge", "-huge"])
    @pytest.mark.parametrize("field, named", [
        ("T", "T"), ("tau", "tau"), ("x0", "x0"), ("inflow", "inflow of cell 1"),
        ("routing", "routing series 3->4"), ("capacity", "cell 4: capacity")])
    def test_huge_integer_config_error(self, tmp_path, capsys, field, named, value):
        # a JSON integer beyond float range ended in an OverflowError traceback
        doc = scenario_to_dict(table_scenario())
        if field in ("T", "tau"):
            doc[field] = value
        elif field == "x0":
            doc["x0"][3] = value
        elif field == "inflow":
            doc["inflow"]["1"][5] = value
        elif field == "routing":
            doc["routing"]["3->4"] = [value]
        else:
            doc["cells"][3]["capacity"][5] = value
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        rc = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        [line] = capsys.readouterr().err.splitlines()
        err = json.loads(line)
        assert err["error"] == "config" and named in err["message"]

    @pytest.mark.parametrize("T", [1e308, 10 ** 12], ids=["1e308", "1e12"])
    def test_horizon_bound_config_error(self, tmp_path, capsys, T):
        # 1e308 exited through numpy's "Maximum allowed dimension exceeded",
        # and a horizon in the billions allocated (T, n) arrays
        doc = scenario_to_dict(table_scenario())
        doc["T"] = T
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc))
        tracemalloc.start()
        try:
            rc = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2 and peak < 2 ** 20
        [line] = capsys.readouterr().err.splitlines()
        assert f"T must be at most {MAX_HORIZON}" in json.loads(line)["message"]

    def test_huge_volume_cost_finite(self, tmp_path):
        # the TTT cost squared every volume with a zero weight: inf * 0 made
        # it NaN, and simulate exited 2
        doc = scenario_to_dict(table_scenario())
        doc["x0"][0] = 1e200
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0
        cost = json.loads((tmp_path / "out" / "summary.json").read_text())["cost"]
        assert math.isfinite(cost) and cost > 1e200

    @pytest.mark.parametrize("model", ctm.MODELS)
    def test_huge_capacity_entry_keeps_zero_demand_threshold(self, tmp_path, model):
        # the negligible demand scaled with the largest capacity entry: 1e11
        # on cell 4 at step 0 made it 10 veh/step, the closed cell took that
        # flow, and simulate exited 4 ("cell 4: volume 10.22... exceeds jam")
        doc = scenario_to_dict(table_scenario())
        doc["cells"][3]["capacity"][0] = 1e11
        path = tmp_path / "huge_capacity.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--scenario", str(path), "--model", model,
                     "--out", str(tmp_path / "out")]) == 0
        got = simulate(load_scenario(path), model=model).states
        assert got.tobytes() == simulate(table_scenario(), model=model).states.tobytes()

    @pytest.mark.parametrize("cid, rc", [("on_ramp", 0), ("ramp.4", 0), ("on-ramp", 2),
                                         ("a b", 2), ("a,b", 2), ("a->b", 2), ("", 2),
                                         ("4\n", 2), ("f(4", 2)])
    def test_cell_id_characters(self, tmp_path, capsys, cid, rc):
        # "on-ramp" made an LP column name that HiGHS read back as more
        # columns, "a,b" shifted every CSV row, "a->b" made routing keys
        # ambiguous; with no "(", "," or ")" in ids, LP column names such
        # as f(t,i,j) cannot coincide
        doc = scenario_to_dict(table_scenario())
        name = {"4": cid}.get
        for cell in doc["cells"]:
            cell["id"] = name(cell["id"], cell["id"])
        doc["adjacency"] = [[name(i, i), name(j, j)] for i, j in doc["adjacency"]]
        doc["routing"] = {"->".join(name(i, i) for i in key.split("->")): series
                          for key, series in doc["routing"].items()}
        path = tmp_path / "renamed.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")]) == rc
        if rc:
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "config" and f"cell id {cid!r}" in err["message"]

    def test_underscore_ids_solve(self, tmp_path):
        # edges (a, b_c) and (a_b, c) were both written f_0_a_b_c, and solve
        # refused the scenario: each now has its own column in the LP file
        sc = underscore_scenario()
        path = tmp_path / "underscores.json"
        save_scenario(sc, path)
        assert main(["solve", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0
        prog = build_fnc(sc, CostSpec("TTT"))
        names = read_lp(tmp_path / "out" / "fnc_ttt.lp", prog).names
        assert len(set(names)) == prog.n_vars
        assert {"f(0,a,b_c)", "f(0,a_b,c)"} <= set(names)

    def test_invalid_scenario_names_each_code(self, tmp_path, capsys):
        doc = scenario_to_dict(table_scenario())
        doc["x0"][3] = -1.0
        doc["routing"]["2->5"] = [1.0 / 13.0]     # row sums to 2/3 + 1/13
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps(doc))
        rc = main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and "invalid scenario:\n" in err["message"]
        assert "[x0-negative] cell 4" in err["message"]
        assert "[routing-rowsum] ratios out of 2" in err["message"]

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


DELETE = object()
FUZZ_VALUES = [None, True, "text", [1.0], {"k": 1.0}, 10 ** 400, -10 ** 400, 1e308, -1e308,
               math.nan, math.inf, -math.inf, 1e-300, -1, DELETE]
TABLE_DOC = scenario_to_dict(table_scenario())
FUZZ_SITES = [(key,) for key in TABLE_DOC] + [("cells", 3, key) for key in TABLE_DOC["cells"][3]]
FUZZ_SITES += [
    ("cells", 3, "capacity", 4), ("cells", 0, "capacity", 0), ("cells", 9, "capacity", 0),
    ("x0", 3), ("x0", 0), ("inflow", "1", 0), ("inflow", "1"), ("routing", "2->3", 0),
    ("routing", "2->3"), ("adjacency", 0), ("adjacency", 0, 1), ("sources", 0), ("sinks", 0)]
FUZZ_COMMANDS = [["simulate"], ["solve", "--kind", "fnc"], ["synthesize", "--kind", "dta"]]
OPTION_VALUES = ["nan", "inf", "-0.1", "1.0"]


def _edited(edits) -> dict:
    """The table scenario file with each (path, value) edit applied; an edit
    whose path an earlier one removed is dropped."""
    doc = json.loads(json.dumps(TABLE_DOC))
    for (*path, last), value in edits:
        try:
            node = functools.reduce(operator.getitem, path, doc)
            if value is DELETE:
                del node[last]
            else:
                node[last] = value
        except (KeyError, IndexError, TypeError):
            pass
    return doc


def _nonfinite_numbers(out: Path) -> list:
    """Every non-finite number in the CSV and JSON artifacts under out."""
    found = []
    for path in out.iterdir():
        if path.suffix == ".json":
            json.loads(path.read_text(), parse_constant=found.append)
        elif path.suffix == ".csv":
            for field in path.read_text().replace("\n", ",").split(","):
                try:
                    if not math.isfinite(float(field)):
                        found.append(field)
                except ValueError:
                    pass
    return found


def _run_documented(argv) -> None:
    """main(argv) exits with a documented code, with one JSON line on stderr
    on failure and only finite numbers in its artifacts on success."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 2, 3, 4)
    if rc:
        [line] = err.getvalue().splitlines()
        assert set(json.loads(line)) == {"error", "message"}
    elif argv[0] != "robustness-sweep":     # its bounds are inf where they do not apply
        assert _nonfinite_numbers(Path(argv[argv.index("--out") + 1])) == []


class TestFuzz:
    """Malformed input exits 2, 3 or 4, never with a traceback or a
    RuntimeWarning: one or two edits of the table scenario file, each a
    deleted key or a value from FUZZ_VALUES, through each command."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(edits=st.lists(st.tuples(st.sampled_from(FUZZ_SITES), st.sampled_from(FUZZ_VALUES)),
                          min_size=1, max_size=2),
           command=st.sampled_from(FUZZ_COMMANDS),
           epsilon=st.sampled_from([None, *OPTION_VALUES]))
    # found by this property: an overflowing slope v tau / L printed a
    # RuntimeWarning before its CFL error, and a source volume of 1e308 did
    # so before simulate wrote an infinite cost with exit 0
    @example(edits=[(("tau",), 1e308)], command=["simulate"], epsilon=None)
    @example(edits=[(("cells", 3, "v"), 1e308)], command=["simulate"], epsilon=None)
    @example(edits=[(("x0", 0), 1e308)], command=["simulate"], epsilon=None)
    @example(edits=[(("inflow", "1", 0), 1e308)], command=["simulate"], epsilon=None)
    def test_edited_scenario_exits_documented(self, edits, command, epsilon):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "edited.json"
            path.write_text(json.dumps(_edited(edits)))
            options = [] if epsilon is None or command == ["simulate"] else [f"--epsilon={epsilon}"]
            _run_documented(command + options + ["--scenario", str(path),
                                                 "--out", str(Path(tmp) / "out")])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", OPTION_VALUES)
    def test_option_values_exit_documented(self, tmp_path, value):
        for grid in (f"{value}:0.5:1", f"0:{value}:1", f"0:0.5:{value}"):
            _run_documented(["robustness-sweep", "--scenario", "bundled:robustness",
                             f"--sweep={grid}", "--out", str(tmp_path / "sweep")])
        for command in FUZZ_COMMANDS[1:]:
            _run_documented(command + ["--scenario", "bundled:table", f"--epsilon={value}",
                                       "--out", str(tmp_path / command[0])])


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
        run = self.fresh_run(tmp_path, argv,
                             ("scipy.sparse", "scipy.sparse.linalg", "scipy.optimize"))
        assert run.stdout.splitlines()[-1] == "0 False False False", run.stdout + run.stderr

    def test_quad_solve_leaves_highs_unloaded(self, tmp_path):
        # a QP runs the interior point alone
        run = self.fresh_run(tmp_path, ["solve", "--scenario", "bundled:table", "--cost", "quad"],
                             ("scipy.optimize._highspy._core",))
        assert run.stdout.splitlines()[-1] == "0 False", run.stdout + run.stderr

    def test_lemma_solve_leaves_highs_unloaded(self):
        # solve settles the bundled T = 200 FNC total-volume program by the
        # free-flow lemma, the uncontrolled run itself, before it would load
        # HiGHS
        run = self.fresh(
            "import sys\nimport numpy as np\nimport ctmflow\n"
            "from ctmflow.scenarios import robustness_scenario\n"
            "sc = robustness_scenario()\n"
            "prog = ctmflow.build_fnc(sc, ctmflow.CostSpec('TTT'))\n"
            "sol = ctmflow.solve(prog)\n"
            "print(sol.iterations, np.array_equal(sol.values, prog.pack(ctmflow.simulate(sc))),"
            " 'scipy.optimize._highspy._core' in sys.modules)")
        assert run.stdout.splitlines()[-1] == "0 True False", run.stdout + run.stderr

    def test_missing_lp_binding_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
        rc = main(["solve", "--scenario", "bundled:table", "--cost", "ttt",
                   "--out", str(tmp_path / "out")])
        assert rc == 3
        assert json.loads(capsys.readouterr().err)["error"] == "solver"

    @classmethod
    def fresh_run(cls, tmp_path, argv, names) -> subprocess.CompletedProcess:
        """argv in a new interpreter, whose last line of output is the exit
        code and then whether each of the named modules is loaded."""
        return cls.fresh("import sys\nfrom ctmflow.cli import main\n"
                         f"rc = main({argv + ['--out', str(tmp_path)]!r})\n"
                         f"print(rc, *(name in sys.modules for name in {names!r}))")

    @staticmethod
    def fresh(code) -> subprocess.CompletedProcess:
        """The code in a new interpreter that imports this ctmflow."""
        src = str(Path(ctmflow.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)


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


# sha256 of command artifacts that no LP vertex choice moves: CTM runs, and
# the T = 200 FNC total-volume program that the free-flow lemma settles
PINNED_COMMANDS = {
    "simulate-fifo": (["simulate", "--scenario", "bundled:table", "--model", "fifo"], {
        "trajectory.csv": "8fdc43d8ce5cbc2b6d7b11f68306a7e961b1869001add615d5f7b0b2c86e58b6"}),
    "simulate-fifo-priority": (
        ["simulate", "--scenario", "bundled:table", "--model", "fifo-priority"], {
            "trajectory.csv": "393f4dfeefa26c2add949fed230065cb306a8d816bc3b0d082e927ab0465c66b"}),
    "simulate-nonfifo": (["simulate", "--scenario", "bundled:table", "--model", "nonfifo"], {
        "trajectory.csv": "21a826acae8ee75b8676f6aaa9fe93b4f4c507bc4d549aaa92cba364162bb34f"}),
    "solve-fnc-ttt": (["solve", "--scenario", "bundled:robustness", "--kind", "fnc"], {
        "fnc_ttt.lp": "7c83a839ac4d5aba0d37d63448e5e64f02557bddd69f68af3f6e6902612b63dc",
        "optimal_states.csv": "5cf2ab709af01159628d4b37e59bc72cecdf38d54792808826a38d82b35cf925",
        "summary.json": "dfb746fcdbeaae6838d888021c4a689b7d10a05fd084ae147c914b05a59b365c"}),
    "synthesize-fnc-ttt": (["synthesize", "--scenario", "bundled:robustness", "--kind", "fnc"], {
        "controls_alpha.csv": "325f8b6817f25dd58475eb5808fe98127f63ca4edad5a96912a5ac7c6f7b4900",
        "summary.json": "61e8c1cc3b017349ba1b89c78bc8fe589e25f5ebb947b724db98d4e2cfe972c8"}),
}


@pytest.mark.parametrize("case", PINNED_COMMANDS)
def test_command_artifacts_pinned(tmp_path, case):
    argv, pinned = PINNED_COMMANDS[case]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    for name, digest in pinned.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


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
        # the QP's binding is SuperLU; HiGHS's serves the LPs
        # (TestImports.test_missing_lp_binding_exits_3)
        monkeypatch.setitem(sys.modules, "scipy.sparse.linalg._dsolve._superlu", None)
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
