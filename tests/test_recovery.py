"""tools/recovery.py: session outcomes and campaign runs per campaign seed, from the
command line."""

import json
import os
import re
import subprocess
import sys
import types

REPO = os.path.join(os.path.dirname(__file__), os.pardir)
COLUMNS = ("seed", "model", "sessions", "converged", "trials", "reused", "adapted",
           "vs_static_min", "vs_static_p50", "vs_best_min", "vs_best_p50", "vs_defaults_p50")
RUN_COLUMNS = ("seed", "runs_sensitivity", "runs_screen", "runs_joint", "repeats_screen",
               "repeats_joint")
RECOVERY_COLUMNS = ("seed", "topk_recall", "topk_precision", "pairs_recall", "pairs_precision",
                    "cv_planted_min", "cv_unplanted_max", "eta2_planted_min",
                    "eta2_unplanted_max")


def test_two_seeds_print_their_rows_and_records(tmp_path):
    records = tmp_path / "sessions.json"
    done = subprocess.run(
        [sys.executable, os.path.join("tools", "recovery.py"), "--workload", "planted-116",
         "--seeds", "1000-1001", "--sessions", "4", "--json", str(records)],
        cwd=REPO, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    sessions_table, runs_table, recovery_table = done.stdout.split("\n\n")
    rows = [line.split() for line in sessions_table.splitlines()]
    assert rows[0] == list(COLUMNS)
    assert [row[:3] for row in rows[1:]] == [
        ["1000", "matched", "2"], ["1000", "shifted", "2"],
        ["1001", "matched", "2"], ["1001", "shifted", "2"],
        ["all", "matched", "4"], ["all", "shifted", "4"]]
    for row in rows[1:]:
        cells = dict(zip(COLUMNS, row))
        assert cells["converged"] == cells["sessions"]
        assert float(cells["trials"]) > 0
        assert cells["adapted"] == ("1.00" if cells["model"] == "shifted" else "0.00")
        assert float(cells["vs_static_min"]) <= float(cells["vs_static_p50"])
        assert 0.0 < float(cells["vs_best_min"]) <= float(cells["vs_best_p50"]) <= 1.0
        assert float(cells["vs_defaults_p50"]) > 1.0
    assert [re.sub(r"[0-9]+[.][0-9]{2}", "T", line) for line in done.stderr.splitlines()] == \
        [f"campaign seed {seed}: T s, median session T ms" for seed in (1000, 1001)]

    runs = [line.split() for line in runs_table.splitlines()]
    assert runs[0] == list(RUN_COLUMNS)
    assert [row[0] for row in runs[1:]] == ["1000", "1001"]
    campaigns = json.loads(records.read_text())["campaigns"]
    assert [[str(c[k]) for k in RUN_COLUMNS] for c in campaigns] == runs[1:]
    for c in campaigns:
        assert min(c[f"runs_{stage}"] for stage in ("sensitivity", "screen", "joint")) > 0
        assert 0 < c["repeats_screen"] < c["runs_screen"]
        # the joint stage looks every grid point up in both forms the
        # sweep and the screen ran it in
        assert c["repeats_joint"] == 0

    # planted-116's 15 parameters and 4 strong pairs are recovered exactly, each
    # with a margin on both sides of the selection (0.05) and confirmation
    # (0.15) thresholds
    recovery = [line.split() for line in recovery_table.splitlines()]
    assert recovery[0] == list(RECOVERY_COLUMNS)
    assert [row[0] for row in recovery[1:]] == ["1000", "1001", "min", "p10", "p50", "max"]
    for row in recovery[1:]:
        cells = dict(zip(RECOVERY_COLUMNS, row))
        for key in RECOVERY_COLUMNS[1:5]:
            assert cells[key] == "1.00"
        assert float(cells["cv_planted_min"]) > 0.05 > float(cells["cv_unplanted_max"])
        assert float(cells["eta2_planted_min"]) > 0.15 > float(cells["eta2_unplanted_max"])
    for c, row in zip(campaigns, recovery[1:3]):
        assert [f"{c[k]:.2f}" for k in RECOVERY_COLUMNS[1:5]] + \
            [f"{c[k]:.4f}" for k in RECOVERY_COLUMNS[5:]] == row[1:]
    summary = {row[0]: dict(zip(RECOVERY_COLUMNS, row)) for row in recovery[3:]}
    for key in RECOVERY_COLUMNS[5:]:
        values = [c[key] for c in campaigns]
        assert summary["min"][key] == f"{min(values):.4f}"
        assert summary["max"][key] == f"{max(values):.4f}"
        assert min(values) <= float(summary["p10"][key]) <= float(summary["p50"][key]) \
            <= max(values)

    sessions = json.loads(records.read_text())["sessions"]
    assert [(s["campaign_seed"], s["session_seed"], s["model"]) for s in sessions] == [
        (seed, 100_000 + i, ("matched", "shifted")[i % 2])
        for seed in (1000, 1001) for i in range(4)]
    # planted-116's static configuration: its 15 top-k parameters at 1.0
    static = {f"p{i:03d}": 1.0 for i in range(1, 16)}
    for s in sessions:
        assert s["status"] == "converged"
        # both searches start where the session or the static configuration
        # ended, and planted-116 maximizes: nothing beats the best metric
        assert s["direction"] == "maximize"
        assert max(s["true_metric"], s["static_metric"]) <= s["best_metric"]
        assert s["trials"] <= 120 and s["reused"] > 0
        if s["model"] == "matched":
            assert s["final_effective"] == static
            assert s["true_metric"] == s["static_metric"]


def test_static_config_takes_the_favoured_end_of_every_safe_range_shape():
    tool = os.path.join(REPO, "tools", "recovery.py")
    module = types.ModuleType("recovery")
    module.__file__ = tool
    saved = sys.path[:]
    try:
        with open(tool, encoding="utf-8") as fh:
            exec(compile(fh.read(), tool, "exec"), module.__dict__)
    finally:
        sys.path[:] = saved
    export = types.SimpleNamespace(
        top_k=[{"name": "mode", "shape": "monotonic-up"},
               {"name": "cache", "shape": "monotonic-down"},
               {"name": "fsync", "shape": "monotonic-down"},
               {"name": "peak", "shape": "non-monotonic"}],
        safe_ranges={"mode": {"values": ["low", "mid", "high"]}, "cache": {"lo": 2, "hi": 64},
                     "fsync": {"values": [False, True]}, "peak": {"lo": 0.0, "hi": 1.0}})
    assert module.static_config(export, maximize=True).assignments == {
        "mode": "high", "cache": 2, "fsync": False}
    assert module.static_config(export, maximize=False).assignments == {
        "mode": "low", "cache": 64, "fsync": True}
