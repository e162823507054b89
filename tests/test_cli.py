"""CLI: stage gating, full pipeline, determinism of emitted artifacts."""

import fcntl
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

import pytest
import yaml

import tuneforge
from helpers import SMALL_NAMES, small_model
from tuneforge.campaign import (DOCUMENT_FILE, INTERACTION_REPORT, JOINT_LOG,
                                OPTIMA_REPORT, SENSITIVITY_REPORT, SWEEP_LOG)
from tuneforge.cli import main
from tuneforge.docgen import ProceduralDocument, render_text


@pytest.fixture()
def decls(tmp_path):
    """Space+workload declaration file and simulator model file on disk."""
    space_doc = {
        "schema_version": 1,
        "parameters": [
            {"name": n, "domain": {"type": "continuous", "lo": 0.0, "hi": 1.0},
             "default": 0.0}
            for n in SMALL_NAMES
        ],
        "workloads": [{"id": "w0", "metric_name": "tps", "direction": "maximize"}],
    }
    space_path = tmp_path / "space.yaml"
    space_path.write_text(yaml.safe_dump(space_doc))
    model_path = tmp_path / "model.yaml"
    small_model().save(str(model_path))
    return {"space": str(space_path), "model": str(model_path), "dir": tmp_path}


def run_cli(decls, campaign, *args, seed=9):
    argv = list(args) + [
        "--space", decls["space"], "--workloads", decls["space"],
        "--campaign", campaign, "--seed", str(seed),
    ]
    if args[0] in ("profile", "screen", "joint", "tune"):
        argv += ["--adapter", f"sim:{decls['model']}"]
    return main(argv)


class TestStageGating:
    def test_screen_before_profile_is_usage_error(self, decls, capsys):
        campaign = str(decls["dir"] / "c1")
        assert run_cli(decls, campaign, "screen") == 1
        err = capsys.readouterr().err
        assert "stage" in err and "sweep-done" in err

    def test_tune_before_compile_is_usage_error(self, decls):
        campaign = str(decls["dir"] / "c2")
        assert run_cli(decls, campaign, "profile", "--levels", "4",
                       "--repetitions", "2") == 0
        assert run_cli(decls, campaign, "tune") == 1

    def test_unknown_adapter_scheme_is_usage_error(self, decls):
        campaign = str(decls["dir"] / "c3")
        code = main(["profile", "--space", decls["space"], "--workloads", decls["space"],
                     "--campaign", campaign, "--adapter", "ftp:whatever"])
        assert code == 1

    @pytest.mark.parametrize("section, key", [("parameters", "name"), ("workloads", "id")])
    def test_declaration_missing_a_key_is_usage_error(self, decls, capsys, section, key):
        with open(decls["space"]) as fh:
            space_doc = yaml.safe_load(fh)
        del space_doc[section][0][key]
        with open(decls["space"], "w") as fh:
            yaml.safe_dump(space_doc, fh)
        assert run_cli(decls, str(decls["dir"] / "c4"), "status") == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and f"'{key}'" in err

    @pytest.mark.parametrize("which", ["space", "model"])
    @pytest.mark.parametrize("damage, named", [
        ("missing", "cannot read the file: No such file or directory"),
        ("directory", "cannot read the file: Is a directory"),
        ("not-yaml", "not a YAML file: "),
        ("not-utf-8", "not a YAML file: "),
    ], ids=["missing", "directory", "not-yaml", "not-utf-8"])
    def test_unreadable_declaration_or_model_file_is_usage_error(self, decls, capsys, which,
                                                                 damage, named):
        path = decls[which]
        os.remove(path)
        if damage == "directory":
            os.mkdir(path)
        elif damage == "not-yaml":
            with open(path, "w") as fh:
                fh.write("parameters: [1, 2\n")
        elif damage == "not-utf-8":
            with open(path, "wb") as fh:
                fh.write(b"schema_version: 1\nname: caf\xe9\n")
        assert run_cli(decls, str(decls["dir"] / "c5"), "profile") == 1
        assert capsys.readouterr().err.startswith(f"usage error: {path}: {named}")

    def test_declaration_nested_too_deep_is_usage_error(self, decls, capsys):
        # it parses, and the refusal of its parameters would repr the value
        with open(decls["space"], "w") as fh:
            fh.write("schema_version: 1\nparameters: " + "[" * 1200 + "]" * 1200 + "\n")
        assert run_cli(decls, str(decls["dir"] / "c8"), "status") == 1
        assert capsys.readouterr().err == (
            f"usage error: {decls['space']}: the document nests too deep\n")

    @pytest.mark.parametrize("split, parses", [(False, 1), (True, 2)],
                             ids=["one-file", "two-files"])
    def test_each_declaration_file_is_parsed_once(self, decls, monkeypatch, split, parses):
        from tuneforge import space as space_mod
        workloads = decls["space"]
        if split:
            workloads = str(decls["dir"] / "workloads.yaml")
            with open(decls["space"]) as src, open(workloads, "w") as dst:
                dst.write(src.read())
        calls = []
        read = space_mod._read_yaml

        def counting(fh):
            """The one reader of every YAML file, recording each file it reads."""
            calls.append(fh.name)
            return read(fh)

        monkeypatch.setattr(space_mod, "_read_yaml", counting)
        assert main(["status", "--space", decls["space"], "--workloads", workloads,
                     "--campaign", str(decls["dir"] / "c7")]) == 0
        assert len(calls) == parses
        assert sorted(set(calls)) == sorted({decls["space"], workloads})

    def test_model_without_base_rate_is_usage_error(self, decls, capsys):
        with open(decls["model"]) as fh:
            model_doc = yaml.safe_load(fh)
        del model_doc["base_rate"]
        with open(decls["model"], "w") as fh:
            yaml.safe_dump(model_doc, fh)
        assert run_cli(decls, str(decls["dir"] / "c6"), "profile") == 1
        err = capsys.readouterr().err
        assert err == (f"usage error: {decls['model']}: model: missing keys ['base_rate'], "
                       f"unknown keys []\n")

    def test_declared_metric_name_not_a_string_is_usage_error(self, decls, capsys):
        # Once loaded, it let every stage run; `tune` then refused the document.
        with open(decls["space"]) as fh:
            space_doc = yaml.safe_load(fh)
        space_doc["workloads"][0]["metric_name"] = [1]
        with open(decls["space"], "w") as fh:
            yaml.safe_dump(space_doc, fh)
        campaign = decls["dir"] / "c8"
        assert run_cli(decls, str(campaign), "profile") == 1
        err = capsys.readouterr().err
        assert err == (f"usage error: {decls['space']}: declaration: workloads: 0: "
                       f"metric_name: [1] is not str\n")
        assert not campaign.exists() or not any(campaign.glob("*.jsonl"))

    def test_model_with_a_misspelled_key_is_usage_error(self, decls, capsys):
        with open(decls["model"]) as fh:
            model_doc = yaml.safe_load(fh)
        model_doc["sigam"] = model_doc.pop("sigma")
        with open(decls["model"], "w") as fh:
            yaml.safe_dump(model_doc, fh)
        assert run_cli(decls, str(decls["dir"] / "c7"), "profile") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {decls['model']}: ") and "'sigam'" in err


class TestFullPipeline:
    def test_end_to_end_and_artifacts(self, decls, capsys):
        campaign = str(decls["dir"] / "full")
        for cmd in (["profile"], ["screen"], ["joint"], ["compile"],
                    ["tune", "--budget", "40"], ["export"]):
            assert run_cli(decls, campaign, *cmd) == 0, f"{cmd} failed"
        for artifact in (SENSITIVITY_REPORT, INTERACTION_REPORT, OPTIMA_REPORT,
                         DOCUMENT_FILE, "trace.jsonl", "final_config.properties",
                         "export_optimizer-json.json"):
            assert os.path.exists(os.path.join(campaign, artifact)), artifact
        captured = capsys.readouterr()
        assert "wrote" in captured.out
        with open(os.path.join(campaign, "trace.jsonl")) as fh:
            events = [json.loads(line) for line in fh][1:]
        steps = [e for e in events if e["action"] == "benchmark"]
        reused = sum("reused_from" in e["inputs"] for e in steps)
        passes = sum(e["action"] == "pass" for e in events)
        assert reused > 0
        assert f"session converged: {len(steps) - reused} trials ({reused} steps reused), " \
               f"{passes} passes" in captured.err

        with open(os.path.join(campaign, "export_optimizer-json.json")) as fh:
            export = json.load(fh)
        assert len(export["top_k"]) == 4

        assert run_cli(decls, campaign, "status") == 0
        status_out = capsys.readouterr().out
        assert "compiled" in status_out and "reference 57%" in status_out

    def test_profile_run_count_arithmetic(self, tmp_path):
        # 20 parameters x 4 non-default levels x 3 reps x 2 workloads = 480
        # sweep entries, plus one all-defaults baseline per workload and
        # repetition, which is also every parameter's default level
        space_doc = {
            "schema_version": 1,
            "parameters": [
                {"name": f"n{i:02d}", "domain": {"type": "continuous", "lo": 0.0,
                                                 "hi": 1.0}, "default": 0.0}
                for i in range(20)],
            "workloads": [{"id": "wa"}, {"id": "wb"}],
        }
        space_path = tmp_path / "s.yaml"
        space_path.write_text(yaml.safe_dump(space_doc))
        model_path = tmp_path / "m.yaml"
        small_model().save(str(model_path))
        campaign = str(tmp_path / "count")
        assert main(["profile", "--space", str(space_path), "--workloads",
                     str(space_path), "--campaign", campaign, "--seed", "0",
                     "--adapter", f"sim:{model_path}", "--levels", "5",
                     "--repetitions", "3"]) == 0
        with open(os.path.join(campaign, "state.json")) as fh:
            state = json.load(fh)
        assert state["runs_used"]["sensitivity"] == 480 + 2 * 3

    def test_report_lists_parameters_in_descending_cv(self, decls, capsys):
        campaign = str(decls["dir"] / "ordered")
        assert run_cli(decls, campaign, "profile") == 0
        with open(os.path.join(campaign, SENSITIVITY_REPORT)) as fh:
            profiles = json.load(fh)["profiles"]
        by_rank = sorted(profiles, key=lambda p: p["rank"])
        cvs = [p["aggregate_cv"] for p in by_rank]
        assert cvs == sorted(cvs, reverse=True)

    def test_profile_resume_executes_nothing_new(self, decls):
        campaign = str(decls["dir"] / "resume")
        assert run_cli(decls, campaign, "profile") == 0
        with open(os.path.join(campaign, "state.json")) as fh:
            used_first = json.load(fh)["runs_used"]["sensitivity"]
        assert run_cli(decls, campaign, "profile") == 0
        with open(os.path.join(campaign, "state.json")) as fh:
            used_second = json.load(fh)["runs_used"]["sensitivity"]
        assert used_first > 0
        assert used_second == used_first  # second invocation reused every record

    def test_aborted_tune_exits_with_analysis_code(self, decls, capsys):
        campaign = str(decls["dir"] / "tiny_budget")
        for cmd in (["profile"], ["screen"], ["joint"], ["compile"]):
            assert run_cli(decls, campaign, *cmd) == 0
        assert run_cli(decls, campaign, "tune", "--budget", "2") == 2
        assert "budget" in capsys.readouterr().err

    def test_tune_on_document_missing_a_key_exits_with_analysis_code(self, decls, capsys):
        campaign = str(decls["dir"] / "no_root")
        for cmd in (["profile"], ["screen"], ["joint"], ["compile"]):
            assert run_cli(decls, campaign, *cmd) == 0
        path = os.path.join(campaign, DOCUMENT_FILE)
        with open(path) as fh:
            doc = json.load(fh)
        del doc["root"]
        with open(path, "w") as fh:
            json.dump(doc, fh)
        capsys.readouterr()
        assert run_cli(decls, campaign, "tune") == 2
        err = capsys.readouterr().err
        assert "analysis error" in err and "'root'" in err

    def test_tune_on_malformed_document_exits_with_analysis_code(self, decls, capsys):
        campaign = str(decls["dir"] / "bad_direction")
        for cmd in (["profile"], ["screen"], ["joint"], ["compile"]):
            assert run_cli(decls, campaign, *cmd) == 0
        path = os.path.join(campaign, DOCUMENT_FILE)
        with open(path) as fh:
            doc = json.load(fh)
        doc["workloads"][0]["direction"] = "up"
        with open(path, "w") as fh:
            json.dump(doc, fh)
        capsys.readouterr()
        assert run_cli(decls, campaign, "tune") == 2
        err = capsys.readouterr().err
        assert "analysis error: malformed document" in err and "'up'" in err

    def test_best_level_not_comparable_with_the_grid_exits_with_analysis_code(self, decls,
                                                                             capsys):
        campaign = str(decls["dir"] / "bad_best_level")
        for cmd in (["profile"], ["screen"], ["joint"]):
            assert run_cli(decls, campaign, *cmd) == 0
        path = os.path.join(campaign, SENSITIVITY_REPORT)
        with open(path) as fh:
            report = json.load(fh)
        next(p for p in report["profiles"] if p["selected"])["best_level"]["w0"] = "fast"
        with open(path, "w") as fh:
            json.dump(report, fh)
        capsys.readouterr()
        assert run_cli(decls, campaign, "compile") == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("analysis error: ") and "'fast'" in err

    @pytest.mark.parametrize("command, report, record, key", [
        ("compile", OPTIMA_REPORT, lambda r: r["optima"][0], "best_metric"),
        ("joint", INTERACTION_REPORT,
         lambda r: next(rec["decomposition"] for rec in r["records"] if "decomposition" in rec),
         "ss_a")], ids=["optima-best-metric", "decomposition-ss-a"])
    def test_renamed_nested_report_key_exits_with_analysis_code(self, decls, capsys, command,
                                                                report, record, key):
        campaign = str(decls["dir"] / f"renamed_{key}")
        stages = ["profile", "screen", "joint", "compile"]
        for cmd in stages[:stages.index(command)]:
            assert run_cli(decls, campaign, cmd) == 0
        path = os.path.join(campaign, report)
        with open(path) as fh:
            data = json.load(fh)
        damaged = record(data)
        damaged[f"{key}_old"] = damaged.pop(key)
        with open(path, "w") as fh:
            json.dump(data, fh)
        capsys.readouterr()
        assert run_cli(decls, campaign, command) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("analysis error: ")
        assert f"missing keys ['{key}'], unknown keys ['{key}_old']" in err

    @pytest.mark.parametrize("command, report, record, key, value, what", [
        ("screen", SENSITIVITY_REPORT, lambda r: r, "tau_s", "x", "sensitivity report"),
        ("screen", SENSITIVITY_REPORT, lambda r: r, "profiles", 5, "sensitivity report"),
        ("screen", SENSITIVITY_REPORT, lambda r: r, "baseline_means", {"w0": "1.0"},
         "sensitivity report"),
        ("joint", INTERACTION_REPORT,
         lambda r: next(rec for rec in r["records"] if rec["confirmed"]), "pair", ["pa"],
         "interaction record"),
        ("compile", OPTIMA_REPORT, lambda r: r["graph"], "nodes", 5, "correlation graph"),
        ("compile", OPTIMA_REPORT, lambda r: r["graph"], "components", 5, "correlation graph"),
        ("compile", OPTIMA_REPORT, lambda r: r["graph"], "components", [5],
         "correlation graph"),
        ("compile", OPTIMA_REPORT, lambda r: r["graph"]["edges"][0], "a", 5, "graph edge"),
        ("compile", OPTIMA_REPORT, lambda r: r["optima"][0], "component", 5, "joint optimum"),
        ("compile", OPTIMA_REPORT, lambda r: r, "rejected", [5], "optima report"),
    ], ids=["tau-s-not-a-number", "profiles-not-a-list", "baseline-mean-not-a-number",
            "pair-of-one", "nodes-not-a-list",
            "components-not-a-list", "component-not-a-list", "edge-end-not-a-string",
            "optimum-component-not-a-list", "rejected-item-not-an-object"])
    def test_wrongly_typed_report_value_exits_with_analysis_code(
            self, decls, capsys, command, report, record, key, value, what):
        campaign = str(decls["dir"] / f"typed_{key}")
        stages = ["profile", "screen", "joint", "compile"]
        for cmd in stages[:stages.index(command)]:
            assert run_cli(decls, campaign, cmd) == 0
        path = os.path.join(campaign, report)
        with open(path) as fh:
            data = json.load(fh)
        record(data)[key] = value
        with open(path, "w") as fh:
            json.dump(data, fh)
        capsys.readouterr()
        assert run_cli(decls, campaign, command) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"analysis error: {what}: {key}: ")

    @pytest.mark.parametrize("command, report", [
        ("screen", SENSITIVITY_REPORT), ("joint", INTERACTION_REPORT),
        ("compile", OPTIMA_REPORT)])
    def test_report_of_another_campaign_exits_before_the_stage_runs(
            self, decls, capsys, monkeypatch, command, report):
        stages = ["profile", "screen", "joint", "compile"]
        own, other = str(decls["dir"] / "own"), str(decls["dir"] / "other")
        for cmd in stages[:stages.index(command)]:
            assert run_cli(decls, own, cmd) == 0
            assert run_cli(decls, other, cmd, seed=10) == 0
        path = os.path.join(own, report)
        with open(os.path.join(other, report), "rb") as src, open(path, "wb") as dst:
            dst.write(src.read())
        calls = []
        monkeypatch.setattr("tuneforge.simulator.SimulatorAdapter.measure",
                            lambda *args: calls.append(args))
        capsys.readouterr()
        assert run_cli(decls, own, command) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"analysis error: {path} belongs to campaign ")
        assert calls == []
        with open(os.path.join(own, "state.json")) as fh:
            assert json.load(fh)["stage"] == {"screen": "sweep-done", "joint": "screen-done",
                                              "compile": "joint-done"}[command]

    def test_tune_on_postcondition_reading_a_string_exits_before_any_benchmark(
            self, decls, capsys, monkeypatch):
        campaign = str(decls["dir"] / "string_datum")
        for cmd in (["profile"], ["screen"], ["joint"], ["compile"]):
            assert run_cli(decls, campaign, *cmd) == 0
        path = os.path.join(campaign, DOCUMENT_FILE)
        with open(path) as fh:
            doc = json.load(fh)
        next(s for s in doc["skills"] if "shape" in s["reference_data"])[
            "postconditions"].append("shape >= 1")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        calls = []
        monkeypatch.setattr("tuneforge.simulator.SimulatorAdapter.measure",
                            lambda *args: calls.append(args))
        capsys.readouterr()
        assert run_cli(decls, campaign, "tune") == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("analysis error: document rejected: ")
        assert "reads reference datum 'shape', which is not a number" in err
        assert calls == []

    def test_screen_on_empty_safe_set_exits_with_analysis_code(self, decls, capsys):
        campaign = str(decls["dir"] / "empty_safe_set")
        assert run_cli(decls, campaign, "profile") == 0
        path = os.path.join(campaign, SENSITIVITY_REPORT)
        with open(path) as fh:
            report = json.load(fh)
        report["profiles"][0]["safe_range"] = {"values": []}
        with open(path, "w") as fh:
            json.dump(report, fh)
        capsys.readouterr()
        assert run_cli(decls, campaign, "screen") == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err == "analysis error: safe range is malformed: {'values': []}\n"

    @pytest.mark.parametrize("command", ["tune", "export"])
    def test_document_of_another_campaign_exits_and_writes_nothing(self, decls, capsys,
                                                                   command):
        own, other = str(decls["dir"] / "own"), str(decls["dir"] / "other")
        for cmd in ("profile", "screen", "joint", "compile"):
            assert run_cli(decls, own, cmd) == 0
            assert run_cli(decls, other, cmd, seed=10) == 0
        path = os.path.join(own, DOCUMENT_FILE)
        with open(os.path.join(other, DOCUMENT_FILE), "rb") as src, open(path, "wb") as dst:
            dst.write(src.read())
        def files():
            return {name: open(os.path.join(own, name), "rb").read()
                    for name in os.listdir(own)}

        before = files()
        capsys.readouterr()
        assert run_cli(decls, own, command) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"analysis error: {path} belongs to campaign ")
        assert files() == before

    @pytest.mark.parametrize("command", ["tune", "export"])
    def test_truncated_document_exits_with_analysis_code(self, decls, capsys, command):
        campaign = str(decls["dir"] / f"truncated_{command}")
        for cmd in (["profile"], ["screen"], ["joint"], ["compile"]):
            assert run_cli(decls, campaign, *cmd) == 0
        path = os.path.join(campaign, DOCUMENT_FILE)
        with open(path) as fh:
            head = fh.read(300)
        with open(path, "w") as fh:
            fh.write(head)
        capsys.readouterr()
        assert run_cli(decls, campaign, command) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("analysis error:")]
        assert len(errors) == 1
        assert errors[0].startswith(f"analysis error: {path} is not valid JSON: ")

    def test_missing_report_exits_with_analysis_code(self, decls, capsys):
        # Once raised FileNotFoundError out of the CLI.
        campaign = str(decls["dir"] / "missing_report")
        assert run_cli(decls, campaign, "profile") == 0
        path = os.path.join(campaign, SENSITIVITY_REPORT)
        os.remove(path)
        capsys.readouterr()
        assert run_cli(decls, campaign, "screen") == 2
        err = capsys.readouterr().err
        assert err == (f"analysis error: {path}: cannot read the file: "
                       f"No such file or directory\n")

    def test_export_into_a_missing_directory_is_usage_error(self, decls, capsys):
        # Once raised FileNotFoundError naming a temporary file out of the CLI.
        campaign = str(decls["dir"] / "export_nowhere")
        for cmd in ("profile", "screen", "joint", "compile"):
            assert run_cli(decls, campaign, cmd) == 0
        out = str(decls["dir"] / "nowhere" / "x.json")
        capsys.readouterr()
        assert run_cli(decls, campaign, "export", "--out", out) == 1
        err = capsys.readouterr().err
        assert err == (f"usage error: --out {out}: cannot write the file: "
                       f"No such file or directory\n")
        assert not os.path.exists(os.path.dirname(out))

    def test_export_into_the_campaign_directory_is_usage_error(self, decls, capsys):
        # Once raised IsADirectoryError out of the CLI: the default path is
        # reported as an unwritable --out is, naming the file.
        campaign = str(decls["dir"] / "export_blocked")
        for cmd in ("profile", "screen", "joint", "compile"):
            assert run_cli(decls, campaign, cmd) == 0
        path = os.path.join(campaign, "export_optimizer-json.json")
        os.mkdir(path)
        capsys.readouterr()
        assert run_cli(decls, campaign, "export") == 1
        err = capsys.readouterr().err
        assert err == f"usage error: {path}: cannot write the file: Is a directory\n"
        assert not [f for f in os.listdir(campaign) if f.endswith(".tmp")]

    def test_compile_print_renders_the_document(self, decls, capsys):
        campaign = str(decls["dir"] / "print")
        for cmd in ("profile", "screen", "joint"):
            assert run_cli(decls, campaign, cmd) == 0
        capsys.readouterr()
        assert run_cli(decls, campaign, "compile", "--print") == 0
        doc = ProceduralDocument.load(os.path.join(campaign, DOCUMENT_FILE))
        assert capsys.readouterr().out.endswith("\n" + render_text(doc) + "\n")

    @pytest.mark.parametrize("tau_s", ["-1", "nan", "inf"])
    def test_negative_or_not_finite_tau_s_is_usage_error_before_any_run(self, decls, capsys,
                                                                          tau_s):
        campaign = str(decls["dir"] / "bad_tau_s")
        assert run_cli(decls, campaign, "profile", "--tau-s", tau_s) == 1
        assert capsys.readouterr().err == \
            f"usage error: tau_s must be finite and >= 0, got {float(tau_s)}\n"
        assert not os.path.exists(os.path.join(campaign, SWEEP_LOG))

    def test_joint_of_no_repetition_is_usage_error_before_any_run(self, decls, capsys):
        campaign = str(decls["dir"] / "joint_zero")
        for cmd in ("profile", "screen"):
            assert run_cli(decls, campaign, cmd) == 0
        capsys.readouterr()
        assert run_cli(decls, campaign, "joint", "--repetitions", "0") == 1
        assert capsys.readouterr().err == "usage error: repetitions must be >= 1\n"
        assert not os.path.exists(os.path.join(campaign, JOINT_LOG))

    def test_export_of_a_document_failing_validation_exits_and_writes_nothing(self, decls,
                                                                              capsys):
        # as tune refuses it
        campaign = str(decls["dir"] / "invalid")
        for cmd in ("profile", "screen", "joint", "compile"):
            assert run_cli(decls, campaign, cmd) == 0
        path = os.path.join(campaign, DOCUMENT_FILE)
        with open(path) as fh:
            doc = json.load(fh)
        next(s for s in doc["skills"] if s["id"] == "verify_pc")["next"] = "nowhere"
        with open(path, "w") as fh:
            json.dump(doc, fh)
        before = sorted(os.listdir(campaign))
        capsys.readouterr()
        assert run_cli(decls, campaign, "export") == 2
        err = capsys.readouterr().err
        assert err.startswith("analysis error: document rejected: ")
        assert "verify_pc: unresolved skill id 'nowhere'" in err
        assert sorted(os.listdir(campaign)) == before

    def test_lock_file_released_after_command(self, decls):
        campaign = str(decls["dir"] / "locked")
        assert run_cli(decls, campaign, "profile") == 0
        assert not os.path.exists(os.path.join(campaign, ".lock"))

    def test_live_lock_is_a_usage_error(self, decls):
        campaign = str(decls["dir"] / "live")
        os.makedirs(campaign, exist_ok=True)
        with open(os.path.join(campaign, ".lock"), "w") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            assert run_cli(decls, campaign, "profile") == 1


class TestDeterminism:
    def test_reports_byte_identical_across_directories(self, decls):
        c1 = str(decls["dir"] / "d1")
        c2 = str(decls["dir"] / "d2")
        for campaign in (c1, c2):
            for cmd in (["profile"], ["screen"], ["joint"], ["compile"],
                        ["tune", "--budget", "40"]):
                assert run_cli(decls, campaign, *cmd) == 0
        for artifact in (SENSITIVITY_REPORT, INTERACTION_REPORT, OPTIMA_REPORT,
                         DOCUMENT_FILE, "trace.jsonl", "final_config.properties"):
            b1 = open(os.path.join(c1, artifact), "rb").read()
            b2 = open(os.path.join(c2, artifact), "rb").read()
            assert b1 == b2, f"{artifact} differs"

    def test_seed_changes_measurements(self, decls):
        c1 = str(decls["dir"] / "s1")
        main(["profile", "--space", decls["space"], "--workloads", decls["space"],
              "--campaign", c1, "--seed", "1", "--adapter", f"sim:{decls['model']}"])
        c2 = str(decls["dir"] / "s2")
        main(["profile", "--space", decls["space"], "--workloads", decls["space"],
              "--campaign", c2, "--seed", "2", "--adapter", f"sim:{decls['model']}"])
        r1 = json.load(open(os.path.join(c1, SENSITIVITY_REPORT)))
        r2 = json.load(open(os.path.join(c2, SENSITIVITY_REPORT)))
        assert r1["baseline_means"] != r2["baseline_means"]


SHELL_SPACE = os.path.join(os.path.dirname(__file__), os.pardir, "demo", "shell_space.yaml")


class TestAdapterContract:
    """A shell benchmark that breaks the METRIC contract aborts, poisoning nothing."""

    def write_script(self, tmp_path, metric_line):
        # every run leaves one line in runs.txt, so the test counts them
        script = tmp_path / "bench.sh"
        script.write_text(f'#!/bin/sh\necho run >> "{tmp_path / "runs.txt"}"\n'
                          f'echo "{metric_line}"\n')
        script.chmod(0o755)
        return str(script)

    def profile(self, tmp_path, script, parallelism=1):
        return main(["profile", "--space", SHELL_SPACE, "--workloads", SHELL_SPACE,
                     "--campaign", str(tmp_path / "c"), "--seed", "1",
                     "--adapter", f"shell:{script}", "--levels", "3",
                     "--repetitions", "1", "--parallelism", str(parallelism)])

    def runs(self, tmp_path):
        path = tmp_path / "runs.txt"
        return len(path.read_text().splitlines()) if path.exists() else 0

    # the shell adapter runs one command at a time, so the first run that
    # breaks the contract aborts the plan whatever --parallelism asks for
    @pytest.mark.parametrize("parallelism", [1, 8])
    def test_missing_metric_line_exits_3_after_one_run(self, tmp_path, capsys, parallelism):
        script = self.write_script(tmp_path, "tps=1000")
        assert self.profile(tmp_path, script, parallelism) == 3
        assert "METRIC" in capsys.readouterr().err
        assert self.runs(tmp_path) == 1
        journal = tmp_path / "c" / "sweep_log.jsonl"
        assert not journal.exists() or journal.read_bytes().count(b"\n") <= 1

    def test_blank_metric_line_exits_3_after_one_run(self, tmp_path, capsys):
        script = self.write_script(tmp_path, "METRIC ")
        assert self.profile(tmp_path, script) == 3
        assert "unparseable metric line 'METRIC '" in capsys.readouterr().err
        assert self.runs(tmp_path) == 1
        journal = tmp_path / "c" / "sweep_log.jsonl"
        assert not journal.exists() or journal.read_bytes().count(b"\n") <= 1

    @pytest.mark.parametrize("kind", ["missing", "not-executable"])
    def test_command_that_cannot_start_exits_3_and_journals_nothing(self, tmp_path,
                                                                   capsys, kind):
        script = str(tmp_path / "nowhere" / "bench.sh")
        if kind == "not-executable":
            script = self.write_script(tmp_path, "METRIC 1000")
            os.chmod(script, 0o644)
        assert self.profile(tmp_path, script) == 3
        assert "cannot start" in capsys.readouterr().err
        journal = tmp_path / "c" / "sweep_log.jsonl"
        assert not journal.exists() or journal.read_bytes().count(b"\n") <= 1

    def test_empty_shell_command_is_usage_error(self, tmp_path, capsys):
        assert self.profile(tmp_path, "") == 1
        assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "c" / "sweep_log.jsonl").exists()

    def test_fixed_script_resumes_and_measures_the_plan(self, tmp_path):
        script = self.write_script(tmp_path, "tps=1000")
        assert self.profile(tmp_path, script) == 3
        self.write_script(tmp_path, "METRIC 1000")
        assert self.profile(tmp_path, script) == 0
        state = json.load(open(tmp_path / "c" / "state.json"))
        assert state["runs_used"]["sensitivity"] == state["budgets"]["sensitivity"] == 12
        assert self.runs(tmp_path) == 1 + 12


# A benchmark whose metric depends on the configuration and on the run seed,
# so a resumed run that re-measured a key, or measured one with another seed,
# would change the report.
AWK_BENCH = ("shell:awk 'BEGIN { print \"METRIC \" (1000 + 3 * ENVIRON[\"cache_mb\"]"
             " + 7 * length(ENVIRON[\"sync_mode\"])"
             " + substr(ENVIRON[\"TF_SEED\"], 1, 3) / 100) }'")
# The same, with both parameters sensitive and interacting: cache_mb's effect
# changes sign with sync_mode (relaxed 1, normal 2, strict 3), so the screen
# confirms the pair and the joint stage searches it.
AWK_PAIR_BENCH = ("shell:awk 'BEGIN { s = index(\"rns\", substr(ENVIRON[\"sync_mode\"], 1, 1));"
                  " print \"METRIC \" (2000 + 6 * (s - 1.5) * ENVIRON[\"cache_mb\"]"
                  " + substr(ENVIRON[\"TF_SEED\"], 1, 3) / 100) }'")
WALL_TIME = re.compile(rb'"wall_time": [^,}]*, ')


class TestRealKill:
    """A CLI stage, SIGKILLed as a child process whenever its journal reaches
    a chosen line count and then resumed, ends with the report, state and
    journal of a run never killed. A SIGKILL runs no ``finally`` block,
    context manager or exit handler. One child runs at a time."""

    KILL_AT = (5, 15, 30)   # journal lines, header included
    # per stage: its journal, its report and its options
    STAGES = {"profile": ("sweep_log.jsonl", SENSITIVITY_REPORT,
                          ("--levels", "5", "--repetitions", "3")),
              "screen": ("screen_log.jsonl", INTERACTION_REPORT, ()),
              "joint": ("joint_log.jsonl", OPTIMA_REPORT, ("--repetitions", "5"))}

    def stage(self, name, campaign, bench, kill_at=None):
        """Run stage ``name`` in a child process; with ``kill_at``, SIGKILL it
        once the stage's journal holds that many lines. Returns the exit
        status."""
        log, _, options = self.STAGES[name]
        argv = [sys.executable, "-m", "tuneforge.cli", name,
                "--space", SHELL_SPACE, "--workloads", SHELL_SPACE,
                "--campaign", str(campaign), "--seed", "3", *options, "--adapter", bench]
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(tuneforge.__file__))}
        journal = campaign / log
        child = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                                 stderr=subprocess.DEVNULL)
        try:
            while kill_at is not None and child.poll() is None:
                if journal.exists() and journal.read_bytes().count(b"\n") >= kill_at:
                    child.send_signal(signal.SIGKILL)
                    break
                time.sleep(0.001)
            return child.wait(timeout=60)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()

    def kill_and_resume(self, name, reference, killed, bench):
        """Run stage ``name`` unkilled in ``reference``, and killed at each
        of ``KILL_AT`` and then resumed in ``killed``, two campaigns at the
        same earlier stage; their files must come out equal. Returns the
        reference report."""
        log, report, _ = self.STAGES[name]
        assert self.stage(name, reference, bench) == 0
        want_journal = (reference / log).read_bytes()
        assert want_journal.count(b"\n") > self.KILL_AT[-1] + 5
        for lines in self.KILL_AT:
            assert self.stage(name, killed, bench, kill_at=lines) == -signal.SIGKILL
            assert (killed / log).read_bytes().count(b"\n") >= lines
            assert not (killed / report).exists()
        assert self.stage(name, killed, bench) == 0
        for file in (report, "state.json"):
            assert (killed / file).read_bytes() == (reference / file).read_bytes(), file
        got_journal = (killed / log).read_bytes()
        assert WALL_TIME.sub(b"", got_journal) == WALL_TIME.sub(b"", want_journal)
        assert b"wall_time" not in WALL_TIME.sub(b"", want_journal)
        return json.loads((reference / report).read_bytes())

    def test_killed_and_resumed_profile_matches_an_unkilled_run(self, tmp_path):
        self.kill_and_resume("profile", tmp_path / "reference", tmp_path / "killed", AWK_BENCH)

    @pytest.mark.parametrize("name", ["screen", "joint"])
    def test_killed_and_resumed_later_stage_matches_an_unkilled_run(self, tmp_path, name):
        earlier = tmp_path / "earlier"
        for stage in list(self.STAGES)[:list(self.STAGES).index(name)]:
            assert self.stage(stage, earlier, AWK_PAIR_BENCH) == 0
        reference, killed = tmp_path / "reference", tmp_path / "killed"
        shutil.copytree(earlier, reference)
        shutil.copytree(earlier, killed)
        report = self.kill_and_resume(name, reference, killed, AWK_PAIR_BENCH)
        if name == "screen":
            assert {tuple(r["pair"]) for r in report["records"] if r["confirmed"]} == \
                {("cache_mb", "sync_mode")}
        else:
            assert report["graph"]["components"] == [["cache_mb", "sync_mode"]]
