"""Campaign pipeline across multiple workloads and edge paths."""

import dataclasses
import json
import os
import re
import shutil

import pytest

from helpers import one_workload, store_of, stored_cell, unit_space
from tuneforge import campaign as campaign_mod
from tuneforge.campaign import (DOCUMENT_FILE, LOCK_FILE, SCREEN_LOG, SENSITIVITY_REPORT,
                                STATE_FILE, SWEEP_LOG, Campaign, CampaignState)
from tuneforge.docgen import KnowledgeExport, ProceduralDocument, export_knowledge
from tuneforge.errors import AnalysisError, CrashError, DocumentError, ParameterError
from tuneforge.interaction import InteractionReport
from tuneforge.sensitivity import SensitivityReport
from tuneforge.topology import CorrelationGraph, OptimaReport, plan_joint_search
from tuneforge.executor import run_session
from tuneforge.interaction import PairGrid, choose_pair_levels, stage_a_record, table_from_log
from tuneforge.harness import CampaignStore, Measurement, MeasurementLog, run_plan
from tuneforge.sensitivity import SafeRange, plan_sweep
from tuneforge.simulator import (Coupling, Response, SimulatorAdapter, SimulatorModel)
from tuneforge.space import Configuration, WorkloadSpec, json_scalar, level_grid


@pytest.fixture(scope="module")
def two_workload_setup(tmp_path_factory):
    """Sensitivities diverge across workloads: px matters for w_read only,
    py for both; the coupling exists under both."""
    names = ["px", "py", "pz", "pw"]
    space = unit_space(names)
    workloads = [WorkloadSpec(id="w_read", metric_name="tps", direction="maximize"),
                 WorkloadSpec(id="w_write", metric_name="tps", direction="maximize")]
    model = SimulatorModel(
        base_rate=1000.0, sigma=0.004,
        responses={
            "px": Response(shape="linear-up", strength=0.25),
            "py": Response(shape="linear-up", strength=0.15),
        },
        couplings=[Coupling("px", "py", 1.2)],
        overrides={"w_write": {"px": Response(shape="flat")}})
    adapter = SimulatorAdapter(space, model)
    campaign = Campaign(str(tmp_path_factory.mktemp("two_w")), space, workloads, seed=5)
    sens = campaign.profile(adapter, levels_per_param=5, repetitions=3)
    inter = campaign.screen(adapter)
    optima = campaign.joint(adapter, repetitions=3)
    doc = campaign.compile()
    return {"campaign": campaign, "space": space, "workloads": workloads,
            "model": model, "adapter": adapter, "sens": sens, "inter": inter,
            "optima": optima, "doc": doc}


class TestPerWorkloadSensitivity:
    def test_cv_recorded_per_workload_and_aggregated_by_max(self, two_workload_setup):
        prof = two_workload_setup["sens"].profile("px")
        assert prof.cv_per_workload["w_read"] > 0.2
        assert prof.cv_per_workload["w_write"] < 0.05  # flat override
        assert prof.aggregate_cv == max(prof.cv_per_workload.values())
        assert prof.selected

    def test_per_workload_best_levels_recorded(self, two_workload_setup):
        prof = two_workload_setup["sens"].profile("py")
        assert set(prof.best_level) == {"w_read", "w_write"}


class TestCrossWorkloadTuning:
    def test_session_verifies_candidate_on_secondary_workload(self, two_workload_setup):
        doc = two_workload_setup["doc"]
        session = run_session(doc, two_workload_setup["adapter"], budget=60, seed=19)
        assert session.status == "converged"
        secondary = [e for e in session.trace if e.action == "benchmark"
                     and e.inputs["workload_id"] == "w_write"]
        assert secondary  # the candidate was benchmarked on the other workload
        ratios = [k for k in session.signals if k.startswith("cand_ratio_")]
        assert ratios and all(session.signals[k] >= 0.5 for k in ratios)

    def test_confirmed_on_any_workload_confirms_the_pair(self, two_workload_setup):
        confirmed = two_workload_setup["inter"].confirmed_pairs()
        assert ("px", "py") in confirmed
        per_workload = [r for r in two_workload_setup["inter"].records
                        if r.pair == ("px", "py")]
        assert len(per_workload) == 2  # statistics recorded for each workload


class TestSafeRangeIntersection:
    def test_ranges_intersected_across_workloads(self, tmp_path):
        # px degrades badly above ~0.75 on w_b only: the intersected safe
        # range must exclude that span for every downstream probe
        space = unit_space(["px", "py"])
        workloads = [WorkloadSpec(id="w_a"), WorkloadSpec(id="w_b")]
        model = SimulatorModel(
            base_rate=1000.0,
            responses={"px": Response(shape="linear-up", strength=0.2)},
            overrides={"w_b": {"px": Response(shape="step", threshold=0.8,
                                              low_mult=1.0, high_mult=0.3)}})
        adapter = SimulatorAdapter(space, model)
        campaign = Campaign(str(tmp_path / "inter"), space, workloads, seed=1)
        sens = campaign.profile(adapter, levels_per_param=5, repetitions=2)
        safe = sens.profile("px").safe_range
        assert safe.hi == 0.75


class TestCampaignGuards:
    def test_mismatched_seed_rejected(self, two_workload_setup, tmp_path):
        setup = two_workload_setup
        directory = setup["campaign"].directory
        with pytest.raises(ParameterError):
            Campaign(directory, setup["space"], setup["workloads"], seed=999)

    def test_mismatched_space_rejected(self, two_workload_setup):
        setup = two_workload_setup
        with pytest.raises(ParameterError):
            Campaign(setup["campaign"].directory, unit_space(["other"]),
                     setup["workloads"], seed=5)

    def test_journal_recorded_for_another_space_is_refused(self, tmp_path):
        # A same-seed sweep journal of another space: its records must not
        # answer this campaign's keys (its baseline would read 5.0).
        space = unit_space(["pa", "pb"])
        adapter = InterruptingAdapter(SimulatorAdapter(space, SimulatorModel(
            base_rate=100.0, responses={"pa": Response(shape="linear-up", strength=0.3)})))
        journal = MeasurementLog(seed=4, space_hash="0" * 16)
        for rep in range(2):
            journal.append(Measurement(Configuration({}), "w0", rep, 5.0, "ok"))
        campaign = Campaign(str(tmp_path / "c"), space, one_workload(), seed=4)
        journal.save(campaign.path(SWEEP_LOG))
        with pytest.raises(ParameterError, match="0000000000000000"):
            campaign.profile(adapter, levels_per_param=3, repetitions=2)
        assert adapter.keys == []
        assert not os.path.exists(campaign.path(SENSITIVITY_REPORT))

    def test_compile_reads_no_interaction_report(self, tmp_path):
        # compile takes the graph from the optima report, so a campaign whose
        # interaction report is gone after joint compiles the same document.
        from helpers import run_small_pipeline
        run_small_pipeline(tmp_path / "whole")
        p = run_small_pipeline(tmp_path / "pruned", compile_doc=False)
        os.remove(p["campaign"].path(campaign_mod.INTERACTION_REPORT))
        Campaign(p["campaign"].directory, p["space"], p["workloads"], seed=42).compile()
        with open(tmp_path / "whole" / DOCUMENT_FILE, "rb") as whole, \
                open(tmp_path / "pruned" / DOCUMENT_FILE, "rb") as pruned:
            assert pruned.read() == whole.read()

    def test_screen_with_fewer_than_two_selected_is_empty_not_fatal(self, tmp_path):
        space = unit_space(["only", "flat2"])
        model = SimulatorModel(
            base_rate=100.0,
            responses={"only": Response(shape="linear-up", strength=0.3)})
        adapter = SimulatorAdapter(space, model)
        campaign = Campaign(str(tmp_path / "k1"), space, one_workload(), seed=2)
        campaign.profile(adapter, levels_per_param=4, repetitions=1)
        report = campaign.screen(adapter)
        assert report.records == []


TWO_WORKLOADS = [WorkloadSpec(id="w0", metric_name="tps"),
                 WorkloadSpec(id="w1", metric_name="tps")]


class TestWorkloadDrift:
    """A campaign directory records its workload declaration, in order (the
    first workload is the document's primary). A campaign built on it with
    another declaration is refused, naming each change, before any run."""

    @pytest.mark.parametrize("declared, named", [
        ([TWO_WORKLOADS[0], WorkloadSpec(id="w1", metric_name="tps", direction="minimize")],
         r"workload 'w1' direction maximize -> minimize$"),
        (TWO_WORKLOADS[:1], r"workload 'w1' removed$"),
        (TWO_WORKLOADS + [WorkloadSpec(id="w2")], r"workload 'w2' added$"),
        (TWO_WORKLOADS[::-1], r"workload order \['w0', 'w1'\] -> \['w1', 'w0'\]$"),
    ], ids=["flip", "remove", "add", "reverse"])
    def test_changed_declaration_is_refused_before_any_run(self, tmp_path, declared, named):
        from helpers import SMALL_NAMES, small_model
        space = unit_space(SMALL_NAMES)
        adapter = SimulatorAdapter(space, small_model())
        run_stage(Campaign(str(tmp_path), space, TWO_WORKLOADS, seed=42), "profile", adapter)
        counting = InterruptingAdapter(adapter)
        with pytest.raises(ParameterError, match=named):
            campaign = Campaign(str(tmp_path), space, declared, seed=42)
            for stage in ("screen", "joint", "compile"):
                run_stage(campaign, stage, counting)
        assert counting.keys == []

    def test_state_written_before_the_field_records_the_declaration(self, tmp_path):
        campaign, adapter = small_campaign(tmp_path)
        run_stage(campaign, "profile", adapter)
        path = tmp_path / STATE_FILE
        data = json.loads(path.read_text())
        assert data.pop("workloads") == [w.to_json() for w in one_workload()]
        path.write_text(json.dumps(data))
        campaign, adapter = small_campaign(tmp_path)
        assert campaign.state.workloads == one_workload()
        assert json.loads(path.read_text())["workloads"] == [w.to_json() for w in one_workload()]
        run_stage(campaign, "screen", adapter)


class TestAtomicWrites:
    @pytest.mark.parametrize("failure", ["unserializable", "rename"])
    @pytest.mark.parametrize("artifact", ["state", "sensitivity", "interaction", "optima",
                                          "document", "export"])
    def test_failed_save_leaves_previous_file_intact(self, two_workload_setup, tmp_path,
                                                     monkeypatch, artifact, failure):
        setup = two_workload_setup
        if artifact == "state":
            campaign = Campaign(str(tmp_path), setup["space"], setup["workloads"], seed=5)
            obj, path, save = campaign.state, campaign.path(STATE_FILE), campaign._save_state
        else:
            obj = {"sensitivity": setup["sens"], "interaction": setup["inter"],
                   "optima": setup["optima"], "document": setup["doc"],
                   "export": export_knowledge(setup["doc"])}[artifact]
            path = str(tmp_path / f"{artifact}.json")

            def save():
                obj.save(path)
            save()
        with open(path, "rb") as fh:
            before = fh.read()
        if failure == "unserializable":
            monkeypatch.setattr(type(obj), "to_json",
                                lambda self: {"ok": 1, "unserializable": object()})
            expected = TypeError
        else:
            def refuse(src, dst):
                raise OSError("rename refused")
            monkeypatch.setattr(os, "replace", refuse)
            expected = OSError
        with pytest.raises(expected):
            save()
        with open(path, "rb") as fh:
            assert fh.read() == before
        assert os.listdir(tmp_path) == [os.path.basename(path)]


    @pytest.mark.parametrize("name", ["trace.jsonl", "final_config.properties"])
    def test_failed_tune_write_leaves_previous_file_intact(self, two_workload_setup, tmp_path,
                                                           monkeypatch, name):
        setup = two_workload_setup
        shutil.copytree(setup["campaign"].directory, tmp_path / "c")
        campaign = Campaign(str(tmp_path / "c"), setup["space"], setup["workloads"], seed=5)
        for previous in ("trace.jsonl", "final_config.properties"):
            (tmp_path / "c" / previous).write_text("previous\n")
        before = sorted(os.listdir(tmp_path / "c"))
        replace = os.replace

        def refuse(src, dst):
            if dst.endswith(name):
                raise OSError("rename refused")
            replace(src, dst)
        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            campaign.tune(setup["adapter"], budget=60, seed=1)
        assert (tmp_path / "c" / name).read_text() == "previous\n"
        assert sorted(os.listdir(tmp_path / "c")) == before

    @pytest.mark.parametrize("cls, error", [
        (CampaignState, AnalysisError), (SensitivityReport, AnalysisError),
        (InteractionReport, AnalysisError), (OptimaReport, AnalysisError),
        (ProceduralDocument, DocumentError), (KnowledgeExport, DocumentError)])
    def test_truncated_file_is_an_error_naming_it(self, tmp_path, cls, error):
        path = tmp_path / "artifact.json"
        path.write_text('{"schema_version": 2, "fing')
        with pytest.raises(error, match=re.escape(f"{path} is not valid JSON")):
            cls.load(str(path))


class TestLoadersRequireTheirKeys:
    """State and optima report load only with exactly the keys their
    ``to_json`` writes, so a misspelled key cannot load as a default."""

    def test_renamed_state_key_fails_the_load(self, tmp_path):
        campaign, adapter = small_campaign(tmp_path)
        run_stage(campaign, "profile", adapter)
        path = tmp_path / STATE_FILE
        data = json.loads(path.read_text())
        data["runs_usd"] = data.pop("runs_used")
        path.write_text(json.dumps(data))
        with pytest.raises(AnalysisError,
                           match=r"missing keys \['runs_used'\], unknown keys \['runs_usd'\]"):
            small_campaign(tmp_path)

    def test_renamed_optima_report_key_fails_the_load(self, tmp_path):
        graph = CorrelationGraph(nodes=["a"], edges=[], components=[["a"]])
        path = tmp_path / "optima.json"
        OptimaReport(campaign_id="c", space_hash="h", graph=graph, optima=[],
                     baseline_means={"w0": 1.0}, runs_used=7).save(str(path))
        assert OptimaReport.load(str(path)).runs_used == 7
        data = json.loads(path.read_text())
        assert "rejected" not in data  # written only when a component was rejected
        data["rejected"] = [{"component": ["a", "b"], "reason": "too big"}]
        path.write_text(json.dumps(data))
        assert OptimaReport.load(str(path)).rejected == data["rejected"]
        data["runs_usd"] = data.pop("runs_used")
        path.write_text(json.dumps(data))
        with pytest.raises(AnalysisError,
                           match=r"missing keys \['runs_used'\], unknown keys \['runs_usd'\]"):
            OptimaReport.load(str(path))

    @pytest.mark.parametrize("fingerprint, named", [
        ({}, r"missing keys \['campaign_id', 'space_hash'\], unknown keys \[\]"),
        ({"campaign_id": "c", "space_hash": "h", "seed": "1"},
         r"missing keys \[\], unknown keys \['seed'\]")], ids=["empty", "extra-key"])
    def test_document_fingerprint_holds_exactly_its_keys(self, tmp_path, fingerprint, named):
        # read by a fresh object, as a resume or `tune` reads it: the object
        # that compiled the document holds it and reads no file
        from helpers import run_small_pipeline
        p = run_small_pipeline(tmp_path)
        path = tmp_path / DOCUMENT_FILE
        data = json.loads(path.read_text())
        data["fingerprint"] = fingerprint
        path.write_text(json.dumps(data))
        campaign = Campaign(str(tmp_path), p["space"], p["workloads"], seed=42)
        with pytest.raises(DocumentError, match=f"document: fingerprint: {named}"):
            campaign.document()


class TestResumeRefusesWronglyTypedValues:
    """A value of the wrong JSON type is refused where a resume reads it, with
    the load error naming its key, instead of loading as another value."""

    @staticmethod
    def edited(path, edit):
        data = json.loads(path.read_text())
        edit(data)
        path.write_text(json.dumps(data))

    def test_string_selected_in_a_sensitivity_profile(self, tmp_path):
        # "false" is truthy: it would put the parameter in the top-k
        campaign, adapter = small_campaign(tmp_path)
        run_stage(campaign, "profile", adapter)
        path = tmp_path / SENSITIVITY_REPORT
        profiles = json.loads(path.read_text())["profiles"]
        unselected = next(i for i, p in enumerate(profiles) if not p["selected"])
        self.edited(path, lambda d: d["profiles"][unselected].update(selected="false"))
        campaign, adapter = small_campaign(tmp_path)
        with pytest.raises(AnalysisError,
                           match=r"^sensitivity profile: selected: 'false' is not bool$"):
            run_stage(campaign, "screen", adapter)

    def test_string_confirmed_in_an_interaction_record(self, tmp_path):
        campaign, adapter = small_campaign(tmp_path)
        for stage in ("profile", "screen"):
            run_stage(campaign, stage, adapter)
        path = tmp_path / campaign_mod.INTERACTION_REPORT
        self.edited(path, lambda d: d["records"][0].update(confirmed="no"))
        campaign, adapter = small_campaign(tmp_path)
        with pytest.raises(AnalysisError,
                           match=r"^interaction record: confirmed: 'no' is not bool$"):
            run_stage(campaign, "joint", adapter)

    def test_string_seed_in_the_campaign_state(self, tmp_path):
        campaign, adapter = small_campaign(tmp_path)
        run_stage(campaign, "profile", adapter)
        self.edited(tmp_path / STATE_FILE, lambda d: d.update(seed=str(d["seed"])))
        with pytest.raises(AnalysisError, match=r"^campaign state: seed: '42' is not int$"):
            small_campaign(tmp_path)


class TestEnumParameters:
    def test_middle_enum_value_survives_compile_and_tune(self, tmp_path):
        # a ternary enum whose optimum is the MIDDLE value: document grids
        # must keep all three levels so the candidate can adopt it
        from tuneforge.space import Domain, ParameterSpace, ParameterSpec

        space = ParameterSpace((
            ParameterSpec(name="mode", domain=Domain("enum", values=("a", "b", "c")),
                          default="a"),
            ParameterSpec(name="gain", domain=Domain("continuous", 0.0, 1.0),
                          default=0.0),
        ))
        # quadratic peak at ordinal 0.5 -> value "b" is strictly best
        model = SimulatorModel(
            base_rate=100.0, sigma=0.0,
            responses={"mode": Response(shape="quadratic-peak", strength=0.3, peak=0.5),
                       "gain": Response(shape="linear-up", strength=0.2)})
        adapter = SimulatorAdapter(space, model)
        campaign = Campaign(str(tmp_path / "enum"), space,
                            [WorkloadSpec(id="w0")], seed=4)
        campaign.profile(adapter, levels_per_param=3, repetitions=1)
        campaign.screen(adapter)
        campaign.joint(adapter, repetitions=1)
        doc = campaign.compile()
        assert doc.grids["mode"] == ("a", "b", "c")
        session = run_session(doc, adapter, budget=40, seed=4)
        assert session.status == "converged"
        assert session.final_config.assignments["mode"] == "b"
        assert session.final_config.assignments["gain"] == 1.0


class TestUnsafeToScreen:
    def test_missing_cells_yield_unsafe_record(self, two_workload_setup):
        # a store without the pair's configurations cannot produce a balanced table
        grid = PairGrid(("px", "py"), [0.0, 1.0], [0.0, 1.0])
        record = stage_a_record(table_from_log(store_of([]), grid, one_workload()[0].id))
        assert record.unsafe_to_screen
        assert record.stage_a_verdict is None and record.stage_a_int_pct is None
        assert not record.advances()

    def test_a_collapsed_member_leaves_each_of_its_pairs_without_levels(self,
                                                                       two_workload_setup):
        sens = two_workload_setup["sens"]
        sens = dataclasses.replace(sens, profiles=[
            dataclasses.replace(p, safe_range=SafeRange(lo=0.5, hi=0.5))
            if p.parameter == "px" else p for p in sens.profiles])
        levels = choose_pair_levels([("px", "py"), ("pw", "px"), ("py", "pz")], sens,
                                    two_workload_setup["space"])
        assert levels[("px", "py")] is None and levels[("pw", "px")] is None
        assert levels[("py", "pz")].stage_a == ([0.0, 1.0], [0.0, 1.0])

    def test_interior_levels_avoid_safe_range_endpoints(self, two_workload_setup):
        setup = two_workload_setup
        pl = choose_pair_levels([("px", "py")], setup["sens"], setup["space"],
                                interior=True)[("px", "py")]
        safe = setup["sens"].profile("px").safe_range
        for v in pl.stage_a[0]:
            assert float(safe.lo) < v < float(safe.hi)


class PerWorkloadAdapter:
    """One simulator model per workload id behind one adapter."""

    def __init__(self, space, models):
        self.space = space
        self.max_concurrency = 1
        self._adapters = {w: SimulatorAdapter(space, m) for w, m in models.items()}

    def measure(self, config, workload, seed):
        return self._adapters[workload.id].measure(config, workload, seed)


class TestStageBPlan:
    def test_no_stage_b_cell_where_stage_a_was_independent(self, tmp_path):
        # pa x pb couples on w_on only. On w_off the pair's one interaction is
        # the product of its main effects (Int% about 3), so it is independent.
        space = unit_space(["pa", "pb", "pc"])
        workloads = [WorkloadSpec(id="w_on"), WorkloadSpec(id="w_off")]
        responses = {n: Response(shape="linear-up", strength=0.2) for n in ("pa", "pb", "pc")}
        adapter = PerWorkloadAdapter(space, {
            "w_on": SimulatorModel(base_rate=1000.0, sigma=0.002, responses=responses,
                                   couplings=[Coupling("pa", "pb", 1.5)]),
            "w_off": SimulatorModel(base_rate=1000.0, sigma=0.002, responses=responses)})
        campaign = Campaign(str(tmp_path / "b"), space, workloads, seed=3)
        campaign.profile(adapter, levels_per_param=5, repetitions=2)
        inter = campaign.screen(adapter)
        verdicts = {(r.pair, r.workload_id): r.stage_a_verdict for r in inter.records}
        assert verdicts[(("pa", "pb"), "w_on")] == "advance"
        assert verdicts[(("pa", "pb"), "w_off")] == "independent"
        assert ("pa", "pb") in inter.confirmed_pairs()
        log = MeasurementLog.load(campaign.path(SCREEN_LOG))
        for (pair, wid), verdict in verdicts.items():
            records = [m for m in log if m.workload_id == wid
                       and tuple(sorted(m.config.assignments)) == pair]
            if verdict == "independent":
                # the 2x2 stage-A corners at one repetition, nothing else
                assert len(records) == 4 and all(m.repetition == 0 for m in records)
            else:
                assert any(m.repetition == 2 for m in records)


def full_grid_sweep_plan(space, workloads, levels_per_param, repetitions):
    """The sweep plan of earlier versions: every grid level, the default's too."""
    plan = [(Configuration({}), w, rep) for w in workloads for rep in range(repetitions)]
    for spec in space:
        for value in level_grid(spec, levels_per_param):
            plan += [(Configuration({spec.name: value}), w, rep)
                     for w in workloads for rep in range(repetitions)]
    return plan


class TestSweepResume:
    def test_full_grid_log_resumes_with_no_fresh_runs_and_the_same_report(self, tmp_path):
        space = unit_space(["pa", "pb", "pc"])
        workloads = [WorkloadSpec(id="w_a"), WorkloadSpec(id="w_b", direction="minimize")]
        adapter = SimulatorAdapter(space, SimulatorModel(
            base_rate=500.0, sigma=0.01,
            responses={"pa": Response(shape="linear-up", strength=0.3),
                       "pb": Response(shape="quadratic-peak", strength=0.2, peak=0.6)}))
        old_plan = full_grid_sweep_plan(space, workloads, 5, 2)
        assert len(old_plan) == len(plan_sweep(space, workloads, 5, 2)) + 3 * 2 * 2

        resumed = Campaign(str(tmp_path / "resumed"), space, workloads, seed=11)
        journal = MeasurementLog(seed=11, space_hash=space.space_hash())
        for m in run_plan(adapter, old_plan, seed=11):
            journal.append(m)
        journal.save(resumed.path(SWEEP_LOG))
        counting = InterruptingAdapter(adapter)
        resumed.profile(counting, levels_per_param=5, repetitions=2)
        assert counting.keys == []
        # the sweep journal holds every run of the old plan
        assert resumed.state.runs_used["sensitivity"] == len(old_plan)

        fresh = Campaign(str(tmp_path / "fresh"), space, workloads, seed=11)
        fresh.profile(adapter, levels_per_param=5, repetitions=2)
        assert fresh.state.runs_used["sensitivity"] == len(old_plan) - 12
        with open(resumed.path(SENSITIVITY_REPORT), "rb") as a, \
                open(fresh.path(SENSITIVITY_REPORT), "rb") as b:
            assert a.read() == b.read()


class TestLock:
    def test_unlocked_lock_file_is_taken(self, tmp_path):
        # a file left behind by an owner that is gone holds no flock
        campaign = Campaign(str(tmp_path), unit_space(["p"]), one_workload(), seed=0)
        path = campaign.path(LOCK_FILE)
        with open(path, "w") as fh:
            fh.write("123")
        with campaign.lock():
            with open(path) as fh:
                assert fh.read() == str(os.getpid())
        assert not os.path.exists(path)

    def test_held_lock_is_refused_and_kept(self, tmp_path):
        a = Campaign(str(tmp_path), unit_space(["p"]), one_workload(), seed=0)
        b = Campaign(str(tmp_path), unit_space(["p"]), one_workload(), seed=0)
        path = a.path(LOCK_FILE)
        with a.lock():
            with pytest.raises(ParameterError, match="locked by another process"):
                with b.lock():
                    pass
            with open(path) as fh:
                assert fh.read() == str(os.getpid())
        assert not os.path.exists(path)

    def test_lock_on_a_removed_file_is_refused(self, tmp_path, monkeypatch):
        campaign = Campaign(str(tmp_path), unit_space(["p"]), one_workload(), seed=0)
        path = campaign.path(LOCK_FILE)
        real_flock = campaign_mod.fcntl.flock

        def flock(fd, op):
            # the previous owner releases, and a third process locks a new
            # file, between this process's open and its flock
            os.remove(path)
            open(path, "w").close()
            return real_flock(fd, op)

        monkeypatch.setattr(campaign_mod.fcntl, "flock", flock)
        with pytest.raises(ParameterError, match="locked by another process"):
            with campaign.lock():
                pass
        assert os.path.exists(path)


class TestOversizedComponent:
    def test_component_over_the_cap_is_recorded_and_skipped(self, tmp_path, monkeypatch):
        # With the cap at 1 the small campaign's {pa, pb} component is over it.
        from helpers import run_small_pipeline
        from tuneforge import topology
        monkeypatch.setattr(topology, "COMPONENT_CAP", 1)
        p = run_small_pipeline(tmp_path)
        reason = ("component ['pa', 'pb'] exceeds the size cap 1; "
                  "decompose it manually before joint search")
        assert p["optima"].graph.multi_components() == [["pa", "pb"]]
        assert p["optima"].optima == []
        assert p["optima"].rejected == [{"component": ["pa", "pb"], "reason": reason}]
        loaded = OptimaReport.load(str(tmp_path / campaign_mod.OPTIMA_REPORT))
        assert loaded.rejected == p["optima"].rejected
        assert loaded.serialize() == p["optima"].serialize()

        doc = p["doc"]
        assert not [s for s in doc.skills if s.id.startswith("joint_")]
        assert {"verify_pa", "verify_pb"} <= {s.id for s in doc.skills}
        assert run_session(doc, p["adapter"], budget=60, seed=1).status == "converged"

    def test_report_without_rejections_has_no_rejected_key(self, tmp_path):
        from helpers import run_small_pipeline
        p = run_small_pipeline(tmp_path, compile_doc=False)
        assert "rejected" not in p["optima"].to_json()


class InterruptingAdapter:
    """Measures through ``inner`` and raises KeyboardInterrupt, as a kill
    would, once ``limit`` measurements have completed; records every key,
    and as ``killed_at`` the key of the run the kill stopped."""

    def __init__(self, inner, limit=None):
        self.space = inner.space
        self.max_concurrency = 1
        self.inner = inner
        self.limit = limit
        self.keys = []
        self.killed_at = None

    def measure(self, config, workload, seed):
        if self.limit is not None and len(self.keys) == self.limit:
            self.killed_at = (config.canonical(), workload.id, seed)
            raise KeyboardInterrupt
        value = self.inner.measure(config, workload, seed)
        self.keys.append((config.canonical(), workload.id, seed))
        return value


def small_campaign(directory, seed=42):
    """A campaign whose joint stage searches the 3-member chain pa-pb-pc.
    28 of its 64 grid points are runs the sweep and the screen already made.
    As effective configurations: the baseline, the three sweep runs with one
    member at 1.0, and the 18 stage-B cells of pa-pb and pb-pc that name no
    default member. As a pair's stage-B cell: the six points with one member
    at 1/3 or 2/3, which the screen ran beside its partner's default. The
    pa-pc stage-A corner gives one more run, so 107 of the 192 grid runs are
    fresh."""
    from helpers import SMALL_NAMES
    space = unit_space(SMALL_NAMES)
    model = SimulatorModel(
        base_rate=1000.0, sigma=0.005,
        responses={"pa": Response(shape="linear-up", strength=0.12),
                   "pb": Response(shape="linear-up", strength=0.10),
                   "pc": Response(shape="linear-up", strength=0.20),
                   "pd": Response(shape="linear-down", strength=0.15)},
        couplings=[Coupling("pa", "pb", 1.5), Coupling("pb", "pc", 1.5)])
    return (Campaign(str(directory), space, one_workload(), seed=seed),
            SimulatorAdapter(space, model))


def run_stage(campaign, stage, adapter):
    if stage == "profile":
        return campaign.profile(adapter, levels_per_param=5, repetitions=3, tau_s=0.05)
    if stage == "screen":
        return campaign.screen(adapter)
    if stage == "joint":
        return campaign.joint(adapter, repetitions=3)
    return campaign.compile()


STAGE_NAMES = ("profile", "screen", "joint", "compile")
JOURNALS = (SWEEP_LOG, SCREEN_LOG, campaign_mod.JOINT_LOG)


class TestCampaignStore:
    def test_fresh_campaign_reads_no_log_and_only_appends(self, tmp_path, monkeypatch):
        calls = []
        for name in ("load", "save"):
            monkeypatch.setattr(MeasurementLog, name,
                                lambda *a, name=name, **k: calls.append(name))
        campaign, adapter = small_campaign(tmp_path)

        def journal_bytes():
            return {n: open(campaign.path(n), "rb").read()
                    if os.path.exists(campaign.path(n)) else b"" for n in JOURNALS}

        for stage in STAGE_NAMES:
            before = journal_bytes()
            run_stage(campaign, stage, adapter)
            after = journal_bytes()
            for name in JOURNALS:
                assert after[name].startswith(before[name]), (stage, name)
        assert calls == []
        monkeypatch.undo()
        joint = MeasurementLog.load(campaign.path(campaign_mod.JOINT_LOG))
        assert joint.meta == {"stage": "joint"}
        assert len(joint) == campaign.state.runs_used["joint"] > 0
        assert not [m for m in joint if m.config.is_default()]

    def test_joint_baseline_is_the_sweeps_and_measures_nothing(self, tmp_path):
        campaign, adapter = small_campaign(tmp_path)
        for stage in ("profile", "screen"):
            run_stage(campaign, stage, adapter)
        counting = InterruptingAdapter(adapter)
        optima = campaign.joint(counting, repetitions=3)
        assert not [k for k in counting.keys if k[0] == "{}"]
        assert optima.baseline_means == \
            SensitivityReport.load(campaign.path(SENSITIVITY_REPORT)).baseline_means
        assert optima.graph.multi_components() == [["pa", "pb", "pc"]]
        assert optima.runs_used == len(counting.keys) == campaign.state.runs_used["joint"] > 0
        assert campaign.state.budgets["joint"] == 3 + 4 ** 3 * 3  # baseline and grid

    def test_joint_means_read_only_the_repetitions_its_plan_names(self, tmp_path):
        # The {pa, pb} grid is the screen's stage-B grid, which the store
        # holds at 3 repetitions; a joint search at 2 averages 2 of them.
        from helpers import run_small_pipeline
        p = run_small_pipeline(tmp_path, compile_doc=False)
        campaign = p["campaign"]
        counting = InterruptingAdapter(p["adapter"])
        (opt,) = campaign.joint(counting, repetitions=2).optima
        assert counting.keys == []
        cell = stored_cell(campaign.store, opt.best_config, "w0")
        assert len(cell) == 3
        assert opt.best_metric == (cell[0].metric_value + cell[1].metric_value) / 2

    def test_resume_through_a_new_campaign_parses_each_journal_once(self, tmp_path,
                                                                     monkeypatch):
        from tuneforge import harness
        campaign, adapter = small_campaign(tmp_path)
        for stage in STAGE_NAMES:
            run_stage(campaign, stage, adapter)
        reads = []
        real = harness.read_journal

        def counting(path, start, configs):
            reads.append(os.path.basename(path))
            return real(path, start, configs)

        monkeypatch.setattr(harness, "read_journal", counting)
        resumed, _ = small_campaign(tmp_path)
        counting_adapter = InterruptingAdapter(adapter)
        for stage in STAGE_NAMES:
            run_stage(resumed, stage, counting_adapter)
        assert counting_adapter.keys == []
        assert sorted(reads) == sorted(JOURNALS)

    def test_interrupted_joint_stage_resumes_without_measuring_a_key_twice(self, tmp_path):
        reference, adapter = small_campaign(tmp_path / "reference")
        for stage in STAGE_NAMES:
            run_stage(reference, stage, adapter)
        campaign, _ = small_campaign(tmp_path / "interrupted")
        for stage in ("profile", "screen"):
            run_stage(campaign, stage, adapter)
        first = InterruptingAdapter(adapter, limit=5)
        with pytest.raises(KeyboardInterrupt):
            campaign.joint(first, repetitions=3)
        resumed, _ = small_campaign(tmp_path / "interrupted")
        second = InterruptingAdapter(adapter)
        optima = resumed.joint(second, repetitions=3)
        assert len(first.keys) == 5 and second.keys
        assert not set(first.keys) & set(second.keys)
        assert len(first.keys) + len(second.keys) == reference.state.runs_used["joint"]
        assert [o.to_json() for o in optima.optima] == \
            [o.to_json() for o in OptimaReport.load(
                reference.path(campaign_mod.OPTIMA_REPORT)).optima]
        with open(resumed.path(campaign_mod.OPTIMA_REPORT), "rb") as got, \
                open(reference.path(campaign_mod.OPTIMA_REPORT), "rb") as want:
            assert got.read() == want.read()


def effective_key(space, m):
    """The key under which the system sees the run ``m``: its configuration
    without the members at their default, compared by canonical text."""
    kept = {name: value for name, value in m.config.assignments.items()
            if json_scalar(value) != json_scalar(space.get(name).default)}
    return Configuration(kept).canonical(), m.workload_id, m.repetition


@pytest.fixture(scope="module")
def joint_runs(tmp_path_factory):
    """The small campaign after its joint stage, the effective keys of the
    runs its sweep and screen journals held before that stage, and the joint
    journal's records."""
    campaign, adapter = small_campaign(tmp_path_factory.mktemp("joint"))
    for stage in ("profile", "screen"):
        run_stage(campaign, stage, adapter)
    held = {effective_key(campaign.space, m) for name in (SWEEP_LOG, SCREEN_LOG)
            for m in MeasurementLog.load(campaign.path(name))}
    optima = run_stage(campaign, "joint", adapter)
    return campaign, optima, held, list(MeasurementLog.load(campaign.path(campaign_mod.JOINT_LOG)))


class TestJointEffectiveConfigurations:
    """The joint stage looks each grid point up as its effective configuration
    and as its screened pair's stage-B cell, so a point the sweep or the
    screen already ran, in either form, is answered from the store."""

    def test_joint_stage_journals_107_of_192_grid_runs(self, joint_runs):
        campaign, optima, _, fresh = joint_runs
        assert len(fresh) == optima.runs_used == campaign.state.runs_used["joint"] == 107
        assert campaign.state.budgets["joint"] == 3 + 4 ** 3 * 3
        # an optimum keeps every member of its component, defaults included
        assert [sorted(o.best_config.assignments) for o in optima.optima] == [["pa", "pb", "pc"]]

    def test_no_fresh_joint_run_names_a_member_at_its_default(self, joint_runs):
        campaign, _, _, fresh = joint_runs
        defaults = {p.name: json_scalar(p.default) for p in campaign.space}
        assert not [m.config.canonical() for m in fresh
                    if any(json_scalar(v) == defaults[n] for n, v in m.config.assignments.items())]

    def test_no_fresh_joint_run_repeats_a_run_the_store_held(self, joint_runs):
        campaign, _, held, fresh = joint_runs
        assert not [m.key() for m in fresh if effective_key(campaign.space, m) in held]

    def test_optimum_at_a_screened_cell_is_that_cells_mean(self, tmp_path):
        # pa peaks at 2/3 and pb only hurts beside it, so the optimum is
        # {pa: 2/3, pb: 0.0}: a stage-B cell, whose effective configuration
        # {pa: 2/3} neither the sweep nor the screen ran.
        space = unit_space(["pa", "pb", "pc"])
        model = SimulatorModel(
            base_rate=1000.0, sigma=0.005,
            responses={"pa": Response(shape="quadratic-peak", strength=0.3, peak=2 / 3),
                       "pb": Response(shape="linear-up", strength=0.15)},
            couplings=[Coupling("pa", "pb", -0.6)])
        campaign = Campaign(str(tmp_path), space, one_workload(), seed=42)
        adapter = SimulatorAdapter(space, model)
        for stage in ("profile", "screen"):
            run_stage(campaign, stage, adapter)
        counting = InterruptingAdapter(adapter)
        (opt,) = campaign.joint(counting, repetitions=3).optima
        assert counting.keys == []
        assert opt.best_config.assignments == {"pa": pytest.approx(2 / 3), "pb": 0.0}
        assert stored_cell(campaign.store, space.effective(opt.best_config), "w0") == ()
        cell = stored_cell(campaign.store, opt.best_config, "w0")
        assert len(cell) == 3
        assert opt.best_metric == sum(m.metric_value for m in cell) / 3


class TestJournalRepair:
    """Journals left damaged by a killed writer resume without losing runs."""

    def test_torn_sweep_journal_loses_no_later_record(self, tmp_path):
        campaign, adapter = small_campaign(tmp_path)
        with pytest.raises(KeyboardInterrupt):
            run_stage(campaign, "profile", InterruptingAdapter(adapter, limit=4))
        with open(campaign.path(SWEEP_LOG), "a", encoding="utf-8") as fh:
            fh.write('{"config": {"pa": 0.9}, "workl')  # killed mid-write
        with pytest.raises(KeyboardInterrupt):
            run_stage(small_campaign(tmp_path)[0], "profile",
                      InterruptingAdapter(adapter, limit=4))
        resumed, _ = small_campaign(tmp_path)
        rest = InterruptingAdapter(adapter)
        run_stage(resumed, "profile", rest)
        assert len(rest.keys) == resumed.state.budgets["sensitivity"] - 8

    def test_empty_sweep_journal_resumes_from_nothing(self, tmp_path):
        # killed between creating the journal and writing its header
        campaign, adapter = small_campaign(tmp_path)
        open(campaign.path(SWEEP_LOG), "w").close()
        counting = InterruptingAdapter(adapter)
        run_stage(campaign, "profile", counting)
        assert len(counting.keys) == campaign.state.budgets["sensitivity"]
        assert len(MeasurementLog.load(campaign.path(SWEEP_LOG))) == len(counting.keys)


def campaign_files(directory):
    """Every file of a campaign directory: journals as their header line and
    the sorted records without ``wall_time``, other files as bytes."""
    files = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            data = fh.read()
        if name in JOURNALS:
            header, *lines = data.splitlines()
            records = [json.loads(line) for line in lines]
            for record in records:
                del record["wall_time"]
            data = header, sorted(json.dumps(r, sort_keys=True) for r in records)
        files[name] = data
    return files


def run_to_the_end(directory, adapter):
    """Run every stage a fresh ``Campaign`` on ``directory`` has not finished."""
    campaign, _ = small_campaign(directory)
    for i, stage in enumerate(STAGE_NAMES):
        if campaign.state.stage_index() <= i:
            run_stage(campaign, stage, adapter)


def tear_last_line(path):
    """Cut the last line of ``path`` in half, as a writer killed mid-line would."""
    with open(path, "rb") as fh:
        data = fh.read()
    start = data.rstrip(b"\n").rfind(b"\n") + 1
    with open(path, "wb") as fh:
        fh.write(data[:start + (len(data) - start) // 2])


class TestKillPointCensus:
    """A campaign killed after any number of runs, and resumed with a fresh
    ``Campaign``, ends with the files of an uninterrupted run. So does one
    whose journal's last line was then torn in half. Every kill point
    passes; this test samples every 8th and each stage's first and last run."""

    def test_resume_from_a_kill_point_leaves_the_uninterrupted_files(self, tmp_path):
        reference, adapter = small_campaign(tmp_path / "reference")
        counting = InterruptingAdapter(adapter)
        starts, ends = [], []
        for stage in STAGE_NAMES:
            starts.append(len(counting.keys))
            run_stage(reference, stage, counting)
            ends.append(len(counting.keys))
        want = campaign_files(reference.directory)
        points = sorted(set(range(0, ends[-1], 8)) | set(starts[:3]) | {n - 1 for n in ends[:3]})
        differ, torn = [], 0
        for n in points:
            killed = tmp_path / f"killed-{n}"
            campaign, _ = small_campaign(killed)
            interrupting = InterruptingAdapter(adapter, limit=n)
            with pytest.raises(KeyboardInterrupt):
                for stage in STAGE_NAMES:
                    run_stage(campaign, stage, interrupting)
            journal = killed / JOURNALS[STAGE_NAMES.index(stage)]
            resumes = [killed]
            if journal.exists() and journal.stat().st_size:
                shutil.copytree(killed, tmp_path / f"torn-{n}")
                tear_last_line(tmp_path / f"torn-{n}" / journal.name)
                resumes.append(tmp_path / f"torn-{n}")
                torn += 1
            for directory in resumes:
                run_to_the_end(directory, adapter)
                got = campaign_files(directory)
                differ += [(directory.name, name) for name in want if got.get(name) != want[name]]
                differ += [(directory.name, name) for name in got if name not in want]
                shutil.rmtree(directory)
        # a kill at a stage's first run comes before its journal exists
        assert len(points) > 40 and torn == len(points) - 3
        assert differ == []


class TestRepeatedResume:
    """A joint stage killed, resumed and killed again at the same run, then
    resumed once more, ends with the files of an uninterrupted run. Which
    form a grid point runs as depends on what the store holds, so this pins
    that every resume chooses the forms the first invocation chose."""

    @staticmethod
    def kill_points(campaign):
        """Joint kill points, counted in fresh joint runs: one right after
        plan entries the screen's pair cells served, one inside a stretch of
        fresh effective configurations."""
        sens = SensitivityReport.load(campaign.path(SENSITIVITY_REPORT))
        plan = plan_joint_search(["pa", "pb", "pc"], sens, campaign.space, campaign.workloads)
        entries = plan.entries(campaign.space, campaign.store)
        fresh = {m.key() for m in MeasurementLog.load(campaign.path(campaign_mod.JOINT_LOG))}
        at = [i for i, (c, w, rep) in enumerate(entries) if (c.canonical(), w.id, rep) in fresh]
        paired = [i for i, (c, _, _) in enumerate(entries) if c != campaign.space.effective(c)]
        assert len(at) == 107 and len(paired) == 18
        after_pairs = next(k for k in range(1, len(at))
                           if any(at[k - 1] < i < at[k] for i in paired))
        inside_fresh = next(k for k in range(2, len(at)) if at[k - 2] == at[k] - 2)
        return after_pairs, inside_fresh

    def test_second_resume_from_the_same_kill_point_leaves_the_uninterrupted_files(self,
                                                                                    tmp_path):
        reference, adapter = small_campaign(tmp_path / "reference")
        for stage in STAGE_NAMES:
            run_stage(reference, stage, adapter)
        want = campaign_files(reference.directory)
        for n in self.kill_points(reference):
            killed = tmp_path / f"killed-{n}"
            campaign, _ = small_campaign(killed)
            for stage in ("profile", "screen"):
                run_stage(campaign, stage, adapter)
            first = InterruptingAdapter(adapter, limit=n)
            with pytest.raises(KeyboardInterrupt):
                campaign.joint(first, repetitions=3)
            again = InterruptingAdapter(adapter, limit=0)
            with pytest.raises(KeyboardInterrupt):
                small_campaign(killed)[0].joint(again, repetitions=3)
            assert again.killed_at == first.killed_at is not None
            run_to_the_end(killed, adapter)
            assert campaign_files(killed) == want, n


STAGE_REPORTS = (SENSITIVITY_REPORT, campaign_mod.INTERACTION_REPORT, campaign_mod.OPTIMA_REPORT,
                 DOCUMENT_FILE)


class TestRefusedReplace:
    """A stage whose report or state file cannot be moved into place raises
    OSError; a fresh ``Campaign`` then resumes to the files of an
    uninterrupted run."""

    @pytest.mark.parametrize("stage, name", [
        (stage, name) for stage, report in zip(STAGE_NAMES, STAGE_REPORTS)
        for name in (report, STATE_FILE)])
    def test_resume_after_a_refused_replace_leaves_the_uninterrupted_files(
            self, tmp_path, monkeypatch, stage, name):
        reference, adapter = small_campaign(tmp_path / "reference")
        for each in STAGE_NAMES:
            run_stage(reference, each, adapter)
        want = campaign_files(reference.directory)

        campaign, _ = small_campaign(tmp_path / "refused")
        for each in STAGE_NAMES[:STAGE_NAMES.index(stage)]:
            run_stage(campaign, each, adapter)
        replace, refused = os.replace, []

        def refuse_once(src, dst):
            if os.path.basename(dst) == name and not refused:
                refused.append(dst)
                raise OSError(f"refused replacing {dst}")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", refuse_once)
        with pytest.raises(OSError, match="refused"):
            run_stage(campaign, stage, adapter)
        monkeypatch.setattr(os, "replace", replace)
        assert refused == [campaign.path(name)]
        run_to_the_end(campaign.directory, adapter)
        assert campaign_files(campaign.directory) == want


class FailingJournal:
    """A journal file as ``CampaignStore._open`` returned it, except that the
    record line numbered ``at`` in ``written`` (counted across opens) is
    refused with OSError or reaches the file only in half."""

    def __init__(self, fh, written, at, failure):
        self.fh, self.written, self.at, self.failure = fh, written, at, failure

    def write(self, data):
        self.written.append(data)
        if len(self.written) != self.at:
            return self.fh.write(data)
        if self.failure == "refused":
            raise OSError("journal write refused")
        return self.fh.write(data[:len(data) // 2])

    def __getattr__(self, name):
        return getattr(self.fh, name)


class TestFailedJournalWrite:
    """A run whose journal line is refused, or written only in part, aborts
    its plan with OSError; the store counts only the complete lines, and a
    fresh ``Campaign`` then resumes to the files of an uninterrupted run."""

    @pytest.mark.parametrize("failure", ["refused", "short"])
    @pytest.mark.parametrize("stage", STAGE_NAMES[:3])
    def test_resume_after_a_failed_journal_write_leaves_the_uninterrupted_files(
            self, tmp_path, monkeypatch, stage, failure):
        reference, adapter = small_campaign(tmp_path / "reference")
        for each in STAGE_NAMES:
            run_stage(reference, each, adapter)
        want = campaign_files(reference.directory)

        campaign, _ = small_campaign(tmp_path / "failed")
        for each in STAGE_NAMES[:STAGE_NAMES.index(stage)]:
            run_stage(campaign, each, adapter)
        open_journal, written = CampaignStore._open, []
        monkeypatch.setattr(CampaignStore, "_open", lambda store: FailingJournal(
            open_journal(store), written, 10, failure))
        with pytest.raises(OSError, match="refused" if failure == "refused" else "short"):
            run_stage(campaign, stage, adapter)
        monkeypatch.setattr(CampaignStore, "_open", open_journal)
        assert len(written) == 10
        with open(campaign.path(JOURNALS[STAGE_NAMES.index(stage)]), "rb") as fh:
            data = fh.read()
        assert data.endswith(b"\n") == (failure == "refused")
        # the header and nine complete record lines
        assert data.count(b"\n") == 10
        assert campaign.store.journaled(("sweep", "screen", "joint")[STAGE_NAMES.index(stage)]) == 9
        run_to_the_end(campaign.directory, adapter)
        assert campaign_files(campaign.directory) == want


class PairCrashAdapter:
    """Measures through ``inner`` but crashes every configuration that
    ``crashes(assignments)`` accepts, as a pair that cannot run together."""

    def __init__(self, inner, crashes):
        self.space = inner.space
        self.max_concurrency = 1
        self.inner = inner
        self.crashes = crashes

    def measure(self, config, workload, seed):
        if self.crashes(config.assignments):
            raise CrashError("planted pair crash")
        return self.inner.measure(config, workload, seed)


class TestScreenRetry:
    """A stage-A table unbalanced at the safe-range extremes is measured once
    more on interior levels."""

    def screen(self, tmp_path, crashes):
        campaign, adapter = small_campaign(tmp_path)
        run_stage(campaign, "profile", adapter)
        inter = campaign.screen(PairCrashAdapter(adapter, crashes))
        records = [r for r in inter.records if r.pair == ("pa", "pb")]
        pair_runs = {(m.config.assignments["pa"], m.config.assignments["pb"], m.repetition)
                     for m in MeasurementLog.load(campaign.path(SCREEN_LOG))
                     if sorted(m.config.assignments) == ["pa", "pb"]}
        return records, pair_runs

    def test_interior_retry_yields_a_verdict(self, tmp_path):
        records, pair_runs = self.screen(
            tmp_path, lambda a: a.get("pa") == 1.0 and a.get("pb") == 1.0)
        assert len(records) == 1
        assert not records[0].unsafe_to_screen
        assert records[0].stage_a_verdict == "advance"  # pa x pb couple
        assert records[0].p_value is not None
        corners = {(a, b, 0) for a in (0.0, 1.0) for b in (0.0, 1.0)}
        interior = {(a, b, 0) for a in (0.25, 0.75) for b in (0.25, 0.75)}
        assert corners | interior <= pair_runs
        # stage B runs on the interior grid, never at the crashing corner
        assert (0.125, 0.125, 2) in pair_runs and (1.0, 1.0, 1) not in pair_runs

    def test_interior_table_still_unbalanced_is_unsafe(self, tmp_path):
        records, pair_runs = self.screen(tmp_path, lambda a: "pa" in a and "pb" in a)
        assert len(records) == 1
        assert records[0].unsafe_to_screen
        assert records[0].stage_a_verdict is None and records[0].p_value is None
        # the extremes, the interior retry, and no stage B
        assert len(pair_runs) == 8 and {rep for _, _, rep in pair_runs} == {0}


class TestRunAccounting:
    def test_rerunning_finished_stages_keeps_their_run_counts(self, tmp_path):
        campaign, adapter = small_campaign(tmp_path)
        for stage in STAGE_NAMES:
            run_stage(campaign, stage, adapter)
        used = dict(campaign.state.runs_used)
        assert used["screen"] > 0 and used["joint"] > 0
        summary = campaign.budget_summary()
        report = (tmp_path / campaign_mod.OPTIMA_REPORT).read_bytes()
        for stage in ("screen", "joint"):
            run_stage(campaign, stage, adapter)
        assert campaign.state.runs_used == used
        assert small_campaign(tmp_path)[0].budget_summary() == summary
        assert (tmp_path / campaign_mod.OPTIMA_REPORT).read_bytes() == report

    @pytest.mark.parametrize("killed", ["profile", "screen", "joint"])
    def test_runs_of_a_killed_invocation_are_counted(self, tmp_path, killed):
        reference, adapter = small_campaign(tmp_path / "reference")
        for stage in STAGE_NAMES:
            run_stage(reference, stage, adapter)
        campaign, _ = small_campaign(tmp_path / "killed")
        for stage in STAGE_NAMES[:STAGE_NAMES.index(killed)]:
            run_stage(campaign, stage, adapter)
        with pytest.raises(KeyboardInterrupt):
            run_stage(campaign, killed, InterruptingAdapter(adapter, limit=5))
        resumed, _ = small_campaign(tmp_path / "killed")
        for stage in STAGE_NAMES[STAGE_NAMES.index(killed):]:
            run_stage(resumed, stage, adapter)
        assert resumed.state.runs_used == reference.state.runs_used


@pytest.fixture
def loads(monkeypatch):
    """The file name of every artifact ``JsonArtifact.load`` reads, in order."""
    from tuneforge.jsonfile import JsonArtifact
    names, load = [], JsonArtifact.load.__func__

    def counted(cls, path):
        names.append(os.path.basename(path))
        return load(cls, path)

    monkeypatch.setattr(JsonArtifact, "load", classmethod(counted))
    return names


class TestHeldReports:
    """A ``Campaign`` hands each report it wrote or read on to the next stage
    in memory and reads a report from disk only on a resume."""

    def test_one_object_running_every_stage_reads_no_artifact(self, tmp_path, loads):
        campaign, adapter = small_campaign(tmp_path)
        for stage in STAGE_NAMES:
            run_stage(campaign, stage, adapter)
        campaign.document()
        assert loads == []

    def test_a_fresh_object_per_stage_reads_each_report_once(self, tmp_path, loads):
        # each stage runs twice, and compile is followed by a read of the document
        adapter = small_campaign(tmp_path)[1]
        reads = {}
        for stage in STAGE_NAMES:
            loads.clear()
            campaign = small_campaign(tmp_path)[0]
            run_stage(campaign, stage, adapter)
            run_stage(campaign, stage, adapter)
            if stage == "compile":
                campaign.document()
            reads[stage] = list(loads)
        assert reads == {
            "profile": [STATE_FILE],
            "screen": [STATE_FILE, SENSITIVITY_REPORT],
            "joint": [STATE_FILE, SENSITIVITY_REPORT, campaign_mod.INTERACTION_REPORT],
            "compile": [STATE_FILE, SENSITIVITY_REPORT, campaign_mod.OPTIMA_REPORT]}

    def test_every_held_result_is_its_files_text(self, tmp_path):
        # no stage mutated a result that an earlier stage handed on
        campaign, adapter = small_campaign(tmp_path)
        results = [run_stage(campaign, stage, adapter) for stage in STAGE_NAMES]
        classes = (SensitivityReport, InteractionReport, OptimaReport, ProceduralDocument)
        for result, cls, name in zip(results, classes, STAGE_REPORTS):
            assert campaign._report(cls, name) is result
            assert result.serialize() == (tmp_path / name).read_text(encoding="utf-8"), name

    def test_a_report_of_another_campaign_is_refused_on_a_resume(self, tmp_path):
        own, adapter = small_campaign(tmp_path / "own")
        other = small_campaign(tmp_path / "other", seed=43)[0]
        run_stage(own, "profile", adapter)
        run_stage(other, "profile", adapter)
        shutil.copyfile(other.path(SENSITIVITY_REPORT), own.path(SENSITIVITY_REPORT))
        with pytest.raises(AnalysisError, match=f"{SENSITIVITY_REPORT} belongs to campaign "):
            small_campaign(tmp_path / "own")[0].screen(adapter)
