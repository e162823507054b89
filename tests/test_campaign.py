"""Campaign pipeline across multiple workloads and edge paths."""

import os
import re

import pytest

from helpers import one_workload, unit_space
from tuneforge import campaign as campaign_mod
from tuneforge.campaign import (LOCK_FILE, SCREEN_LOG, SENSITIVITY_REPORT, STATE_FILE,
                                SWEEP_LOG, Campaign, CampaignState)
from tuneforge.docgen import KnowledgeExport, ProceduralDocument, export_knowledge
from tuneforge.errors import AnalysisError, DocumentError, ParameterError
from tuneforge.interaction import InteractionReport
from tuneforge.sensitivity import SensitivityReport
from tuneforge.topology import OptimaReport
from tuneforge.executor import run_session
from tuneforge.interaction import PairLevels, choose_pair_levels, screen_pair
from tuneforge.harness import MeasurementLog, run_plan
from tuneforge.sensitivity import plan_sweep
from tuneforge.simulator import (Coupling, Response, SimulatorAdapter, SimulatorModel)
from tuneforge.space import Configuration, WorkloadSpec, level_grid


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


    @pytest.mark.parametrize("cls, error", [
        (CampaignState, AnalysisError), (SensitivityReport, AnalysisError),
        (InteractionReport, AnalysisError), (OptimaReport, AnalysisError),
        (ProceduralDocument, DocumentError), (KnowledgeExport, DocumentError)])
    def test_truncated_file_is_an_error_naming_it(self, tmp_path, cls, error):
        path = tmp_path / "artifact.json"
        path.write_text('{"schema_version": 2, "fing')
        with pytest.raises(error, match=re.escape(f"{path} is not valid JSON")):
            cls.load(str(path))


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
        # a log without the pair's configurations cannot produce a balanced table
        empty = MeasurementLog(seed=0, space_hash="x")
        levels = PairLevels(stage_a=([0.0, 1.0], [0.0, 1.0]),
                            stage_b=([0.0, 0.5, 1.0], [0.0, 0.5, 1.0]))
        records = screen_pair(empty, ("px", "py"), one_workload(), levels)
        assert len(records) == 1
        assert records[0].unsafe_to_screen
        assert records[0].stage_a_verdict is None

    def test_interior_levels_avoid_safe_range_endpoints(self, two_workload_setup):
        setup = two_workload_setup
        pl = choose_pair_levels(("px", "py"), setup["sens"], setup["space"], interior=True)
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
        run_plan(adapter, old_plan, seed=11).save(resumed.path(SWEEP_LOG))
        resumed.profile(adapter, levels_per_param=5, repetitions=2)
        assert resumed.state.runs_used["sensitivity"] == 0

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
