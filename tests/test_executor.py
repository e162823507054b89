"""Session execution: convergence, adaptation, budget and safety invariants."""

import copy
import json

import pytest

from helpers import (global_grid_argmax, run_small_pipeline, shifted_small_model,
                     small_model, unit_space)
from tuneforge import expr as expr_mod
from tuneforge.docgen import ProceduralDocument, Skill, Step
from tuneforge.errors import DocumentError, ExpressionError
from tuneforge.executor import (evaluate_predicate, replay_session,
                                replay_trace_file, run_session)
from tuneforge.simulator import SimulatorAdapter
from tuneforge.space import Configuration, WorkloadSpec


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    return run_small_pipeline(tmp_path_factory.mktemp("campaign"))


def empty_doc():
    orch = Skill(id="root", kind="orchestration", procedure=[],
                 decision_criteria=[], postconditions=[])
    return ProceduralDocument(
        fingerprint={"space_hash": "h", "campaign_id": "c"}, root="root",
        skills=[orch], workloads=[WorkloadSpec(id="w0")], primary_workload="w0",
        grids={}, safe_ranges={}, provenance={}, policy={})


class TestEvaluatePredicate:
    def test_spec_examples(self):
        assert evaluate_predicate("eta2 > 0.15", {"eta2": 0.39}, {}) is True
        assert evaluate_predicate("cv >= 0 and cv <= 0", {"cv": 0}, {}) is True
        with pytest.raises(ExpressionError) as err:
            evaluate_predicate("missing_sym > 1", {}, {})
        assert err.value.symbol == "missing_sym"


class TestBasicSessions:
    def test_empty_orchestration_converges_with_zero_trials(self, pipeline):
        adapter = pipeline["adapter"]
        session = run_session(empty_doc(), adapter, budget=5, seed=0)
        assert session.status == "converged"
        assert session.trials_used == 0
        assert session.final_config == Configuration({})

    def test_invalid_document_rejected_before_any_benchmark(self, pipeline):
        doc = empty_doc()
        doc.skills[0].decision_criteria = [("1", "missing")]
        with pytest.raises(DocumentError):
            run_session(doc, pipeline["adapter"], budget=5, seed=0)

    def test_budget_safety_hard_bound(self, pipeline):
        doc = pipeline["doc"]
        adapter = pipeline["adapter"]
        for budget in (1, 3, 5):
            session = run_session(doc, adapter, budget=budget, seed=7)
            assert session.trials_used <= budget
            assert session.status == "aborted"
            assert "budget" in session.diagnostic
            benchmarks = [e for e in session.trace if e.action == "benchmark"]
            assert len(benchmarks) == session.trials_used


class TestMatchedConvergence:
    def test_converges_within_thirty_trials_to_planted_optimum(self, pipeline):
        doc = pipeline["doc"]
        space = pipeline["space"]
        model = pipeline["model"]
        adapter = SimulatorAdapter(space, model)
        session = run_session(doc, adapter, budget=30, seed=101)
        assert session.status == "converged"
        assert session.trials_used <= 30

        grid = {name: doc.grids[name] for name in doc.grids}
        best_config, best_metric = global_grid_argmax(model, space, grid)
        achieved = model.true_metric(space, session.final_config, "w0")
        assert achieved >= 0.99 * best_metric
        assert session.final_config == best_config

    def test_every_benchmarked_config_inside_safe_ranges(self, pipeline):
        doc = pipeline["doc"]
        session = run_session(doc, pipeline["adapter"], budget=30, seed=101)
        checked = 0
        for config, _ in session.benchmarked_configs():
            for param, value in config.assignments.items():
                safe = doc.safe_range_of(param)
                assert safe is not None
                assert float(safe.lo) <= float(value) <= float(safe.hi)
                checked += 1
        assert session.trials_used > 0  # the invariant was actually exercised

    def test_trace_is_deterministic(self, pipeline):
        doc = pipeline["doc"]
        space = pipeline["space"]
        s1 = run_session(doc, SimulatorAdapter(space, small_model()), budget=30, seed=5)
        s2 = run_session(doc, SimulatorAdapter(space, small_model()), budget=30, seed=5)
        t1 = [json.dumps(e.to_json(), sort_keys=True) for e in s1.trace]
        t2 = [json.dumps(e.to_json(), sort_keys=True) for e in s2.trace]
        assert t1 == t2
        s3 = run_session(doc, SimulatorAdapter(space, small_model()), budget=30, seed=6)
        t3 = [json.dumps(e.to_json(), sort_keys=True) for e in s3.trace]
        assert t1 != t3


class TestAdaptation:
    def test_shifted_model_triggers_adaptation_and_still_converges(self, pipeline):
        doc = pipeline["doc"]
        space = pipeline["space"]
        shifted = shifted_small_model()
        adapter = SimulatorAdapter(space, shifted)
        session = run_session(doc, adapter, budget=120, seed=11)
        assert session.status == "converged"
        assert session.trials_used <= 120

        adaptations = {e.skill for e in session.trace if e.action == "adaptation"}
        assert "verify_pc" in adaptations and "verify_pd" in adaptations

        grid = {name: doc.grids[name] for name in doc.grids}
        best_config, best_metric = global_grid_argmax(shifted, space, grid)
        achieved = shifted.true_metric(space, session.final_config, "w0")
        assert achieved >= 0.99 * best_metric

    def test_matched_model_triggers_no_adaptation(self, pipeline):
        session = run_session(pipeline["doc"], pipeline["adapter"], budget=30, seed=3)
        assert not [e for e in session.trace if e.action == "adaptation"]


class TestReplay:
    def test_unmodified_trace_replays_ok(self, pipeline, tmp_path):
        doc = pipeline["doc"]
        session = run_session(doc, pipeline["adapter"], budget=30, seed=13)
        path = tmp_path / "trace.jsonl"
        session.save_trace(str(path))
        result = replay_trace_file(str(path), doc)
        assert result.ok and result.mismatches == []

    def test_flipped_verdict_detected_at_that_event(self, pipeline):
        doc = pipeline["doc"]
        session = run_session(doc, pipeline["adapter"], budget=30, seed=13)
        events = copy.deepcopy(session.trace)
        victims = [e for e in events if e.predicates]
        victim = victims[len(victims) // 2]
        victim.predicates[0]["verdict"] = not victim.predicates[0]["verdict"]
        result = replay_session(session.trace_header(), events, doc)
        assert not result.ok
        assert result.mismatches[0]["seq"] == victim.seq

    def test_fingerprint_mismatch_rejected(self, pipeline):
        doc = pipeline["doc"]
        session = run_session(doc, pipeline["adapter"], budget=30, seed=13)
        other = empty_doc()
        with pytest.raises(DocumentError):
            replay_session(session.trace_header(), session.trace, other)

    def test_edited_document_rejected_by_hash(self, pipeline):
        doc = pipeline["doc"]
        session = run_session(doc, pipeline["adapter"], budget=30, seed=13)
        edited = ProceduralDocument.from_json(
            json.loads(doc.serialize()))
        edited.skills[1].reference_data["cv"] = 0.999
        with pytest.raises(DocumentError):
            replay_session(session.trace_header(), session.trace, edited)


class TestWarmPath:
    def test_second_session_reuses_document_hash_and_parses(self, pipeline, monkeypatch):
        doc, adapter = pipeline["doc"], pipeline["adapter"]
        first = run_session(doc, adapter, budget=30, seed=101)

        def refuse(*args, **kwargs):
            raise AssertionError("the warm path re-serialized or re-parsed")

        monkeypatch.setattr(ProceduralDocument, "serialize", refuse)
        monkeypatch.setattr(expr_mod, "_Parser", refuse)
        second = run_session(doc, adapter, budget=30, seed=101)
        assert first.status == second.status == "converged"
        assert second.trace_header() == first.trace_header()
        assert [e.to_json() for e in second.trace] == [e.to_json() for e in first.trace]


class TestAnomalyFloor:
    def test_selected_set_below_floor_aborts_before_benchmarking(self, pipeline):
        from tuneforge.docgen import CompilePolicy, compile_document
        p = pipeline
        policy = CompilePolicy(min_top_k=10)  # more than the 4 selected here
        doc = compile_document(p["sensitivity"], p["interaction"],
                               p["optima"].graph, p["optima"].optima,
                               p["space"], p["workloads"], policy)
        session = run_session(doc, p["adapter"], budget=30, seed=0)
        assert session.status == "aborted"
        assert session.trials_used == 0
        assert "top_k_count" in session.diagnostic


class TestMeasureAction:
    def test_measure_reads_adapter_probe(self, pipeline):
        orch = Skill(
            id="root", kind="orchestration",
            procedure=[Step(action="measure", name="base_rate"),
                       Step(action="compute", expr="base_rate > 0", out="probed")],
            decision_criteria=[("1", "end")],
            postconditions=["probed >= 1"])
        doc = ProceduralDocument(
            fingerprint={"space_hash": "h", "campaign_id": "c"}, root="root",
            skills=[orch], workloads=[WorkloadSpec(id="w0")], primary_workload="w0",
            grids={}, safe_ranges={}, provenance={}, policy={})
        session = run_session(doc, pipeline["adapter"], budget=1, seed=0)
        assert session.status == "converged"
        assert session.signals["base_rate"] == 1000.0


class TestStepResolverHook:
    def test_external_resolver_can_override_routing(self, pipeline):
        doc = pipeline["doc"]

        def resolver(skill, signals):
            # jump straight to the end after the orchestration root
            if skill.kind == "orchestration":
                return "verify_candidate"
            return None

        session = run_session(doc, pipeline["adapter"], budget=30, seed=2,
                              step_resolver=resolver)
        visited = {e.skill for e in session.trace if e.action == "benchmark"}
        assert "verify_pc" not in visited


class TestErrorPaths:
    def test_benchmark_error_branch_taken_when_declared(self):
        # a crash region sits inside the documented safe range; the declared
        # on_error target routes past the failing step instead of aborting
        from tuneforge.simulator import CrashRegion, SimulatorModel
        space = unit_space(["p"])
        model = SimulatorModel(base_rate=100.0, crashes={"p": CrashRegion(0.4, 0.6)})
        adapter = SimulatorAdapter(space, model)
        orch = Skill(
            id="root", kind="orchestration",
            procedure=[
                Step(action="benchmark", template={"p": 0.5}, workload_id="w0",
                     repetitions=2, out="bad_metric", on_error=2),
                Step(action="compute", expr="bad_metric", out="chosen"),
                Step(action="compute", expr="1", out="fallback_done"),
            ],
            decision_criteria=[("1", "end")],
            postconditions=["fallback_done >= 1"])
        doc = ProceduralDocument(
            fingerprint={"space_hash": "h", "campaign_id": "c"}, root="root",
            skills=[orch], workloads=[WorkloadSpec(id="w0")], primary_workload="w0",
            grids={"p": [0.0, 0.5, 1.0]},
            safe_ranges={"p": {"lo": 0.0, "hi": 1.0}}, provenance={}, policy={})
        session = run_session(doc, adapter, budget=5, seed=0)
        assert session.status == "converged"
        assert "chosen" not in session.signals       # the skipped compute never ran
        assert session.signals["fallback_done"] == 1.0
        benchmark = [e for e in session.trace if e.action == "benchmark"][0]
        assert benchmark.outputs["outcomes"] == ["crash", "crash"]

    def test_unknown_workload_or_missing_signal_aborts_cleanly(self, pipeline):
        doc = copy.deepcopy(pipeline["doc"])
        # inject a template reference to an unset signal into the candidate skill
        cand = doc.skill("verify_candidate")
        cand.procedure[0].template["pc"] = {"$signal": "never_set"}
        session = run_session(doc, pipeline["adapter"], budget=30, seed=1)
        assert session.status == "aborted"
        assert "never_set" in session.diagnostic

    def test_benchmark_outside_safe_range_aborts(self, pipeline):
        doc = copy.deepcopy(pipeline["doc"])
        verify = doc.skill("verify_pc")
        for step in verify.procedure:
            if step.action == "benchmark":
                step.template = {"pc": 0.9e9}
                break
        # keep document structurally valid: the huge literal is legal JSON
        session = run_session(doc, pipeline["adapter"], budget=30, seed=1)
        assert session.status == "aborted"
        assert "safe" in session.diagnostic or "invalid" in session.diagnostic

    @pytest.mark.parametrize("site", ["branch", "decision", "postcondition", "convergence"])
    def test_predicate_on_unset_signal_aborts_with_diagnostic(self, pipeline, site):
        # `x` is declared by a compute step that an always-true branch skips,
        # so the document validates but `x` is never set when read.
        def skipped_x():
            return [Step(action="branch", cond="1", target=2),
                    Step(action="compute", expr="1", out="x")]

        orch = Skill(id="root", kind="orchestration", procedure=skipped_x(),
                     decision_criteria=[("1", "end")])
        skills = [orch]
        if site == "branch":
            orch.procedure.append(Step(action="branch", cond="x > 0", target=3))
        elif site == "decision":
            orch.decision_criteria = [("x > 0", "end")]
        elif site == "postcondition":
            orch.procedure = []
            orch.decision_criteria = [("1", "child")]
            skills.append(Skill(id="child", kind="per-parameter", procedure=skipped_x(),
                                decision_criteria=[("1", "end")],
                                postconditions=["x > 0"]))
        else:
            orch.postconditions = ["x > 0"]
        doc = ProceduralDocument(
            fingerprint={"space_hash": "h", "campaign_id": "c"}, root="root",
            skills=skills, workloads=[WorkloadSpec(id="w0")], primary_workload="w0",
            grids={}, safe_ranges={}, provenance={}, policy={})
        session = run_session(doc, pipeline["adapter"], budget=5, seed=0)
        assert session.status == "aborted"
        assert "predicate 'x > 0' failed" in session.diagnostic
        assert "unresolved symbol 'x'" in session.diagnostic
        assert session.trace[-1].outputs == {"status": "aborted",
                                             "diagnostic": session.diagnostic}
