"""Session execution: convergence, adaptation, budget and safety invariants."""

import copy
import gc
import hashlib
import json
import math
import re
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

from helpers import (SMALL_NAMES, edit_document, global_grid_argmax, one_workload,
                     run_small_pipeline, shifted_small_model, skill_json, small_model, unit_space)
from tuneforge import docgen
from tuneforge import executor
from tuneforge import expr as expr_mod
from tuneforge import harness
from tuneforge.campaign import Campaign
from tuneforge.docgen import (BenchmarkStep, BranchStep, ComputeStep, ProceduralDocument, Skill,
                              compile_document)
from tuneforge.errors import (AdapterError, AnalysisError, CrashError, DocumentError,
                              ExpressionError)
from tuneforge.executor import load_trace, replay_session, run_session
from tuneforge.expr import evaluate_predicate
from tuneforge.harness import mix_seed, run_experiment
from tuneforge.simulator import SimulatorAdapter
from tuneforge.space import Configuration, Domain, ParameterSpace, WorkloadSpec


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    return run_small_pipeline(tmp_path_factory.mktemp("campaign"))


class Recording:
    """An adapter that records every measurement it is asked for."""

    max_concurrency = 1

    def __init__(self, inner):
        self.inner = inner
        self.space = inner.space
        self.runs = []

    def measure(self, config, workload, seed):
        self.runs.append((config, workload.id, seed))
        return self.inner.measure(config, workload, seed)


def empty_doc():
    orch = Skill(id="root", kind="orchestration", next="end", procedure=[], postconditions=[])
    return ProceduralDocument(
        fingerprint={"space_hash": "h", "campaign_id": "c"}, root="root",
        skills=[orch], workloads=[WorkloadSpec(id="w0")], primary_workload="w0",
        grids={}, safe_ranges={}, provenance={}, policy={})


class TestEvaluatePredicate:
    def test_spec_examples(self):
        assert evaluate_predicate("eta2 >= 0.15", {"eta2": 0.39}, {}) is True
        assert evaluate_predicate("cv >= 0 and cv <= 0", {"cv": 0}, {}) is True
        with pytest.raises(ExpressionError) as err:
            evaluate_predicate("missing_sym >= 1", {}, {})
        assert err.value.symbol == "missing_sym"


class TestBasicSessions:
    def test_empty_orchestration_converges_with_zero_trials(self, pipeline):
        adapter = pipeline["adapter"]
        session = run_session(empty_doc(), adapter, budget=5, seed=0)
        assert session.status == "converged"
        assert session.trials_used == 0
        assert session.final_config == Configuration({})

    def test_invalid_document_rejected_before_any_benchmark(self, pipeline):
        doc = edit_document(empty_doc(), lambda d: d["skills"][0].update(next="missing"))
        with pytest.raises(DocumentError):
            run_session(doc, pipeline["adapter"], budget=5, seed=0)

    def test_unknown_action_rejected_before_any_benchmark(self, pipeline):
        with pytest.raises(DocumentError, match="unknown action 'frobnicate'"):
            edit_document(pipeline["doc"], lambda d: skill_json(
                d, "verify_candidate")["procedure"].append({"action": "frobnicate"}))

    def test_budget_safety_hard_bound(self, pipeline):
        doc = pipeline["doc"]
        adapter = pipeline["adapter"]
        for budget in (1, 3, 5):
            session = run_session(doc, adapter, budget=budget, seed=7)
            assert session.trials_used <= budget
            assert session.status == "aborted"
            assert "budget" in session.diagnostic
            assert len(session.benchmarked_configs()) == session.trials_used


class TestNoProgressGuard:
    def test_pass_without_a_new_trial_aborts(self, pipeline):
        # The second pass only repeats pass 1's candidate step, so it runs no
        # new trial; without the guard the session would spend its budget.
        doc = edit_document(pipeline["doc"], lambda d: skill_json(d, d["root"]).update(
            postconditions=["pass_count >= 1000"]))
        session = run_session(doc, pipeline["adapter"], budget=120, seed=7)
        assert session.status == "aborted"
        assert session.diagnostic == "pass ran no new trial and did not converge"
        assert session.passes == 2
        assert session.trials_used < 120
        first_pass = next(e.seq for e in session.trace if e.action == "pass")
        second = [e for e in session.trace if e.action == "benchmark" and e.seq > first_pass]
        assert second and all("reused_from" in e.inputs for e in second)


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
        result = replay_session(*load_trace(str(path)), doc, pipeline["space"])
        assert result.ok and result.mismatches == []

    def test_flipped_verdict_detected_at_that_event(self, pipeline):
        doc = pipeline["doc"]
        session = run_session(doc, pipeline["adapter"], budget=30, seed=13)
        events = copy.deepcopy(session.trace)
        victims = [e for e in events if e.predicates]
        victim = victims[len(victims) // 2]
        victim.predicates[0]["verdict"] = not victim.predicates[0]["verdict"]
        result = replay_session(session.trace_header(), events, doc, pipeline["space"])
        assert not result.ok
        assert result.mismatches[0]["seq"] == victim.seq

    def test_tampered_argbest_output_detected_at_that_event(self, pipeline):
        doc = pipeline["doc"]
        adapter = SimulatorAdapter(pipeline["space"], shifted_small_model())
        session = run_session(doc, adapter, budget=120, seed=11)
        assert replay_session(session.trace_header(), session.trace, doc,
                              pipeline["space"]).ok
        events = copy.deepcopy(session.trace)
        victim = next(e for e in events if e.skill == "resweep_pc"
                      and e.action == "compute" and "best_pc_idx" in e.outputs)
        recorded = victim.outputs["best_pc_idx"]
        victim.outputs["best_pc_idx"] = (recorded + 1) % len(doc.grids["pc"])
        result = replay_session(session.trace_header(), events, doc, pipeline["space"])
        assert not result.ok
        assert result.mismatches[0]["seq"] == victim.seq
        assert result.mismatches[0]["replayed"]["outputs"]["best_pc_idx"] == recorded

    @pytest.mark.parametrize("tamper", ["mean", "outcomes", "names-a-compute-event",
                                        "names-a-later-event", "names-no-event", "names-a-list"])
    def test_tampered_reuse_detected_at_that_event(self, pipeline, tamper):
        doc = pipeline["doc"]
        session = run_session(doc, pipeline["adapter"], budget=30, seed=13)
        events = copy.deepcopy(session.trace)
        victim = next(e for e in events if "reused_from" in e.inputs)
        out = next(k for k in victim.outputs if k != "outcomes")
        if tamper == "mean":
            victim.outputs[out] *= 1.01
        elif tamper == "outcomes":
            victim.outputs["outcomes"][0] = "crash"
        elif tamper == "names-a-compute-event":
            victim.inputs["reused_from"] = next(e.seq for e in events if e.action == "compute")
        elif tamper == "names-a-later-event":
            victim.inputs["reused_from"] = next(e.seq for e in events if e.seq > victim.seq
                                                and e.action == "benchmark"
                                                and "reused_from" not in e.inputs)
        elif tamper == "names-no-event":
            victim.inputs["reused_from"] = 10_000
        else:
            victim.inputs["reused_from"] = [victim.inputs["reused_from"]]
        result = replay_session(session.trace_header(), events, doc, pipeline["space"])
        assert not result.ok
        assert result.mismatches[0]["seq"] == victim.seq

    @staticmethod
    def tamper(events, kind):
        """Edit ``events`` in place; return the position replay must name: the
        edited event, or the first position the two traces do not share."""
        def first(action, test=lambda e: True):
            return next(e for e in events if e.action == action and test(e))

        if kind == "failed-postcondition-rewritten":
            victim = first("postconditions", lambda e: not all(p["verdict"] for p in e.predicates))
            next(p for p in victim.predicates if not p["verdict"]).update(
                expr="1", env={}, verdict=True)
        elif kind == "benchmark-config-changed":
            victim = first("benchmark", lambda e: e.inputs["config"])
            config = victim.inputs["config"]
            param = next(iter(config))
            config[param] = 0.5 if config[param] != 0.5 else 0.25
        elif kind == "final-config-changed":
            victim = events[-1]
            victim.outputs["final_config"]["pc"] = 0.5
        elif kind == "final-metric-changed":
            victim = events[-1]
            victim.outputs["final_metric"] *= 1.01
        elif kind == "adaptation-deleted":
            victim = first("adaptation")
            events.remove(victim)
            for e in events[victim.seq:]:
                e.seq -= 1
        elif kind == "decision-routed-to-end":
            victim = first("decision", lambda e: e.outputs["target"] != "end")
            victim.outputs["target"] = "end"
        elif kind == "pass-predicates-removed":
            victim = first("pass")
            victim.predicates.clear()
        elif kind == "event-after-status":
            victim = replace(copy.deepcopy(events[-2]), seq=len(events))
            events.append(victim)
        else:  # cut-before-status
            victim = events.pop()
        return victim.seq

    @pytest.mark.parametrize("kind", [
        "failed-postcondition-rewritten", "benchmark-config-changed", "final-config-changed",
        "final-metric-changed", "adaptation-deleted", "decision-routed-to-end",
        "pass-predicates-removed", "event-after-status", "cut-before-status"])
    def test_tamper_census(self, pipeline, kind):
        # a shifted session (adaptations, two passes) replays clean, and
        # each tamper is caught at its position
        doc, space = pipeline["doc"], pipeline["space"]
        session = run_session(doc, SimulatorAdapter(space, shifted_small_model()),
                              budget=120, seed=11)
        assert session.status == "converged" and len(session.trace) == 140
        assert replay_session(session.trace_header(), session.trace, doc, space).ok
        events = copy.deepcopy(session.trace)
        position = self.tamper(events, kind)
        result = replay_session(session.trace_header(), events, doc, space)
        assert not result.ok
        assert result.mismatches[0]["seq"] == position

    def test_resolver_decisions_replay_as_recorded(self, pipeline):
        # a resolver's decision is an input of the session: the replay
        # follows the recorded target, and the trace parts right after it
        doc, space = pipeline["doc"], pipeline["space"]

        def skip_joint(skill, signals):
            return "verify_candidate" if skill.id == "verify_pb" else None

        session = run_session(doc, pipeline["adapter"], budget=30, seed=13,
                              step_resolver=skip_joint)
        assert not any(e.skill == "joint_c1" for e in session.trace)
        assert replay_session(session.trace_header(), session.trace, doc, space).ok
        events = copy.deepcopy(session.trace)
        victim = next(e for e in events if e.outputs.get("resolver"))
        victim.outputs["target"] = "joint_c1"
        result = replay_session(session.trace_header(), events, doc, space)
        assert not result.ok
        assert result.mismatches[0]["seq"] == victim.seq + 1

    def test_replay_runs_on_the_sessions_space(self, pipeline):
        # verify_pc probes pc = 1.0, which the narrowed domain refuses: the
        # session aborts there, and only its own space replays that
        narrowed = ParameterSpace(tuple(
            replace(p, domain=Domain("continuous", 0.0, 0.5)) if p.name == "pc" else p
            for p in pipeline["space"]))
        doc = fresh_copy(pipeline["doc"])
        session = run_session(doc, SimulatorAdapter(narrowed, small_model()), budget=120,
                              seed=10)
        assert session.status == "aborted" and session.diagnostic.startswith("verify_pc: ")
        header = session.trace_header()
        assert replay_session(header, session.trace, doc, narrowed).ok
        result = replay_session(header, session.trace, doc, pipeline["space"])
        assert not result.ok
        assert result.mismatches[0]["recorded"]["action"] == "status"

    def test_event_naming_no_document_step_is_a_mismatch(self, pipeline):
        doc = pipeline["doc"]
        session = run_session(doc, pipeline["adapter"], budget=30, seed=13)
        events = copy.deepcopy(session.trace)
        victim = next(e for e in events if e.action == "compute")
        victim.step = 10_000
        result = replay_session(session.trace_header(), events, doc, pipeline["space"])
        assert not result.ok
        assert result.mismatches[0]["seq"] == victim.seq

    def test_renamed_event_key_fails_the_load(self, pipeline, tmp_path):
        # a flipped verdict whose `predicates` key is renamed must not load
        # as an event without predicates and replay clean
        doc = pipeline["doc"]
        session = run_session(doc, pipeline["adapter"], budget=30, seed=13)
        path = tmp_path / "trace.jsonl"
        session.save_trace(str(path))
        lines = path.read_text().splitlines()
        index = next(i for i, line in enumerate(lines[1:], 1)
                     if json.loads(line)["predicates"])
        event = json.loads(lines[index])
        event["predicates"][0]["verdict"] = not event["predicates"][0]["verdict"]
        event["predicate"] = event.pop("predicates")
        lines[index] = json.dumps(event, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(AnalysisError, match=r"missing keys \['predicates'\], "
                                                r"unknown keys \['predicate'\]"):
            load_trace(str(path))

    @pytest.mark.parametrize("key", ["step", "inputs", "outputs", "predicates"])
    def test_missing_event_key_fails_the_load(self, pipeline, tmp_path, key):
        session = run_session(pipeline["doc"], pipeline["adapter"], budget=30, seed=13)
        event = session.trace[0].to_json()
        del event[key]
        with pytest.raises(AnalysisError, match=rf"missing keys \['{key}'\]"):
            executor.TraceEvent.from_json(event)

    @pytest.mark.parametrize("edit, named", [
        (lambda preds: preds[0].pop("expr"),
         r"predicates: 0: missing keys \['expr'\], unknown keys \[\]"),
        (lambda preds: preds[0].update(env=["<symbol>"]),
         r"predicates: 0: env: \['<symbol>'\] is not dict\[str, Any\]"),
        (lambda preds: preds[0].update(verdict=1),
         r"predicates: 0: verdict: 1 is not bool"),
        (lambda preds: preds.__setitem__(0, "x > 1"),
         r"predicates: 0: 'x > 1' is not Predicate"),
    ], ids=["missing-expr", "list-env", "int-verdict", "string-predicate"])
    def test_malformed_predicate_fails_the_load(self, pipeline, tmp_path, edit, named):
        # refused where the trace is read, not raised as a KeyError or
        # TypeError out of replay_session
        session = run_session(pipeline["doc"], pipeline["adapter"], budget=30, seed=13)
        path = tmp_path / "trace.jsonl"
        session.save_trace(str(path))
        lines = path.read_text().splitlines()
        index = next(i for i, line in enumerate(lines[1:], 1)
                     if json.loads(line)["predicates"])
        event = json.loads(lines[index])
        edit(event["predicates"])
        lines[index] = json.dumps(event, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(AnalysisError, match=rf"^trace event: {named}$"):
            load_trace(str(path))

    @pytest.mark.parametrize("predicates", [{}, "x > 1", None],
                             ids=["object", "string", "null"])
    def test_predicates_that_are_not_a_list_fail_the_load(self, pipeline, predicates):
        session = run_session(pipeline["doc"], pipeline["adapter"], budget=30, seed=13)
        event = next(e for e in session.trace if e.predicates).to_json()
        event["predicates"] = predicates
        with pytest.raises(AnalysisError,
                           match=r"^trace event: predicates: .* is not list\[Predicate\]$"):
            executor.TraceEvent.from_json(event)

    @pytest.mark.parametrize("key", ["inputs", "outputs"])
    @pytest.mark.parametrize("value", [[], ["config"], "x", 1, None],
                             ids=["empty-list", "list", "string", "int", "null"])
    def test_inputs_or_outputs_that_are_not_an_object_fail_the_load(self, pipeline, tmp_path,
                                                                    key, value):
        # refused where the trace is read, not raised as an AttributeError
        # out of replay_session
        session = run_session(pipeline["doc"], pipeline["adapter"], budget=30, seed=13)
        path = tmp_path / "trace.jsonl"
        session.save_trace(str(path))
        lines = path.read_text().splitlines()
        index = next(i for i, line in enumerate(lines[1:], 1)
                     if json.loads(line)["action"] == "benchmark")
        event = json.loads(lines[index])
        event[key] = value
        lines[index] = json.dumps(event, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(AnalysisError, match=rf"^trace event: {key}: .* is not dict$"):
            load_trace(str(path))

    @pytest.mark.parametrize("header, named", [
        ([], r"\[\] is not TraceHeader"),
        (None, r"None is not TraceHeader"),
        ({"seed": "13"}, r"seed: '13' is not int"),
        ({"trial_budget": 30.0}, r"trial_budget: 30.0 is not int"),
        ({"fingerprint": {"campaign_id": "c"}},
         r"fingerprint: missing keys \['space_hash'\], unknown keys \[\]"),
    ], ids=["list", "null", "string-seed", "float-budget", "fingerprint-without-space-hash"])
    def test_malformed_header_fails_the_load(self, pipeline, tmp_path, header, named):
        # refused where the trace is read, not raised as an AttributeError
        # out of replay_session
        session = run_session(pipeline["doc"], pipeline["adapter"], budget=30, seed=13)
        path = tmp_path / "trace.jsonl"
        session.save_trace(str(path))
        lines = path.read_text().splitlines()
        if isinstance(header, dict):
            header = {**json.loads(lines[0]), **header}
        lines[0] = json.dumps(header, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(AnalysisError, match=rf"^trace header: {named}$"):
            load_trace(str(path))

    @pytest.mark.parametrize("edit, line", [
        (lambda lines: [], 1),
        (lambda lines: ["{"] + lines[1:], 1),
        (lambda lines: lines[:2] + ["{not json"] + lines[3:], 3),
    ], ids=["empty", "header-not-json", "event-not-json"])
    def test_trace_that_is_not_json_lines_fails_the_load(self, pipeline, tmp_path, edit, line):
        # Once raised json.JSONDecodeError out of load_trace.
        session = run_session(pipeline["doc"], pipeline["adapter"], budget=30, seed=13)
        path = tmp_path / "trace.jsonl"
        session.save_trace(str(path))
        path.write_text("".join(text + "\n" for text in edit(path.read_text().splitlines())))
        with pytest.raises(AnalysisError, match=rf"^{re.escape(str(path))}: line {line} "
                                                rf"is not valid JSON: "):
            load_trace(str(path))

    def test_fingerprint_mismatch_rejected(self, pipeline):
        doc = pipeline["doc"]
        session = run_session(doc, pipeline["adapter"], budget=30, seed=13)
        other = empty_doc()
        with pytest.raises(DocumentError):
            replay_session(session.trace_header(), session.trace, other, pipeline["space"])

    def test_edited_document_rejected_by_hash(self, pipeline):
        doc = pipeline["doc"]
        session = run_session(doc, pipeline["adapter"], budget=30, seed=13)
        edited = edit_document(doc, lambda d: d["skills"][1]["reference_data"].update(cv=0.999))
        with pytest.raises(DocumentError):
            replay_session(session.trace_header(), session.trace, edited, pipeline["space"])


class TestWarmPath:
    def test_second_session_reuses_document_hash_and_parses(self, pipeline, monkeypatch):
        # the first session on a fresh copy hashes each cell it measures once;
        # the second one re-serializes, parses, hashes and tables nothing
        doc, adapter = fresh_copy(pipeline["doc"]), pipeline["adapter"]
        hashed = Counter()

        def counted(canonical, workload_id):
            hashed[canonical, workload_id] += 1
            return harness.cell_hash(canonical, workload_id)

        monkeypatch.setattr(executor, "cell_hash", counted)
        first = run_session(doc, adapter, budget=30, seed=101)
        assert hashed == Counter((adapter.space.effective(config).canonical(), workload_id)
                                 for config, workload_id in first.benchmarked_configs())

        def refuse(*args, **kwargs):
            raise AssertionError("the warm path re-serialized, re-parsed, hashed a cell "
                                 "or rebuilt a table")

        monkeypatch.setattr(ProceduralDocument, "serialize", refuse)
        monkeypatch.setattr(expr_mod, "_tree", refuse)
        monkeypatch.setattr(executor, "cell_hash", refuse)
        monkeypatch.setattr(docgen, "PreparedDocument", refuse)
        monkeypatch.setattr(docgen, "PreparedSkill", refuse)
        second = run_session(doc, adapter, budget=30, seed=101)
        assert first.status == second.status == "converged"
        assert second.trace_header() == first.trace_header()
        assert [e.to_json() for e in second.trace] == [e.to_json() for e in first.trace]


def test_pipelines_sessions_and_replays_leave_no_reference_cycle(tmp_path):
    # a cycle keeps what it holds, such as a runner and its whole trace, until
    # a full collection
    space = unit_space(SMALL_NAMES)
    matched = SimulatorAdapter(space, small_model())
    shifted = SimulatorAdapter(space, shifted_small_model())
    campaign = Campaign(str(tmp_path), space, one_workload(), seed=42)
    done = {}
    steps = {
        "profile": lambda: campaign.profile(matched, levels_per_param=5, repetitions=3,
                                            tau_s=0.05),
        "screen": lambda: campaign.screen(matched),
        "joint": lambda: campaign.joint(matched, repetitions=3),
        "compile": lambda: done.update(doc=campaign.compile()),
        "matched session": lambda: done.update(
            matched=run_session(done["doc"], matched, budget=30, seed=101)),
        "shifted session": lambda: done.update(
            shifted=run_session(done["doc"], shifted, budget=120, seed=11)),
        "aborted session": lambda: done.update(
            aborted=run_session(done["doc"], matched, budget=3, seed=7)),
        "replay": lambda: done.update(replay=replay_session(
            done["shifted"].trace_header(), done["shifted"].trace, done["doc"], space)),
    }
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for name, step in steps.items():
            step()
            assert gc.collect() == 0, name
    finally:
        if enabled:
            gc.enable()
    assert done["matched"].status == done["shifted"].status == "converged"
    assert any(e.action == "adaptation" for e in done["shifted"].trace)
    assert done["aborted"].status == "aborted" and "budget" in done["aborted"].diagnostic
    assert done["replay"].ok


class TestBenchmarkSeeds:
    def test_each_repetition_runs_with_its_mix_seed(self, pipeline):
        recording = Recording(pipeline["adapter"])
        space = pipeline["space"]
        session = run_session(pipeline["doc"], recording, budget=30, seed=23)
        steps = [(space.effective(Configuration(e.inputs["config"])), e.inputs["workload_id"],
                  e.inputs["repetitions"]) for e in session.trace
                 if e.action == "benchmark" and "reused_from" not in e.inputs]
        assert len(steps) > 1 and all(reps > 1 for _, _, reps in steps)
        assert recording.runs == [(config, workload_id, mix_seed(23, config, workload_id, rep))
                                  for config, workload_id, reps in steps
                                  for rep in range(reps)]


class TestOneMeasurementPerEffectiveConfiguration:
    """A step whose effective configuration, workload and repetitions an
    earlier step of the session measured reads that measurement."""

    @staticmethod
    def sessions(pipeline, forced_doc):
        """(session, recording adapter, space) of a matched session on the small
        pipeline and a shifted one on the forced re-search document."""
        out = []
        for doc, space, model, budget in (
                (pipeline["doc"], pipeline["space"], pipeline["model"], 30),
                (forced_doc["doc"], forced_doc["space"], shifted_small_model(), 200)):
            recording = Recording(SimulatorAdapter(space, model))
            session = run_session(doc, recording, budget=budget, seed=11)
            assert session.status == "converged"
            out.append((session, recording, space))
        return out

    def test_no_cell_reaches_the_adapter_twice(self, pipeline, forced_doc):
        for session, recording, space in self.sessions(pipeline, forced_doc):
            reps = {e.inputs["repetitions"] for e in session.trace if e.action == "benchmark"}
            cells = Counter((space.effective(config), workload_id)
                            for config, workload_id, _ in recording.runs)
            assert set(cells.values()) == reps == {3}
            assert any("reused_from" in e.inputs for e in session.trace)

    def test_adapter_calls_equal_trials_times_repetitions(self, pipeline, forced_doc):
        for session, recording, _ in self.sessions(pipeline, forced_doc):
            assert len(recording.runs) == 3 * session.trials_used
            assert len(session.benchmarked_configs()) == session.trials_used

    def test_verify_lo_at_the_default_level_reads_the_baseline(self, pipeline):
        space = pipeline["space"]
        recording = Recording(pipeline["adapter"])
        session = run_session(pipeline["doc"], recording, budget=30, seed=11)
        benchmarks = [e for e in session.trace if e.action == "benchmark"]
        baseline = benchmarks[0]
        assert baseline.skill == "orchestrate" and baseline.inputs["config"] == {}
        lo = next(e for e in benchmarks if e.skill == "verify_pa")
        assert lo.inputs["config"] == {"pa": space.get("pa").default}
        assert lo.inputs["reused_from"] == baseline.seq
        assert lo.outputs == {"outcomes": baseline.outputs["outcomes"],
                              "pa_lo_metric": baseline.outputs["baseline_mean"]}
        assert [c for c, _, _ in recording.runs].count(Configuration({})) == 3
        assert Configuration(lo.inputs["config"]) not in [c for c, _, _ in recording.runs]


class TestDocumentIsCheckedOnce:
    def test_twenty_sessions_validate_and_hash_the_document_once(self, pipeline, monkeypatch):
        expected_hash = pipeline["doc"].document_hash()
        calls = {"validate": 0, "encode": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        validate = counted("validate", docgen.validate_document)
        monkeypatch.setattr(docgen, "validate_document", validate)
        monkeypatch.setattr(executor, "validate_document", validate)
        monkeypatch.setattr(ProceduralDocument, "to_json",
                            counted("encode", ProceduralDocument.to_json))
        p = pipeline
        doc = compile_document(p["sensitivity"], p["optima"], p["space"], p["workloads"])
        sessions = [run_session(doc, p["adapter"], budget=30, seed=seed) for seed in range(20)]
        assert all(s.status == "converged" for s in sessions)
        assert {s.document_hash for s in sessions} == {expected_hash}
        assert calls["validate"] <= 1
        assert calls["encode"] <= 1


def fresh_copy(doc):
    """A document loaded from ``doc``'s text: equal, and never run."""
    return ProceduralDocument.from_json(json.loads(doc.serialize()))


def outcome(session):
    """Everything a session delivers: its trace and its result."""
    return ([e.to_json() for e in session.trace], session.status, session.diagnostic,
            session.final_config, session.final_metric, session.trials_used, session.passes)


class TestPreparedSteps:
    """A document keeps its literal benchmark steps resolved and checked for
    the space it last ran on; nothing a session does reaches another."""

    def test_a_literal_verdict_holds_for_its_space_only(self, pipeline):
        # verify_pc probes pc = 1.0, outside the narrowed domain
        narrowed = ParameterSpace(tuple(
            replace(p, domain=Domain("continuous", 0.0, 0.5)) if p.name == "pc" else p
            for p in pipeline["space"]))
        wide = SimulatorAdapter(pipeline["space"], pipeline["model"])
        narrow = SimulatorAdapter(narrowed, pipeline["model"])
        expected = {id(a): outcome(run_session(fresh_copy(pipeline["doc"]), a, budget=30, seed=4))
                    for a in (wide, narrow)}
        assert expected[id(wide)][1] == "converged"
        assert expected[id(narrow)][1:3] == (
            "aborted", "verify_pc: invalid configuration: pc=1.0 out of range "
                       "continuous[0.0, 0.5]")
        for order in ((wide, narrow), (narrow, wide)):
            doc = fresh_copy(pipeline["doc"])
            for adapter in order + order:
                assert outcome(run_session(doc, adapter, budget=30, seed=4)) == \
                    expected[id(adapter)]

    def test_sessions_in_turn_equal_sessions_on_fresh_copies(self, pipeline, tmp_path):
        # 20 sessions on one document, matched and shifted in turn, with one
        # on another space between them: each trace is byte-identical to the
        # one the same session writes on a freshly loaded copy, and replays
        narrowed = ParameterSpace(tuple(
            replace(p, domain=Domain("continuous", 0.0, 0.5)) if p.name == "pc" else p
            for p in pipeline["space"]))
        adapters = [SimulatorAdapter(pipeline["space"], small_model()),
                    SimulatorAdapter(pipeline["space"], shifted_small_model())]
        runs = [(adapters[seed % 2], seed) for seed in range(20)]
        runs.insert(10, (SimulatorAdapter(narrowed, small_model()), 10))
        doc = fresh_copy(pipeline["doc"])
        statuses = []
        for n, (adapter, seed) in enumerate(runs):
            sessions, texts = [], []
            for session_doc in (doc, fresh_copy(pipeline["doc"])):
                path = str(tmp_path / f"{n}.jsonl")
                sessions.append(run_session(session_doc, adapter, budget=120, seed=seed))
                sessions[-1].save_trace(path)
                with open(path, "rb") as fh:
                    texts.append(fh.read())
            assert texts[0] == texts[1], f"session {n} differs from its fresh copy"
            assert outcome(sessions[0]) == outcome(sessions[1])
            header, events = load_trace(path)
            assert replay_session(header, events, doc, adapter.space).ok
            statuses.append(events[-1].outputs["status"])
        assert statuses == ["converged"] * 10 + ["aborted"] + ["converged"] * 10

    def test_a_session_parses_nothing_and_resolves_each_run_once(self, pipeline, monkeypatch):
        doc, space = fresh_copy(pipeline["doc"]), pipeline["space"]
        adapters = [SimulatorAdapter(space, small_model()),
                    SimulatorAdapter(space, shifted_small_model())]
        assert not doc.violations  # validation parses each expression, once
        runs = doc.prepared(space).runs
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(expr_mod, "parse", counted("parse", expr_mod.parse))
        monkeypatch.setattr(ProceduralDocument, "refusal",
                            counted("refusal", ProceduralDocument.refusal))
        monkeypatch.setattr(ParameterSpace, "effective",
                            counted("effective", ParameterSpace.effective))
        for seed in range(8):
            before = set(runs)
            calls.clear()
            assert run_session(doc, adapters[seed % 2], budget=120, seed=seed).status == \
                "converged"
            resolved = len(set(runs) - before)
            assert calls == Counter(refusal=resolved, effective=resolved)
        # (skill, step index, one grid index per pin): pinned steps were reached
        assert any(len(key) > 2 for key in runs)
        for seed in range(8):
            calls.clear()
            run_session(doc, adapters[seed % 2], budget=120, seed=seed)
            assert calls == Counter()

    def test_kept_cell_hashes_are_the_measured_cells_of_kept_runs(self, pipeline):
        doc, space = fresh_copy(pipeline["doc"]), pipeline["space"]
        adapters = [SimulatorAdapter(space, small_model()),
                    SimulatorAdapter(space, shifted_small_model())]
        measured = set()
        for seed in range(8):
            session = run_session(doc, adapters[seed % 2], budget=120, seed=seed)
            measured |= {(space.effective(c).canonical(), w)
                         for c, w in session.benchmarked_configs()}
        prepared = doc.prepared(space)
        steps = {skill.id: skill.procedure for skill in doc.skills}
        run_cells = {(run.effective.canonical(), steps[skill_id][index].workload_id)
                     for (skill_id, index, *_), run in prepared.runs.items()
                     if run.effective is not None}
        assert set(prepared.cells) == measured <= run_cells
        assert prepared.cells == {cell: harness.cell_hash(*cell) for cell in measured}

    def test_threads_sharing_one_document_give_the_serial_sessions(self, pipeline):
        # more threads than cores, switching often, while no run is resolved
        space = pipeline["space"]
        adapters = [SimulatorAdapter(space, small_model()),
                    SimulatorAdapter(space, shifted_small_model())]
        want = [outcome(run_session(fresh_copy(pipeline["doc"]), adapters[seed % 2],
                                    budget=120, seed=seed)) for seed in range(8)]
        doc = fresh_copy(pipeline["doc"])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(run_session, doc, adapters[i % 2], 120, i % 8)
                           for i in range(32)]
                got = [outcome(f.result(timeout=60)) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == [want[i % 8] for i in range(32)]

    def test_pinned_steps_on_one_parameter_set_keep_their_own_values(self):
        # both templates name q, and each run keeps its own q
        from tuneforge.simulator import SimulatorModel
        orch = Skill(id="root", kind="orchestration", next="end", procedure=[
            ComputeStep(expr="1", out="best_p_idx"),
            ComputeStep(expr="0", out="best_q_idx"),
            BenchmarkStep(template={"q": 1.0}, workload_id="w0", repetitions=1, out="m1",
                          pin_best=True),
            BenchmarkStep(template={"q": 0.0}, workload_id="w0", repetitions=1, out="m2",
                          pin_best=True)])
        doc = ProceduralDocument(
            fingerprint={"space_hash": "h", "campaign_id": "c"}, root="root",
            skills=[orch], workloads=[WorkloadSpec(id="w0")], primary_workload="w0",
            grids={"p": [0.0, 0.5, 1.0], "q": [0.0, 1.0]},
            safe_ranges={"p": {"lo": 0.0, "hi": 1.0}, "q": {"lo": 0.0, "hi": 1.0}},
            provenance={}, policy={})
        adapter = SimulatorAdapter(unit_space(["p", "q"]), SimulatorModel(base_rate=100.0))
        for _ in range(2):
            session = run_session(doc, adapter, budget=5, seed=0)
            assert session.status == "converged"
            assert [c.assignments for c, _ in session.benchmarked_configs()] == \
                [{"q": 1.0, "p": 0.5}, {"q": 0.0, "p": 0.5}]

    def test_index_signals_rounding_to_one_level_keep_one_run(self):
        # best_p_idx is 1 plus a small part of a noisy measurement: a new value
        # in each session, always grid level 1
        from tuneforge.simulator import SimulatorModel
        orch = Skill(id="root", kind="orchestration", next="end", procedure=[
            BenchmarkStep(template={}, workload_id="w0", repetitions=1, out="m0"),
            ComputeStep(expr="1 + m0 / 1000000", out="best_p_idx"),
            ComputeStep(expr="0", out="best_q_idx"),
            BenchmarkStep(template={"q": 1.0}, workload_id="w0", repetitions=1, out="m",
                          pin_best=True)])
        doc = ProceduralDocument(
            fingerprint={"space_hash": "h", "campaign_id": "c"}, root="root",
            skills=[orch], workloads=[WorkloadSpec(id="w0")], primary_workload="w0",
            grids={"p": [0.0, 0.5, 1.0], "q": [0.0, 1.0]},
            safe_ranges={"p": {"lo": 0.0, "hi": 1.0}, "q": {"lo": 0.0, "hi": 1.0}},
            provenance={}, policy={})
        space = unit_space(["p", "q"])
        adapter = SimulatorAdapter(space, SimulatorModel(base_rate=100.0, sigma=0.05))
        indexes = set()
        for seed in range(5):
            session = run_session(doc, adapter, budget=5, seed=seed)
            assert session.status == "converged"
            assert session.benchmarked_configs()[-1][0].assignments == {"q": 1.0, "p": 0.5}
            indexes.add(session.signals["best_p_idx"])
        assert len(indexes) == 5
        assert sorted(doc.prepared(space).runs) == [("root", 0), ("root", 3, 1)]

    def test_prepared_steps_are_kept_per_space(self, pipeline):
        doc, space = fresh_copy(pipeline["doc"]), pipeline["space"]
        prepared = doc.prepared(space)
        assert doc.prepared(space) is prepared
        assert doc.prepared(unit_space(SMALL_NAMES)) is not prepared
        assert doc.prepared(space) is not prepared

    def test_editing_one_sessions_trace_changes_no_other(self, pipeline):
        doc, adapter = fresh_copy(pipeline["doc"]), pipeline["adapter"]
        first = run_session(doc, adapter, budget=30, seed=8)
        for event in first.trace:
            if event.action == "benchmark":
                event.inputs["config"]["pa"] = 0.5
                event.inputs["config"].pop("pc", None)
        first.final_config.assignments["pz"] = 1.0
        first.trace[-1].outputs["final_config"]["pq"] = 1.0
        second = run_session(doc, adapter, budget=30, seed=8)
        assert second.status == "converged"
        assert outcome(second) == outcome(run_session(fresh_copy(pipeline["doc"]), adapter,
                                                      budget=30, seed=8))
        configs = [e.inputs["config"] for e in first.trace + second.trace
                   if e.action == "benchmark"]
        assert len({id(c) for c in configs}) == len(configs)

    def test_editing_an_adopted_literal_changes_no_other_session(self):
        from tuneforge.simulator import SimulatorModel
        orch = Skill(id="root", kind="orchestration", next="end", procedure=[
            BenchmarkStep(template={"p": 0.5}, workload_id="w0", repetitions=1, out="m",
                          adopt=True)])
        doc = ProceduralDocument(
            fingerprint={"space_hash": "h", "campaign_id": "c"}, root="root",
            skills=[orch], workloads=[WorkloadSpec(id="w0")], primary_workload="w0",
            grids={"p": [0.0, 0.5, 1.0]}, safe_ranges={"p": {"lo": 0.0, "hi": 1.0}},
            provenance={}, policy={})
        adapter = SimulatorAdapter(unit_space(["p"]), SimulatorModel(base_rate=100.0))
        first = run_session(doc, adapter, budget=5, seed=0)
        assert first.final_config == Configuration({"p": 0.5})
        first.final_config.assignments["p"] = 0.9
        first.trace[-1].outputs["final_config"]["q"] = 1.0
        second = run_session(doc, adapter, budget=5, seed=0)
        assert second.status == "converged"
        assert second.final_config == Configuration({"p": 0.5})
        assert outcome(second)[0] == [e.to_json() for e in
                                      run_session(fresh_copy(doc), adapter, 5, 0).trace]


class TestAnomalyFloor:
    def test_selected_set_below_floor_aborts_before_benchmarking(self, pipeline):
        from tuneforge.docgen import compile_document
        from tuneforge.topology import CorrelationGraph
        p = pipeline
        sens = copy.deepcopy(p["sensitivity"])
        for profile in sens.profiles:
            profile.selected = False
        empty = CorrelationGraph(nodes=[], edges=[], components=[])
        doc = compile_document(sens, replace(p["optima"], graph=empty, optima=[]),
                               p["space"], p["workloads"])
        session = run_session(doc, p["adapter"], budget=30, seed=0)
        assert session.status == "aborted"
        assert session.trials_used == 0
        assert session.diagnostic == "orchestrate: precondition failed: top_k_count >= 1"


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
        # the resolver's target replaces the root's `next`; None keeps `next`
        assert doc.skill("orchestrate").next == "verify_pc"
        decisions = [e for e in session.trace if e.action == "decision"]
        assert decisions[0].skill == "orchestrate"
        for e in decisions:
            assert e.outputs == ({"target": "verify_candidate", "resolver": True}
                                 if e.skill == "orchestrate"
                                 else {"target": doc.skill(e.skill).next})
            assert e.predicates == []


class TestErrorPaths:
    def test_benchmark_without_ok_repetition_aborts(self):
        # a crash region sits inside the documented safe range
        from tuneforge.simulator import CrashRegion, SimulatorModel
        space = unit_space(["p"])
        model = SimulatorModel(base_rate=100.0, crashes={"p": CrashRegion(0.4, 0.6)})
        orch = Skill(
            id="root", kind="orchestration",
            procedure=[BenchmarkStep(template={"p": 0.5}, workload_id="w0",
                                     repetitions=2, out="bad_metric")],
            next="end")
        doc = ProceduralDocument(
            fingerprint={"space_hash": "h", "campaign_id": "c"}, root="root",
            skills=[orch], workloads=[WorkloadSpec(id="w0")], primary_workload="w0",
            grids={"p": [0.0, 0.5, 1.0]},
            safe_ranges={"p": {"lo": 0.0, "hi": 1.0}}, provenance={}, policy={})
        session = run_session(doc, SimulatorAdapter(space, model), budget=5, seed=0)
        assert session.status == "aborted"
        assert session.diagnostic == \
            "root: step 0 benchmark produced no ok repetition (['crash', 'crash'])"
        benchmarks = [e for e in session.trace if e.action == "benchmark"]
        assert [e.outputs for e in benchmarks] == [{"outcomes": ["crash", "crash"]}]
        assert "bad_metric" not in session.signals

    def test_unknown_workload_or_missing_signal_aborts_cleanly(self, pipeline):
        # Drop the root's init of best_pc_idx. Only the re-sweep, which a
        # matched session never runs, still sets it, so the document validates
        # and the first pinned step (joint_c1 pins its non-member pc) reads an
        # unset signal.
        def edit(d):
            init = next(s for s in skill_json(d, d["root"])["procedure"]
                        if s.get("out") == "best_pc_idx")
            init.update(expr="0", out="pc_init_removed")
        doc = edit_document(pipeline["doc"], edit)
        session = run_session(doc, pipeline["adapter"], budget=30, seed=1)
        assert session.status == "aborted"
        assert session.diagnostic == "joint_c1: template references unset signal 'best_pc_idx'"
        assert session.trace[-1].outputs == {"status": "aborted",
                                             "diagnostic": session.diagnostic}

    @staticmethod
    def run_pinned(p_index):
        """One pin_best benchmark of {"q": 1.0} with best_p_idx = p_index."""
        from tuneforge.simulator import SimulatorModel
        orch = Skill(
            id="root", kind="orchestration",
            procedure=[ComputeStep(expr=p_index, out="best_p_idx"),
                       ComputeStep(expr="0", out="best_q_idx"),
                       BenchmarkStep(template={"q": 1.0}, workload_id="w0",
                                     repetitions=1, out="m", pin_best=True)],
            next="end")
        doc = ProceduralDocument(
            fingerprint={"space_hash": "h", "campaign_id": "c"}, root="root",
            skills=[orch], workloads=[WorkloadSpec(id="w0")], primary_workload="w0",
            grids={"p": [0.0, 0.5, 1.0], "q": [0.0, 1.0]},
            safe_ranges={"p": {"lo": 0.0, "hi": 1.0}, "q": {"lo": 0.0, "hi": 1.0}},
            provenance={}, policy={})
        adapter = SimulatorAdapter(unit_space(["p", "q"]), SimulatorModel(base_rate=100.0))
        return run_session(doc, adapter, budget=5, seed=0)

    def test_pin_best_sets_unnamed_grid_parameters_at_their_best_index(self):
        session = self.run_pinned("1")
        assert session.status == "converged"
        assert [c.assignments for c, _ in session.benchmarked_configs()] == \
            [{"q": 1.0, "p": 0.5}]

    @pytest.mark.parametrize("index, shown", [pytest.param("3", 3, id="3"),
                                              pytest.param("0 - 1", -1, id="-1")])
    def test_pinned_index_out_of_range_aborts(self, index, shown):
        session = self.run_pinned(index)
        assert session.status == "aborted"
        assert session.diagnostic == f"root: grid index {shown} out of range for 'p'"
        assert session.trace[-1].outputs == {"status": "aborted",
                                             "diagnostic": session.diagnostic}

    # A dict is never a template value: the former {"$grid": [param, signal]}
    # form, well-formed or truncated, is an invalid literal like any other.
    @pytest.mark.parametrize("literal", ["abc", {"x": 1}, {"$signal": "pc"}, {"$grid": ["pc"]},
                                         {"$grid": ["pc", "best_pc_idx"]}])
    def test_bad_template_literal_aborts_as_invalid_configuration(self, pipeline, literal):
        def edit(d):
            step = next(s for s in skill_json(d, "verify_pc")["procedure"]
                        if s["action"] == "benchmark")
            step["template"] = {"pc": literal}
        doc = edit_document(pipeline["doc"], edit)
        session = run_session(doc, pipeline["adapter"], budget=30, seed=1)
        assert session.status == "aborted"
        assert session.diagnostic == \
            f"verify_pc: invalid configuration: pc={literal!r} out of range continuous[0.0, 1.0]"
        assert session.trace[-1].outputs == {"status": "aborted",
                                             "diagnostic": session.diagnostic}

    def test_benchmark_outside_safe_range_aborts(self, pipeline):
        def edit(d):
            step = next(s for s in skill_json(d, "verify_pc")["procedure"]
                        if s["action"] == "benchmark")
            step["template"] = {"pc": 0.9e9}
        doc = edit_document(pipeline["doc"], edit)
        # keep document structurally valid: the huge literal is legal JSON
        session = run_session(doc, pipeline["adapter"], budget=30, seed=1)
        assert session.status == "aborted"
        assert "safe" in session.diagnostic or "invalid" in session.diagnostic

    @pytest.mark.parametrize("site", ["branch", "postcondition", "convergence"])
    def test_predicate_on_unset_signal_aborts_with_diagnostic(self, pipeline, site):
        # `x` is declared by a compute step that an always-true branch skips,
        # so the document validates but `x` is never set when read.
        skipped_x = [BranchStep(cond="1", target=2),
                     ComputeStep(expr="1", out="x")]
        root = {"procedure": skipped_x, "next": "end"}
        children = []
        if site == "branch":
            root["procedure"] = skipped_x + [BranchStep(cond="x >= 1", target=3)]
        elif site == "postcondition":
            root = {"next": "child"}
            children = [Skill(id="child", kind="per-parameter", procedure=skipped_x,
                              next="end", postconditions=["x >= 1"])]
        else:
            root["postconditions"] = ["x >= 1"]
        skills = [Skill(id="root", kind="orchestration", **root)] + children
        doc = ProceduralDocument(
            fingerprint={"space_hash": "h", "campaign_id": "c"}, root="root",
            skills=skills, workloads=[WorkloadSpec(id="w0")], primary_workload="w0",
            grids={}, safe_ranges={}, provenance={}, policy={})
        session = run_session(doc, pipeline["adapter"], budget=5, seed=0)
        assert session.status == "aborted"
        assert "predicate 'x >= 1' failed" in session.diagnostic
        assert "unresolved symbol 'x'" in session.diagnostic
        assert session.trace[-1].outputs == {"status": "aborted",
                                             "diagnostic": session.diagnostic}


@pytest.fixture(scope="module", params=["maximize", "minimize"])
def forced_doc(request, tmp_path_factory):
    """The small pipeline's document with the joint re-search forced: no
    measured gain reaches the documented improvement."""
    p = run_small_pipeline(tmp_path_factory.mktemp("campaign"), direction=request.param)
    doc = edit_document(p["doc"], lambda d: skill_json(d, "joint_c1")["reference_data"].update(
        expected_improvement=1e9))
    return {"doc": doc, "space": p["space"], "maximize": request.param == "maximize"}


def _skill_runs(trace):
    """(skill id, events) for each run of consecutive events of one skill."""
    runs = []
    for event in trace:
        if runs and runs[-1][0] == event.skill:
            runs[-1][1].append(event)
        else:
            runs.append((event.skill, [event]))
    return runs


def _metric(event):
    return next(v for k, v in event.outputs.items() if k != "outcomes")


def _last_set(events, signal):
    values = [e.outputs[signal] for e in events if e.action == "compute" and signal in e.outputs]
    return values[-1]


class TestArgbestSkills:
    """The re-sweep and joint re-search adopt the first best level by the
    primary workload's direction: a later cell wins only if strictly better."""

    @staticmethod
    def adopted(forced, model):
        """(expected, adopted) best-index pairs of every re-sweep and re-search."""
        doc = forced["doc"]
        session = run_session(doc, SimulatorAdapter(forced["space"], model), budget=200, seed=11)
        assert session.status == "converged"

        def first_best(values):
            return values.index(max(values) if forced["maximize"] else min(values))

        pairs = {}
        for skill_id, events in _skill_runs(session.trace):
            benchmarks = [e for e in events if e.action == "benchmark"]
            if skill_id.startswith("resweep_"):
                (param,) = benchmarks[0].inputs["config"]
                grid = doc.grids[param]
                levels = [grid.index(e.inputs["config"][param]) for e in benchmarks]
                best = levels[first_best([_metric(e) for e in benchmarks])]
                pairs[skill_id] = (best, _last_set(events, f"best_{param}_idx"))
            elif skill_id == "joint_c1":
                steps = doc.skill(skill_id).procedure
                cells = [e for e in benchmarks
                         if steps[e.step].out.startswith("joint_c1_cell_")]
                if not cells:
                    continue
                assert len(cells) == 16
                template = steps[cells[first_best([_metric(e) for e in cells])].step].template
                for member, level in template.items():
                    pairs[f"{skill_id}:{member}"] = (doc.grids[member].index(level),
                                                     _last_set(events, f"best_{member}_idx"))
        return pairs

    def test_shifted_model_adopts_the_first_best_cell(self, forced_doc):
        pairs = self.adopted(forced_doc, shifted_small_model())
        assert {"resweep_pc", "resweep_pd", "joint_c1:pa", "joint_c1:pb"} <= set(pairs)
        for name, (expected, adopted) in pairs.items():
            assert adopted == expected, name

    def test_all_tie_adopts_the_first_cell(self, forced_doc):
        from tuneforge.simulator import SimulatorModel
        pairs = self.adopted(forced_doc, SimulatorModel(base_rate=1000.0))
        assert set(pairs) == {"resweep_pa", "resweep_pb", "resweep_pc", "resweep_pd",
                              "joint_c1:pa", "joint_c1:pb"}
        assert all(pair == (0, 0) for pair in pairs.values()), pairs


@pytest.fixture(scope="module")
def minimizing(tmp_path_factory):
    return run_small_pipeline(tmp_path_factory.mktemp("minimize"), direction="minimize")


def census_sessions(pipeline, minimizing):
    """Name -> session of every session the trace census pins, each run on a
    document that earlier census sessions have already run."""
    narrowed = ParameterSpace(tuple(
        replace(p, domain=Domain("continuous", 0.0, 0.5)) if p.name == "pc" else p
        for p in pipeline["space"]))
    runs = {}
    for p in (pipeline, minimizing):
        for label, model in (("matched", small_model()), ("shifted", shifted_small_model())):
            adapter = SimulatorAdapter(p["space"], model)
            for seed in range(5):
                name = f"{p['workloads'][0].direction}-{label}-{seed}"
                runs[name] = (p["doc"], adapter, 120, seed, None)
    runs["narrowed"] = (pipeline["doc"], SimulatorAdapter(narrowed, small_model()), 30, 4, None)
    runs["resolver"] = (pipeline["doc"], pipeline["adapter"], 30, 2,
                        lambda skill, signals: ("verify_candidate"
                                                if skill.kind == "orchestration" else None))
    return {name: (run_session(*args), args[0], args[1].space) for name, args in runs.items()}


class TestTraceCensus:
    """What the interpreter records, pinned: a change to what any session of
    the small pipelines does or writes shows here first."""

    # name -> (sha256 of the trace's JSON, final configuration)
    PINNED = {
        "maximize-matched-0": ("b09a540dd077b43bb5c7b6db4ccdbfd3813673558715c429140e1f3bbb0657e3",
                              {"pa": 1.0, "pb": 1.0, "pc": 1.0, "pd": 0.0}),
        "maximize-matched-1": ("50893d7fb49596f849d42a61aa59f78f7e23767346eeddfb0b3ce6dbe688eb99",
                              {"pa": 1.0, "pb": 1.0, "pc": 1.0, "pd": 0.0}),
        "maximize-matched-2": ("edbd0e0d234c1d13b7c5e2a6d4adeae1973b2d6b1c6bf4ecdc068cdb6a9beb81",
                              {"pa": 1.0, "pb": 1.0, "pc": 1.0, "pd": 0.0}),
        "maximize-matched-3": ("ee94651d7ed4a8ed9e8b39210ee1b5f06dd92ae7e923d535a599d8d3b775b0e0",
                              {"pa": 1.0, "pb": 1.0, "pc": 1.0, "pd": 0.0}),
        "maximize-matched-4": ("1f7543977bc3f778fb910b4e93353698f4629496b0376342c439f6a2bc3197a9",
                              {"pa": 1.0, "pb": 1.0, "pc": 1.0, "pd": 0.0}),
        "maximize-shifted-0": ("ad66ab0ee58292b333360529e0003963f2c0c6a3b41decfacfeb98810bb267e8",
                              {"pa": 1.0, "pb": 1.0, "pc": 0.0, "pd": 1.0}),
        "maximize-shifted-1": ("690dc6a1cc0b60d76e349b17e02fd443b926d0d1f1b98f8969ee067c95653b79",
                              {"pa": 1.0, "pb": 1.0, "pc": 0.0, "pd": 1.0}),
        "maximize-shifted-2": ("3d2057343f2a52682452f5e4e03bf908d068c12903cd13757903dcc9adf620de",
                              {"pa": 1.0, "pb": 1.0, "pc": 0.0, "pd": 1.0}),
        "maximize-shifted-3": ("f3bd7a0943cd7c74faefb39377ae2246ce3aa807604647cdd0426649a931c6d8",
                              {"pa": 1.0, "pb": 1.0, "pc": 0.0, "pd": 1.0}),
        "maximize-shifted-4": ("3bb76bd51be5bd40d2679053716b5a4810c0e54ed011b56d7c63fbcbeb77d61e",
                              {"pa": 1.0, "pb": 1.0, "pc": 0.0, "pd": 1.0}),
        "minimize-matched-0": ("8dabe0e9435b75a3e3599fd372f5d09ebb65b8468a1bbf48ef2d975087c33467",
                              {"pa": 0.0, "pb": 0.0, "pc": 0.0, "pd": 1.0}),
        "minimize-matched-1": ("559ea48243fb62b7fb978a6456d4b396bd0fd31e6b84b172efc96b350aa5aa42",
                              {"pa": 0.0, "pb": 0.0, "pc": 0.0, "pd": 1.0}),
        "minimize-matched-2": ("4828a165354b492a59debafeacb6bfc633bd5e59ea3f37ae2116faab91508976",
                              {"pa": 0.0, "pb": 0.0, "pc": 0.0, "pd": 1.0}),
        "minimize-matched-3": ("96685e2af03aa7ad2a47f7449ed377724e660306a9bcb433dac2fd34fc460a5c",
                              {"pa": 0.0, "pb": 0.0, "pc": 0.0, "pd": 1.0}),
        "minimize-matched-4": ("35aee953167ed47c4b63a0bcf312f5c92c7ff70e012d607ff796f0030a919c5d",
                              {"pa": 0.0, "pb": 0.0, "pc": 0.0, "pd": 1.0}),
        "minimize-shifted-0": ("eb4a2b53c235b66eb71c29aeffa71b447c10cccb9d5a1fed978ecb380dd2566e",
                              {"pc": 1.0}),
        "minimize-shifted-1": ("6b0263fddcad89150859ba256a93a7825fd6397f8a31e16201744b909b75eaaf",
                              {"pc": 1.0}),
        "minimize-shifted-2": ("ffaedefb0a4b4f20edced061dfb35b82260b3db4e5a5c2edae9baea024931cda",
                              {"pc": 1.0}),
        "minimize-shifted-3": ("f791d4a10dd8f735bbe66b53755d49c82a3b291158548bd8776ce3d2d07c5343",
                              {"pc": 1.0}),
        "minimize-shifted-4": ("a86f08f6a1235d5d6660c6cd557d654d02504c1bb9deb1943c48c9a36f3bba64",
                              {"pc": 1.0}),
        "narrowed": ("d74d5cdc9fbd86ff34ac16083aaa16edda1d603bda09d63d3d5ce99480adfa28",
                    None),
        "resolver": ("c2651eb878e8fd56320eb5c5c8180f76a58aa8fc09623a5a4403352f4792ad00",
                    None),
    }

    def test_session_traces_are_pinned(self, pipeline, minimizing):
        got = {}
        for name, (session, doc, space) in census_sessions(pipeline, minimizing).items():
            assert replay_session(session.trace_header(), session.trace, doc, space).ok, name
            text = json.dumps([e.to_json() for e in session.trace], sort_keys=True)
            final = session.final_config and session.final_config.assignments
            got[name] = (hashlib.sha256(text.encode()).hexdigest(), final)
        assert got == self.PINNED


class Scripted:
    """An adapter whose every measurement does what ``act`` does."""

    max_concurrency = 1

    def __init__(self, act):
        self.space = unit_space(["p"])
        self.act = act

    def measure(self, config, workload, seed):
        return self.act()


def _raise(error):
    raise error


class TestClassifierCensus:
    """A session repetition and a campaign run classify one adapter result
    the same way."""

    # adapter result -> (outcome, metric, diagnostic) of its record
    CASES = {
        "float": (lambda: 123.5, ("ok", 123.5, None)),
        "int": (lambda: 7, ("ok", 7.0, None)),
        "nan": (lambda: math.nan, ("crash", None, "non-finite metric nan")),
        "inf": (lambda: math.inf, ("crash", None, "non-finite metric inf")),
        "-inf": (lambda: -math.inf, ("crash", None, "non-finite metric -inf")),
        "crash": (lambda: _raise(CrashError("segfault")), ("crash", None, "segfault")),
        "timeout": (lambda: _raise(TimeoutError("slow")), ("timeout", None, "slow")),
        "io": (lambda: _raise(OSError("disk gone")), ("crash", None, "OSError: disk gone")),
    }

    @staticmethod
    def one_step_session(adapter):
        orch = Skill(id="root", kind="orchestration", next="end", procedure=[
            BenchmarkStep(template={"p": 0.5}, workload_id="w0", repetitions=2, out="m")])
        doc = ProceduralDocument(
            fingerprint={"space_hash": "h", "campaign_id": "c"}, root="root",
            skills=[orch], workloads=[WorkloadSpec(id="w0")], primary_workload="w0",
            grids={"p": [0.0, 0.5, 1.0]}, safe_ranges={"p": {"lo": 0.0, "hi": 1.0}},
            provenance={}, policy={})
        return run_session(doc, adapter, budget=5, seed=0)

    @pytest.mark.parametrize("case", CASES)
    def test_a_session_measures_what_a_run_records(self, case):
        act, (outcome, metric, diagnostic) = self.CASES[case]
        adapter = Scripted(act)
        m = run_experiment(adapter, Configuration({"p": 0.5}), WorkloadSpec(id="w0"), 0, 0)
        assert (m.outcome, m.metric_value, m.diagnostic) == (outcome, metric, diagnostic)
        (event,) = [e for e in self.one_step_session(adapter).trace if e.action == "benchmark"]
        assert event.outputs["outcomes"] == [outcome, outcome]
        assert event.outputs.get("m") == metric

    def test_an_adapter_error_propagates_from_both(self):
        adapter = Scripted(lambda: _raise(AdapterError("no METRIC line")))
        with pytest.raises(AdapterError, match="no METRIC line"):
            run_experiment(adapter, Configuration({"p": 0.5}), WorkloadSpec(id="w0"), 0, 0)
        with pytest.raises(AdapterError, match="no METRIC line"):
            self.one_step_session(adapter)
