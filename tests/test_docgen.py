"""Document compilation, validation, serialization, and knowledge export."""

import ast
import copy
import hashlib
import json
import math
import operator
import random
import re
import shutil
from dataclasses import FrozenInstanceError, fields, replace

import pytest

from helpers import (edit_document, load_perfbench_workloads, one_workload, run_small_pipeline,
                     shifted_small_model, skill_json, unit_space)
from tuneforge import expr as expr_mod
from tuneforge.campaign import OPTIMA_REPORT, Campaign
from tuneforge.docgen import (BenchmarkStep, BranchStep, ComputeStep, KnowledgeExport,
                              ProceduralDocument, Skill, compile_document, export_knowledge,
                              render_text, step_from_json, thaw, validate_document)
from tuneforge.errors import AnalysisError, CompileError, DocumentError
from tuneforge.executor import run_session
from tuneforge.sensitivity import SafeRange, SensitivityProfile, SensitivityReport
from tuneforge.simulator import SimulatorAdapter
from tuneforge.space import Configuration, WorkloadSpec
from tuneforge.topology import CorrelationGraph, GraphEdge, JointOptimum, OptimaReport


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    return run_small_pipeline(tmp_path_factory.mktemp("campaign"))


def synthetic_reports(names, edges=()):
    """Sensitivity and optima reports of campaign c0 selecting ``names``,
    ranked in order, on w0; the ``edges``, ``(a, b, eta^2)``, join their
    endpoints into one component with a joint optimum."""
    profiles = [SensitivityProfile(parameter=n, cv_per_workload={"w0": 0.2}, aggregate_cv=0.2,
                                   shape="monotonic-up", safe_range=SafeRange(0.0, 1.0),
                                   rank=i + 1, selected=True, best_level={"w0": 1.0})
                for i, n in enumerate(names)]
    sens = SensitivityReport(campaign_id="c0", space_hash="h0", tau_s=0.05,
                             baseline_means={"w0": 1000.0}, profiles=profiles)
    members = sorted({n for a, b, _ in edges for n in (a, b)})
    singles = [[n] for n in names if n not in members]
    graph = CorrelationGraph(nodes=sorted(names),
                             components=sorted(singles + ([members] if members else [])),
                             edges=[GraphEdge(a=a, b=b, eta_squared=eta) for a, b, eta in edges])
    optima = [JointOptimum(component=members, workload_id="w0",
                           best_config=Configuration({m: 1.0 for m in members}),
                           best_metric=1100.0, improvement_vs_default=0.1)] if members else []
    return sens, OptimaReport(campaign_id="c0", space_hash="h0", graph=graph, optima=optima,
                              baseline_means={"w0": 1000.0})


class TestCompile:
    def test_skill_inventory(self, pipeline):
        doc = pipeline["doc"]
        kinds = {}
        for skill in doc.skills:
            kinds[skill.kind] = kinds.get(skill.kind, 0) + 1
        top_k = len(pipeline["sensitivity"].top_k())      # 4 selected parameters
        multi = len(pipeline["optima"].graph.multi_components())  # 1 component
        assert kinds["orchestration"] == 1
        assert kinds["per-parameter"] == 2 * top_k        # verify + resweep each
        assert kinds["per-component"] == multi + 1        # joint skills + candidate
        assert len(doc.skills) >= top_k + multi + 1

    def test_compiled_document_is_valid(self, pipeline):
        assert validate_document(pipeline["doc"]) == []

    def test_round_trip_deep_equality(self, pipeline, tmp_path):
        doc = pipeline["doc"]
        path = tmp_path / "doc.json"
        doc.save(str(path))
        loaded = ProceduralDocument.load(str(path))
        assert loaded.to_json() == doc.to_json()
        assert loaded.serialize() == doc.serialize()
        assert loaded.document_hash() == doc.document_hash()

    def test_no_template_value_is_a_dict(self, pipeline):
        doc = pipeline["doc"]
        for skill in doc.skills:
            for step in skill.procedure:
                assert not any(isinstance(v, dict) for v in getattr(step, "template", {}).values())
        assert "$grid" not in doc.serialize()

    def test_pin_best_marks_joint_and_candidate_benchmarks_only(self, pipeline):
        doc = pipeline["doc"]
        benchmarks = [(skill, step) for skill in doc.skills for step in skill.procedure
                      if step.action == "benchmark"]
        for skill, step in benchmarks:
            pinned = skill.id.startswith("joint_") or step.out.startswith("cand_metric")
            assert step.pin_best is pinned, (skill.id, step.out)
            if skill.id == "verify_candidate":
                assert step.template == {}
        assert any(step.pin_best for _, step in benchmarks)
        # like `adopt`, the flag is written only when it is set
        serialized = [s.to_json() for skill in doc.skills for s in skill.procedure]
        assert all(d.get("pin_best", True) is True for d in serialized)

    def test_argbest_is_one_compute_step_not_a_ladder(self, pipeline):
        doc = pipeline["doc"]
        for skill in doc.skills:
            steps = skill.procedure
            if skill.id.startswith("resweep_"):
                (param,) = steps[0].template
                n = len(doc.grids[param])
                assert [s.action for s in steps] == ["benchmark"] * n + ["compute"] * 3
                assert steps[n + 1].expr == \
                    f"argmax({', '.join(f'{param}_rs_m{i}' for i in range(n))})"
                assert steps[n + 1].out == f"best_{param}_idx"
            elif skill.id.startswith("joint_"):
                first = next(i for i, s in enumerate(steps)
                             if getattr(s, "out", None) == f"{skill.id}_cell_0")
                members = sorted(steps[first].template)
                n = math.prod(len(doc.grids[m]) for m in members)
                research = steps[first:first + n + 1 + len(members)]
                assert [s.action for s in research] == \
                    ["benchmark"] * n + ["compute"] * (1 + len(members))
                assert research[n].expr == \
                    f"argmax({', '.join(f'{skill.id}_cell_{j}' for j in range(n))})"
                assert [s.out for s in research[n:]] == \
                    [f"{skill.id}_best_cell"] + [f"best_{m}_idx" for m in members]
                assert all(s.expr.startswith(f"pick({skill.id}_best_cell, ")
                           for s in research[n + 1:])
        assert "adapted_" not in doc.serialize()

    def test_compile_is_byte_deterministic(self, pipeline):
        p = pipeline
        doc2 = compile_document(p["sensitivity"], p["optima"], p["space"], p["workloads"])
        assert doc2.serialize() == p["doc"].serialize()

    def test_mismatched_fingerprints_rejected(self, pipeline, tmp_path):
        # The campaign checks each report where it reads it; the compiler
        # takes the reports it is given.
        p = pipeline
        directory = shutil.copytree(p["campaign"].directory, tmp_path / "campaign")
        bad = copy.deepcopy(p["optima"])
        bad.campaign_id = "someone-else"
        bad.save(str(directory / OPTIMA_REPORT))
        campaign = Campaign(str(directory), p["space"], p["workloads"], p["campaign"].seed)
        with pytest.raises(AnalysisError, match=f"{OPTIMA_REPORT} belongs to campaign "
                                                "someone-else"):
            campaign.compile()

    def test_provenance_covers_every_reference_datum(self, pipeline):
        doc = pipeline["doc"]
        for skill in doc.skills:
            for key in skill.reference_data:
                assert f"{skill.id}.{key}" in doc.provenance

    def test_reference_data_carries_profiling_values(self, pipeline):
        doc = pipeline["doc"]
        sens = pipeline["sensitivity"]
        verify = doc.skill("verify_pc")
        assert verify.reference_data["cv"] == sens.profile("pc").cv_per_workload["w0"]
        assert verify.reference_data["shape"] == sens.profile("pc").shape

    def test_acyclic_and_reachable_by_construction(self, pipeline):
        doc = pipeline["doc"]
        edges = doc.edges()
        assert all(a != b for a, b in edges)
        # adaptation edges present: verify_* -> resweep_*
        assert ("verify_pc", "resweep_pc") in edges

    def test_no_degenerate_interactions_still_compiles(self, pipeline, tmp_path):
        # strip all confirmed pairs: no per-component skills, orchestration
        # routes straight through verification to the candidate
        p = pipeline
        inter = copy.deepcopy(p["interaction"])
        for r in inter.records:
            r.confirmed = False
        from tuneforge.topology import build_graph
        graph = build_graph([q.parameter for q in p["sensitivity"].top_k()], inter)
        doc = compile_document(p["sensitivity"], replace(p["optima"], graph=graph, optima=[]),
                               p["space"], p["workloads"])
        assert validate_document(doc) == []
        assert not [s for s in doc.skills if s.id.startswith("joint_")]

    def test_rejected_component_gets_no_joint_skill(self, pipeline):
        # The joint stage's recorded verdict decides, not the compiler's cap.
        p = pipeline
        (component,) = p["optima"].graph.multi_components()
        report = replace(p["optima"], optima=[],
                         rejected=[{"component": component, "reason": "decompose it"}])
        doc = compile_document(p["sensitivity"], report, p["space"], p["workloads"])
        assert validate_document(doc) == []
        assert not [s for s in doc.skills if s.id.startswith("joint_")]
        assert {f"verify_{m}" for m in component} <= {s.id for s in doc.skills}

    @pytest.mark.parametrize("ids, named", [
        (["w0", "tolerance"], "workload 'tolerance' names its CV cv_tolerance"),
        (["w0", "w-1", "w_1"], "workloads 'w-1' and 'w_1' share the signal name 'w_1'")],
        ids=["cv-tolerance", "shared-signal-name"])
    def test_workload_keys_that_collide_are_refused(self, pipeline, ids, named):
        p = pipeline
        sens = copy.deepcopy(p["sensitivity"])
        for profile in sens.profiles:
            for wid in ids[1:]:
                profile.cv_per_workload[wid] = 0.1
        workloads = [WorkloadSpec(id=wid) for wid in ids]
        with pytest.raises(CompileError, match=re.escape(named)):
            compile_document(sens, p["optima"], p["space"], workloads)

    def test_parameters_that_share_a_signal_name_are_refused(self):
        names = ["p-1", "p_1"]
        sens, optima = synthetic_reports(names)
        with pytest.raises(CompileError, match=re.escape(
                "parameters 'p-1' and 'p_1' share the signal name 'p_1'")):
            compile_document(sens, optima, unit_space(names), one_workload())

    def test_eta2_keys_that_collide_are_refused(self):
        # (a, b_c) and (a_b, c) both join to eta2_a_b_c; neither value may be lost
        names = ["a", "a_b", "b_c", "c"]
        sens, optima = synthetic_reports(
            names, [("a", "a_b", 0.30), ("a", "b_c", 0.40), ("a_b", "c", 0.20)])
        with pytest.raises(CompileError, match=re.escape(
                "pair ('a_b', 'c') names its eta^2 eta2_a_b_c, which joint_c1 already holds "
                "for pair ('a', 'b_c')")):
            compile_document(sens, optima, unit_space(names), one_workload())
        # without the colliding edge the component compiles and exports each pair
        sens, optima = synthetic_reports(names, [("a", "a_b", 0.30), ("a", "b_c", 0.40)])
        export = export_knowledge(compile_document(sens, optima, unit_space(names),
                                                   one_workload()))
        assert [(d["pair"], d["eta_squared"]) for d in export.interactions] == \
            [(["a", "a_b"], 0.30), (["a", "b_c"], 0.40)]

    def test_a_parameter_named_like_a_fixed_skill_is_refused(self):
        # verify_<p> of a parameter named candidate is the candidate check's id
        names = ["candidate", "x"]
        sens, optima = synthetic_reports(names)
        with pytest.raises(CompileError, match=re.escape(
                "parameter 'candidate' names its skill verify_candidate, which is the "
                "candidate check's id")):
            compile_document(sens, optima, unit_space(names), one_workload())

    def test_render_text_mentions_every_skill(self, pipeline):
        text = render_text(pipeline["doc"])
        for skill in pipeline["doc"].skills:
            assert skill.id in text


class TestDirectionCheck:
    """A verify skill checks the response direction its documented best level
    implies, also when the noisy shape label is not monotonic."""

    @staticmethod
    def shape_expr(doc, param):
        return next(s.expr for s in doc.skill(f"verify_{param}").procedure
                    if getattr(s, "out", None) == f"{param}_shape_ok")

    def test_best_level_at_an_end_implies_the_direction(self, pipeline):
        p = pipeline
        sens = copy.deepcopy(p["sensitivity"])
        for name in ("pc", "pd"):
            sens.profile(name).shape = "non-monotonic"
        doc = compile_document(sens, p["optima"], p["space"], p["workloads"])
        # pc rises on w0 (best level 1.0), pd falls (best level 0.0)
        assert self.shape_expr(doc, "pc") == "pc_hi_metric >= pc_lo_metric"
        assert self.shape_expr(doc, "pd") == "pd_hi_metric <= pd_lo_metric"
        session = run_session(doc, SimulatorAdapter(p["space"], shifted_small_model()),
                              budget=120, seed=11)
        adaptations = {e.skill for e in session.trace if e.action == "adaptation"}
        assert {"verify_pc", "verify_pd"} <= adaptations

    def test_interior_best_level_checks_no_direction(self, pipeline):
        p = pipeline
        sens = copy.deepcopy(p["sensitivity"])
        profile = sens.profile("pc")
        profile.shape = "non-monotonic"
        profile.best_level["w0"] = 0.5
        doc = compile_document(sens, p["optima"], p["space"], p["workloads"])
        assert self.shape_expr(doc, "pc") == "1"

    def test_noise_labelled_isolates_of_planted_116_adapt(self, tmp_path):
        # Campaign seed 903271 labels the two isolates that the shifted model
        # reverses, p007 and p010, non-monotonic; both have their w_read best
        # level at 1.0.
        bench = load_perfbench_workloads()
        w = bench.declare_and_load(bench.planted_116(), str(tmp_path))
        campaign = Campaign(str(tmp_path / "campaign"), w.space, w.workloads, 903271)
        adapter = SimulatorAdapter(w.space, w.model)
        sens = campaign.profile(adapter, levels_per_param=w.levels_per_param, repetitions=3,
                                tau_s=0.05)
        for name in ("p007", "p010"):
            assert sens.profile(name).shape == "non-monotonic"
            assert sens.profile(name).best_level["w_read"] == 1.0
        campaign.screen(adapter)
        campaign.joint(adapter, repetitions=3)
        doc = campaign.compile()
        shifted = SimulatorAdapter(w.space, w.shifted)
        for seed in (1, 2):
            session = run_session(doc, shifted, budget=120, seed=seed)
            assert session.status == "converged"
            adaptations = {e.skill for e in session.trace if e.action == "adaptation"}
            assert {"verify_p007", "verify_p010"} <= adaptations


class TestValidate:
    def minimal_doc(self):
        w = WorkloadSpec(id="w0")
        orch = Skill(id="root", kind="orchestration",
                     procedure=[ComputeStep(expr="1", out="done")],
                     next="end",
                     postconditions=["done >= 1"])
        return ProceduralDocument(
            fingerprint={"space_hash": "h", "campaign_id": "c"}, root="root",
            skills=[orch], workloads=[w], primary_workload="w0", grids={},
            safe_ranges={}, provenance={}, policy={})

    def test_minimal_document_valid(self):
        assert validate_document(self.minimal_doc()) == []

    def edited(self, edit):
        return edit_document(self.minimal_doc(), edit)

    def test_branch_to_missing_skill(self):
        doc = self.edited(lambda d: d["skills"][0].update(next="nowhere"))
        violations = validate_document(doc)
        assert any("unresolved skill id 'nowhere'" in v for v in violations)

    def test_predicate_with_undeclared_symbol(self):
        doc = self.edited(lambda d: d["skills"][0].update(postconditions=["ghost_signal >= 1"]))
        violations = validate_document(doc)
        assert any("ghost_signal" in v for v in violations)

    def test_branch_target_out_of_range(self):
        step = BranchStep(cond="1", target=99).to_json()
        doc = self.edited(lambda d: d["skills"][0]["procedure"].append(step))
        violations = validate_document(doc)
        assert any("out of range" in v for v in violations)

    def test_cycle_detected_and_reported(self):
        a = Skill(id="a", kind="per-parameter", next="b")
        b = Skill(id="b", kind="per-parameter", next="a")

        def edit(d):
            d["skills"][0]["next"] = "a"
            d["skills"] += [a.to_json(), b.to_json()]
        violations = validate_document(self.edited(edit))
        assert any("cycle" in v for v in violations)

    def test_unreachable_skill_flagged(self):
        island = Skill(id="island", kind="per-parameter", next="end").to_json()
        doc = self.edited(lambda d: d["skills"].append(island))
        violations = validate_document(doc)
        assert any("unreachable" in v for v in violations)

    def test_two_orchestration_skills_rejected(self):
        root2 = Skill(id="root2", kind="orchestration", next="end").to_json()
        doc = self.edited(lambda d: d["skills"].append(root2))
        violations = validate_document(doc)
        assert any("exactly one orchestration" in v for v in violations)

    def test_missing_provenance_flagged(self):
        doc = self.edited(lambda d: d["skills"][0].update(reference_data={"tau": 0.05}))
        violations = validate_document(doc)
        assert any("provenance" in v for v in violations)

    @pytest.mark.parametrize("action", ["frobnicate", "measure", "compare"])
    def test_step_outside_the_vocabulary_rejected(self, action):
        step = {"action": action, "out": "x"}
        with pytest.raises(DocumentError, match=f"^root: step 1 has unknown action {action!r}$"):
            self.edited(lambda d: d["skills"][0]["procedure"].append(step))

    def test_abort_target_is_an_unresolved_skill_id(self):
        doc = self.edited(lambda d: d["skills"][0].update(next="abort"))
        assert "root: unresolved skill id 'abort'" in validate_document(doc)

    @pytest.mark.parametrize("key", ["on_error", "name", "left", "op", "right", "retries"])
    def test_step_key_outside_the_vocabulary_rejected_at_load(self, key):
        d = BenchmarkStep(template={}, workload_id="w0", repetitions=3, out="m").to_json()
        d[key] = 2
        with pytest.raises(DocumentError, match=key):
            step_from_json(d)

    def test_pin_best_reads_only_declared_signals(self):
        steps = [ComputeStep(expr="1", out="best_p_idx"),
                 BenchmarkStep(template={"p": 0.0}, workload_id="w0",
                               repetitions=3, out="m", pin_best=True)]

        def edit(d):
            d["grids"] = {"p": [0.0, 1.0], "q-1": [0.0, 1.0]}
            d["skills"][0]["procedure"] += [s.to_json() for s in steps]
        assert validate_document(self.edited(edit)) == [
            "root: step 2 pins 'q-1' by undeclared signal 'best_q_1_idx'"]

    def test_thousand_skill_chain_validates(self):
        ids = [f"s{i}" for i in range(1000)]
        chain = [Skill(id=skill_id, kind="per-parameter", next=after)
                 for skill_id, after in zip(ids, ids[1:] + ["end"])]

        def edit(d):
            d["skills"][0]["next"] = ids[0]
            d["skills"] += [skill.to_json() for skill in chain]
        assert validate_document(self.edited(edit)) == []

    @pytest.mark.parametrize("datum", ["monotonic-up", [1.0], {"a": 1.0}, True])
    def test_expression_reading_a_non_number_reference_datum(self, datum):
        doc = self.edited(lambda d: d["skills"][0].update(
            reference_data={"shape": datum}, postconditions=["done >= 1", "shape >= 1"]))
        assert f"root: predicate 'shape >= 1' reads reference datum 'shape', which is not a " \
               f"number: {datum!r}" in validate_document(doc)

    def test_declared_signal_shadows_a_reference_datum(self):
        # a step declares `done`, so the expression reads the signal
        doc = self.edited(lambda d: d["skills"][0].update(reference_data={"done": "yes"}))
        assert not any("not a number" in v for v in validate_document(doc))

    def test_violation_list_is_exhaustive_not_first_failure(self):
        doc = self.edited(lambda d: d["skills"][0].update(
            next="nowhere", postconditions=["ghost >= 1"]))
        assert len(validate_document(doc)) >= 2


def _random_value(rng, depth=0):
    kinds = ["int", "float", "bool", "str"] + (["list", "dict"] if depth < 2 else [])
    kind = rng.choice(kinds)
    if kind == "int":
        return rng.randint(-5, 5)
    if kind == "float":
        return rng.choice([1.0, 0.5, -2.25, rng.random()])
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "str":
        return rng.choice(["a", "b c", "x\"y", "1"])
    if kind == "list":
        return [_random_value(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    return {f"k{i}": _random_value(rng, depth + 1) for i in range(rng.randint(0, 3))}


def _random_document(rng):
    def reference_data():
        data = {f"r{j}": _random_value(rng) for j in range(rng.randint(0, 4))}
        return {**data, "nested": {"a": [1.0, {"b": 2}]}, "one": 1.0}

    skills = [Skill(id="root", kind="orchestration",
                    procedure=[ComputeStep(expr="1", out="x")],
                    next="end", reference_data=reference_data())]
    for i in range(rng.randint(0, 3)):
        skills.append(Skill(
            id=f"s{i}", kind="per-parameter", next="end",
            procedure=[BenchmarkStep(template={"p": _random_value(rng)},
                                     workload_id="w0", repetitions=rng.randint(1, 3), out=f"m{i}")],
            postconditions=[f"m{i} >= {rng.randint(0, 9)}"], reference_data=reference_data()))
    return ProceduralDocument(
        fingerprint={"space_hash": "h", "campaign_id": f"c{rng.randint(0, 10**6)}"},
        root="root", skills=skills, workloads=[WorkloadSpec(id="w0")],
        primary_workload="w0", grids={"p": [0.0, rng.random(), 1.0]},
        safe_ranges={}, provenance={}, policy={})


class TestLoad:
    @pytest.mark.parametrize("path", [
        ("root",), ("skills",), ("workloads",), ("grids",),
        ("skills", 1, "id"), ("skills", 0, "procedure", 0, "action"), ("policy",),
        ("skills", 1, "postconditions"), ("workloads", 0, "direction")],
        ids=["root", "skills", "workloads", "grids", "skill-id", "step-action", "policy",
             "skill-postconditions", "workload-direction"])
    def test_missing_required_key_is_a_document_error(self, pipeline, path):
        d = json.loads(pipeline["doc"].serialize())
        parent = d
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
        with pytest.raises(DocumentError, match=f"'{path[-1]}'"):
            ProceduralDocument.from_json(d)

    @pytest.mark.parametrize("path", [("on_error",), ("skills", 1, "retries")],
                             ids=["document", "skill"])
    def test_unknown_key_is_a_document_error(self, pipeline, path):
        d = json.loads(pipeline["doc"].serialize())
        parent = d
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = 1
        with pytest.raises(DocumentError, match=f"'{path[-1]}'"):
            ProceduralDocument.from_json(d)

    def test_step_without_action_is_a_document_error(self):
        with pytest.raises(DocumentError, match="'action'"):
            step_from_json({"template": {}})

    def test_schema_1_document_refused(self, pipeline):
        d = json.loads(pipeline["doc"].serialize())
        d["schema_version"] = 1
        with pytest.raises(DocumentError, match="schema_version 1"):
            ProceduralDocument.from_json(d)

    def test_schema_2_document_refused(self, pipeline):
        # schema 2 routed by a list of (condition, target) decision criteria
        d = json.loads(pipeline["doc"].serialize())
        d["schema_version"] = 2
        for skill in d["skills"]:
            skill["decision_criteria"] = [["1", skill.pop("next")]]
        with pytest.raises(DocumentError, match="unsupported document schema_version 2"):
            ProceduralDocument.from_json(d)


class TestDocumentHashMemo:
    @staticmethod
    def fresh_hash(doc):
        compact = json.dumps(doc.to_json(), sort_keys=True)
        return hashlib.sha256(compact.encode()).hexdigest()[:16]

    def test_hash_is_the_sha256_of_the_compact_json(self):
        rng = random.Random(20261018)
        for _ in range(40):
            doc = _random_document(rng)
            assert doc.hash == doc.document_hash() == self.fresh_hash(doc)

    def test_int_float_and_bool_hash_differently(self):
        doc = _random_document(random.Random(7))
        seen = {edit_document(doc, lambda d: d["skills"][0]["reference_data"].update(one=value)).hash
                for value in (1.0, 1, True)}
        assert doc.hash in seen
        assert len(seen) == 3

    def test_invalid_edit_after_a_session_is_still_rejected(self, pipeline):
        doc = pipeline["doc"]
        assert run_session(doc, pipeline["adapter"], budget=30, seed=3).status == "converged"
        with pytest.raises(FrozenInstanceError):
            doc.skills[0].next = "missing"
        edited = edit_document(doc, lambda d: d["skills"][0].update(next="missing"))
        with pytest.raises(DocumentError):
            run_session(edited, pipeline["adapter"], budget=30, seed=3)


IN_PLACE_EDITS = {
    "step-field": lambda doc: setattr(doc.skill("verify_pc").procedure[1], "repetitions", 9),
    "skill-procedure": lambda doc: doc.skill("verify_pc").procedure.append(
        ComputeStep(expr="1", out="x")),
    "reference-data": lambda doc: operator.setitem(doc.skill("verify_pc").reference_data, "cv", 1),
    "template-entry": lambda doc: operator.setitem(
        doc.skill("verify_pc").procedure[1].template, "pc", 0.5),
    "grids-list": lambda doc: operator.setitem(doc.grids["pc"], 0, 0.5),
    "safe-ranges": lambda doc: operator.setitem(doc.safe_ranges, "pc", {"lo": 0, "hi": 1}),
    "safe-range-bound": lambda doc: operator.setitem(doc.safe_ranges["pc"], "lo", 0.5),
    "document-field": lambda doc: setattr(doc, "root", "verify_pc"),
}


class TestImmutable:
    @pytest.fixture(params=["compiled", "loaded"])
    def doc(self, request, pipeline, tmp_path):
        if request.param == "compiled":
            return pipeline["doc"]
        path = str(tmp_path / "doc.json")
        pipeline["doc"].save(path)
        return ProceduralDocument.load(path)

    @pytest.mark.parametrize("edit", IN_PLACE_EDITS.values(), ids=IN_PLACE_EDITS.keys())
    def test_in_place_edit_raises(self, doc, edit):
        before = doc.serialize()
        with pytest.raises((AttributeError, TypeError)):
            edit(doc)
        assert doc.serialize() == before

    def test_nested_reference_data_value_is_read_only(self, pipeline):
        nested = {"a": [1.0, {"b": 2}]}
        loaded = edit_document(pipeline["doc"], lambda d: skill_json(
            d, "verify_pc")["reference_data"].update(nested=nested))
        constructed = _random_document(random.Random(3))
        for doc, skill_id in ((loaded, "verify_pc"), (constructed, "root")):
            with pytest.raises(TypeError):
                doc.skill(skill_id).reference_data["nested"]["a"][1]["b"] = 3
            assert doc.skill(skill_id).reference_data["nested"]["a"][1]["b"] == 2

    def test_results_are_kept_on_the_document(self, pipeline):
        doc = pipeline["doc"]
        assert doc.violations == ()
        assert doc.hash is doc.hash == doc.document_hash()
        assert doc.safe_range_of("pc") is doc.safe_range_of("pc")
        assert doc.safe_range_of("pc").to_json() == thaw(doc.safe_ranges["pc"])


@pytest.fixture(scope="module")
def both_pipelines(tmp_path_factory):
    """The small pipeline, maximizing and minimizing."""
    return [run_small_pipeline(tmp_path_factory.mktemp(direction), direction=direction)
            for direction in ("maximize", "minimize")]


@pytest.fixture(scope="module")
def both_directions(both_pipelines):
    """The small pipeline's documents, maximizing and minimizing."""
    return [p["doc"] for p in both_pipelines]


# The analysis operation behind each reference datum, by skill and key; the
# cv_<workload> and eta2_<a>_<b> families are added per workload and edge.
VERIFY_OPERATIONS = {
    "cv": "sensitivity.compute_cv", "aggregate_cv": "sensitivity.compute_cv",
    "rank": "sensitivity.select_top_k", "shape": "sensitivity.classify_shape",
    "safe_lo": "sensitivity.extract_safe_range", "safe_hi": "sensitivity.extract_safe_range",
    "cv_tolerance": "docgen.policy", "safety_floor": "docgen.policy"}
JOINT_OPERATIONS = {
    "eta2_max": "interaction.two_way_anova", "joint_threshold": "interaction.thresholds",
    "expected_improvement": "topology.optimize_component", "accept_fraction": "docgen.policy"}


def expected_provenance(sens, optima):
    """Every provenance entry a document compiled from these reports holds."""
    ops = {"orchestrate.top_k_count": "sensitivity.select_top_k",
           "orchestrate.tau_s": "sensitivity.select_top_k",
           "orchestrate.convergence_ratio": "docgen.policy",
           "verify_candidate.cross_floor": "docgen.policy"}
    for profile in sens.top_k():
        verify = f"verify_{profile.parameter}"
        ops.update({f"{verify}.{key}": op for key, op in VERIFY_OPERATIONS.items()})
        ops.update({f"{verify}.cv_{w}": "sensitivity.compute_cv" for w in profile.cv_per_workload})
        ops[f"resweep_{profile.parameter}.rank"] = "sensitivity.select_top_k"
    for i, component in enumerate(optima.graph.multi_components()):
        joint = f"joint_c{i + 1}"
        ops.update({f"{joint}.{key}": op for key, op in JOINT_OPERATIONS.items()})
        ops.update({f"{joint}.eta2_{e.a}_{e.b}": "interaction.two_way_anova"
                    for e in optima.graph.edges if e.a in component and e.b in component})
    return {key: {"campaign": sens.campaign_id, "operation": op} for key, op in ops.items()}


class TestProvenanceCensus:
    def test_each_datum_has_its_operation_and_nothing_else_has_one(self, both_pipelines):
        p = both_pipelines[0]
        sens = copy.deepcopy(p["sensitivity"])
        for profile in sens.profiles:
            profile.cv_per_workload["w1"] = 0.1
        two = compile_document(sens, p["optima"], p["space"],
                               p["workloads"] + [WorkloadSpec(id="w1")])
        assert p["optima"].graph.multi_components() and not p["optima"].rejected
        for doc, sens in [(q["doc"], q["sensitivity"]) for q in both_pipelines] + [(two, sens)]:
            assert thaw(doc.provenance) == expected_provenance(sens, p["optima"])
        assert "verify_pc.cv_w1" in two.provenance
        assert "joint_c1.eta2_pa_pb" in two.provenance

    def test_small_pipeline_documents_are_pinned(self, both_directions):
        # a change to what the compiler writes shows here first
        assert [doc.hash for doc in both_directions] == ["6cb1d019b9213b08", "375bb85d33b7e0ad"]


class TestGrammarCensus:
    def test_compiled_documents_use_exactly_the_grammar(self, both_directions):
        # every operator and function of the grammar, read off its tables; a
        # number and a symbol are in every document
        operators, functions = set(), set()
        for doc in both_directions:
            for text in (t for skill in doc.skills for t in skill.predicates()):
                expr_mod.parse(text)
                for node in ast.walk(ast.parse(text, mode="eval").body):
                    if isinstance(node, (ast.boolop, ast.cmpop, ast.operator)):
                        operators.add(type(node))
                    if isinstance(node, ast.Call):
                        functions.add(node.func.id)
        assert operators == set(expr_mod._OPERATORS)
        assert functions == set(expr_mod._FUNCTIONS)


class TestStepFieldCensus:
    def test_compiled_documents_write_exactly_the_step_fields(self, both_directions):
        declared = {(cls.action, f.name) for cls in (BenchmarkStep, ComputeStep, BranchStep)
                    for f in fields(cls)}
        written = set()
        for doc in both_directions:
            for skill in json.loads(doc.serialize())["skills"]:
                for step in skill["procedure"]:
                    written.update((step["action"], key) for key in step if key != "action")
        assert written == declared

    def test_compiled_documents_write_exactly_the_skill_and_document_fields(
            self, both_directions):
        for doc in both_directions:
            d = json.loads(doc.serialize())
            # edges is derived from the skills and not read back
            assert set(d) == {f.name for f in fields(ProceduralDocument)} | {"edges"}
            for skill in d["skills"]:
                assert set(skill) == {f.name for f in fields(Skill)}


class TestExport:
    def test_export_counts_and_round_trip(self, pipeline, tmp_path):
        doc = pipeline["doc"]
        export = export_knowledge(doc)
        top_k = pipeline["sensitivity"].top_k()
        assert len(export.top_k) == len(top_k)
        assert len(export.safe_ranges) == len(top_k)
        confirmed = pipeline["interaction"].confirmed_pairs()
        assert len(export.interactions) == len(confirmed)

        path = tmp_path / "export.json"
        export.save(str(path))
        loaded = KnowledgeExport.load(str(path))
        assert loaded.to_json() == export.to_json()

    def test_values_bit_identical_to_document(self, pipeline):
        doc = pipeline["doc"]
        export = export_knowledge(doc)
        for entry in export.top_k:
            skill = doc.skill(f"verify_{entry['name']}")
            assert entry["cv"] == skill.reference_data["aggregate_cv"]
            assert entry["rank"] == skill.reference_data["rank"]
        for ann in export.interactions:
            skill = doc.skill(ann["component"])
            a, b = ann["pair"]
            assert ann["eta_squared"] == skill.reference_data[f"eta2_{a}_{b}"]

    def test_no_interactions_yields_empty_array_present(self, pipeline):
        p = pipeline
        inter = copy.deepcopy(p["interaction"])
        for r in inter.records:
            r.confirmed = False
        from tuneforge.topology import build_graph
        graph = build_graph([q.parameter for q in p["sensitivity"].top_k()], inter)
        doc = compile_document(p["sensitivity"], replace(p["optima"], graph=graph, optima=[]),
                               p["space"], p["workloads"])
        export = export_knowledge(doc)
        assert export.interactions == []
        assert "interactions" in export.to_json()

    def test_export_is_json_parseable(self, pipeline, tmp_path):
        path = tmp_path / "e.json"
        export_knowledge(pipeline["doc"]).save(str(path))
        with open(path) as fh:
            payload = json.load(fh)
        assert payload["schema_version"] == 1
