"""Document compilation, validation, serialization, and knowledge export."""

import copy
import hashlib
import json
import math
import random

import pytest

from helpers import run_small_pipeline
from tuneforge.docgen import (KnowledgeExport, ProceduralDocument, Skill, Step,
                              compile_document, compile_warnings, export_knowledge,
                              render_text, validate_document)
from tuneforge.errors import CompileError, DocumentError
from tuneforge.executor import run_session
from tuneforge.space import WorkloadSpec


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    return run_small_pipeline(tmp_path_factory.mktemp("campaign"))


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
                assert not any(isinstance(v, dict) for v in (step.template or {}).values())
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
                first = next(i for i, s in enumerate(steps) if s.out == f"{skill.id}_cell_0")
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
        doc2 = compile_document(p["sensitivity"], p["interaction"],
                                p["optima"].graph, p["optima"].optima,
                                p["space"], p["workloads"])
        assert doc2.serialize() == p["doc"].serialize()

    def test_mismatched_fingerprints_rejected(self, pipeline):
        p = pipeline
        import copy
        bad = copy.deepcopy(p["interaction"])
        bad.campaign_id = "someone-else"
        with pytest.raises(CompileError):
            compile_document(p["sensitivity"], bad, p["optima"].graph,
                             p["optima"].optima, p["space"], p["workloads"])

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
        import copy
        inter = copy.deepcopy(p["interaction"])
        for r in inter.records:
            r.confirmed = False
        from tuneforge.topology import build_graph
        graph = build_graph([q.parameter for q in p["sensitivity"].top_k()], inter)
        doc = compile_document(p["sensitivity"], inter, graph, [],
                               p["space"], p["workloads"])
        assert validate_document(doc) == []
        assert not [s for s in doc.skills if s.id.startswith("joint_")]

    def test_render_text_mentions_every_skill(self, pipeline):
        text = render_text(pipeline["doc"])
        for skill in pipeline["doc"].skills:
            assert skill.id in text


class TestValidate:
    def minimal_doc(self):
        w = WorkloadSpec(id="w0")
        orch = Skill(id="root", kind="orchestration",
                     procedure=[Step(action="compute", expr="1", out="done")],
                     decision_criteria=[("1", "end")],
                     postconditions=["done >= 1"])
        return ProceduralDocument(
            fingerprint={"space_hash": "h", "campaign_id": "c"}, root="root",
            skills=[orch], workloads=[w], primary_workload="w0", grids={},
            safe_ranges={}, provenance={}, policy={})

    def test_minimal_document_valid(self):
        assert validate_document(self.minimal_doc()) == []

    def test_branch_to_missing_skill(self):
        doc = self.minimal_doc()
        doc.skills[0].decision_criteria = [("1", "nowhere")]
        violations = validate_document(doc)
        assert any("unresolved skill id 'nowhere'" in v for v in violations)

    def test_predicate_with_undeclared_symbol(self):
        doc = self.minimal_doc()
        doc.skills[0].postconditions = ["ghost_signal > 1"]
        violations = validate_document(doc)
        assert any("ghost_signal" in v for v in violations)

    def test_branch_target_out_of_range(self):
        doc = self.minimal_doc()
        doc.skills[0].procedure.append(Step(action="branch", cond="1", target=99))
        violations = validate_document(doc)
        assert any("out of range" in v for v in violations)

    def test_cycle_detected_and_reported(self):
        doc = self.minimal_doc()
        a = Skill(id="a", kind="per-parameter", decision_criteria=[("1", "b")])
        b = Skill(id="b", kind="per-parameter", decision_criteria=[("1", "a")])
        doc.skills[0].decision_criteria = [("1", "a")]
        doc.skills.extend([a, b])
        violations = validate_document(doc)
        assert any("cycle" in v for v in violations)

    def test_unreachable_skill_flagged(self):
        doc = self.minimal_doc()
        doc.skills.append(Skill(id="island", kind="per-parameter"))
        violations = validate_document(doc)
        assert any("unreachable" in v for v in violations)

    def test_two_orchestration_skills_rejected(self):
        doc = self.minimal_doc()
        doc.skills.append(Skill(id="root2", kind="orchestration"))
        violations = validate_document(doc)
        assert any("exactly one orchestration" in v for v in violations)

    def test_missing_provenance_flagged(self):
        doc = self.minimal_doc()
        doc.skills[0].reference_data = {"tau": 0.05}
        violations = validate_document(doc)
        assert any("provenance" in v for v in violations)

    @pytest.mark.parametrize("action", ["frobnicate", "measure", "compare"])
    def test_step_outside_the_vocabulary_rejected(self, action):
        doc = self.minimal_doc()
        doc.skills[0].procedure.append(Step(action=action, out="x"))
        assert f"root: step 1 has unknown action {action!r}" in validate_document(doc)

    def test_abort_target_is_an_unresolved_skill_id(self):
        doc = self.minimal_doc()
        doc.skills[0].decision_criteria = [("done < 1", "abort"), ("1", "end")]
        assert "root: unresolved skill id 'abort'" in validate_document(doc)

    @pytest.mark.parametrize("key", ["on_error", "name", "left", "op", "right", "retries"])
    def test_step_key_outside_the_vocabulary_rejected_at_load(self, key):
        d = Step(action="benchmark", template={}, workload_id="w0", out="m").to_json()
        d[key] = 2
        with pytest.raises(DocumentError, match=key):
            Step.from_json(d)

    def test_pin_best_reads_only_declared_signals(self):
        doc = self.minimal_doc()
        doc.grids = {"p": [0.0, 1.0], "q-1": [0.0, 1.0]}
        doc.skills[0].procedure += [
            Step(action="compute", expr="1", out="best_p_idx"),
            Step(action="benchmark", template={"p": 0.0}, workload_id="w0", out="m",
                 pin_best=True)]
        assert validate_document(doc) == [
            "root: step 2 pins 'q-1' by undeclared signal 'best_q_1_idx'"]

    def test_violation_list_is_exhaustive_not_first_failure(self):
        doc = self.minimal_doc()
        doc.skills[0].decision_criteria = [("1", "nowhere")]
        doc.skills[0].postconditions = ["ghost > 1"]
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
    skills = [Skill(id="root", kind="orchestration",
                    procedure=[Step(action="compute", expr="1", out="x")],
                    decision_criteria=[("1", "end")])]
    for i in range(rng.randint(0, 3)):
        skills.append(Skill(
            id=f"s{i}", kind="per-parameter",
            procedure=[Step(action="benchmark", template={"p": _random_value(rng)},
                            workload_id="w0", repetitions=rng.randint(1, 3), out=f"m{i}")],
            postconditions=[f"m{i} > {rng.randint(0, 9)}"]))
    for skill in skills:
        skill.reference_data = {f"r{j}": _random_value(rng) for j in range(rng.randint(0, 4))}
        skill.reference_data["nested"] = {"a": [1.0, {"b": 2}]}
        skill.reference_data["one"] = 1.0
    return ProceduralDocument(
        fingerprint={"space_hash": "h", "campaign_id": f"c{rng.randint(0, 10**6)}"},
        root="root", skills=skills, workloads=[WorkloadSpec(id="w0")],
        primary_workload="w0", grids={"p": [0.0, rng.random(), 1.0]},
        safe_ranges={}, provenance={}, policy={})


class TestLoad:
    @pytest.mark.parametrize("path", [
        ("root",), ("skills",), ("workloads",), ("grids",),
        ("skills", 1, "id"), ("skills", 0, "procedure", 0, "action")],
        ids=["root", "skills", "workloads", "grids", "skill-id", "step-action"])
    def test_missing_required_key_is_a_document_error(self, pipeline, path):
        d = json.loads(pipeline["doc"].serialize())
        parent = d
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
        with pytest.raises(DocumentError, match=f"'{path[-1]}'"):
            ProceduralDocument.from_json(d)

    def test_step_without_action_is_a_document_error(self):
        with pytest.raises(DocumentError, match="'action'"):
            Step.from_json({"template": {}})

    def test_schema_1_document_refused(self, pipeline):
        d = json.loads(pipeline["doc"].serialize())
        d["schema_version"] = 1
        with pytest.raises(DocumentError, match="schema_version 1"):
            ProceduralDocument.from_json(d)


class TestDocumentHashMemo:
    @staticmethod
    def fresh_hash(doc):
        compact = json.dumps(doc.to_json(), sort_keys=True)
        return hashlib.sha256(compact.encode()).hexdigest()[:16]

    def check(self, doc):
        digest = doc.document_hash()
        assert digest == self.fresh_hash(doc)
        return digest

    def test_hash_follows_in_place_edits(self):
        rng = random.Random(20261018)
        for _ in range(40):
            doc = _random_document(rng)
            original = self.check(doc)
            skill = rng.choice(doc.skills)

            skill.reference_data["nested"]["a"][1]["b"] = 3
            self.check(doc)

            seen = set()
            for value in (1.0, 1, True):
                skill.reference_data["one"] = value
                seen.add(self.check(doc))
            assert len(seen) == 3

            skill.procedure.append(Step(action="compute", expr="2", out="y"))
            self.check(doc)

            skill.procedure.pop()
            skill.reference_data["one"] = 1.0
            skill.reference_data["nested"]["a"][1]["b"] = 2
            assert self.check(doc) == original

    def test_invalid_edit_after_a_session_is_still_rejected(self, pipeline):
        doc = copy.deepcopy(pipeline["doc"])
        assert run_session(doc, pipeline["adapter"], budget=30, seed=3).status == "converged"
        doc.skills[0].decision_criteria = [("1", "missing")]
        with pytest.raises(DocumentError):
            run_session(doc, pipeline["adapter"], budget=30, seed=3)


class TestWarnings:
    def test_unreachable_criterion_after_catchall(self, pipeline):
        import copy
        doc = copy.deepcopy(pipeline["doc"])
        doc.skills[1].decision_criteria = [("1", "end"), ("1", "end")]
        assert compile_warnings(doc)


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
        import copy
        p = pipeline
        inter = copy.deepcopy(p["interaction"])
        for r in inter.records:
            r.confirmed = False
        from tuneforge.topology import build_graph
        graph = build_graph([q.parameter for q in p["sensitivity"].top_k()], inter)
        doc = compile_document(p["sensitivity"], inter, graph, [],
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
