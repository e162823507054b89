"""Loading, validating and running a tuning document fail closed.

The contract: after any single mutation of a compiled document's JSON,
either loading or validation fails with DocumentError, or ``run_session``
returns a session. Nothing else escapes. The named cases are mutations that
once broke it; the property states it for every single mutation.
"""

import copy
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import run_small_pipeline
from tuneforge.docgen import ProceduralDocument, Skill, Step, validate_document
from tuneforge.errors import DocumentError
from tuneforge.executor import run_session
from tuneforge.simulator import SimulatorAdapter, SimulatorModel
from tuneforge.space import Domain, ParameterSpace, ParameterSpec, WorkloadSpec

DELETE = object()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    p = run_small_pipeline(tmp_path_factory.mktemp("campaign"))
    p["json"] = json.loads(p["doc"].serialize())
    p["paths"] = list(_paths(p["json"]))
    return p


def mutated(d, path, value):
    """A copy of ``d`` with the node at ``path`` replaced, or deleted."""
    if not path:
        return copy.deepcopy(d) if value is DELETE else value
    out = copy.deepcopy(d)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return out


def outcome(pipeline, d) -> str:
    """Where a mutated document stops: "load", "validation" or "session"."""
    try:
        doc = ProceduralDocument.from_json(d)
    except DocumentError:
        return "load"
    if validate_document(doc):
        with pytest.raises(DocumentError):
            run_session(doc, pipeline["adapter"], budget=30, seed=0)
        return "validation"
    session = run_session(doc, pipeline["adapter"], budget=30, seed=0)
    assert session.status in ("converged", "aborted")
    return "session"


# skills[0] is the root, skills[1] the first verify skill: its step 0 is a
# branch, step 1 a benchmark and step 3 a compute step.
LOAD_CASES = {
    "workload-without-id": (("workloads", 0, "id"), DELETE),
    "grids-list": (("grids",), []),
    "skills-int": (("skills",), 5),
    "procedure-item-int": (("skills", 1, "procedure"), [1]),
    "criterion-one-item": (("skills", 0, "decision_criteria", 0), ["1"]),
    "reference-data-list": (("skills", 0, "reference_data"), [1]),
    "fingerprint-list": (("fingerprint",), [1]),
    "workload-direction-up": (("workloads", 0, "direction"), "up"),
    "workload-id-list": (("workloads", 0, "id"), [1]),
}

VALIDATION_CASES = {
    "branch-target-str": (("skills", 1, "procedure", 0, "target"), "2"),
    "branch-target-float": (("skills", 1, "procedure", 0, "target"), 1.5),
    "repetitions-str": (("skills", 1, "procedure", 1, "repetitions"), "3"),
    "template-list": (("skills", 1, "procedure", 1, "template"), [1]),
    "branch-without-cond": (("skills", 1, "procedure", 0, "cond"), DELETE),
    "undeclared-primary-workload": (("primary_workload",), "w9"),
    "safe-range-int": (("safe_ranges", "pc"), 5),
    "safe-range-lo-str": (("safe_ranges", "pc", "lo"), "a"),
    "safe-range-no-values": (("safe_ranges", "pc"), {"values": []}),
    "skill-id-number": (("skills", 1, "id"), 1.5),
    "criterion-target-list": (("skills", 0, "decision_criteria", 0, 1), [1]),
    "compute-out-list": (("skills", 1, "procedure", 3, "out"), [1]),
}


@pytest.mark.parametrize("path, value", LOAD_CASES.values(), ids=LOAD_CASES.keys())
def test_malformed_document_is_refused_at_load(pipeline, path, value):
    with pytest.raises(DocumentError):
        ProceduralDocument.from_json(mutated(pipeline["json"], path, value))


@pytest.mark.parametrize("path, value", VALIDATION_CASES.values(),
                         ids=VALIDATION_CASES.keys())
def test_malformed_document_is_a_violation(pipeline, path, value):
    assert outcome(pipeline, mutated(pipeline["json"], path, value)) == "validation"


def test_backward_branch_is_a_violation(pipeline):
    # A branch to itself loops without spending budget once its condition
    # holds; this one (`eta2_max <= joint_threshold`) never holds here.
    joint = next(i for i, s in enumerate(pipeline["json"]["skills"]) if s["id"] == "joint_c1")
    path = ("skills", joint, "procedure", 1, "target")
    assert outcome(pipeline, mutated(pipeline["json"], path, 1)) == "validation"


def test_non_finite_pinned_index_aborts(pipeline):
    init = next(i for i, step in enumerate(pipeline["json"]["skills"][0]["procedure"])
                if step.get("out") == "best_pc_idx")
    d = mutated(pipeline["json"], ("skills", 0, "procedure", init, "expr"), "1e999")
    doc = ProceduralDocument.from_json(d)
    session = run_session(doc, pipeline["adapter"], budget=30, seed=0)
    assert session.status == "aborted"
    assert session.diagnostic == "joint_c1: grid index inf out of range for 'pc'"


# joint_c1 re-searches its grid once no measured gain can reach the documented
# improvement; a best cell that names no cell aborts at the first pick step.
@pytest.mark.parametrize("best_cell, shown", [("1e999", "inf"), ("-1", "-1.0"), ("1.5", "1.5"),
                                              ("99", "99.0")])
def test_best_cell_outside_the_grid_aborts(pipeline, best_cell, shown):
    joint = next(i for i, s in enumerate(pipeline["json"]["skills"]) if s["id"] == "joint_c1")
    steps = pipeline["json"]["skills"][joint]["procedure"]
    argbest = next(i for i, step in enumerate(steps) if step.get("out") == "joint_c1_best_cell")
    d = mutated(pipeline["json"], ("skills", joint, "reference_data", "expected_improvement"), 1e9)
    d = mutated(d, ("skills", joint, "procedure", argbest, "expr"), best_cell)
    session = run_session(ProceduralDocument.from_json(d), pipeline["adapter"], budget=30, seed=0)
    assert session.status == "aborted"
    assert session.diagnostic.startswith(
        f"joint_c1: step {argbest + 1} compute failed: pick() index {shown} is not an integer "
        "in [0, 15]")


def test_enum_value_against_a_numeric_safe_range_aborts():
    space = ParameterSpace((ParameterSpec(name="mode", domain=Domain("enum", values=("a", "b")),
                                          default="a"),))
    orch = Skill(id="root", kind="orchestration", decision_criteria=[("1", "end")],
                 procedure=[Step(action="benchmark", template={"mode": "b"}, workload_id="w0",
                                 repetitions=1, out="m")])
    doc = ProceduralDocument(
        fingerprint={"space_hash": "h", "campaign_id": "c"}, root="root", skills=[orch],
        workloads=[WorkloadSpec(id="w0")], primary_workload="w0", grids={},
        safe_ranges={"mode": {"lo": 0, "hi": 1}}, provenance={}, policy={})
    adapter = SimulatorAdapter(space, SimulatorModel(base_rate=100.0))
    session = run_session(doc, adapter, budget=5, seed=0)
    assert session.status == "aborted"
    assert session.diagnostic == "root: mode='b' outside safe range [0, 1]"


def _paths(node, prefix=()):
    yield prefix
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


REPLACEMENTS = st.one_of(
    st.sampled_from([DELETE, None, True, False, "", "x", "2", "-1", "9", "1e999", "end", "w0",
                     "orchestrate",
                     [], [1], ["1"], ["1", "end"], {}, {"x": 1}, {"lo": "a", "hi": 1.0},
                     {"values": []}, math.inf, -math.inf, math.nan]),
    st.integers(min_value=-2, max_value=100),
    st.floats(min_value=-2.0, max_value=100.0),
    st.text(max_size=6),
)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_single_mutation_fails_closed(pipeline, data):
    path = data.draw(st.sampled_from(pipeline["paths"]), label="path")
    value = data.draw(REPLACEMENTS, label="value")
    outcome(pipeline, mutated(pipeline["json"], path, value))
