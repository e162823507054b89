"""Loading, validating and running a tuning document fail closed, and so
does loading every other artifact.

The contract: after any single mutation of a compiled document's JSON,
either loading or validation fails with DocumentError, or ``run_session``
returns a session. Nothing else escapes. The named cases are mutations that
once broke it; the property states it for every single mutation.

The reports, the campaign state, trace events, the knowledge export, the
document, and the declaration and model files a user writes load only with
exactly the keys their writer writes, each holding a value of the type its
field names: the key census renames each key of each record they hold, one
at a time, and the type census gives each key a value of another JSON kind.
The writer census ties what each record writes to its fields, and every
artifact the pipeline holds in memory loads back equal from what it writes.
"""

import copy
import json
import math
import re
import sys
from dataclasses import dataclass, fields, replace
from typing import Mapping

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import load_perfbench_workloads, run_small_pipeline
from tuneforge import jsonfile
from tuneforge.campaign import (INTERACTION_REPORT, OPTIMA_REPORT, SENSITIVITY_REPORT,
                                STATE_FILE, Campaign, CampaignState)
from tuneforge.docgen import (BenchmarkStep, BranchStep, ComputeStep, KnowledgeExport,
                              ProceduralDocument, Skill, export_knowledge, validate_document)
from tuneforge.errors import AnalysisError, DocumentError, ParameterError
from tuneforge.executor import TraceEvent, run_session
from tuneforge.interaction import AnovaDecomposition, InteractionRecord, InteractionReport
from tuneforge.sensitivity import SensitivityProfile, SensitivityReport
from tuneforge.simulator import (Coupling, CrashRegion, Response, SimulatorAdapter,
                                 SimulatorModel)
from tuneforge.space import (Domain, ParameterSpace, ParameterSpec, WorkloadSpec,
                             dump_yaml, load_space, load_workloads)
from tuneforge.topology import CorrelationGraph, GraphEdge, JointOptimum, OptimaReport

DELETE = object()


class Rename(str):
    """A replacement that moves the node at a path to this key."""


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
    elif isinstance(value, Rename):
        parent[value] = parent.pop(path[-1])
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
    "next-int": (("skills", 0, "next"), 1),
    "reference-data-list": (("skills", 0, "reference_data"), [1]),
    "fingerprint-list": (("fingerprint",), [1]),
    "fingerprint-empty": (("fingerprint",), {}),
    "fingerprint-without-campaign": (("fingerprint", "campaign_id"), DELETE),
    "workload-direction-up": (("workloads", 0, "direction"), "up"),
    "workload-id-list": (("workloads", 0, "id"), [1]),
    "branch-target-str": (("skills", 1, "procedure", 0, "target"), "2"),
    "branch-target-float": (("skills", 1, "procedure", 0, "target"), 1.5),
    "repetitions-str": (("skills", 1, "procedure", 1, "repetitions"), "3"),
    "template-list": (("skills", 1, "procedure", 1, "template"), [1]),
    "branch-without-cond": (("skills", 1, "procedure", 0, "cond"), DELETE),
    "compute-out-list": (("skills", 1, "procedure", 3, "out"), [1]),
    "repetitions-zero": (("skills", 1, "procedure", 1, "repetitions"), 0),
    "repetitions-negative": (("skills", 1, "procedure", 1, "repetitions"), -2),
    "adopt-str": (("skills", 1, "procedure", 1, "adopt"), "false"),
    "pin-best-int": (("skills", 1, "procedure", 1, "pin_best"), 1),
    "pin-best-on-compute": (("skills", 1, "procedure", 3, "pin_best"), True),
    "adopt-on-compute": (("skills", 1, "procedure", 3, "adopt"), True),
    "template-on-branch": (("skills", 1, "procedure", 0, "template"), {}),
    "workload-id-on-compute": (("skills", 1, "procedure", 3, "workload_id"), "w9"),
    "repetitions-on-compute": (("skills", 1, "procedure", 3, "repetitions"), "x"),
    "expr-on-benchmark": (("skills", 1, "procedure", 1, "expr"), "ghost + 1"),
    "safe-range-int": (("safe_ranges", "pc"), 5),
    "safe-range-lo-str": (("safe_ranges", "pc", "lo"), "a"),
    "safe-range-no-values": (("safe_ranges", "pc"), {"values": []}),
    "skill-id-number": (("skills", 1, "id"), 1.5),
    "next-list": (("skills", 0, "next"), ["a"]),
    "postconditions-renamed": (("skills", 1, "postconditions"), Rename("postcondition")),
    "policy-renamed": (("policy",), Rename("polcy")),
    "skill-kind-unknown": (("skills", 1, "kind"), "per-widget"),
}

VALIDATION_CASES = {
    "undeclared-primary-workload": (("primary_workload",), "w9"),
    "next-unknown-skill": (("skills", 0, "next"), "nowhere"),
}


@pytest.mark.parametrize("path, value", LOAD_CASES.values(), ids=LOAD_CASES.keys())
def test_malformed_document_is_refused_at_load(pipeline, path, value):
    with pytest.raises(DocumentError):
        ProceduralDocument.from_json(mutated(pipeline["json"], path, value))


@dataclass(frozen=True)
class Declared:
    """The space and workloads of one declaration file."""

    space: ParameterSpace
    workloads: list[WorkloadSpec]

    def to_json(self) -> dict:
        return {**self.space.to_json(), "workloads": [w.to_json() for w in self.workloads]}


def from_file(path, read):
    """A loader that writes a document to the YAML file ``path`` and reads it
    back with ``read``. The document goes through JSON first, which writes a
    ``Rename`` key as a plain string."""
    def load(d):
        path.write_text(dump_yaml(json.loads(json.dumps(d))), encoding="utf-8")
        return read(str(path))
    return load


def declaration_of(pipeline):
    """The pipeline's space and workloads, with a parameter of every other
    domain kind and every optional parameter key."""
    space = ParameterSpace(pipeline["space"].parameters + (
        ParameterSpec(name="pi", domain=Domain("integer", 1, 64), default=8, unit="MB",
                      scale="log"),
        ParameterSpec(name="pm", domain=Domain("enum", values=("a", "b")), default="a",
                      restart_required=True),
        ParameterSpec(name="pq", domain=Domain("boolean"), default=False)))
    return Declared(space, pipeline["workloads"])


def model_of(pipeline):
    """The pipeline's model, with a response of every other shape, a crash
    region and a workload override."""
    model = pipeline["model"]
    return replace(model, responses={**model.responses,
                                     "pe": Response("quadratic-peak", 0.3, peak=0.4),
                                     "pf": Response("step", threshold=0.6, low_mult=0.9,
                                                    high_mult=1.2)},
                   crashes={"pa": CrashRegion(0.9, 1.0)},
                   overrides={"w0": {"pd": Response("flat"),
                                     "pc": Response("linear-down", 0.1)}})


@pytest.fixture(scope="module")
def artifacts(pipeline, tmp_path_factory):
    """Artifact name -> (its JSON, its loader, its load error), for every other
    artifact the pipeline writes, and for the declaration and model files,
    read from disk. The sensitivity and optima reports also hold the key their
    writer writes only when it is not empty."""
    def on_disk(name):
        with open(pipeline["campaign"].path(name)) as fh:
            return json.load(fh)

    sensitivity = {**on_disk(SENSITIVITY_REPORT), "excluded": {"pz": "no usable level"}}
    optima = {**on_disk(OPTIMA_REPORT),
              "rejected": [{"component": ["pa", "pb"], "reason": "too big"}]}
    event = next(e for e in run_session(pipeline["doc"], pipeline["adapter"], budget=30,
                                        seed=0).trace if e.predicates)
    return {
        "campaign state": (on_disk(STATE_FILE), CampaignState.from_json, AnalysisError),
        "sensitivity report": (sensitivity, SensitivityReport.from_json, AnalysisError),
        "interaction report": (on_disk(INTERACTION_REPORT), InteractionReport.from_json,
                               AnalysisError),
        "optima report": (optima, OptimaReport.from_json, AnalysisError),
        "trace event": (copy.deepcopy(event.to_json()), TraceEvent.from_json, AnalysisError),
        "knowledge export": (export_knowledge(pipeline["doc"]).to_json(),
                             KnowledgeExport.from_json, DocumentError),
        "document": (pipeline["json"], ProceduralDocument.from_json, DocumentError),
        "declaration": (
            declaration_of(pipeline).to_json(),
            from_file(tmp_path_factory.mktemp("declaration") / "space.yaml",
                      lambda path: Declared(load_space(path), load_workloads(path))),
            ParameterError),
        "model": (model_of(pipeline).to_json(),
                  from_file(tmp_path_factory.mktemp("model") / "model.yaml", SimulatorModel.load),
                  ParameterError),
    }


# Keys whose value a loader keeps as plain JSON rather than reading it as a
# record: maps keyed by parameter, workload, stage, symbol or skill, and
# payloads.
PAYLOAD_KEYS = {"cv_per_workload", "best_level", "baseline_means", "excluded", "thresholds",
                "best_config", "budgets", "runs_used", "inputs", "outputs", "env", "top_k",
                "safe_ranges", "interactions", "template", "reference_data", "grids",
                "provenance", "policy"}

# Keys each census must reach, at the deepest records it holds.
CENSUS_REACHES = {
    "campaign state": {"runs_used"},
    "sensitivity report": {"excluded", "excluded_runs", "best_level", "hi"},
    "interaction report": {"thresholds", "confirmed", "decomposition", "ss_a", "f_interaction"},
    "optima report": {"rejected", "nodes", "q_value", "best_metric"},
    "trace event": {"predicates", "verdict"},
    "knowledge export": {"schema_version", "format_profile", "top_k", "campaign_id"},
    "document": {"fingerprint", "space_hash", "adaptation_target", "pin_best", "target",
                 "direction", "edges"},
    "declaration": {"schema_version", "workloads", "type", "lo", "values", "default",
                    "restart_required", "scale", "metric_name"},
    "model": {"schema_version", "sigma", "peak", "high_mult", "a", "strength", "lo",
              "overrides", "pd"},
}


def names_a_name(path) -> bool:
    """Whether the keys at ``path`` name parameters or workloads: a model's
    responses, crashes and overrides, and each override. Renaming one
    declares another model, not a wrong key."""
    return path in (("responses",), ("crashes",), ("overrides",)) or (
        path[:1] == ("overrides",) and len(path) == 2)


def record_keys(node, path=()):
    """(path of a record, one of its keys) for every key of every record in ``node``."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield path, key
            if key not in PAYLOAD_KEYS:
                yield from record_keys(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from record_keys(child, path + (i,))


@pytest.mark.parametrize("name", CENSUS_REACHES, ids=lambda name: name.replace(" ", "-"))
def test_every_renamed_key_fails_the_load(artifacts, name):
    d, load, error = artifacts[name]
    assert load(d).to_json() == d
    census = list(record_keys(d))
    assert CENSUS_REACHES[name] <= {key for _, key in census}
    escaped = []
    for path, key in census:
        if names_a_name(path):
            continue
        renamed = f"{key}_renamed"
        try:
            load(mutated(d, path + (key,), Rename(renamed)))
            escaped.append((path, key, "loaded"))
        except error as e:
            if f"'{renamed}'" not in str(e):
                escaped.append((path, key, str(e)))
        except Exception as e:  # the census lists whatever else escapes
            escaped.append((path, key, repr(e)))
    assert escaped == []


# A value of another JSON kind, for a value of each kind.
OTHER_KIND = {str: 1, int: "1", float: "1.5", bool: 0, type(None): [], list: {"x": 1},
              dict: [["x", 1]]}

# Keys a writer adds at the top of its artifact for the reader, which the
# loader does not read (a correlation graph's `edges` is read).
UNREAD_KEYS = {"thresholds", "edges"}


def names(message, key, value):
    """Whether a load error names ``key``: as a step of its path, beside the
    value it holds, or in the repr of the object holding it."""
    return any(form in message for form in (f": {key}: ", f"{key} {value!r}",
                                            f"{key!r}: {value!r}"))


@pytest.mark.parametrize("name", CENSUS_REACHES, ids=lambda name: name.replace(" ", "-"))
def test_every_wrongly_typed_value_fails_the_load(artifacts, name):
    d, load, error = artifacts[name]
    escaped = []
    for path, key in record_keys(d):
        if path == () and key in UNREAD_KEYS:
            continue
        node = d
        for step in path + (key,):
            node = node[step]
        value = OTHER_KIND[type(node)]
        try:
            load(mutated(d, path + (key,), value))
            escaped.append((path, key, "loaded"))
        except error as e:
            if not names(str(e), key, value):
                escaped.append((path, key, str(e)))
        except Exception as e:  # the census lists whatever else escapes
            escaped.append((path, key, repr(e)))
    assert escaped == []


# Each record class -> (the keys its writer adds to its fields: pinned values
# and keys derived from other fields; the fields it leaves out when empty).
WRITERS = {
    SensitivityProfile: ((), ()),
    SensitivityReport: (("schema_version",), ("excluded",)),
    AnovaDecomposition: ((), ()),
    InteractionRecord: ((), ("decomposition",)),
    InteractionReport: (("schema_version", "thresholds"), ()),
    GraphEdge: ((), ()),
    CorrelationGraph: ((), ()),
    JointOptimum: ((), ()),
    OptimaReport: (("schema_version",), ("rejected",)),
    CampaignState: ((), ()),
    TraceEvent: ((), ()),
    KnowledgeExport: (("schema_version", "format_profile"), ()),
    WorkloadSpec: ((), ()),
    ParameterSpace: (("schema_version",), ()),
    ParameterSpec: ((), ()),
    SimulatorModel: (("schema_version",), ()),
    Coupling: ((), ()),
    CrashRegion: ((), ()),
    BenchmarkStep: (("action",), ("adopt", "pin_best")),
    ComputeStep: (("action",), ()),
    BranchStep: (("action",), ()),
    Skill: ((), ()),
    ProceduralDocument: (("edges",), ()),
}

# Record classes that declare their schema and load through load_fields like
# every other, but whose writers stay hand-written: a domain's keys depend on
# its kind and a response's on its shape.
HAND_WRITTEN = {Domain, Response}


@pytest.fixture(scope="module")
def written(pipeline):
    """Every artifact the pipeline holds in memory, as its writer gets it. The
    sensitivity and optima reports also come once with the key their writer
    writes only when it is not empty."""
    p = pipeline
    trace = run_session(p["doc"], p["adapter"], budget=30, seed=0).trace
    return {
        "sensitivity report": p["sensitivity"],
        "sensitivity report with excluded": replace(p["sensitivity"],
                                                    excluded={"pz": "no usable level"}),
        "interaction report": p["interaction"],
        "optima report": p["optima"],
        "optima report with rejected": replace(
            p["optima"], rejected=[{"component": ["pa", "pb"], "reason": "too big"}]),
        "campaign state": p["campaign"].state,
        "trace event": next(e for e in trace if e.action == BenchmarkStep.action),
        "knowledge export": export_knowledge(p["doc"]),
        "document": p["doc"],
        "declaration": declaration_of(p).space,
        "model": model_of(p),
    }


def parts(record):
    """``record`` and every record it holds, at any depth."""
    yield record
    for f in fields(record):
        value = getattr(record, f.name)
        items = (value if isinstance(value, (list, tuple)) else
                 value.values() if isinstance(value, Mapping) else (value,))
        for item in items:
            if type(item) in WRITERS:
                yield from parts(item)


def test_every_writer_writes_exactly_its_fields(written, monkeypatch):
    read, load_fields = set(), jsonfile.load_fields

    def recording(cls, *args, **kwargs):
        read.add(cls)
        return load_fields(cls, *args, **kwargs)

    for module in [m for name, m in sys.modules.items() if name.startswith("tuneforge.")]:
        if getattr(module, "load_fields", None) is load_fields:
            monkeypatch.setattr(module, "load_fields", recording)
    emptied = {}
    for artifact in written.values():
        type(artifact).from_json(artifact.to_json())
        for record in parts(artifact):
            if type(record) in HAND_WRITTEN:
                continue
            added, optional = WRITERS[type(record)]
            empty = {key for key in optional if not getattr(record, key)}
            names = {f.name for f in fields(record)}
            assert set(record.to_json()) == (names | set(added)) - empty, type(record)
            for key in optional:
                emptied.setdefault((type(record), key), set()).add(key in empty)
    # Every class load_fields reads is in the census, and each optional key
    # was seen both written and left out.
    assert read == set(WRITERS) | HAND_WRITTEN
    assert emptied == {(cls, key): {True, False}
                       for cls, (_, optional) in WRITERS.items() for key in optional}


@pytest.mark.parametrize("name", ["sensitivity report", "interaction report", "optima report",
                                  "campaign state", "trace event", "knowledge export",
                                  "document", "declaration", "model"],
                         ids=lambda name: name.replace(" ", "-"))
def test_artifact_in_memory_equals_the_one_loaded(written, name):
    artifact = written[name]
    assert type(artifact).from_json(artifact.to_json()) == artifact


def test_screened_report_in_memory_equals_the_one_loaded(tmp_path):
    # The small pipeline confirms every record its stage B tests; screen-k30
    # on campaign seed 1000 tests 51 records that it does not confirm, and
    # those keep no decomposition.
    bench = load_perfbench_workloads()
    w = bench.declare_and_load(bench.screen_k30(), str(tmp_path))
    campaign = Campaign(str(tmp_path / "campaign"), w.space, w.workloads, 1000)
    adapter = SimulatorAdapter(w.space, w.model)
    campaign.profile(adapter, levels_per_param=w.levels_per_param, repetitions=3, tau_s=0.05)
    report = campaign.screen(adapter)
    unconfirmed = [r for r in report.records if r.p_value is not None and not r.confirmed]
    assert len(unconfirmed) == 51
    assert all(r.decomposition is None for r in unconfirmed)
    assert InteractionReport.from_json(report.to_json()) == report


# A wrongly typed value in the optima report -> the load error's prefix.
OPTIMA_TYPE_CASES = {
    "components-int": (("graph", "components"), 5, "correlation graph: components: "),
    "components-of-ints": (("graph", "components"), [5], "correlation graph: components: "),
    "edge-a-int": (("graph", "edges", 0, "a"), 5, "graph edge: a: "),
    "optimum-component-int": (("optima", 0, "component"), 5, "joint optimum: component: "),
    "rejected-of-ints": (("rejected",), [5], "optima report: rejected: "),
    "rejected-reason-int": (("rejected", 0, "reason"), 5, "optima report: rejected: "),
    "baseline-means-int": (("baseline_means",), 5, "optima report: baseline_means: "),
    "baseline-means-list": (("baseline_means",), [1.0], "optima report: baseline_means: "),
    "baseline-mean-string": (("baseline_means", "w0"), "1.0", "optima report: baseline_means: "),
    "baseline-mean-true": (("baseline_means", "w0"), True, "optima report: baseline_means: "),
    "baseline-mean-nan": (("baseline_means", "w0"), math.nan, "optima report: baseline_means: "),
    "baseline-mean-inf": (("baseline_means", "w0"), math.inf, "optima report: baseline_means: "),
    "baseline-mean-null": (("baseline_means", "w0"), None, "optima report: baseline_means: "),
    "baseline-means-int-key": (("baseline_means", 0), 1.0, "optima report: baseline_means: "),
}


@pytest.mark.parametrize("path, value, prefix", OPTIMA_TYPE_CASES.values(),
                         ids=OPTIMA_TYPE_CASES.keys())
def test_wrongly_typed_optima_value_fails_the_load(artifacts, path, value, prefix):
    d, load, error = artifacts["optima report"]
    with pytest.raises(error, match=f"^{re.escape(prefix)}"):
        load(mutated(d, path, value))


# The optima report's baseline_means cases, on the sensitivity report.
SENSITIVITY_TYPE_CASES = {name: (path, value, "sensitivity report: baseline_means: ")
                          for name, (path, value, _) in OPTIMA_TYPE_CASES.items()
                          if path[0] == "baseline_means"}


@pytest.mark.parametrize("path, value, prefix", SENSITIVITY_TYPE_CASES.values(),
                         ids=SENSITIVITY_TYPE_CASES.keys())
def test_wrongly_typed_sensitivity_value_fails_the_load(artifacts, path, value, prefix):
    d, load, error = artifacts["sensitivity report"]
    with pytest.raises(error, match=f"^{re.escape(prefix)}"):
        load(mutated(d, path, value))


VERSION_CASES = {
    "sensitivity-report-2": ("sensitivity report", "schema_version", 2),
    "interaction-report-2": ("interaction report", "schema_version", 2),
    "optima-report-2": ("optima report", "schema_version", 2),
    "optima-report-true": ("optima report", "schema_version", True),
    "export-2": ("knowledge export", "schema_version", 2),
    "export-format": ("knowledge export", "format_profile", "optimizer-yaml"),
    "declaration-2": ("declaration", "schema_version", 2),
}


@pytest.mark.parametrize("name, key, value", VERSION_CASES.values(), ids=VERSION_CASES.keys())
def test_other_schema_fails_the_load(artifacts, name, key, value):
    d, load, error = artifacts[name]
    with pytest.raises(error, match=re.escape(f"unsupported {name} {key} {value!r}")):
        load(mutated(d, (key,), value))


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
@pytest.mark.parametrize("best_cell, shown", [("1e999", "inf"),
                                              pytest.param("0 - 1", "-1.0", id="-1--1.0"),
                                              ("1.5", "1.5"), ("99", "99.0")])
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


# Each form outside the grammar, wrapped around a valid expression `t`.
REMOVED_FORMS = {
    "or": "({t}) or ({t})", "not": "not ({t})", "lt": "({t}) < 0", "gt": "({t}) > 0",
    "eq": "({t}) = 0", "eqeq": "({t}) == 0", "ne": "({t}) != 0", "unary-minus": "-({t})",
}


@pytest.mark.parametrize("site", [("skills", 1, "postconditions", 0),
                                  ("skills", 1, "procedure", 3, "expr")],
                         ids=["predicate", "compute"])
@pytest.mark.parametrize("form", REMOVED_FORMS.values(), ids=REMOVED_FORMS.keys())
def test_removed_expression_form_is_refused_before_any_benchmark(pipeline, monkeypatch, site,
                                                                form):
    text = pipeline["json"]
    for key in site:
        text = text[key]
    doc = ProceduralDocument.from_json(mutated(pipeline["json"], site, form.format(t=text)))
    assert any("unparseable predicate" in v for v in validate_document(doc))
    calls = []
    monkeypatch.setattr(pipeline["adapter"], "measure", lambda *args: calls.append(args))
    with pytest.raises(DocumentError):
        run_session(doc, pipeline["adapter"], budget=30, seed=0)
    assert calls == []


def mode_b_session(safe_range):
    """A document benchmarking the enum parameter `mode` at "b", its safe
    range, and a simulator adapter to run it on."""
    space = ParameterSpace((ParameterSpec(name="mode", domain=Domain("enum", values=("a", "b")),
                                          default="a"),))
    orch = Skill(id="root", kind="orchestration", next="end",
                 procedure=[BenchmarkStep(template={"mode": "b"}, workload_id="w0",
                                          repetitions=1, out="m")])
    doc = ProceduralDocument(
        fingerprint={"space_hash": "h", "campaign_id": "c"}, root="root", skills=[orch],
        workloads=[WorkloadSpec(id="w0")], primary_workload="w0", grids={},
        safe_ranges={"mode": safe_range}, provenance={}, policy={})
    return doc, SimulatorAdapter(space, SimulatorModel(base_rate=100.0))


def test_enum_value_against_a_numeric_safe_range_aborts():
    doc, adapter = mode_b_session({"lo": 0, "hi": 1})
    session = run_session(doc, adapter, budget=5, seed=0)
    assert session.status == "aborted"
    assert session.diagnostic == "root: mode='b' outside safe range [0, 1]"


def test_safe_set_cannot_be_widened_in_place():
    doc, adapter = mode_b_session({"values": ["a"]})
    with pytest.raises(AttributeError):
        doc.safe_range_of("mode").values.append("b")
    with pytest.raises(AttributeError):
        doc.safe_range_of("mode").values = ["a", "b"]
    session = run_session(doc, adapter, budget=5, seed=0)
    assert session.status == "aborted"
    assert session.diagnostic == "root: mode='b' outside safe set ['a']"


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
