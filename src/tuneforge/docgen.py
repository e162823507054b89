"""Compilation of profiling artifacts into an executable procedural document.

The document is a DAG of skills. Each skill carries preconditions, an ordered
procedure of steps (benchmark / measure / compute / compare / branch),
decision criteria routing to the next skill, postconditions, and the
reference data that anchors its decisions. The compiler emits:

* one per-parameter skill per selected parameter, re-measuring it at the two
  safe-range extremes and checking the documented CV and response direction;
* one adaptation (re-sweep) skill per selected parameter, the target of the
  verification skill's postcondition-violation edge;
* one per-component skill per multi-parameter correlation component, which
  first tries the documented joint optimum and falls back to a full grid
  re-search compiled as explicit benchmark + running-argbest steps;
* one candidate skill assembling the per-parameter best levels into the final
  configuration and verifying it across workloads;
* a unique orchestration root that initializes signals, measures the
  baseline, and owns the convergence postcondition.

Compilation is a pure function of its inputs; serialization is canonical
(sorted keys), so identical campaigns produce byte-identical documents.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import product
from typing import Any

from . import expr as expr_mod
from .errors import CompileError, DocumentError, ParameterError
from .interaction import InteractionReport, stage_b_levels
from .sensitivity import SafeRange, SensitivityReport
from .space import ParameterSpace, WorkloadSpec
from .topology import CorrelationGraph, JointOptimum

SCHEMA_VERSION = 1

KIND_PER_PARAMETER = "per-parameter"
KIND_PER_COMPONENT = "per-component"
KIND_ORCHESTRATION = "orchestration"

ACTION_BENCHMARK = "benchmark"
ACTION_MEASURE = "measure"
ACTION_COMPUTE = "compute"
ACTION_COMPARE = "compare"
ACTION_BRANCH = "branch"

TARGET_END = "end"
TARGET_ABORT = "abort"

# Document hashes memoized by content: sha256 of the compact sorted-key JSON
# -> sha256(serialize())[:16]. The compact and the canonical indented text
# carry the same tokens in the same order and differ only in whitespace that
# the nesting fixes, so the canonical text, and with it the hash, is a
# function of the compact text. The compact encoding runs in C, the indented
# one in pure Python. Only digests are kept, never document text.
_HASH_MEMO_SIZE = 32
_hash_memo: OrderedDict[bytes, str] = OrderedDict()
_hash_memo_lock = threading.Lock()


@dataclass
class Step:
    """One procedure action. Fields not used by the action kind stay None.

    benchmark: template maps parameter -> literal, {"$signal": name}, or
    {"$grid": [param, index-signal]}; the mean ok metric lands in `out`.
    branch: jump to step index `target` (== len(procedure) exits the skill)
    when `cond` is true.
    """

    action: str
    template: dict[str, Any] | None = None
    workload_id: str | None = None
    repetitions: int | None = None
    out: str | None = None
    adopt: bool = False
    on_error: int | None = None
    name: str | None = None        # measure
    expr: str | None = None        # compute
    left: str | None = None        # compare
    op: str | None = None
    right: Any = None
    cond: str | None = None        # branch
    target: int | None = None

    def compare_text(self) -> str:
        """The predicate a compare step evaluates."""
        return f"{self.left} {self.op} {_rhs_text(self.right)}"

    def declared_signal(self) -> str | None:
        if self.action in (ACTION_BENCHMARK, ACTION_COMPUTE, ACTION_COMPARE):
            return self.out
        if self.action == ACTION_MEASURE:
            return self.name
        return None

    def to_json(self) -> dict:
        d: dict[str, Any] = {"action": self.action}
        for key in ("template", "workload_id", "repetitions", "out", "name",
                    "expr", "left", "op", "right", "cond", "target", "on_error"):
            value = getattr(self, key)
            if value is not None:
                d[key] = value
        if self.adopt:
            d["adopt"] = True
        return d

    @classmethod
    def from_json(cls, d: dict) -> "Step":
        return cls(action=d["action"], template=d.get("template"),
                   workload_id=d.get("workload_id"), repetitions=d.get("repetitions"),
                   out=d.get("out"), adopt=bool(d.get("adopt", False)),
                   on_error=d.get("on_error"), name=d.get("name"), expr=d.get("expr"),
                   left=d.get("left"), op=d.get("op"), right=d.get("right"),
                   cond=d.get("cond"), target=d.get("target"))


@dataclass
class Skill:
    id: str
    kind: str
    preconditions: list[str] = field(default_factory=list)
    procedure: list[Step] = field(default_factory=list)
    decision_criteria: list[tuple[str, str]] = field(default_factory=list)
    postconditions: list[str] = field(default_factory=list)
    reference_data: dict[str, Any] = field(default_factory=dict)
    adaptation_target: str | None = None
    title: str = ""

    def predicates(self) -> list[str]:
        """Every expression this skill can evaluate at runtime."""
        out = list(self.preconditions) + list(self.postconditions)
        out.extend(cond for cond, _ in self.decision_criteria)
        for step in self.procedure:
            if step.action == ACTION_BRANCH and step.cond:
                out.append(step.cond)
            if step.action == ACTION_COMPUTE and step.expr:
                out.append(step.expr)
            if step.action == ACTION_COMPARE:
                out.append(step.compare_text())
        return out

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "kind": self.kind,
            "title": self.title,
            "preconditions": self.preconditions,
            "procedure": [s.to_json() for s in self.procedure],
            "decision_criteria": [[c, t] for c, t in self.decision_criteria],
            "postconditions": self.postconditions,
            "reference_data": self.reference_data,
            "adaptation_target": self.adaptation_target,
        }

    @classmethod
    def from_json(cls, d: dict) -> "Skill":
        return cls(id=d["id"], kind=d["kind"], title=d.get("title", ""),
                   preconditions=list(d.get("preconditions", [])),
                   procedure=[Step.from_json(s) for s in d.get("procedure", [])],
                   decision_criteria=[(c, t) for c, t in d.get("decision_criteria", [])],
                   postconditions=list(d.get("postconditions", [])),
                   reference_data=dict(d.get("reference_data", {})),
                   adaptation_target=d.get("adaptation_target"))


def _rhs_text(right: Any) -> str:
    if isinstance(right, dict) and "$signal" in right:
        return right["$signal"]
    return repr(float(right))


@dataclass
class ProceduralDocument:
    fingerprint: dict[str, str]          # {"space_hash", "campaign_id"}
    root: str
    skills: list[Skill]
    workloads: list[WorkloadSpec]
    primary_workload: str
    grids: dict[str, list[Any]]          # per-parameter probe levels
    safe_ranges: dict[str, dict]         # per-parameter SafeRange json
    provenance: dict[str, dict]          # "skill.key" -> {"campaign", "operation"}
    policy: dict[str, Any]
    schema_version: int = SCHEMA_VERSION

    def skill(self, skill_id: str) -> Skill:
        for s in self.skills:
            if s.id == skill_id:
                return s
        raise DocumentError(f"no skill with id {skill_id!r}")

    def edges(self) -> list[tuple[str, str]]:
        """DAG adjacency derived from decision criteria and adaptation edges."""
        ids = {s.id for s in self.skills}
        out = []
        for s in self.skills:
            for _, target in s.decision_criteria:
                if target in ids:
                    out.append((s.id, target))
            if s.adaptation_target in ids:
                out.append((s.id, s.adaptation_target))
        return sorted(set(out))

    def safe_range_of(self, param: str) -> SafeRange | None:
        d = self.safe_ranges.get(param)
        return SafeRange.from_json(d) if d else None

    def to_json(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "fingerprint": self.fingerprint,
            "root": self.root,
            "primary_workload": self.primary_workload,
            "workloads": [w.to_json() for w in self.workloads],
            "grids": self.grids,
            "safe_ranges": self.safe_ranges,
            "policy": self.policy,
            "provenance": self.provenance,
            "edges": [[a, b] for a, b in self.edges()],
            "skills": [s.to_json() for s in self.skills],
        }

    def serialize(self) -> str:
        """Canonical text form: sorted keys, stable floats, trailing newline."""
        return json.dumps(self.to_json(), sort_keys=True, indent=2) + "\n"

    def document_hash(self) -> str:
        """sha256(serialize())[:16], memoized by the document's content.

        The memo key is taken from the content on every call, so a document
        edited in place gets the hash of its new content.
        """
        key = hashlib.sha256(json.dumps(self.to_json(), sort_keys=True).encode()).digest()
        with _hash_memo_lock:
            digest = _hash_memo.get(key)
            if digest is not None:
                _hash_memo.move_to_end(key)
                return digest
        digest = hashlib.sha256(self.serialize().encode()).hexdigest()[:16]
        with _hash_memo_lock:
            _hash_memo[key] = digest
            if len(_hash_memo) > _HASH_MEMO_SIZE:
                _hash_memo.popitem(last=False)
        return digest

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.serialize())

    @classmethod
    def from_json(cls, d: dict) -> "ProceduralDocument":
        if d.get("schema_version") != SCHEMA_VERSION:
            raise DocumentError(f"unsupported document schema_version {d.get('schema_version')!r}")
        return cls(
            fingerprint=dict(d["fingerprint"]),
            root=d["root"],
            skills=[Skill.from_json(s) for s in d["skills"]],
            workloads=[WorkloadSpec.from_json(w) for w in d["workloads"]],
            primary_workload=d["primary_workload"],
            grids={k: list(v) for k, v in d["grids"].items()},
            safe_ranges=dict(d["safe_ranges"]),
            provenance=dict(d.get("provenance", {})),
            policy=dict(d.get("policy", {})),
        )

    @classmethod
    def load(cls, path: str) -> "ProceduralDocument":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


@dataclass(frozen=True)
class CompilePolicy:
    """Artifact-level knobs for document generation."""

    cv_tolerance: float = 0.5          # +-50% band on the re-measured CV
    convergence_ratio: float = 0.01    # pass-over-pass incumbent change for convergence
    online_repetitions: int = 3
    accept_fraction: float = 0.5       # share of documented improvement that accepts
    grid_levels: int = 4
    min_top_k: int = 1                 # anomaly threshold on the selected set size
    cross_workload_floor: float = 0.5  # candidate must keep half the baseline elsewhere

    def to_json(self) -> dict:
        return {
            "cv_tolerance": self.cv_tolerance,
            "convergence_ratio": self.convergence_ratio,
            "online_repetitions": self.online_repetitions,
            "accept_fraction": self.accept_fraction,
            "grid_levels": self.grid_levels,
            "min_top_k": self.min_top_k,
            "cross_workload_floor": self.cross_workload_floor,
        }


def signal_name(raw: str) -> str:
    """Mangle arbitrary parameter names into expression-safe identifiers."""
    s = re.sub(r"\W", "_", raw)
    if not s or not re.match(r"[A-Za-z_]", s[0]):
        s = "p_" + s
    return s


class _Proc:
    """Procedure builder with forward-branch patching."""

    def __init__(self):
        self.steps: list[Step] = []
        self._holes: list[tuple[int, str]] = []

    def add(self, step: Step) -> int:
        self.steps.append(step)
        return len(self.steps) - 1

    def branch_to_label(self, cond: str, label: str) -> int:
        idx = self.add(Step(action=ACTION_BRANCH, cond=cond, target=-1))
        self._holes.append((idx, label))
        return idx

    def here(self) -> int:
        return len(self.steps)

    def resolve(self, labels: dict[str, int]) -> list[Step]:
        for idx, label in self._holes:
            if label not in labels:
                raise CompileError(f"unresolved procedure label {label!r}")
            self.steps[idx].target = labels[label]
        return self.steps


def _gain_expr(metric_sig: str, base_sig: str, direction: str) -> str:
    if direction == "maximize":
        return f"({metric_sig} - {base_sig}) / {base_sig}"
    return f"({base_sig} - {metric_sig}) / {base_sig}"


def _grid_index_of(grid: list[Any], value: Any, spec: "ParameterSpec | None" = None) -> int:
    """Index of the grid point equal (or closest) to a value.

    Closeness is ordinal for enum/boolean domains (a sweep best level can
    fall between the points of a coarsened grid) and numeric otherwise.
    """
    if value in grid:
        return grid.index(value)
    if spec is not None and spec.domain.kind in ("enum", "boolean"):
        target = spec.domain.ordinal(value)
        dist = [abs(spec.domain.ordinal(g) - target) for g in grid]
        return dist.index(min(dist))
    try:
        dist = [abs(float(g) - float(value)) for g in grid]
    except (TypeError, ValueError):
        raise CompileError(f"value {value!r} not in grid {grid!r}")
    return dist.index(min(dist))


def compile_document(profiles: SensitivityReport, records: InteractionReport,
                     graph: CorrelationGraph, optima: list[JointOptimum],
                     space: ParameterSpace, workloads: list[WorkloadSpec],
                     policy: CompilePolicy | None = None) -> ProceduralDocument:
    """Compile profiling outputs into a validated procedural document.

    All inputs must come from the same campaign (matching fingerprints).
    Raises CompileError on inconsistent inputs or if the generated skill
    graph fails validation.
    """
    policy = policy or CompilePolicy()
    if not workloads:
        raise CompileError("at least one workload is required")
    if records.campaign_id != profiles.campaign_id or records.space_hash != profiles.space_hash:
        raise CompileError(
            f"interaction report fingerprint {records.campaign_id}/{records.space_hash} "
            f"does not match sensitivity report {profiles.campaign_id}/{profiles.space_hash}")
    w0 = workloads[0]
    campaign = profiles.campaign_id
    direction = w0.direction

    top = [p for p in profiles.profiles if p.selected]
    top_sorted = sorted(top, key=lambda p: p.rank)
    top_names = [p.parameter for p in top_sorted]
    for name in graph.nodes:
        if name not in top_names:
            raise CompileError(f"graph node {name!r} is not a selected parameter")

    grids: dict[str, list[Any]] = {}
    safe_ranges: dict[str, dict] = {}
    for p in profiles.profiles:
        safe_ranges[p.parameter] = p.safe_range.to_json()
    for name in top_names:
        prof = profiles.profile(name)
        grids[name] = stage_b_levels(space.get(name), prof.safe_range,
                                     policy.grid_levels, factorial=False)

    multi = graph.multi_components() if graph.nodes else []
    optima_by_key = {(tuple(o.component), o.workload_id): o for o in optima}

    sig = signal_name
    # One spec object per parameter, shared by every template that pins it at
    # its current best level; compiled templates are read-only.
    best_level_spec = {name: {"$grid": [name, f"best_{sig(name)}_idx"]}
                       for name in top_names}
    provenance: dict[str, dict] = {}
    skills: list[Skill] = []

    def prov(skill_id: str, key: str, operation: str) -> None:
        provenance[f"{skill_id}.{key}"] = {"campaign": campaign, "operation": operation}

    # ---- chain layout -------------------------------------------------
    verify_ids = [f"verify_{sig(n)}" for n in top_names]
    resweep_ids = [f"resweep_{sig(n)}" for n in top_names]
    comp_ids = [f"joint_c{i + 1}" for i in range(len(multi))]
    candidate_id = "verify_candidate"
    chain = verify_ids + comp_ids + [candidate_id]
    next_of = {skill_id: chain[i + 1] if i + 1 < len(chain) else TARGET_END
               for i, skill_id in enumerate(chain)}

    # ---- orchestration root -------------------------------------------
    orch = _Proc()
    orch.branch_to_label("defined(tf_initialized)", "after_init")
    init_pairs: list[tuple[str, str]] = [("0", "pass_count")]
    for name in top_names:
        s = sig(name)
        init_pairs.append(("0", f"verify_done_{s}"))
        init_pairs.append(("0", f"adapted_{s}"))
        prof = profiles.profile(name)
        best = prof.best_level.get(w0.id, grids[name][0])
        init_pairs.append((str(_grid_index_of(grids[name], best, space.get(name))),
                           f"best_{s}_idx"))
    for cid in comp_ids:
        init_pairs.append(("0", f"done_{cid}"))
    init_pairs.append(("0", "baseline_done"))
    init_pairs.append(("0", "crosscheck_done"))
    init_pairs.append(("1", "tf_initialized"))
    for expr_text, out in init_pairs:
        orch.add(Step(action=ACTION_COMPUTE, expr=expr_text, out=out))
    labels = {"after_init": orch.here()}
    orch.add(Step(action=ACTION_COMPUTE, expr="pass_count + 1", out="pass_count"))
    orch.branch_to_label("baseline_done >= 1", "skip_baseline")
    orch.add(Step(action=ACTION_BENCHMARK, template={}, workload_id=w0.id,
                  repetitions=policy.online_repetitions, out="baseline_mean", adopt=True))
    orch.add(Step(action=ACTION_COMPUTE, expr="baseline_mean", out="incumbent_best"))
    orch.add(Step(action=ACTION_COMPUTE, expr="0", out="pass_gain"))
    orch.add(Step(action=ACTION_COMPUTE, expr="1", out="baseline_done"))
    labels["skip_baseline"] = orch.here()

    first_target = chain[0] if chain else TARGET_END
    orchestration = Skill(
        id="orchestrate",
        kind=KIND_ORCHESTRATION,
        title="Tune the system by verified profile, joint search, and candidate check",
        # A selected set below the anomaly floor cannot be repaired online;
        # failing the precondition aborts immediately with a named diagnostic.
        preconditions=[f"top_k_count >= {policy.min_top_k}"],
        procedure=orch.resolve(labels),
        decision_criteria=[("1", first_target)],
        postconditions=[f"pass_count >= 1 and abs(pass_gain) <= {policy.convergence_ratio}"],
        reference_data={
            "top_k_count": len(top_names),
            "tau_s": profiles.tau_s,
            "convergence_ratio": policy.convergence_ratio,
        },
    )
    prov(orchestration.id, "top_k_count", "sensitivity.select_top_k")
    prov(orchestration.id, "tau_s", "sensitivity.select_top_k")
    prov(orchestration.id, "convergence_ratio", "docgen.policy")
    skills.append(orchestration)

    # ---- per-parameter verification + adaptation skills ----------------
    for name, verify_id, resweep_id in zip(top_names, verify_ids, resweep_ids):
        prof = profiles.profile(name)
        s = sig(name)
        grid = grids[name]
        cv_ref = prof.cv_per_workload.get(w0.id, prof.aggregate_cv)
        directional = prof.shape in ("monotonic-up", "monotonic-down", "step-function")

        proc = _Proc()
        proc.branch_to_label(f"verify_done_{s} >= 1", "exit")
        proc.add(Step(action=ACTION_BENCHMARK, template={name: grid[0]}, workload_id=w0.id,
                      repetitions=policy.online_repetitions, out=f"{s}_lo_metric"))
        proc.add(Step(action=ACTION_BENCHMARK, template={name: grid[-1]}, workload_id=w0.id,
                      repetitions=policy.online_repetitions, out=f"{s}_hi_metric"))
        proc.add(Step(action=ACTION_COMPUTE,
                      expr=f"(max({s}_lo_metric, {s}_hi_metric) - min({s}_lo_metric, {s}_hi_metric))"
                           f" / baseline_mean",
                      out=f"{s}_cv_obs"))
        if directional:
            proc.add(Step(action=ACTION_COMPUTE,
                          expr=f"{s}_cv_obs >= cv * (1 - cv_tolerance) and "
                               f"{s}_cv_obs <= cv * (1 + cv_tolerance)",
                          out=f"{s}_cv_ok"))
        else:
            # Interior-optimum and flat curves cannot be sized from two
            # points; only safety is checkable here.
            proc.add(Step(action=ACTION_COMPUTE,
                          expr=f"min({s}_lo_metric, {s}_hi_metric) >= baseline_mean * safety_floor",
                          out=f"{s}_cv_ok"))
        if prof.shape == "monotonic-up":
            shape_expr = f"{s}_hi_metric >= {s}_lo_metric"
        elif prof.shape == "monotonic-down":
            shape_expr = f"{s}_hi_metric <= {s}_lo_metric"
        else:
            shape_expr = "1"
        proc.add(Step(action=ACTION_COMPUTE, expr=shape_expr, out=f"{s}_shape_ok"))
        proc.add(Step(action=ACTION_COMPUTE, expr=f"{s}_cv_ok and {s}_shape_ok",
                      out=f"{s}_verify_ok"))
        proc.add(Step(action=ACTION_COMPUTE, expr="1", out=f"verify_done_{s}"))
        steps = proc.resolve({"exit": proc.here()})

        ref: dict[str, Any] = {
            "cv": cv_ref,
            "aggregate_cv": prof.aggregate_cv,
            "cv_tolerance": policy.cv_tolerance,
            "safety_floor": policy.cross_workload_floor,
            "rank": prof.rank,
            "shape": prof.shape,
            "safe_lo": prof.safe_range.lo,
            "safe_hi": prof.safe_range.hi,
        }
        for wid, cv in sorted(prof.cv_per_workload.items()):
            ref[f"cv_{sig(wid)}"] = cv
        verify = Skill(
            id=verify_id, kind=KIND_PER_PARAMETER,
            title=f"Verify documented sensitivity of {name}",
            preconditions=["baseline_done >= 1"],
            procedure=steps,
            decision_criteria=[("1", next_of[verify_id])],
            postconditions=[f"{s}_verify_ok >= 1"],
            reference_data=ref,
            adaptation_target=resweep_id,
        )
        for key, op in (("cv", "sensitivity.compute_cv"),
                        ("aggregate_cv", "sensitivity.compute_cv"),
                        ("rank", "sensitivity.select_top_k"),
                        ("shape", "sensitivity.classify_shape"),
                        ("safe_lo", "sensitivity.extract_safe_range"),
                        ("safe_hi", "sensitivity.extract_safe_range"),
                        ("cv_tolerance", "docgen.policy"),
                        ("safety_floor", "docgen.policy")):
            prov(verify_id, key, op)
        for wid in sorted(prof.cv_per_workload):
            prov(verify_id, f"cv_{sig(wid)}", "sensitivity.compute_cv")
        skills.append(verify)

        # Adaptation: sweep the documented grid afresh and adopt its argbest.
        rs = _Proc()
        metric_sigs = []
        for i, level in enumerate(grid):
            out = f"{s}_rs_m{i}"
            rs.add(Step(action=ACTION_BENCHMARK, template={name: level}, workload_id=w0.id,
                        repetitions=policy.online_repetitions, out=out, adopt=True))
            metric_sigs.append(out)
        span = f"max({', '.join(metric_sigs)}) - min({', '.join(metric_sigs)})"
        rs.add(Step(action=ACTION_COMPUTE, expr=f"({span}) / baseline_mean", out=f"{s}_cv_obs"))
        cmp_op = "<=" if direction == "maximize" else ">="
        rs.add(Step(action=ACTION_COMPUTE, expr=metric_sigs[0], out=f"{s}_rs_best"))
        rs.add(Step(action=ACTION_COMPUTE, expr="0", out=f"best_{s}_idx"))
        rs_labels = {}
        for i in range(1, len(metric_sigs)):
            label = f"rs_skip_{i}"
            rs.branch_to_label(f"{metric_sigs[i]} {cmp_op} {s}_rs_best", label)
            rs.add(Step(action=ACTION_COMPUTE, expr=metric_sigs[i], out=f"{s}_rs_best"))
            rs.add(Step(action=ACTION_COMPUTE, expr=str(i), out=f"best_{s}_idx"))
            rs_labels[label] = rs.here()
        rs.add(Step(action=ACTION_COMPUTE, expr="1", out=f"{s}_verify_ok"))
        rs.add(Step(action=ACTION_COMPUTE, expr="1", out=f"adapted_{s}"))
        resweep = Skill(
            id=resweep_id, kind=KIND_PER_PARAMETER,
            title=f"Re-sweep {name} after a failed verification",
            procedure=rs.resolve(rs_labels),
            decision_criteria=[("1", next_of[verify_id])],
            postconditions=[f"{s}_verify_ok >= 1"],
            reference_data={"rank": prof.rank},
        )
        prov(resweep_id, "rank", "sensitivity.select_top_k")
        skills.append(resweep)

    # ---- per-component joint skills ------------------------------------
    for comp_index, component in enumerate(multi):
        cid = comp_ids[comp_index]
        members = sorted(component)
        comp_edges = [e for e in graph.edges
                      if e.a in component and e.b in component]
        eta_max = max(e.eta_squared for e in comp_edges)
        opt = optima_by_key.get((tuple(members), w0.id))
        if opt is None:
            raise CompileError(f"no joint optimum recorded for component {members} on {w0.id}")

        ref = {
            "eta2_max": eta_max,
            "joint_threshold": records.thresholds.eta2_min,
            "expected_improvement": opt.improvement_vs_default,
            "accept_fraction": policy.accept_fraction,
        }
        prov(cid, "eta2_max", "interaction.two_way_anova")
        prov(cid, "joint_threshold", "interaction.thresholds")
        prov(cid, "expected_improvement", "topology.optimize_component")
        prov(cid, "accept_fraction", "docgen.policy")
        for e in comp_edges:
            key = f"eta2_{sig(e.a)}_{sig(e.b)}"
            ref[key] = e.eta_squared
            prov(cid, key, "interaction.two_way_anova")

        def pinned(member_values: dict[str, Any]) -> dict[str, Any]:
            """Component assignments plus every other selected parameter pinned
            at its current best level (signal-resolved), per the orchestration
            skill's joint-search convention."""
            template: dict[str, Any] = dict(member_values)
            for other in top_names:
                if other not in member_values:
                    template[other] = best_level_spec[other]
            return template

        proc = _Proc()
        proc.branch_to_label(f"done_{cid} >= 1", "exit")
        proc.branch_to_label("eta2_max <= joint_threshold", "mark_done")
        doc_best_template = pinned({m: opt.best_config.assignments[m] for m in members})
        proc.add(Step(action=ACTION_BENCHMARK, template=doc_best_template, workload_id=w0.id,
                      repetitions=policy.online_repetitions, out=f"{cid}_doc_metric", adopt=True))
        proc.add(Step(action=ACTION_COMPUTE,
                      expr=_gain_expr(f"{cid}_doc_metric", "baseline_mean", direction),
                      out=f"{cid}_doc_gain"))
        proc.branch_to_label(
            f"{cid}_doc_gain >= expected_improvement * accept_fraction", "accept_doc")

        # Full grid re-search, cells in lexicographic configuration order.
        level_lists = [grids[m] for m in members]
        cells = []
        for combo in product(*(range(len(l)) for l in level_lists)):
            template = {m: level_lists[k][combo[k]] for k, m in enumerate(members)}
            cells.append((combo, template))
        cells.sort(key=lambda item: json.dumps(item[1], sort_keys=True))
        metric_sigs = []
        for j, (_, template) in enumerate(cells):
            out = f"{cid}_cell_{j}"
            proc.add(Step(action=ACTION_BENCHMARK, template=pinned(template),
                          workload_id=w0.id, repetitions=policy.online_repetitions,
                          out=out, adopt=True))
            metric_sigs.append(out)
        cmp_op = "<=" if direction == "maximize" else ">="
        proc.add(Step(action=ACTION_COMPUTE, expr=metric_sigs[0], out=f"{cid}_grid_best"))
        labels2: dict[str, int] = {}
        for k, m in enumerate(members):
            proc.add(Step(action=ACTION_COMPUTE, expr=str(cells[0][0][k]),
                          out=f"best_{sig(m)}_idx"))
        for j in range(1, len(cells)):
            label = f"cell_skip_{j}"
            proc.branch_to_label(f"{metric_sigs[j]} {cmp_op} {cid}_grid_best", label)
            proc.add(Step(action=ACTION_COMPUTE, expr=metric_sigs[j], out=f"{cid}_grid_best"))
            for k, m in enumerate(members):
                proc.add(Step(action=ACTION_COMPUTE, expr=str(cells[j][0][k]),
                              out=f"best_{sig(m)}_idx"))
            labels2[label] = proc.here()
        proc.branch_to_label("1", "mark_done")

        labels2["accept_doc"] = proc.here()
        for k, m in enumerate(members):
            idx = _grid_index_of(grids[m], opt.best_config.assignments[m], space.get(m))
            proc.add(Step(action=ACTION_COMPUTE, expr=str(idx), out=f"best_{sig(m)}_idx"))
        labels2["mark_done"] = proc.here()
        proc.add(Step(action=ACTION_COMPUTE, expr="1", out=f"done_{cid}"))
        labels2["exit"] = proc.here()

        comp_skill = Skill(
            id=cid, kind=KIND_PER_COMPONENT,
            title=f"Jointly optimize {{{', '.join(members)}}}",
            preconditions=[f"verify_done_{sig(m)} >= 1" for m in members],
            procedure=proc.resolve(labels2),
            decision_criteria=[("1", next_of[cid])],
            postconditions=[f"done_{cid} >= 1"],
            reference_data=ref,
        )
        skills.append(comp_skill)

    # ---- candidate assembly and cross-workload verification ------------
    cand = _Proc()
    candidate_template = dict(best_level_spec)
    cand.add(Step(action=ACTION_BENCHMARK, template=candidate_template, workload_id=w0.id,
                  repetitions=policy.online_repetitions, out="cand_metric", adopt=True))
    better = "max" if direction == "maximize" else "min"
    cand.add(Step(action=ACTION_COMPUTE, expr=f"{better}(cand_metric, incumbent_best)",
                  out="tf_new_best"))
    cand.add(Step(action=ACTION_COMPUTE,
                  expr=_gain_expr("tf_new_best", "incumbent_best", direction),
                  out="pass_gain"))
    cand.add(Step(action=ACTION_COMPUTE, expr="tf_new_best", out="incumbent_best"))
    cand_labels: dict[str, int] = {}
    cand.branch_to_label("crosscheck_done >= 1", "skip_cross")
    cross_post = []
    for w in workloads[1:]:
        ws = sig(w.id)
        cand.add(Step(action=ACTION_BENCHMARK, template={}, workload_id=w.id,
                      repetitions=policy.online_repetitions, out=f"baseline_{ws}"))
        cand.add(Step(action=ACTION_BENCHMARK, template=dict(candidate_template),
                      workload_id=w.id, repetitions=policy.online_repetitions,
                      out=f"cand_metric_{ws}"))
        cand.add(Step(action=ACTION_COMPUTE, expr=f"cand_metric_{ws} / baseline_{ws}",
                      out=f"cand_ratio_{ws}"))
        if w.direction == "maximize":
            cross_post.append(f"cand_ratio_{ws} >= cross_floor")
        else:
            cross_post.append(f"cand_ratio_{ws} <= 1 / cross_floor")
    cand.add(Step(action=ACTION_COMPUTE, expr="1", out="crosscheck_done"))
    cand_labels["skip_cross"] = cand.here()

    candidate = Skill(
        id=candidate_id, kind=KIND_PER_COMPONENT,
        title="Assemble and verify the candidate configuration",
        preconditions=[f"verify_done_{sig(n)} >= 1" for n in top_names] or ["baseline_done >= 1"],
        procedure=cand.resolve(cand_labels),
        decision_criteria=[("1", TARGET_END)],
        postconditions=["crosscheck_done >= 1"] + cross_post,
        reference_data={"cross_floor": policy.cross_workload_floor},
    )
    prov(candidate_id, "cross_floor", "docgen.policy")
    skills.append(candidate)

    doc = ProceduralDocument(
        fingerprint={"space_hash": profiles.space_hash, "campaign_id": campaign},
        root="orchestrate",
        skills=skills,
        workloads=list(workloads),
        primary_workload=w0.id,
        grids=grids,
        safe_ranges=safe_ranges,
        provenance=provenance,
        policy=policy.to_json(),
    )
    violations = validate_document(doc)
    if violations:
        raise CompileError("compiled document failed validation: " + "; ".join(violations))
    return doc


def compile_warnings(doc: ProceduralDocument) -> list[str]:
    """Non-fatal advisories, e.g. unreachable decision criteria."""
    warnings = []
    for skill in doc.skills:
        seen_catchall = False
        for cond, target in skill.decision_criteria:
            if seen_catchall:
                warnings.append(f"{skill.id}: criterion to {target!r} is unreachable "
                                "after an always-true condition")
            if cond.strip() == "1":
                seen_catchall = True
    return warnings


def validate_document(doc: ProceduralDocument) -> list[str]:
    """Exhaustive structural validation; returns all violations, not the first.

    Checks: unique ids, a unique orchestration skill that is the root, every
    decision/adaptation target resolves, branch targets in range, signal
    declarations unique within a skill, predicate symbols closed over
    reference data plus declared signals, acyclicity, reachability from the
    root, and provenance completeness for reference data.
    """
    violations: list[str] = []
    ids = [s.id for s in doc.skills]
    if len(set(ids)) != len(ids):
        violations.append("duplicate skill ids")
    by_id = {s.id: s for s in doc.skills}

    orch = [s for s in doc.skills if s.kind == KIND_ORCHESTRATION]
    if len(orch) != 1:
        violations.append(f"expected exactly one orchestration skill, found {len(orch)}")
    if doc.root not in by_id:
        violations.append(f"root skill {doc.root!r} not found")
    elif orch and by_id[doc.root].kind != KIND_ORCHESTRATION:
        violations.append(f"root skill {doc.root!r} is not an orchestration skill")

    declared: set[str] = set()
    for skill in doc.skills:
        seen: set[str] = set()
        for i, step in enumerate(skill.procedure):
            sig_name = step.declared_signal()
            if sig_name:
                if sig_name in seen and step.action == ACTION_MEASURE:
                    violations.append(f"{skill.id}: duplicate signal {sig_name!r}")
                seen.add(sig_name)
                declared.add(sig_name)
            if step.action == ACTION_BRANCH:
                if step.target is None or not 0 <= step.target <= len(skill.procedure):
                    violations.append(
                        f"{skill.id}: branch at step {i} targets {step.target!r}, "
                        f"out of range [0, {len(skill.procedure)}]")
            if step.action == ACTION_BENCHMARK:
                if step.workload_id not in {w.id for w in doc.workloads}:
                    violations.append(
                        f"{skill.id}: benchmark at step {i} names unknown workload "
                        f"{step.workload_id!r}")

    for skill in doc.skills:
        for _, target in skill.decision_criteria:
            if target not in (TARGET_END, TARGET_ABORT) and target not in by_id:
                violations.append(f"{skill.id}: unresolved skill id {target!r}")
        if skill.adaptation_target is not None and skill.adaptation_target not in by_id:
            violations.append(
                f"{skill.id}: unresolved adaptation target {skill.adaptation_target!r}")
        for text in skill.predicates():
            try:
                parsed = expr_mod.parse(text)
            except Exception as e:
                violations.append(f"{skill.id}: unparseable predicate {text!r}: {e}")
                continue
            for symbol in sorted(parsed.symbols()):
                if symbol not in skill.reference_data and symbol not in declared:
                    violations.append(
                        f"{skill.id}: predicate {text!r} references unresolvable "
                        f"symbol {symbol!r}")
        for key in skill.reference_data:
            if f"{skill.id}.{key}" not in doc.provenance:
                violations.append(f"{skill.id}: reference datum {key!r} has no provenance")

    # Acyclicity and reachability over the skill graph.
    adjacency: dict[str, list[str]] = {s.id: [] for s in doc.skills}
    for a, b in doc.edges():
        adjacency[a].append(b)
    state: dict[str, int] = {}
    cycle: list[str] = []

    def visit(node: str, stack: list[str]) -> bool:
        state[node] = 1
        stack.append(node)
        for nxt in adjacency[node]:
            if state.get(nxt) == 1:
                cycle.extend(stack[stack.index(nxt):] + [nxt])
                return True
            if state.get(nxt, 0) == 0 and visit(nxt, stack):
                return True
        stack.pop()
        state[node] = 2
        return False

    for skill_id in adjacency:
        if state.get(skill_id, 0) == 0 and visit(skill_id, []):
            violations.append("skill graph contains a cycle: " + " -> ".join(cycle))
            break

    if doc.root in by_id:
        reachable = {doc.root}
        frontier = [doc.root]
        while frontier:
            node = frontier.pop()
            for nxt in adjacency.get(node, []):
                if nxt not in reachable:
                    reachable.add(nxt)
                    frontier.append(nxt)
        for skill_id in ids:
            if skill_id not in reachable:
                violations.append(f"skill {skill_id!r} unreachable from root")
    return violations


@dataclass
class KnowledgeExport:
    """Mode-2 knowledge-injection payload for external tuners."""

    format_profile: str
    top_k: list[dict]
    safe_ranges: dict[str, dict]
    interactions: list[dict]
    fingerprint: dict[str, str]

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "format_profile": self.format_profile,
            "fingerprint": self.fingerprint,
            "top_k": self.top_k,
            "safe_ranges": self.safe_ranges,
            "interactions": self.interactions,
        }

    def serialize(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=2) + "\n"

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.serialize())

    @classmethod
    def from_json(cls, d: dict) -> "KnowledgeExport":
        return cls(format_profile=d["format_profile"], top_k=list(d["top_k"]),
                   safe_ranges=dict(d["safe_ranges"]), interactions=list(d["interactions"]),
                   fingerprint=dict(d["fingerprint"]))

    @classmethod
    def load(cls, path: str) -> "KnowledgeExport":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


EXPORT_PROFILES = ("optimizer-json", "prompt-text")


def export_knowledge(doc: ProceduralDocument, format_profile: str = "optimizer-json") -> KnowledgeExport:
    """Extract the advisory payload: top-k list, safe ranges, interactions.

    Values are copied bit-identically from the document's reference data;
    nothing is recomputed.
    """
    if format_profile not in EXPORT_PROFILES:
        raise ParameterError(
            f"unknown export format profile {format_profile!r}; choose from {EXPORT_PROFILES}")
    top_k = []
    for skill in doc.skills:
        if skill.kind != KIND_PER_PARAMETER or not skill.id.startswith("verify_"):
            continue
        name = _param_of_verify_skill(doc, skill)
        top_k.append({
            "name": name,
            "rank": skill.reference_data["rank"],
            "cv": skill.reference_data["aggregate_cv"],
            "shape": skill.reference_data["shape"],
        })
    top_k.sort(key=lambda d: d["rank"])
    safe_ranges = {entry["name"]: doc.safe_ranges[entry["name"]] for entry in top_k}

    interactions = []
    components = {s.id: s for s in doc.skills if s.kind == KIND_PER_COMPONENT
                  and s.id.startswith("joint_")}
    for cid in sorted(components):
        skill = components[cid]
        names = _component_members(doc, skill)
        for key, value in sorted(skill.reference_data.items()):
            if key.startswith("eta2_") and key != "eta2_max":
                pair = _pair_of_edge_key(key, names)
                interactions.append({
                    "pair": list(pair),
                    "eta_squared": value,
                    "component": cid,
                })
    return KnowledgeExport(format_profile=format_profile, top_k=top_k,
                           safe_ranges=safe_ranges, interactions=interactions,
                           fingerprint=dict(doc.fingerprint))


def _param_of_verify_skill(doc: ProceduralDocument, skill: Skill) -> str:
    for step in skill.procedure:
        if step.action == ACTION_BENCHMARK and step.template:
            return next(iter(step.template))
    raise DocumentError(f"{skill.id}: cannot determine verified parameter")


def _component_members(doc: ProceduralDocument, skill: Skill) -> list[str]:
    members: set[str] = set()
    for step in skill.procedure:
        if step.action == ACTION_BENCHMARK and step.template:
            members.update(step.template)
    return sorted(members)


def _pair_of_edge_key(key: str, members: list[str]) -> tuple[str, str]:
    body = key[len("eta2_"):]
    for a in members:
        for b in members:
            if a < b and body == f"{signal_name(a)}_{signal_name(b)}":
                return (a, b)
    raise DocumentError(f"cannot resolve edge key {key!r} against members {members}")


def render_text(doc: ProceduralDocument) -> str:
    """Plain template rendering of the document for human reading."""
    lines = [f"Procedural tuning document {doc.fingerprint['campaign_id']}",
             f"primary workload: {doc.primary_workload}", ""]
    for skill in doc.skills:
        lines.append(f"[{skill.kind}] {skill.id}: {skill.title}")
        if skill.preconditions:
            lines.append("  requires: " + "; ".join(skill.preconditions))
        lines.append(f"  steps: {len(skill.procedure)}")
        if skill.postconditions:
            lines.append("  ensures: " + "; ".join(skill.postconditions))
        for cond, target in skill.decision_criteria:
            lines.append(f"  when {cond} -> {target}")
        if skill.adaptation_target:
            lines.append(f"  on violation -> {skill.adaptation_target}")
    return "\n".join(lines) + "\n"
