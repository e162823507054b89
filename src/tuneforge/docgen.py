"""Compilation of profiling artifacts into an executable procedural document.

The document is a DAG of skills. Each skill carries preconditions, an ordered
procedure of steps (benchmark / compute / branch),
decision criteria routing to the next skill, postconditions, and the
reference data that anchors its decisions. The compiler emits:

* one per-parameter skill per selected parameter, re-measuring it at the two
  safe-range extremes and checking the documented CV and response direction;
* one adaptation (re-sweep) skill per selected parameter, the target of the
  verification skill's postcondition-violation edge, which benchmarks every
  grid level and adopts the first best one in a single argmax/argmin step;
* one per-component skill per multi-parameter correlation component, which
  first tries the documented joint optimum and falls back to a full grid
  re-search: one benchmark step per cell, one argmax/argmin step naming the
  first best cell, and one pick step per member adopting that cell's level;
* one candidate skill assembling the per-parameter best levels into the final
  configuration and verifying it across workloads;
* a unique orchestration root that initializes signals, measures the
  baseline, and owns the convergence postcondition.

Template values are literals. A joint or candidate benchmark step sets
`pin_best` instead of restating the other selected parameters: the
interpreter runs each grid parameter the template does not name at its level
under the index signal `best_index_signal(param)`, which the root
initializes and the re-sweep and joint skills update.

Compilation is a pure function of its inputs; serialization is canonical
(sorted keys), so identical campaigns produce byte-identical documents.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field, fields
from itertools import product
from typing import Any

from . import expr as expr_mod
from .errors import CompileError, DocumentError, ParameterError
from .interaction import ETA2_MIN, GRID_LEVELS, InteractionReport, stage_b_levels
from .jsonfile import JsonArtifact
from .sensitivity import SafeRange, SensitivityReport
from .space import ParameterSpace, WorkloadSpec
from .topology import CorrelationGraph, JointOptimum

SCHEMA_VERSION = 2

KIND_PER_PARAMETER = "per-parameter"
KIND_PER_COMPONENT = "per-component"
KIND_ORCHESTRATION = "orchestration"

ACTION_BENCHMARK = "benchmark"
ACTION_COMPUTE = "compute"
ACTION_BRANCH = "branch"
STEP_ACTIONS = (ACTION_BENCHMARK, ACTION_COMPUTE, ACTION_BRANCH)

TARGET_END = "end"

EXPORT_FORMAT = "optimizer-json"

CV_TOLERANCE = 0.5           # +-50% band on the re-measured CV
CONVERGENCE_RATIO = 0.01     # pass-over-pass incumbent change for convergence
ONLINE_REPETITIONS = 3       # repetitions of every benchmark step
ACCEPT_FRACTION = 0.5        # share of documented improvement that accepts
MIN_TOP_K = 1                # anomaly threshold on the selected set size
CROSS_WORKLOAD_FLOOR = 0.5   # candidate must keep half the baseline elsewhere


def _require(d: dict, keys: tuple[str, ...], what: str) -> None:
    missing = [key for key in keys if key not in d]
    if missing:
        raise DocumentError(f"{what} is missing required key {missing[0]!r}")


@dataclass
class Step:
    """One procedure action, one of STEP_ACTIONS. Fields the action does not
    use stay None.

    benchmark: run `template` on `workload_id` `repetitions` times; the mean
    ok metric lands in `out`, and with `adopt` the configuration competes for
    the incumbent. A template maps parameter -> literal value. With
    `pin_best`, every parameter of the document's grids that the template
    does not name is set to its grid level at index signal
    `best_index_signal(param)`. No ok repetition aborts the session.
    compute: evaluate `expr` into `out`.
    branch: jump forward to step index `target` (== len(procedure) exits the
    skill) when `cond` is true.
    """

    action: str
    template: dict[str, Any] | None = None     # benchmark
    workload_id: str | None = None
    repetitions: int | None = None
    out: str | None = None                     # benchmark, compute
    adopt: bool = False
    pin_best: bool = False
    expr: str | None = None                    # compute
    cond: str | None = None                    # branch
    target: int | None = None

    def declared_signal(self) -> str | None:
        return self.out if self.action in (ACTION_BENCHMARK, ACTION_COMPUTE) else None

    def to_json(self) -> dict:
        d: dict[str, Any] = {"action": self.action}
        for key in ("template", "workload_id", "repetitions", "out", "expr", "cond", "target"):
            value = getattr(self, key)
            if value is not None:
                d[key] = value
        if self.adopt:
            d["adopt"] = True
        if self.pin_best:
            d["pin_best"] = True
        return d

    @classmethod
    def from_json(cls, d: dict) -> "Step":
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise DocumentError(f"{d.get('action')!r} step has unknown keys {unknown}")
        _require(d, ("action",), "step")
        return cls(**{**d, "adopt": bool(d.get("adopt", False)),
                      "pin_best": bool(d.get("pin_best", False))})


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
            if step.action == ACTION_BRANCH:
                out.append(step.cond)
            if step.action == ACTION_COMPUTE:
                out.append(step.expr)
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
        _require(d, ("id", "kind"), "skill")
        return cls(id=d["id"], kind=d["kind"], title=d.get("title", ""),
                   preconditions=list(d.get("preconditions", [])),
                   procedure=[Step.from_json(s) for s in d.get("procedure", [])],
                   decision_criteria=[(c, t) for c, t in d.get("decision_criteria", [])],
                   postconditions=list(d.get("postconditions", [])),
                   reference_data=dict(d.get("reference_data", {})),
                   adaptation_target=d.get("adaptation_target"))


@dataclass
class ProceduralDocument(JsonArtifact):
    fingerprint: dict[str, str]          # {"space_hash", "campaign_id"}
    root: str
    skills: list[Skill]
    workloads: list[WorkloadSpec]
    primary_workload: str
    grids: dict[str, list[Any]]          # per-parameter grid levels
    safe_ranges: dict[str, dict]         # per-parameter SafeRange json
    provenance: dict[str, dict]          # "skill.key" -> {"campaign", "operation"}
    policy: dict[str, Any]
    schema_version: int = SCHEMA_VERSION
    load_error = DocumentError

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

    def document_hash(self) -> str:
        """First 16 hex digits of the sha256 of the compact sorted-key JSON."""
        return hashlib.sha256(json.dumps(self.to_json(), sort_keys=True).encode()).hexdigest()[:16]

    @classmethod
    def from_json(cls, d: dict) -> "ProceduralDocument":
        """Load a document; any malformed part raises DocumentError."""
        try:
            if d.get("schema_version") != SCHEMA_VERSION:
                raise DocumentError(
                    f"unsupported document schema_version {d.get('schema_version')!r}")
            _require(d, ("fingerprint", "root", "skills", "workloads", "primary_workload",
                         "grids", "safe_ranges"), "document")
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
        except (AttributeError, KeyError, TypeError, ValueError, ParameterError) as e:
            raise DocumentError(f"malformed document: {type(e).__name__}: {e}") from e


def signal_name(raw: str) -> str:
    """Mangle arbitrary parameter names into expression-safe identifiers."""
    s = re.sub(r"\W", "_", raw)
    if not s or not re.match(r"[A-Za-z_]", s[0]):
        s = "p_" + s
    return s


def best_index_signal(param: str) -> str:
    """The signal holding the index of `param`'s current best grid level."""
    return f"best_{signal_name(param)}_idx"


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
                     space: ParameterSpace, workloads: list[WorkloadSpec]) -> ProceduralDocument:
    """Compile profiling outputs into a validated procedural document.

    All inputs must come from the same campaign (matching fingerprints).
    Raises CompileError on inconsistent inputs or if the generated skill
    graph fails validation.
    """
    if not workloads:
        raise CompileError("at least one workload is required")
    if records.campaign_id != profiles.campaign_id or records.space_hash != profiles.space_hash:
        raise CompileError(
            f"interaction report fingerprint {records.campaign_id}/{records.space_hash} "
            f"does not match sensitivity report {profiles.campaign_id}/{profiles.space_hash}")
    w0 = workloads[0]
    campaign = profiles.campaign_id
    direction = w0.direction
    argbest = "argmax" if direction == "maximize" else "argmin"

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
        grids[name] = stage_b_levels(space.get(name), prof.safe_range, factorial=False)

    multi = graph.multi_components() if graph.nodes else []
    optima_by_key = {(tuple(o.component), o.workload_id): o for o in optima}

    sig = signal_name
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
        prof = profiles.profile(name)
        best = prof.best_level.get(w0.id, grids[name][0])
        init_pairs.append((str(_grid_index_of(grids[name], best, space.get(name))),
                           best_index_signal(name)))
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
                  repetitions=ONLINE_REPETITIONS, out="baseline_mean", adopt=True))
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
        preconditions=[f"top_k_count >= {MIN_TOP_K}"],
        procedure=orch.resolve(labels),
        decision_criteria=[("1", first_target)],
        postconditions=[f"pass_count >= 1 and abs(pass_gain) <= {CONVERGENCE_RATIO}"],
        reference_data={
            "top_k_count": len(top_names),
            "tau_s": profiles.tau_s,
            "convergence_ratio": CONVERGENCE_RATIO,
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
                      repetitions=ONLINE_REPETITIONS, out=f"{s}_lo_metric"))
        proc.add(Step(action=ACTION_BENCHMARK, template={name: grid[-1]}, workload_id=w0.id,
                      repetitions=ONLINE_REPETITIONS, out=f"{s}_hi_metric"))
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
            "cv_tolerance": CV_TOLERANCE,
            "safety_floor": CROSS_WORKLOAD_FLOOR,
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
        metrics = ", ".join(f"{s}_rs_m{i}" for i in range(len(grid)))
        rs = [Step(action=ACTION_BENCHMARK, template={name: level}, workload_id=w0.id,
                   repetitions=ONLINE_REPETITIONS, out=f"{s}_rs_m{i}", adopt=True)
              for i, level in enumerate(grid)]
        rs.append(Step(action=ACTION_COMPUTE,
                       expr=f"(max({metrics}) - min({metrics})) / baseline_mean",
                       out=f"{s}_cv_obs"))
        rs.append(Step(action=ACTION_COMPUTE, expr=f"{argbest}({metrics})",
                       out=best_index_signal(name)))
        rs.append(Step(action=ACTION_COMPUTE, expr="1", out=f"{s}_verify_ok"))
        resweep = Skill(
            id=resweep_id, kind=KIND_PER_PARAMETER,
            title=f"Re-sweep {name} after a failed verification",
            procedure=rs,
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
            "joint_threshold": ETA2_MIN,
            "expected_improvement": opt.improvement_vs_default,
            "accept_fraction": ACCEPT_FRACTION,
        }
        prov(cid, "eta2_max", "interaction.two_way_anova")
        prov(cid, "joint_threshold", "interaction.thresholds")
        prov(cid, "expected_improvement", "topology.optimize_component")
        prov(cid, "accept_fraction", "docgen.policy")
        for e in comp_edges:
            key = f"eta2_{sig(e.a)}_{sig(e.b)}"
            ref[key] = e.eta_squared
            prov(cid, key, "interaction.two_way_anova")

        proc = _Proc()
        proc.branch_to_label(f"done_{cid} >= 1", "exit")
        proc.branch_to_label("eta2_max <= joint_threshold", "mark_done")
        # Joint and candidate benchmarks pin every other selected parameter at
        # its current best level.
        doc_best_template = {m: opt.best_config.assignments[m] for m in members}
        proc.add(Step(action=ACTION_BENCHMARK, template=doc_best_template, workload_id=w0.id,
                      repetitions=ONLINE_REPETITIONS, out=f"{cid}_doc_metric",
                      adopt=True, pin_best=True))
        proc.add(Step(action=ACTION_COMPUTE,
                      expr=_gain_expr(f"{cid}_doc_metric", "baseline_mean", direction),
                      out=f"{cid}_doc_gain"))
        proc.branch_to_label(
            f"{cid}_doc_gain >= expected_improvement * accept_fraction", "accept_doc")

        # Full grid re-search, cells in lexicographic configuration order.
        combos = product(*(range(len(grids[m])) for m in members))
        cells = [(combo, {m: grids[m][i] for m, i in zip(members, combo)}) for combo in combos]
        cells.sort(key=lambda cell: json.dumps(cell[1], sort_keys=True))
        for j, (_, template) in enumerate(cells):
            proc.add(Step(action=ACTION_BENCHMARK, template=template,
                          workload_id=w0.id, repetitions=ONLINE_REPETITIONS,
                          out=f"{cid}_cell_{j}", adopt=True, pin_best=True))
        metrics = ", ".join(f"{cid}_cell_{j}" for j in range(len(cells)))
        proc.add(Step(action=ACTION_COMPUTE, expr=f"{argbest}({metrics})", out=f"{cid}_best_cell"))
        for k, m in enumerate(members):
            levels = ", ".join(str(combo[k]) for combo, _ in cells)
            proc.add(Step(action=ACTION_COMPUTE, expr=f"pick({cid}_best_cell, {levels})",
                          out=best_index_signal(m)))
        proc.branch_to_label("1", "mark_done")

        labels2 = {"accept_doc": proc.here()}
        for m in members:
            idx = _grid_index_of(grids[m], opt.best_config.assignments[m], space.get(m))
            proc.add(Step(action=ACTION_COMPUTE, expr=str(idx), out=best_index_signal(m)))
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
    cand.add(Step(action=ACTION_BENCHMARK, template={}, workload_id=w0.id,
                  repetitions=ONLINE_REPETITIONS, out="cand_metric", adopt=True,
                  pin_best=True))
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
                      repetitions=ONLINE_REPETITIONS, out=f"baseline_{ws}"))
        cand.add(Step(action=ACTION_BENCHMARK, template={}, workload_id=w.id,
                      repetitions=ONLINE_REPETITIONS, out=f"cand_metric_{ws}",
                      pin_best=True))
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
        reference_data={"cross_floor": CROSS_WORKLOAD_FLOOR},
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
        policy={"cv_tolerance": CV_TOLERANCE, "convergence_ratio": CONVERGENCE_RATIO,
                "online_repetitions": ONLINE_REPETITIONS, "accept_fraction": ACCEPT_FRACTION,
                "grid_levels": GRID_LEVELS, "min_top_k": MIN_TOP_K,
                "cross_workload_floor": CROSS_WORKLOAD_FLOOR},
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


_NONE = type(None)
# The fields each action reads, and the exact types it can use. `expr` and
# `cond` need no entry: the predicate check parses them.
_STEP_FIELD_TYPES = {
    ACTION_BENCHMARK: (("template", (dict, _NONE)), ("workload_id", (str,)),
                       ("repetitions", (int, _NONE)), ("out", (str, _NONE))),
    ACTION_COMPUTE: (("out", (str, _NONE)),),
    ACTION_BRANCH: (("target", (int, _NONE)),),
}


def _is_real(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _safe_range_ok(d: Any) -> bool:
    if not isinstance(d, dict):
        return False
    if "values" in d:
        return isinstance(d["values"], list) and bool(d["values"])
    return _is_real(d.get("lo")) and _is_real(d.get("hi"))


def _type_violations(doc: ProceduralDocument) -> list[str]:
    """Values of a type that the other checks and the interpreter cannot use."""
    violations = [f"{key} {value!r} is not a string"
                  for key, value in (("root", doc.root), ("primary workload", doc.primary_workload))
                  if not isinstance(value, str)]
    violations.extend(f"safe range of {param!r} is malformed: {d!r}"
                      for param, d in doc.safe_ranges.items() if not _safe_range_ok(d))
    for skill in doc.skills:
        if not isinstance(skill.id, str):
            violations.append(f"skill id {skill.id!r} is not a string")
        targets = [target for _, target in skill.decision_criteria]
        if skill.adaptation_target is not None:
            targets.append(skill.adaptation_target)
        violations.extend(f"{skill.id}: target {target!r} is not a string"
                          for target in targets if not isinstance(target, str))
        for i, step in enumerate(skill.procedure):
            fields_read = _STEP_FIELD_TYPES.get(step.action, ()) if type(step.action) is str else ()
            for key, kinds in fields_read:
                value = getattr(step, key)
                if type(value) not in kinds:
                    violations.append(f"{skill.id}: step {i} {key} {value!r} is not "
                                      f"{kinds[0].__name__}")
    return violations


def validate_document(doc: ProceduralDocument) -> list[str]:
    """Exhaustive structural validation; returns all violations, not the first.

    Checks: field types (when one is wrong, only the type violations are
    returned, since every other check relies on them), well-formed safe
    ranges, unique ids, a unique orchestration skill that is the root, every
    step action in STEP_ACTIONS, every decision/adaptation target resolves,
    branch targets forward and in range, the primary and every benchmark
    workload declared, predicate symbols closed over reference data plus
    declared signals, the index signals a `pin_best` step reads declared,
    acyclicity, reachability from the root, and provenance completeness for
    reference data.
    """
    violations = _type_violations(doc)
    if violations:
        return violations
    workload_ids = {w.id for w in doc.workloads}
    if doc.primary_workload not in workload_ids:
        violations.append(f"primary workload {doc.primary_workload!r} is not declared")
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
        for i, step in enumerate(skill.procedure):
            if step.action not in STEP_ACTIONS:
                violations.append(f"{skill.id}: step {i} has unknown action {step.action!r}")
            sig_name = step.declared_signal()
            if sig_name:
                declared.add(sig_name)
            if step.action == ACTION_BRANCH:
                if step.target is None or not i < step.target <= len(skill.procedure):
                    violations.append(
                        f"{skill.id}: branch at step {i} targets {step.target!r}, "
                        f"out of range [{i + 1}, {len(skill.procedure)}]")
            if step.action == ACTION_BENCHMARK:
                if step.workload_id not in workload_ids:
                    violations.append(
                        f"{skill.id}: benchmark at step {i} names unknown workload "
                        f"{step.workload_id!r}")

    undeclared_pins = {p: best_index_signal(p) for p in doc.grids
                       if best_index_signal(p) not in declared}
    for skill in doc.skills:
        for _, target in skill.decision_criteria:
            if target != TARGET_END and target not in by_id:
                violations.append(f"{skill.id}: unresolved skill id {target!r}")
        if skill.adaptation_target is not None and skill.adaptation_target not in by_id:
            violations.append(
                f"{skill.id}: unresolved adaptation target {skill.adaptation_target!r}")
        for i, step in enumerate(skill.procedure):
            if step.pin_best:
                violations.extend(f"{skill.id}: step {i} pins {param!r} by undeclared "
                                  f"signal {signal!r}" for param, signal in undeclared_pins.items()
                                  if param not in (step.template or {}))
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
class KnowledgeExport(JsonArtifact):
    """Mode-2 knowledge-injection payload for external tuners."""

    top_k: list[dict]
    safe_ranges: dict[str, dict]
    interactions: list[dict]
    fingerprint: dict[str, str]
    load_error = DocumentError

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "format_profile": EXPORT_FORMAT,
            "fingerprint": self.fingerprint,
            "top_k": self.top_k,
            "safe_ranges": self.safe_ranges,
            "interactions": self.interactions,
        }

    @classmethod
    def from_json(cls, d: dict) -> "KnowledgeExport":
        if d.get("format_profile") != EXPORT_FORMAT:
            raise DocumentError(f"unsupported export format {d.get('format_profile')!r}")
        return cls(top_k=list(d["top_k"]), safe_ranges=dict(d["safe_ranges"]),
                   interactions=list(d["interactions"]), fingerprint=dict(d["fingerprint"]))


def export_knowledge(doc: ProceduralDocument) -> KnowledgeExport:
    """Extract the advisory payload: top-k list, safe ranges, interactions.

    Values are copied bit-identically from the document's reference data;
    nothing is recomputed.
    """
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
    return KnowledgeExport(top_k=top_k, safe_ranges=safe_ranges,
                           interactions=interactions, fingerprint=dict(doc.fingerprint))


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
