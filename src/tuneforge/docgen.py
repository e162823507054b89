"""Compilation of profiling artifacts into an executable procedural document.

The compiler reads two artifacts of one campaign: the sensitivity report and
the optima report, which carries the correlation graph, the joint optima and
the components the joint stage rejected.

The document is a DAG of skills. Each skill carries preconditions, an ordered
procedure of steps (benchmark / compute / branch), the next skill (`next`, a
skill id or `end`), postconditions, and the reference data that anchors its
decisions. The compiler emits:

* one per-parameter skill per selected parameter, re-measuring it at the two
  safe-range extremes and checking the documented CV and response direction;
* one adaptation (re-sweep) skill per selected parameter, the target of the
  verification skill's postcondition-violation edge, which benchmarks every
  grid level and adopts the first best one in a single argmax/argmin step;
* one per-component skill per multi-parameter correlation component that
  the joint stage searched, which first tries the documented joint optimum
  and falls back to a full grid re-search: one benchmark step per cell, one
  argmax/argmin step naming the first best cell, and one pick step per
  member adopting that cell's level;
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

A compiled or loaded document is immutable: steps, skills and the document
are frozen, their sequences are tuples and their mappings read-only, nested
values included. Loading checks each part's keys and field types
(`jsonfile.load_fields`), each part checks its own values when built, and the
document parses its safe ranges; `validate_document` checks how the parts
refer to each other. The hash and the violations are computed on first use
and kept, so running many sessions on one document validates and hashes it
once. Its skills and workloads by id, its parsed expressions, and the
benchmark runs its sessions resolved and the cell hashes of the runs they
measured, for the space sessions last ran on (`ProceduralDocument.prepared`),
are kept the same way.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from graphlib import CycleError, TopologicalSorter
from itertools import combinations, product
from types import MappingProxyType
from typing import Any, ClassVar, Mapping, TypedDict

from . import expr as expr_mod
from .errors import AnalysisError, CompileError, DocumentError, ParameterError
from .interaction import ETA2_MIN, GRID_LEVELS
from .jsonfile import JsonArtifact, Record, load_fields, thaw, type_tests
from .sensitivity import SafeRange, SensitivityReport
from .space import (Configuration, ParameterSpace, WorkloadSpec, closest_index, span_levels,
                    validate_configuration)
from .topology import OptimaReport

SCHEMA_VERSION = 3

KIND_PER_PARAMETER = "per-parameter"
KIND_PER_COMPONENT = "per-component"
KIND_ORCHESTRATION = "orchestration"

TARGET_END = "end"

EXPORT_FORMAT = "optimizer-json"


CV_TOLERANCE = 0.5           # +-50% band on the re-measured CV
CONVERGENCE_RATIO = 0.01     # pass-over-pass incumbent change for convergence
ONLINE_REPETITIONS = 3       # repetitions of every benchmark step
ACCEPT_FRACTION = 0.5        # share of documented improvement that accepts
MIN_TOP_K = 1                # anomaly threshold on the selected set size
CROSS_WORKLOAD_FLOOR = 0.5   # candidate must keep half the baseline elsewhere

# The policy a document records (the operation `docgen.policy`).
POLICY = {"cv_tolerance": CV_TOLERANCE, "convergence_ratio": CONVERGENCE_RATIO,
          "online_repetitions": ONLINE_REPETITIONS, "accept_fraction": ACCEPT_FRACTION,
          "grid_levels": GRID_LEVELS, "min_top_k": MIN_TOP_K,
          "cross_workload_floor": CROSS_WORKLOAD_FLOOR}

# The analysis operation behind each reference datum, by the datum's key; a
# key this table does not hold goes by its prefix: `cv_<workload>`, a
# workload's CV, and `eta2_<a>_<b>` and `eta2_max`, eta^2 values.
OPERATIONS = {
    **dict.fromkeys(["top_k_count", "tau_s", "rank"], "sensitivity.select_top_k"),
    **dict.fromkeys(["cv", "aggregate_cv", "cv_"], "sensitivity.compute_cv"),
    "shape": "sensitivity.classify_shape",
    **dict.fromkeys(["safe_lo", "safe_hi"], "sensitivity.extract_safe_range"),
    "eta2_": "interaction.two_way_anova",
    "joint_threshold": "interaction.thresholds",
    "expected_improvement": "topology.optimize_component",
    **dict.fromkeys(["convergence_ratio", "cv_tolerance", "safety_floor", "accept_fraction",
                     "cross_floor"], "docgen.policy"),
}


_CONTAINERS = (dict, MappingProxyType, list, tuple)


def freeze(value: Any) -> Any:
    """A read-only copy of a JSON container (one of ``_CONTAINERS``): mappings
    become read-only proxies and lists tuples, at every depth."""
    if isinstance(value, (dict, MappingProxyType)):
        return MappingProxyType({k: freeze(v) if isinstance(v, _CONTAINERS) else v
                                 for k, v in value.items()})
    return tuple([freeze(v) if isinstance(v, _CONTAINERS) else v for v in value])


# The campaign a document was compiled from.
Fingerprint = TypedDict("Fingerprint", {"campaign_id": str, "space_hash": str})


@cache
def _container_fields(cls: type) -> tuple[str, ...]:
    """The fields of a part whose annotation may admit a container."""
    return tuple(name for name, (kinds, _) in type_tests(cls).items()
                 if not kinds or not kinds.isdisjoint(_CONTAINERS))


class _Part(Record, error=DocumentError):
    """A frozen part of a document. Construction freezes each field."""

    def __post_init__(self):
        for name in _container_fields(type(self)):
            value = getattr(self, name)
            if isinstance(value, _CONTAINERS):
                object.__setattr__(self, name, freeze(value))


@dataclass(frozen=True)
class _Step(_Part, written=("action",), optional=("adopt", "pin_best")):
    """A procedure step. Each subclass holds exactly the fields its action
    reads; a flag is written only when set."""

    action: ClassVar[str]

    def to_json(self) -> dict:
        """One key per field, and the step's `action`."""
        return {"action": self.action, **super().to_json()}


@dataclass(frozen=True)
class BenchmarkStep(_Step):
    """Run `template` on `workload_id` `repetitions` times; the mean ok
    metric lands in `out`, and with `adopt` the configuration competes for
    the incumbent. A template maps parameter -> literal value. With
    `pin_best`, every parameter of the document's grids that the template
    does not name is set to its grid level at index signal
    `best_index_signal(param)`. No ok repetition aborts the session."""

    action: ClassVar[str] = "benchmark"
    template: Mapping[str, Any]
    workload_id: str
    repetitions: int
    out: str
    adopt: bool = False
    pin_best: bool = False

    def __post_init__(self):
        super().__post_init__()
        if self.repetitions < 1:
            raise DocumentError(f"benchmark step repetitions {self.repetitions} is below 1")


@dataclass(frozen=True)
class ComputeStep(_Step):
    """Evaluate `expr` into the signal `out`."""

    action: ClassVar[str] = "compute"
    expr: str
    out: str


@dataclass(frozen=True)
class BranchStep(_Step):
    """Jump forward to step `target` (len(procedure) exits the skill) when `cond` holds."""

    action: ClassVar[str] = "branch"
    cond: str
    target: int


_STEP_CLASSES = {cls.action: cls for cls in (BenchmarkStep, ComputeStep, BranchStep)}


def step_from_json(d: dict, where: str = "step") -> _Step:
    """Load one step as the class of its action; an unknown action or a
    missing, extra or wrongly typed field raises DocumentError."""
    if type(d) is not dict or "action" not in d:
        raise DocumentError(f"{where} {d!r} is not an object with an 'action'")
    cls = _STEP_CLASSES.get(d["action"]) if type(d["action"]) is str else None
    if cls is None:
        raise DocumentError(f"{where} has unknown action {d['action']!r}")
    return load_fields(cls, d, where)


SKILL_KINDS = (KIND_PER_PARAMETER, KIND_PER_COMPONENT, KIND_ORCHESTRATION)


@dataclass(frozen=True)
class Skill(_Part):
    id: str
    kind: str
    next: str                    # the skill that follows: an id or TARGET_END
    preconditions: tuple[str, ...] = ()
    procedure: tuple[_Step, ...] = ()
    postconditions: tuple[str, ...] = ()
    reference_data: Mapping[str, Any] = field(default_factory=dict)
    adaptation_target: str | None = None
    title: str = ""

    def __post_init__(self):
        super().__post_init__()
        if self.kind not in SKILL_KINDS:
            raise DocumentError(f"Skill kind {self.kind!r} is not one of {SKILL_KINDS}")

    def predicates(self) -> list[str]:
        """Every expression this skill can evaluate at runtime."""
        out = list(self.preconditions) + list(self.postconditions)
        for step in self.procedure:
            if isinstance(step, BranchStep):
                out.append(step.cond)
            elif isinstance(step, ComputeStep):
                out.append(step.expr)
        return out

    @classmethod
    def from_json(cls, d: Any, what: str | None = None, error: type | None = None) -> "Skill":
        """The skill `to_json` wrote, named in load errors by its id wherever
        it is held, and each step by the skill's id and the step's index."""
        skill_id = d["id"] if type(d) is dict and "id" in d else None
        return load_fields(cls, d, f"skill {skill_id!r}", procedure=lambda steps: [
            step_from_json(step, f"{skill_id}: step {i}") for i, step in enumerate(steps)]
            if type(steps) is list else steps)


def _safe_range(param: str, d: Any) -> SafeRange:
    """The documented safe range of `param`: a non-empty value set, or real bounds."""
    try:
        return SafeRange.from_json(d)
    except AnalysisError:
        raise DocumentError(f"safe range of {param!r} is malformed: {thaw(d)!r}") from None


@dataclass(frozen=True, slots=True)
class LiteralRun:
    """A benchmark step's configuration, its pinned levels set, resolved on
    one space: the configuration, and either the effective configuration the
    system runs or the refusal a session aborts with."""

    config: Configuration
    effective: Configuration | None
    refusal: str | None


# A `pin_best` step's open grid parameters, in grid order: (param, its
# best-index signal, its grid levels). A step without `pin_best` has none.
Pins = tuple[tuple[str, str, tuple[Any, ...]], ...]


@dataclass(frozen=True, slots=True)
class PreparedSkill:
    """A skill, its pre- and postconditions parsed, and per step of its
    procedure the `Pins` of a benchmark step or the parsed expression or
    condition of a compute or branch step."""

    skill: Skill
    preconditions: tuple[expr_mod.Expr, ...]
    steps: tuple[Pins | expr_mod.Expr, ...]
    postconditions: tuple[expr_mod.Expr, ...]


@dataclass(frozen=True, slots=True)
class PreparedDocument:
    """A document prepared for sessions on `space`: each skill prepared and
    each workload, by id; `runs`, the `LiteralRun` of each benchmark step a
    session has reached, by (skill id, step index, grid index of each pin);
    and `cells`, the `harness.cell_hash` of each cell (canonical effective
    configuration, workload id) a session has measured, so the cells kept
    are bounded by the distinct cells of the kept runs.

    No lock: threads racing on `runs` or `cells` compute equal values for
    one key, and each session uses the one it got."""

    space: ParameterSpace
    skills: Mapping[str, PreparedSkill]
    workloads: Mapping[str, WorkloadSpec]
    runs: dict[tuple, LiteralRun]
    cells: dict[tuple[str, str], int]


def _workloads(value: Any) -> Any:
    """A document's workloads, each named in load errors by its index and
    holding every key it writes."""
    if type(value) is not list:
        return value
    return [load_fields(WorkloadSpec, w, f"malformed document: workload {i}",
                        error=DocumentError, defaulted=()) for i, w in enumerate(value)]


@dataclass(frozen=True)
class ProceduralDocument(_Part, JsonArtifact, name="document", written=("edges",),
                         pinned={"schema_version": SCHEMA_VERSION},
                         load={"workloads": _workloads}):
    fingerprint: Fingerprint
    root: str
    skills: tuple[Skill, ...]
    workloads: tuple[WorkloadSpec, ...]
    primary_workload: str
    grids: Mapping[str, tuple[Any, ...]]    # per-parameter grid levels
    safe_ranges: Mapping[str, Any]          # per-parameter SafeRange json
    provenance: Mapping[str, Any]           # "skill.key" -> {"campaign", "operation"}
    policy: Mapping[str, Any]
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        super().__post_init__()
        # One frozen mapping per distinct provenance value, compiled or
        # loaded: a document has an entry per datum but few distinct values.
        # Equal reprs are equal JSON values of the same types.
        shared: dict[str, Any] = {}
        object.__setattr__(self, "provenance", MappingProxyType(
            {key: shared.setdefault(repr(value), value)
             for key, value in self.provenance.items()}))
        object.__setattr__(self, "_safe", MappingProxyType(
            {param: _safe_range(param, d) for param, d in self.safe_ranges.items()}))
        # prepared for the space sessions last ran on
        object.__setattr__(self, "_prepared", None)

    def skill(self, skill_id: str) -> Skill:
        for s in self.skills:
            if s.id == skill_id:
                return s
        raise DocumentError(f"no skill with id {skill_id!r}")

    def edges(self) -> list[tuple[str, str]]:
        """DAG adjacency derived from `next` and adaptation edges."""
        ids = {s.id for s in self.skills}
        return sorted({(s.id, target) for s in self.skills
                       for target in (s.next, s.adaptation_target) if target in ids})

    def safe_range_of(self, param: str) -> SafeRange | None:
        """The documented safe range of `param`, parsed when the document was built."""
        return self._safe.get(param)

    def refusal(self, space: ParameterSpace, config: Configuration) -> str | None:
        """Why a session may not benchmark `config` on `space`: a value outside
        its parameter's domain or outside the documented safe ranges. None
        when it may."""
        violations = validate_configuration(space, config)
        if violations:
            return "invalid configuration: " + "; ".join(violations)
        for param, value in config.assignments.items():
            safe = self._safe.get(param)
            if safe is None:
                return f"parameter {param!r} has no documented safe range"
            if safe.values is not None:
                if value not in safe.values:
                    return f"{param}={value!r} outside safe set {list(safe.values)}"
            elif not (isinstance(value, (int, float))
                      and float(safe.lo) <= float(value) <= float(safe.hi)):
                return f"{param}={value!r} outside safe range [{safe.lo}, {safe.hi}]"
        return None

    def prepared(self, space: ParameterSpace) -> PreparedDocument:
        """The document prepared for sessions on `space`: what every session
        would otherwise redo. The skill and workload tables are built and each
        expression is parsed here, so the document must be valid. Each
        benchmark step's run is resolved by the first session that reaches
        the step with one tuple of grid indexes, and kept in `runs`: so the
        runs kept are bounded by the (step, grid indexes) pairs the sessions
        reached. Each cell's hash is kept in `cells` by the first session
        that measures the cell.

        Built on first use and kept with the space sessions last ran on, which
        is checked by identity; a session on another space builds it again,
        runs included, so nothing resolved on one space reaches another.
        """
        prepared = self._prepared
        if prepared is not None and prepared.space is space:
            return prepared
        pins: dict[frozenset, Pins] = {}  # steps naming one parameter set share
        pin_of = {param: (param, best_index_signal(param), grid)
                  for param, grid in self.grids.items()}

        def prepare(step: _Step) -> Pins | expr_mod.Expr:
            if isinstance(step, ComputeStep):
                return expr_mod.parse(step.expr)
            if isinstance(step, BranchStep):
                return expr_mod.parse(step.cond)
            if not step.pin_best:
                return ()
            named = frozenset(step.template)
            if named not in pins:
                pins[named] = tuple(pin for param, pin in pin_of.items() if param not in named)
            return pins[named]

        prepared = PreparedDocument(space, MappingProxyType({skill.id: PreparedSkill(
            skill,
            tuple([expr_mod.parse(text) for text in skill.preconditions]),
            tuple([prepare(step) for step in skill.procedure]),
            tuple([expr_mod.parse(text) for text in skill.postconditions]))
            for skill in self.skills}), MappingProxyType({w.id: w for w in self.workloads}),
            {}, {})
        object.__setattr__(self, "_prepared", prepared)
        return prepared

    def to_json(self) -> dict:
        """One key per field, and the `edges` derived from the skills, which
        are not read."""
        return {**super().to_json(), "edges": [[a, b] for a, b in self.edges()]}

    def document_hash(self) -> str:
        """First 16 hex digits of the sha256 of the compact sorted-key JSON.

        This computes the digest; `hash` keeps it.
        """
        return hashlib.sha256(json.dumps(self.to_json(), sort_keys=True).encode()).hexdigest()[:16]

    @cached_property
    def hash(self) -> str:
        """`document_hash()`, computed on first use and kept."""
        return self.document_hash()

    @cached_property
    def violations(self) -> tuple[str, ...]:
        """`validate_document`'s findings, computed on first use and kept."""
        return tuple(validate_document(self))

    def require_valid(self) -> None:
        """Raise DocumentError naming every violation, if there is one."""
        if self.violations:
            raise DocumentError("document rejected: " + "; ".join(self.violations))


def signal_name(raw: str) -> str:
    """Mangle arbitrary parameter names into expression-safe identifiers."""
    s = re.sub(r"\W", "_", raw)
    if not s or not re.match(r"[A-Za-z_]", s[0]):
        s = "p_" + s
    return s


def best_index_signal(param: str) -> str:
    """The signal holding the index of `param`'s current best grid level."""
    return f"best_{signal_name(param)}_idx"


def eta2_key(a: str, b: str) -> str:
    """The key of the reference datum holding the eta^2 of the pair (a, b)."""
    return f"eta2_{signal_name(a)}_{signal_name(b)}"


def _unique_signals(kind: str, names: list[str]) -> None:
    """Refuse two names that one signal name would name."""
    first_of: dict[str, str] = {}
    for name in names:
        first = first_of.setdefault(signal_name(name), name)
        if first != name:
            raise CompileError(f"{kind} {first!r} and {name!r} share the signal name "
                               f"{signal_name(name)!r}")


class _Proc:
    """Procedure builder with forward-branch patching."""

    def __init__(self):
        self.steps: list[_Step] = []
        self._holes: list[tuple[int, str]] = []

    def add(self, step: _Step) -> int:
        self.steps.append(step)
        return len(self.steps) - 1

    def branch_to_label(self, cond: str, label: str) -> int:
        idx = self.add(BranchStep(cond=cond, target=-1))
        self._holes.append((idx, label))
        return idx

    def here(self) -> int:
        return len(self.steps)

    def resolve(self, labels: dict[str, int]) -> list[_Step]:
        for idx, label in self._holes:
            self.steps[idx] = replace(self.steps[idx], target=labels[label])
        return self.steps


def _gain_expr(metric_sig: str, base_sig: str, direction: str) -> str:
    if direction == "maximize":
        return f"({metric_sig} - {base_sig}) / {base_sig}"
    return f"({base_sig} - {metric_sig}) / {base_sig}"


def _grid_index(grids: dict[str, list[Any]], space: ParameterSpace, name: str,
                value: Any) -> int:
    """Index of ``name``'s grid point closest to a level the analysis chose."""
    try:
        return closest_index(space.get(name), grids[name], value)
    except ParameterError as e:
        raise CompileError(str(e)) from None


def compile_document(profiles: SensitivityReport, optima_report: OptimaReport,
                     space: ParameterSpace, workloads: list[WorkloadSpec]) -> ProceduralDocument:
    """Compile a campaign's sensitivity and optima reports into a validated
    procedural document.

    Both reports must come from one campaign; `Campaign` checks that where
    it reads them. The correlation graph and the joint optima are the optima
    report's; a datum's provenance is the operation its key names
    (`OPERATIONS`). Raises CompileError on inconsistent inputs; on two
    workloads or two selected parameters of one signal name; on a selected
    parameter whose verify skill id is the candidate check's; on reference
    data of one key (a workload's CV and a verify datum, two pairs' eta^2);
    or if the generated skill graph fails validation.
    """
    if not workloads:
        raise CompileError("at least one workload is required")
    _unique_signals("workloads", [w.id for w in workloads])
    graph, rejected = optima_report.graph, [r["component"] for r in optima_report.rejected]
    w0 = workloads[0]
    campaign = profiles.campaign_id
    direction = w0.direction
    argbest = "argmax" if direction == "maximize" else "argmin"

    top_names = [p.parameter for p in sorted(profiles.top_k(), key=lambda p: p.rank)]
    _unique_signals("parameters", top_names)
    for name in graph.nodes:
        if name not in top_names:
            raise CompileError(f"graph node {name!r} is not a selected parameter")

    safe_ranges = {p.parameter: p.safe_range.to_json() for p in profiles.profiles}
    grids = {name: span_levels(space.get(name), profiles.profile(name).safe_range, GRID_LEVELS)
             for name in top_names}

    # A component the joint stage rejected has no joint optimum; its members
    # are verified and re-swept one by one.
    multi = [c for c in graph.multi_components() if c not in rejected]
    optima_by_key = {(tuple(o.component), o.workload_id): o for o in optima_report.optima}

    sig = signal_name
    skills: list[Skill] = []

    def bench(template: dict, out: str, workload_id: str = w0.id, **flags) -> BenchmarkStep:
        return BenchmarkStep(template=template, workload_id=workload_id,
                             repetitions=ONLINE_REPETITIONS, out=out, **flags)

    # ---- chain layout -------------------------------------------------
    verify_ids = [f"verify_{sig(n)}" for n in top_names]
    resweep_ids = [f"resweep_{sig(n)}" for n in top_names]
    comp_ids = [f"joint_c{i + 1}" for i in range(len(multi))]
    candidate_id = "verify_candidate"
    if candidate_id in verify_ids:
        raise CompileError(f"parameter {top_names[verify_ids.index(candidate_id)]!r} names its "
                           f"skill {candidate_id}, which is the candidate check's id")
    chain = verify_ids + comp_ids + [candidate_id]
    next_of = {skill_id: chain[i + 1] if i + 1 < len(chain) else TARGET_END
               for i, skill_id in enumerate(chain)}

    # ---- orchestration root -------------------------------------------
    orch = _Proc()
    orch.branch_to_label("defined(tf_initialized)", "after_init")
    orch.add(ComputeStep(expr="0", out="pass_count"))
    for name in top_names:
        orch.add(ComputeStep(expr="0", out=f"verify_done_{sig(name)}"))
        best = profiles.profile(name).best_level.get(w0.id, grids[name][0])
        orch.add(ComputeStep(expr=str(_grid_index(grids, space, name, best)),
                             out=best_index_signal(name)))
    for out in [f"done_{cid}" for cid in comp_ids] + ["baseline_done", "crosscheck_done"]:
        orch.add(ComputeStep(expr="0", out=out))
    orch.add(ComputeStep(expr="1", out="tf_initialized"))
    labels = {"after_init": orch.here()}
    orch.add(ComputeStep(expr="pass_count + 1", out="pass_count"))
    orch.branch_to_label("baseline_done >= 1", "skip_baseline")
    orch.add(bench({}, "baseline_mean", adopt=True))
    orch.add(ComputeStep(expr="baseline_mean", out="incumbent_best"))
    orch.add(ComputeStep(expr="0", out="pass_gain"))
    orch.add(ComputeStep(expr="1", out="baseline_done"))
    labels["skip_baseline"] = orch.here()

    orchestration = Skill(
        id="orchestrate",
        kind=KIND_ORCHESTRATION,
        title="Tune the system by verified profile, joint search, and candidate check",
        # A selected set below the anomaly floor cannot be repaired online;
        # failing the precondition aborts immediately with a named diagnostic.
        preconditions=[f"top_k_count >= {MIN_TOP_K}"],
        procedure=orch.resolve(labels),
        next=chain[0],
        postconditions=[f"pass_count >= 1 and abs(pass_gain) <= {CONVERGENCE_RATIO}"],
        reference_data={
            "top_k_count": len(top_names),
            "tau_s": profiles.tau_s,
            "convergence_ratio": CONVERGENCE_RATIO,
        },
    )
    skills.append(orchestration)

    # ---- per-parameter verification + adaptation skills ----------------
    for name, verify_id, resweep_id in zip(top_names, verify_ids, resweep_ids):
        prof = profiles.profile(name)
        s = sig(name)
        grid = grids[name]
        directional = prof.shape in ("monotonic-up", "monotonic-down", "step-function")

        proc = _Proc()
        proc.branch_to_label(f"verify_done_{s} >= 1", "exit")
        proc.add(bench({name: grid[0]}, f"{s}_lo_metric"))
        proc.add(bench({name: grid[-1]}, f"{s}_hi_metric"))
        proc.add(ComputeStep(
            expr=f"(max({s}_lo_metric, {s}_hi_metric) - min({s}_lo_metric, {s}_hi_metric))"
                 f" / baseline_mean",
            out=f"{s}_cv_obs"))
        if directional:
            proc.add(ComputeStep(
                expr=f"{s}_cv_obs >= cv * (1 - cv_tolerance) and "
                     f"{s}_cv_obs <= cv * (1 + cv_tolerance)",
                out=f"{s}_cv_ok"))
        else:
            # Interior-optimum and flat curves cannot be sized from two
            # points; only safety is checkable here.
            proc.add(ComputeStep(
                expr=f"min({s}_lo_metric, {s}_hi_metric) >= baseline_mean * safety_floor",
                out=f"{s}_cv_ok"))
        rises = {"monotonic-up": True, "monotonic-down": False}.get(prof.shape)
        best = prof.best_level.get(w0.id)
        if not directional and len(grid) > 1 and best in (grid[0], grid[-1]):
            # The label comes from one noisy sweep; a documented best level at
            # an end of the safe range still implies which end is better.
            rises = (best == grid[-1]) == (direction == "maximize")
        if rises is None:
            shape_expr = "1"
        else:
            shape_expr = f"{s}_hi_metric {'>=' if rises else '<='} {s}_lo_metric"
        proc.add(ComputeStep(expr=shape_expr, out=f"{s}_shape_ok"))
        proc.add(ComputeStep(expr=f"{s}_cv_ok and {s}_shape_ok",
                             out=f"{s}_verify_ok"))
        proc.add(ComputeStep(expr="1", out=f"verify_done_{s}"))

        ref: dict[str, Any] = {
            "cv": prof.cv_per_workload.get(w0.id, prof.aggregate_cv),
            "aggregate_cv": prof.aggregate_cv,
            "cv_tolerance": CV_TOLERANCE,
            "safety_floor": CROSS_WORKLOAD_FLOOR,
            "rank": prof.rank,
            "shape": prof.shape,
            "safe_lo": prof.safe_range.lo,
            "safe_hi": prof.safe_range.hi,
        }
        for wid, cv in sorted(prof.cv_per_workload.items()):
            if f"cv_{sig(wid)}" in ref:
                raise CompileError(f"workload {wid!r} names its CV cv_{sig(wid)}, "
                                   f"which {verify_id} already holds")
            ref[f"cv_{sig(wid)}"] = cv
        verify = Skill(
            id=verify_id, kind=KIND_PER_PARAMETER,
            title=f"Verify documented sensitivity of {name}",
            preconditions=["baseline_done >= 1"],
            procedure=proc.resolve({"exit": proc.here()}),
            next=next_of[verify_id],
            postconditions=[f"{s}_verify_ok >= 1"],
            reference_data=ref,
            adaptation_target=resweep_id,
        )
        skills.append(verify)

        # Adaptation: sweep the documented grid afresh and adopt its argbest.
        metrics = ", ".join(f"{s}_rs_m{i}" for i in range(len(grid)))
        rs = [bench({name: level}, f"{s}_rs_m{i}", adopt=True) for i, level in enumerate(grid)]
        rs.append(ComputeStep(
            expr=f"(max({metrics}) - min({metrics})) / baseline_mean",
            out=f"{s}_cv_obs"))
        rs.append(ComputeStep(expr=f"{argbest}({metrics})",
                              out=best_index_signal(name)))
        rs.append(ComputeStep(expr="1", out=f"{s}_verify_ok"))
        resweep = Skill(
            id=resweep_id, kind=KIND_PER_PARAMETER,
            title=f"Re-sweep {name} after a failed verification",
            procedure=rs,
            next=next_of[verify_id],
            postconditions=[f"{s}_verify_ok >= 1"],
            reference_data={"rank": prof.rank},
        )
        skills.append(resweep)

    # ---- per-component joint skills ------------------------------------
    for cid, component in zip(comp_ids, multi):
        members = sorted(component)
        comp_edges = [e for e in graph.edges if e.a in component and e.b in component]
        opt = optima_by_key.get((tuple(members), w0.id))
        if opt is None:
            raise CompileError(f"no joint optimum recorded for component {members} on {w0.id}")

        ref = {
            "eta2_max": max(e.eta_squared for e in comp_edges),
            "joint_threshold": ETA2_MIN,
            "expected_improvement": opt.improvement_vs_default,
            "accept_fraction": ACCEPT_FRACTION,
        }
        pair_of: dict[str, tuple[str, str]] = {}
        for e in comp_edges:
            key = eta2_key(e.a, e.b)
            first = pair_of.setdefault(key, (e.a, e.b))
            if first != (e.a, e.b):
                raise CompileError(f"pair {(e.a, e.b)} names its eta^2 {key}, which {cid} "
                                   f"already holds for pair {first}")
            ref[key] = e.eta_squared

        proc = _Proc()
        proc.branch_to_label(f"done_{cid} >= 1", "exit")
        proc.branch_to_label("eta2_max <= joint_threshold", "mark_done")
        # Joint and candidate benchmarks pin every other selected parameter at
        # its current best level.
        doc_best_template = {m: opt.best_config.assignments[m] for m in members}
        proc.add(bench(doc_best_template, f"{cid}_doc_metric", adopt=True, pin_best=True))
        proc.add(ComputeStep(
            expr=_gain_expr(f"{cid}_doc_metric", "baseline_mean", direction),
            out=f"{cid}_doc_gain"))
        proc.branch_to_label(
            f"{cid}_doc_gain >= expected_improvement * accept_fraction", "accept_doc")

        # Full grid re-search, cells in lexicographic configuration order.
        combos = product(*(range(len(grids[m])) for m in members))
        cells = [(combo, {m: grids[m][i] for m, i in zip(members, combo)}) for combo in combos]
        cells.sort(key=lambda cell: json.dumps(cell[1], sort_keys=True))
        for j, (_, template) in enumerate(cells):
            proc.add(bench(template, f"{cid}_cell_{j}", adopt=True, pin_best=True))
        metrics = ", ".join(f"{cid}_cell_{j}" for j in range(len(cells)))
        proc.add(ComputeStep(expr=f"{argbest}({metrics})", out=f"{cid}_best_cell"))
        for k, m in enumerate(members):
            levels = ", ".join(str(combo[k]) for combo, _ in cells)
            proc.add(ComputeStep(expr=f"pick({cid}_best_cell, {levels})",
                                 out=best_index_signal(m)))
        proc.branch_to_label("1", "mark_done")

        labels2 = {"accept_doc": proc.here()}
        for m in members:
            idx = _grid_index(grids, space, m, opt.best_config.assignments[m])
            proc.add(ComputeStep(expr=str(idx), out=best_index_signal(m)))
        labels2["mark_done"] = proc.here()
        proc.add(ComputeStep(expr="1", out=f"done_{cid}"))
        labels2["exit"] = proc.here()

        comp_skill = Skill(
            id=cid, kind=KIND_PER_COMPONENT,
            title=f"Jointly optimize {{{', '.join(members)}}}",
            preconditions=[f"verify_done_{sig(m)} >= 1" for m in members],
            procedure=proc.resolve(labels2),
            next=next_of[cid],
            postconditions=[f"done_{cid} >= 1"],
            reference_data=ref,
        )
        skills.append(comp_skill)

    # ---- candidate assembly and cross-workload verification ------------
    cand = _Proc()
    cand.add(bench({}, "cand_metric", adopt=True, pin_best=True))
    better = "max" if direction == "maximize" else "min"
    cand.add(ComputeStep(expr=f"{better}(cand_metric, incumbent_best)",
                         out="tf_new_best"))
    cand.add(ComputeStep(
        expr=_gain_expr("tf_new_best", "incumbent_best", direction),
        out="pass_gain"))
    cand.add(ComputeStep(expr="tf_new_best", out="incumbent_best"))
    cand.branch_to_label("crosscheck_done >= 1", "skip_cross")
    cross_post = []
    for w in workloads[1:]:
        ws = sig(w.id)
        cand.add(bench({}, f"baseline_{ws}", w.id))
        cand.add(bench({}, f"cand_metric_{ws}", w.id, pin_best=True))
        cand.add(ComputeStep(expr=f"cand_metric_{ws} / baseline_{ws}",
                             out=f"cand_ratio_{ws}"))
        if w.direction == "maximize":
            cross_post.append(f"cand_ratio_{ws} >= cross_floor")
        else:
            cross_post.append(f"cand_ratio_{ws} <= 1 / cross_floor")
    cand.add(ComputeStep(expr="1", out="crosscheck_done"))

    candidate = Skill(
        id=candidate_id, kind=KIND_PER_COMPONENT,
        title="Assemble and verify the candidate configuration",
        preconditions=[f"verify_done_{sig(n)} >= 1" for n in top_names] or ["baseline_done >= 1"],
        procedure=cand.resolve({"skip_cross": cand.here()}),
        next=TARGET_END,
        postconditions=["crosscheck_done >= 1"] + cross_post,
        reference_data={"cross_floor": CROSS_WORKLOAD_FLOOR},
    )
    skills.append(candidate)

    provenance = {
        f"{skill.id}.{key}": {"campaign": campaign, "operation": OPERATIONS[
            key if key in OPERATIONS else key.partition("_")[0] + "_"]}
        for skill in skills for key in skill.reference_data}
    doc = ProceduralDocument(
        fingerprint={"space_hash": profiles.space_hash, "campaign_id": campaign},
        root="orchestrate",
        skills=skills,
        workloads=list(workloads),
        primary_workload=w0.id,
        grids=grids,
        safe_ranges=safe_ranges,
        provenance=provenance,
        policy=POLICY,
    )
    if doc.violations:
        raise CompileError("compiled document failed validation: " + "; ".join(doc.violations))
    return doc


def validate_document(doc: ProceduralDocument) -> list[str]:
    """Exhaustive validation of how a document's parts refer to each other;
    returns all violations, not the first.

    Loading checks every value against its declared type, and the document
    parses every safe range when it is built. Checks: unique ids,
    a unique orchestration skill that is the root, every `next` and
    adaptation target resolves, branch targets forward and in range, the
    primary and every benchmark workload declared, predicate symbols closed
    over reference data plus declared signals, a reference datum that an
    expression reads and no step declares is a number (a bool is not), the
    index signals a `pin_best` step reads declared, acyclicity, reachability
    from the root, and provenance completeness for reference data.
    """
    violations: list[str] = []
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
            if isinstance(step, BranchStep):
                if not i < step.target <= len(skill.procedure):
                    violations.append(
                        f"{skill.id}: branch at step {i} targets {step.target!r}, "
                        f"out of range [{i + 1}, {len(skill.procedure)}]")
                continue
            declared.add(step.out)
            if isinstance(step, BenchmarkStep) and step.workload_id not in workload_ids:
                violations.append(f"{skill.id}: benchmark at step {i} names unknown workload "
                                  f"{step.workload_id!r}")

    undeclared_pins = {p: best_index_signal(p) for p in doc.grids
                       if best_index_signal(p) not in declared}
    for skill in doc.skills:
        if skill.next != TARGET_END and skill.next not in by_id:
            violations.append(f"{skill.id}: unresolved skill id {skill.next!r}")
        if skill.adaptation_target is not None and skill.adaptation_target not in by_id:
            violations.append(
                f"{skill.id}: unresolved adaptation target {skill.adaptation_target!r}")
        for i, step in enumerate(skill.procedure):
            if isinstance(step, BenchmarkStep) and step.pin_best:
                violations.extend(f"{skill.id}: step {i} pins {param!r} by undeclared "
                                  f"signal {signal!r}" for param, signal in undeclared_pins.items()
                                  if param not in step.template)
        for text in skill.predicates():
            try:
                parsed = expr_mod.parse(text)
            except Exception as e:
                violations.append(f"{skill.id}: unparseable predicate {text!r}: {e}")
                continue
            for symbol in sorted(parsed.symbols() - declared):
                if symbol not in skill.reference_data:
                    violations.append(
                        f"{skill.id}: predicate {text!r} references unresolvable "
                        f"symbol {symbol!r}")
                elif type(skill.reference_data[symbol]) not in (int, float):
                    violations.append(
                        f"{skill.id}: predicate {text!r} reads reference datum {symbol!r}, "
                        f"which is not a number: {thaw(skill.reference_data[symbol])!r}")
        for key in skill.reference_data:
            if f"{skill.id}.{key}" not in doc.provenance:
                violations.append(f"{skill.id}: reference datum {key!r} has no provenance")

    # Acyclicity and reachability over the skill graph.
    adjacency: dict[str, list[str]] = {s.id: [] for s in doc.skills}
    for a, b in doc.edges():
        adjacency[a].append(b)
    try:
        TopologicalSorter(adjacency).prepare()
    except CycleError as e:  # e.args[1] lists the cycle against the edges' direction
        violations.append("skill graph contains a cycle: " + " -> ".join(reversed(e.args[1])))

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
class KnowledgeExport(JsonArtifact, name="knowledge export", error=DocumentError,
                      pinned={"schema_version": 1, "format_profile": EXPORT_FORMAT}):
    """Mode-2 knowledge-injection payload for external tuners."""

    top_k: list[dict]
    safe_ranges: dict[str, dict]
    interactions: list[dict]
    fingerprint: Fingerprint


def export_knowledge(doc: ProceduralDocument) -> KnowledgeExport:
    """Extract the advisory payload: top-k list, safe ranges, interactions.

    Values are copied bit-identically from the document's reference data;
    nothing is recomputed. A document that fails validation is refused.
    """
    doc.require_valid()
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
    safe_ranges = {entry["name"]: thaw(doc.safe_ranges[entry["name"]]) for entry in top_k}

    interactions = []
    components = {s.id: s for s in doc.skills if s.kind == KIND_PER_COMPONENT
                  and s.id.startswith("joint_")}
    for cid in sorted(components):
        skill = components[cid]
        members = _component_members(doc, skill)
        pair_of: dict[str, tuple[str, str]] = {}
        for pair in combinations(members, 2):
            pair_of.setdefault(eta2_key(*pair), pair)
        for key, value in sorted(skill.reference_data.items()):
            if key.startswith("eta2_") and key != "eta2_max":
                if key not in pair_of:
                    raise DocumentError(
                        f"cannot resolve edge key {key!r} against members {members}")
                interactions.append({
                    "pair": list(pair_of[key]),
                    "eta_squared": value,
                    "component": cid,
                })
    return KnowledgeExport(top_k=top_k, safe_ranges=safe_ranges,
                           interactions=interactions, fingerprint=thaw(doc.fingerprint))


def _param_of_verify_skill(doc: ProceduralDocument, skill: Skill) -> str:
    for step in skill.procedure:
        if isinstance(step, BenchmarkStep) and step.template:
            return next(iter(step.template))
    raise DocumentError(f"{skill.id}: cannot determine verified parameter")


def _component_members(doc: ProceduralDocument, skill: Skill) -> list[str]:
    members: set[str] = set()
    for step in skill.procedure:
        if isinstance(step, BenchmarkStep) and step.template:
            members.update(step.template)
    return sorted(members)


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
        lines.append(f"  then -> {skill.next}")
        if skill.adaptation_target:
            lines.append(f"  on violation -> {skill.adaptation_target}")
    return "\n".join(lines) + "\n"
