"""Correlation graph construction and component-wise joint optimization.

Confirmed interactions become edges of a weighted undirected graph over the
top-k parameters; its connected components are the groups that must be tuned
jointly. Each multi-parameter component gets a full-factorial grid search
over its members' stage-B levels, with everything else pinned at defaults.
Each grid point is measured as its effective configuration
(``ParameterSpace.effective``), so a campaign store answers the points the
sweep and the screen already ran; the optima name the full grid points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Any

from .errors import AnalysisError, ParameterError
from .harness import OUTCOME_OK, Adapter, CampaignStore, Measurement, PlanEntry, run_plan
from .interaction import InteractionReport, stage_b_levels
from .jsonfile import JsonArtifact, dump_fields, load_fields, string, strings
from .sensitivity import SensitivityReport
from .space import Configuration, ParameterSpace, WorkloadSpec

COMPONENT_CAP = 5


class UnionFind:
    """Disjoint sets over hashable items with path compression."""

    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra

    def groups(self) -> list[list]:
        by_root: dict[Any, list] = {}
        for x in self.parent:
            by_root.setdefault(self.find(x), []).append(x)
        return [sorted(g) for g in by_root.values()]


@dataclass(frozen=True)
class GraphEdge:
    """One confirmed interaction: endpoints, effect size, and test statistics."""

    a: str
    b: str
    eta_squared: float
    p_value: float | None = None
    q_value: float | None = None

    def to_json(self) -> dict:
        return dump_fields(self)

    @classmethod
    def from_json(cls, d: dict) -> "GraphEdge":
        return load_fields(cls, d, "graph edge", a=string, b=string)


@dataclass
class CorrelationGraph:
    """Weighted interaction graph plus its connected-component partition."""

    nodes: list[str]
    edges: list[GraphEdge]
    components: list[list[str]]

    def multi_components(self) -> list[list[str]]:
        return [c for c in self.components if len(c) > 1]

    def isolates(self) -> list[str]:
        return [c[0] for c in self.components if len(c) == 1]

    def to_json(self) -> dict:
        return dump_fields(self)

    @classmethod
    def from_json(cls, d: dict) -> "CorrelationGraph":
        return load_fields(cls, d, "correlation graph", nodes=strings,
                           edges=lambda items: [GraphEdge.from_json(e) for e in items],
                           components=lambda items: [strings(c) for c in items])


def build_graph(top_k: list[str], report: InteractionReport) -> CorrelationGraph:
    """Graph over the top-k nodes with one edge per confirmed pair.

    Each edge carries the largest eta^2 among the workloads that confirmed
    the pair, with that record's p and q. Components are ordered by their
    smallest member name, members sorted, so the decomposition is
    deterministic.
    """
    nodes = sorted(top_k)
    node_set = set(nodes)
    edges = []
    for (a, b), rec in sorted(report.confirmed_records().items()):
        if a not in node_set or b not in node_set:
            raise AnalysisError(f"confirmed pair ({a}, {b}) outside the top-k node set")
        edges.append(GraphEdge(a=a, b=b, eta_squared=rec.eta_squared,
                               p_value=rec.p_value, q_value=rec.q_value))
    uf = UnionFind(nodes)
    for e in edges:
        uf.union(e.a, e.b)
    components = sorted(uf.groups(), key=lambda c: c[0])
    return CorrelationGraph(nodes=nodes, edges=edges, components=components)


@dataclass
class JointSearchPlan:
    """Full-factorial grid over one component's members."""

    component: list[str]
    grid: dict[str, list[Any]]
    repetitions: int
    workloads: list[WorkloadSpec]

    @property
    def budget(self) -> int:
        cells = 1
        for levels in self.grid.values():
            cells *= len(levels)
        return cells * self.repetitions * len(self.workloads)

    def grid_configs(self) -> list[Configuration]:
        """Grid points in lexicographic parameter/value order."""
        names = sorted(self.grid)
        configs = []
        for combo in product(*(self.grid[n] for n in names)):
            configs.append(Configuration(dict(zip(names, combo))))
        return configs

    def entries(self, space: ParameterSpace) -> list[PlanEntry]:
        """Every (grid point, workload, repetition), in grid order, each grid
        point as its effective configuration (``ParameterSpace.effective``)."""
        return [(space.effective(config), w, rep) for config in self.grid_configs()
                for w in self.workloads for rep in range(self.repetitions)]


@dataclass
class JointOptimum:
    """Best grid point of one component under one workload."""

    component: list[str]
    workload_id: str
    best_config: Configuration
    best_metric: float
    improvement_vs_default: float

    def to_json(self) -> dict:
        return dump_fields(self, best_config=lambda config: config.assignments)

    @classmethod
    def from_json(cls, d: dict) -> "JointOptimum":
        return load_fields(cls, d, "joint optimum", component=strings,
                           best_config=Configuration)


@dataclass
class OptimaReport(JsonArtifact):
    campaign_id: str
    space_hash: str
    graph: CorrelationGraph
    optima: list[JointOptimum]
    baseline_means: dict[str, float]
    runs_used: int = 0
    # {"component", "reason"} of each component rejected rather than searched
    rejected: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return dump_fields(self, optional=("rejected",), pinned={"schema_version": 1})

    @classmethod
    def from_json(cls, d: dict) -> "OptimaReport":
        """The report ``to_json`` wrote, or AnalysisError; ``rejected`` may be
        absent, as it is when empty."""
        return load_fields(cls, d, "optima report", optional=("rejected",),
                           pinned={"schema_version": 1}, graph=CorrelationGraph.from_json,
                           optima=lambda items: [JointOptimum.from_json(o) for o in items],
                           rejected=lambda items: [_rejection(r) for r in items])


def _rejection(value: Any) -> dict:
    """One ``rejected`` entry: a component's members and the reason."""
    if type(value) is not dict or value.keys() != {"component", "reason"}:
        raise ValueError(f"{value!r} is not a {{'component', 'reason'}} object")
    strings(value["component"])
    string(value["reason"])
    return value


def rejection_reason(component: list[str]) -> str | None:
    """Why a component is rejected rather than searched, or None.

    A component above COMPONENT_CAP signals a profiling anomaly (the grid
    budget grows as GRID_LEVELS^size).
    """
    if len(component) > COMPONENT_CAP:
        return (f"component {component} exceeds the size cap {COMPONENT_CAP}; "
                "decompose it manually before joint search")
    return None


def plan_joint_search(component: list[str], report: SensitivityReport,
                      space: ParameterSpace, workloads: list[WorkloadSpec],
                      repetitions: int = 3) -> JointSearchPlan:
    """Grid plan over a component, reusing the stage-B level choice.

    A component with a `rejection_reason` raises AnalysisError.
    """
    if len(component) < 2:
        raise ParameterError("joint search needs a component of at least 2 parameters")
    reason = rejection_reason(component)
    if reason is not None:
        raise AnalysisError(reason)
    grid = {}
    for name in component:
        profile = report.profile(name)
        grid[name] = stage_b_levels(space.get(name), profile.safe_range, factorial=False)
    return JointSearchPlan(component=sorted(component), grid=grid,
                           repetitions=repetitions, workloads=list(workloads))


def _grid_means(records: list[Measurement], workload_id: str) -> dict[str, float]:
    """Canonical configuration -> mean ok metric of ``workload_id``'s records,
    for every configuration with an ok record. Callers pass their own plan's
    records: a campaign store can hold more repetitions than the plan asked for."""
    values: dict[str, list[float]] = {}
    for m in records:
        if m.workload_id == workload_id and m.outcome == OUTCOME_OK:
            values.setdefault(m.config.canonical(), []).append(m.metric_value)
    return {text: sum(v) / len(v) for text, v in values.items()}


def _pick_best(configs: list[Configuration], means: dict[str, float],
               workload: WorkloadSpec) -> tuple[Configuration, float]:
    """Direction-aware argbest; ties go to the lexicographically smallest config."""
    best: tuple[Configuration, float] | None = None
    for c in sorted(configs, key=lambda c: c.canonical()):
        mean = means.get(c.canonical())
        if mean is None:
            continue
        if best is None or workload.better(mean, best[1]):
            best = (c, mean)
    if best is None:
        raise AnalysisError(f"every grid point failed on workload {workload.id}")
    return best


def measure_baselines(adapter: Adapter, workloads: list[WorkloadSpec],
                      repetitions: int, seed: int, parallelism: int = 1,
                      store: CampaignStore | None = None
                      ) -> tuple[dict[str, float], list[Measurement]]:
    """Mean all-defaults metric per workload, and the plan's records.

    With a ``store``, the all-defaults runs it already holds (a campaign's
    sweep measured them under the same keys) answer the plan unmeasured.
    """
    defaults = adapter.space.defaults()
    plan: list[PlanEntry] = [(defaults, w, rep) for w in workloads for rep in range(repetitions)]
    records = run_plan(adapter, plan, parallelism=parallelism, seed=seed, store=store)
    means = {}
    for w in workloads:
        means[w.id] = _grid_means(records, w.id).get(defaults.canonical())
        if means[w.id] is None:
            raise AnalysisError(f"baseline measurement failed on workload {w.id}")
    return means, records


def optimize_component(adapter: Adapter, plan: JointSearchPlan, seed: int,
                       baseline_means: dict[str, float], parallelism: int = 1,
                       store: CampaignStore | None = None
                       ) -> tuple[list[JointOptimum], list[Measurement]]:
    """Run the grid and return the per-workload optima and the plan's records.

    Each grid point runs as its effective configuration, the members not at
    their default, since that is the configuration the system sees. With a
    ``store``, the runs it already holds answer the plan unmeasured: the
    all-defaults baseline, one-parameter sweep runs, and the stage-B cells
    of the component's pairs. The records are the plan's, under their
    effective configurations; each optimum names the full grid point.
    """
    space = adapter.space
    records = run_plan(adapter, plan.entries(space), parallelism=parallelism, seed=seed,
                       store=store)
    configs = plan.grid_configs()
    runs = [space.effective(c).canonical() for c in configs]
    optima = []
    for w in plan.workloads:
        measured = _grid_means(records, w.id)
        means = {c.canonical(): measured[run] for c, run in zip(configs, runs)
                 if run in measured}
        best_config, best_metric = _pick_best(configs, means, w)
        base = baseline_means[w.id]
        optima.append(JointOptimum(
            component=plan.component, workload_id=w.id,
            best_config=best_config, best_metric=best_metric,
            improvement_vs_default=(best_metric - base) / base,
        ))
    return optima, records


def independent_baseline(adapter: Adapter, component: list[str],
                         report: SensitivityReport, space: ParameterSpace,
                         workload: WorkloadSpec, repetitions: int, seed: int,
                         parallelism: int = 1
                         ) -> tuple[Configuration, float, list[Measurement]]:
    """Tune each member in isolation, then measure the combined configuration.

    This is the independence assumption made concrete: per-parameter 1-D
    sweeps at defaults-elsewhere, argbest each, and one measurement of the
    combination. With real interactions present the combination can be
    strictly worse than the joint-grid optimum.
    """
    if not component:
        raise ParameterError("component must be non-empty")
    plan: list[PlanEntry] = []
    per_param_levels: dict[str, list[Any]] = {}
    for name in sorted(component):
        profile = report.profile(name)
        per_param_levels[name] = stage_b_levels(space.get(name), profile.safe_range,
                                                factorial=False)
        for v in per_param_levels[name]:
            for rep in range(repetitions):
                plan.append((Configuration({name: v}), workload, rep))
    records = run_plan(adapter, plan, parallelism=parallelism, seed=seed)

    means = _grid_means(records, workload.id)
    combined: dict[str, Any] = {}
    for name, lvls in per_param_levels.items():
        best_config, _ = _pick_best([Configuration({name: v}) for v in lvls], means, workload)
        combined[name] = best_config.assignments[name]

    combo = Configuration(combined)
    # A one-parameter component's combination is one of its sweep
    # configurations, already measured.
    if len(combined) > 1:
        records += run_plan(adapter, [(combo, workload, rep) for rep in range(repetitions)],
                            parallelism=parallelism, seed=seed)
    metric = _grid_means(records, workload.id).get(combo.canonical())
    if metric is None:
        raise AnalysisError(f"independent combination failed on workload {workload.id}")
    return combo, metric, records
