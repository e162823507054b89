"""Correlation graph construction and component-wise joint optimization.

Confirmed interactions become edges of a weighted undirected graph over the
top-k parameters; its connected components are the groups that must be tuned
jointly. Each multi-parameter component gets a full-factorial grid search
over its members' safe-range grid levels, with everything else pinned at
defaults. Each grid point is looked up as its effective configuration and as
its screened pair's stage-B cell, so a campaign store answers the points the
sweep and the screen already ran; the optima name the full grid points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Any, TypedDict

from .errors import AnalysisError, ParameterError
from .harness import OUTCOME_OK, Adapter, CampaignStore, Measurement, PlanEntry, run_plan
from .interaction import GRID_LEVELS, InteractionReport
from .jsonfile import JsonArtifact, Record, finite_floats
from .sensitivity import SensitivityReport
from .space import Configuration, ParameterSpace, WorkloadSpec, span_levels

COMPONENT_CAP = 5


@dataclass(frozen=True)
class GraphEdge(Record, name="graph edge"):
    """One confirmed interaction: endpoints, effect size, and test statistics."""

    a: str
    b: str
    eta_squared: float
    p_value: float | None = None
    q_value: float | None = None


@dataclass
class CorrelationGraph(Record, name="correlation graph"):
    """Weighted interaction graph plus its connected-component partition."""

    nodes: list[str]
    edges: list[GraphEdge]
    components: list[list[str]]

    def multi_components(self) -> list[list[str]]:
        return [c for c in self.components if len(c) > 1]

    def isolates(self) -> list[str]:
        return [c[0] for c in self.components if len(c) == 1]


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
    component = {node: [node] for node in nodes}  # node -> the members of its component
    for e in edges:
        merged, absorbed = component[e.a], component[e.b]
        if merged is not absorbed:
            merged += absorbed
            for node in absorbed:
                component[node] = merged
    components = sorted({id(c): sorted(c) for c in component.values()}.values())
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

    def entries(self, space: ParameterSpace, store: CampaignStore | None) -> list[PlanEntry]:
        """Every (grid point, workload, repetition), in grid order, in the first
        form ``store`` holds, else the first: the point's effective configuration,
        then its restriction to each pair of the component, in sorted order, that
        names every member off its default: the screen's stage-B cell."""
        plan: list[PlanEntry] = []
        for config in self.grid_configs():
            run = space.effective(config)
            forms = [run] + [Configuration({n: config.assignments[n] for n in pair})
                             for pair in combinations(sorted(self.grid), 2)
                             if run.assignments.keys() <= set(pair)]
            plan += [(next((f for f in forms if store and store.has(f, w.id, rep)), run), w, rep)
                     for w in self.workloads for rep in range(self.repetitions)]
        return plan


@dataclass
class JointOptimum(Record, name="joint optimum",
                   dump={"best_config": lambda config: config.assignments},
                   load={"best_config": lambda d: Configuration(d) if type(d) is dict else d}):
    """Best grid point of one component under one workload; `best_config` is
    written as its assignments."""

    component: list[str]
    workload_id: str
    best_config: Configuration
    best_metric: float
    improvement_vs_default: float


# A component the joint stage rejected rather than searched, and why.
Rejection = TypedDict("Rejection", {"component": list[str], "reason": str})


@dataclass
class OptimaReport(JsonArtifact, name="optima report", optional=("rejected",),
                   pinned={"schema_version": 1}, load={"baseline_means": finite_floats}):
    """Stage-3 output: the correlation graph, each searched component's optima
    and the components rejected; ``rejected`` is left out when empty."""

    campaign_id: str
    space_hash: str
    graph: CorrelationGraph
    optima: list[JointOptimum]
    baseline_means: dict[str, float]
    runs_used: int = 0
    rejected: list[Rejection] = field(default_factory=list)


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
    """Grid plan over a component: each member's `GRID_LEVELS` safe-range levels.

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
        grid[name] = span_levels(space.get(name), profile.safe_range, GRID_LEVELS)
    return JointSearchPlan(component=sorted(component), grid=grid,
                           repetitions=repetitions, workloads=list(workloads))


def _grid_means(records: list[Measurement], workload_id: str,
                points: list[str] | None = None) -> dict[str, float]:
    """Canonical configuration (``points[i]``, if given, for ``records[i]``) ->
    mean ok metric of ``workload_id``'s records. Callers pass their own plan's
    records: a campaign store can hold more repetitions than the plan asked for."""
    values: dict[str, list[float]] = {}
    for m, text in zip(records, points or [m.config.canonical() for m in records]):
        if m.workload_id == workload_id and m.outcome == OUTCOME_OK:
            values.setdefault(text, []).append(m.metric_value)
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
    if repetitions < 1:
        raise ParameterError("repetitions must be >= 1")
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

    With a ``store``, each grid point is looked up as its effective
    configuration, the members not at their default, and then as its screened
    pair's stage-B cell (``JointSearchPlan.entries``), so the baseline, sweep
    runs and stage-B cells it holds answer the plan unmeasured; a point held
    in neither form runs as its effective configuration. Records map to grid
    points by plan position: one point's repetitions may differ in form.
    """
    records = run_plan(adapter, plan.entries(adapter.space, store), parallelism=parallelism,
                       seed=seed, store=store)
    configs = plan.grid_configs()
    points = [c.canonical() for c in configs for _ in range(len(records) // len(configs))]
    optima = []
    for w in plan.workloads:
        best_config, best_metric = _pick_best(configs, _grid_means(records, w.id, points), w)
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
        per_param_levels[name] = span_levels(space.get(name), profile.safe_range, GRID_LEVELS)
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
