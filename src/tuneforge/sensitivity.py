"""Single-parameter sweep planning and sensitivity analysis.

For each parameter the campaign varies it alone across a level grid (all
others at defaults) and scores it by the coefficient of variation

    CV = (max level mean - min level mean) / default-config mean

per workload, aggregated as the max over workloads. Parameters whose
aggregate CV exceeds the selection threshold form the top-k set that the
interaction stage screens.

``sweep_levels`` is the one definition of the sweep's table: the plan runs
its grid, and the analysis reads each planned cell of that grid back by its
exact key, so no level is ever inferred from a recorded configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Iterable, Mapping, Sequence

from .errors import AnalysisError, ParameterError
from .harness import OUTCOME_CRASH, OUTCOME_OK, OUTCOME_TIMEOUT, Measurement, PlanEntry
from .jsonfile import JsonArtifact, Record, finite_floats
from .space import (Configuration, ParameterSpace, ParameterSpec, WorkloadSpec, closest_index,
                    level_grid)

DEFAULT_TAU_S = 0.05      # aggregate-CV selection threshold
FLAT_TOL = 0.02           # below this range/baseline ratio a curve is flat
STEP_FRAC = 0.6           # single-gap share of total range that marks a step

# The ">50% performance loss" severity rule: an ok sweep run that lost more
# than half of its workload's all-defaults performance is degraded. It is
# excluded from the sweep like a failed run, and a level whose mean is
# degraded falls outside the safe range.
DEGRADATION_FRACTION = 0.5
OUTCOME_DEGRADED = "degraded"

SHAPE_LABELS = ("monotonic-up", "monotonic-down", "non-monotonic", "step-function", "flat")


@dataclass
class SweepResult:
    """One (parameter, workload) sweep: its grid levels and, per level, the ok
    metric values and the excluded runs' counts by outcome.

    Each level's mean (None when it has no ok value) and the usable levels
    (those with one) are computed once, when the sweep is built; the CV, the
    shape, the best level and the safe range all read them.
    """

    parameter: str
    workload_id: str
    levels: list[Any]
    values: list[list[float]]          # ok metric values per level
    excluded: list[dict[str, int]]     # per-level crash/timeout/degraded counts
    direction: str = "maximize"        # the workload's metric direction
    means: list[float | None] = field(init=False, repr=False)
    usable: list[int] = field(init=False, repr=False)

    def __post_init__(self):
        self.means = [sum(v) / len(v) if v else None for v in self.values]
        self.usable = [i for i, v in enumerate(self.values) if v]


@dataclass(frozen=True)
class SafeRange(Record, name="safe range"):
    """Contiguous safe span; numeric domains use (lo, hi), enums a value list
    (a tuple in a document, which cannot be widened in place)."""

    lo: Any
    hi: Any
    values: Sequence[Any] | None = None

    def to_json(self) -> dict:
        if self.values is not None:
            return {"values": self.values}
        return {"lo": self.lo, "hi": self.hi}

    @classmethod
    def from_json(cls, d: Mapping) -> "SafeRange":
        """A non-empty value set (kept as given, so a document's tuple stays
        read-only), or real bounds; any other shape raises AnalysisError."""
        keys = d.keys() if isinstance(d, (dict, MappingProxyType)) else None
        if keys == {"values"} and type(d["values"]) in (list, tuple) and d["values"]:
            vals = d["values"]
            return cls(lo=vals[0], hi=vals[-1], values=vals)
        if keys == {"lo", "hi"} and type(d["lo"]) in (int, float) and type(d["hi"]) in (int, float):
            return cls(lo=d["lo"], hi=d["hi"])
        raise AnalysisError(f"safe range is malformed: {d!r}")


@dataclass
class SensitivityProfile(Record, name="sensitivity profile"):
    parameter: str
    cv_per_workload: dict[str, float]
    aggregate_cv: float
    shape: str
    safe_range: SafeRange
    rank: int = 0
    selected: bool = False
    best_level: dict[str, Any] = field(default_factory=dict)  # per-workload argbest level
    warnings: list[str] = field(default_factory=list)


@dataclass
class SensitivityReport(JsonArtifact, name="sensitivity report", optional=("excluded",),
                        pinned={"schema_version": 1}, load={"baseline_means": finite_floats}):
    """Stage-1 output: one record per swept parameter, plus campaign identity;
    ``excluded`` is left out when empty."""

    campaign_id: str
    space_hash: str
    tau_s: float
    baseline_means: dict[str, float]
    profiles: list[SensitivityProfile]
    excluded_runs: int = 0
    excluded: dict[str, str] = field(default_factory=dict)  # parameter -> why it has no profile

    def profile(self, name: str) -> SensitivityProfile:
        for p in self.profiles:
            if p.parameter == name:
                return p
        raise ParameterError(f"no profile for parameter {name!r}")

    def top_k(self) -> list[SensitivityProfile]:
        return [p for p in self.profiles if p.selected]


def degraded(value: float, baseline: float, direction: str) -> bool:
    """Whether ``value`` lost more than half of ``baseline``'s performance:
    below half of it when maximizing, above twice it when minimizing. A
    non-positive baseline degrades nothing."""
    if baseline <= 0:
        return False
    if direction == "minimize":
        return value > baseline / DEGRADATION_FRACTION
    return value < DEGRADATION_FRACTION * baseline


def sweep_levels(spec: ParameterSpec, levels_per_param: int) -> tuple[list[Any], int | None]:
    """A parameter's sweep grid and the index of its default on it.

    Enum and boolean grids are capped at the domain's cardinality, and no
    grid has fewer than 2 levels. The default's level is the one equal to it,
    and on an enum or boolean grid also of its type, as ``Domain.contains``
    matches values (``0`` is not ``False``); the index is None when the
    default is not a grid level. Planning and analysis both take a
    parameter's levels, and its default level, from here alone.
    """
    count, default = levels_per_param, spec.default
    typed = spec.domain.kind in ("enum", "boolean")
    if typed:
        count = min(count, len(spec.domain.ordered_values))
    grid = level_grid(spec, max(2, count))
    return grid, next((i for i, v in enumerate(grid)
                       if v == default and (not typed or type(v) is type(default))), None)


def plan_sweep(space: ParameterSpace, workloads: list[WorkloadSpec],
               levels_per_param: int, repetitions: int) -> list[PlanEntry]:
    """One-at-a-time sweep plan: every entry varies exactly one parameter.

    The plan opens with one all-defaults baseline per workload and repetition
    (the CV denominator). That baseline also measures each parameter's
    default level, so a grid level equal to the default is not planned again:
    the size is sum_i (L_i - 1) * r * W + r * W when every default is on its
    grid. An off-grid default adds no level.
    """
    if not 3 <= levels_per_param <= 9:
        raise ParameterError(f"levels_per_param must be in [3, 9], got {levels_per_param}")
    if repetitions < 1:
        raise ParameterError("repetitions must be >= 1")
    if not len(space) or not workloads:
        raise ParameterError("need a non-empty space and at least one workload")
    plan: list[PlanEntry] = []
    default = space.defaults()
    for w in workloads:
        for rep in range(repetitions):
            plan.append((default, w, rep))
    for spec in space:
        grid, default_idx = sweep_levels(spec, levels_per_param)
        for i, value in enumerate(grid):
            if i == default_idx:
                continue
            config = Configuration({spec.name: value})
            for w in workloads:
                for rep in range(repetitions):
                    plan.append((config, w, rep))
    return plan


def build_sweep_results(records: Iterable[Measurement], space: ParameterSpace,
                        workloads: list[WorkloadSpec], levels_per_param: int,
                        repetitions: int) -> tuple[dict, dict[str, float], int]:
    """The sweep plan's table: a SweepResult per (parameter, workload), the
    per-workload baseline means, and the number of failed baseline runs.

    Each parameter's levels are its ``sweep_levels`` grid, and each planned
    cell is read by its exact (canonical configuration, workload, repetition)
    key, repetitions ``0 .. repetitions - 1``, the first record of a key
    winning. So the table is the plan's, however many other records
    ``records`` holds, and analysis replayed from a persisted journal equals
    analysis of the live run. The default level of each swept pair is the
    workload's all-defaults cell, and holds its ok runs only: the baseline's
    crash and timeout runs count against no parameter, as they never did
    against the CV denominator, since one transient failure of the
    configuration every sweep shares must not make every parameter unsafe at
    its default. A workload whose baseline has no ok run has no baseline
    mean, which analysis refuses. An ok run that is ``degraded`` against its
    workload's baseline mean counts as excluded under ``OUTCOME_DEGRADED``.
    """
    runs: dict[tuple[str, str, int], Measurement] = {}
    for m in records:
        runs.setdefault(m.key(), m)
    get, reps = runs.get, range(repetitions)

    def cell(text: str, w: WorkloadSpec, base: float | None
             ) -> tuple[list[float], dict[str, int]]:
        """A planned cell's ok values and excluded counts by outcome; with no
        ``base`` no run is degraded."""
        ok: list[float] = []
        counts: dict[str, int] = {}
        for rep in reps:
            m = get((text, w.id, rep))
            if m is None:
                continue
            tag = m.outcome
            if tag == OUTCOME_OK:
                if base is None or not degraded(m.metric_value, base, w.direction):
                    ok.append(m.metric_value)
                    continue
                tag = OUTCOME_DEGRADED
            counts[tag] = counts.get(tag, 0) + 1
        return ok, counts

    default_text = Configuration({}).canonical()
    baselines = {w.id: cell(default_text, w, None) for w in workloads}
    baseline_means = {wid: sum(ok) / len(ok) for wid, (ok, _) in baselines.items() if ok}
    failed_baselines = sum(n for _, counts in baselines.values() for n in counts.values())

    sweeps: dict[tuple[str, str], SweepResult] = {}
    for spec in space:
        grid, default_idx = sweep_levels(spec, levels_per_param)
        texts = [None if i == default_idx else Configuration({spec.name: value}).canonical()
                 for i, value in enumerate(grid)]
        for w in workloads:
            base = baseline_means.get(w.id)
            cells = [(baselines[w.id][0], {}) if text is None else cell(text, w, base)
                     for text in texts]
            sweeps[(spec.name, w.id)] = SweepResult(
                parameter=spec.name, workload_id=w.id, levels=grid,
                values=[ok for ok, _ in cells], excluded=[counts for _, counts in cells],
                direction=w.direction)
    return sweeps, baseline_means, failed_baselines


def compute_cv(sweep: SweepResult, baseline_mean: float) -> float:
    """Coefficient of variation: (max level mean - min level mean) / baseline."""
    if baseline_mean <= 0:
        raise AnalysisError(f"{sweep.parameter}: baseline mean must be positive, got {baseline_mean}")
    means = [sweep.means[i] for i in sweep.usable]
    if len(means) < 2:
        raise AnalysisError(
            f"{sweep.parameter}: fewer than 2 usable levels on workload {sweep.workload_id}")
    return (max(means) - min(means)) / baseline_mean


def _pooled_noise_tol(sweep: SweepResult, baseline_mean: float) -> float:
    """Reversal tolerance: one pooled standard error of the level means.

    With single-repetition sweeps (no within-level variance available) the
    tolerance falls back to FLAT_TOL * baseline.
    """
    ss, dof, ns = 0.0, 0, []
    for i in sweep.usable:
        v, mean = sweep.values[i], sweep.means[i]
        ns.append(len(v))
        if len(v) >= 2:
            ss += sum((x - mean) ** 2 for x in v)
            dof += len(v) - 1
    if dof == 0:
        return FLAT_TOL * baseline_mean
    pooled_sd = math.sqrt(ss / dof)
    mean_n = sum(ns) / len(ns)
    return pooled_sd / math.sqrt(mean_n)


def classify_shape(sweep: SweepResult, baseline_mean: float) -> str:
    """Label the response curve.

    Precedence: flat, then step-function, then monotonic (within one pooled
    standard error), else non-monotonic. A monotone curve dominated by one
    jump is deliberately a step-function, not monotonic. Fewer than 3 usable
    levels cannot be classified and fall back to flat (callers flag this).
    """
    means = [sweep.means[i] for i in sweep.usable]
    if len(means) < 3:
        return "flat"
    rng = max(means) - min(means)
    if baseline_mean <= 0:
        raise AnalysisError(f"{sweep.parameter}: baseline mean must be positive")
    if rng / baseline_mean <= FLAT_TOL:
        return "flat"
    gaps = [abs(means[i + 1] - means[i]) for i in range(len(means) - 1)]
    big = [g for g in gaps if g >= STEP_FRAC * rng]
    if len(big) == 1:
        return "step-function"
    tol = _pooled_noise_tol(sweep, baseline_mean)
    diffs = [means[i + 1] - means[i] for i in range(len(means) - 1)]
    if means[-1] >= means[0] and all(d >= -tol for d in diffs):
        return "monotonic-up"
    if means[-1] <= means[0] and all(d <= tol for d in diffs):
        return "monotonic-down"
    return "non-monotonic"


def extract_safe_range(sweep: SweepResult, baseline_mean: float,
                       space: ParameterSpace) -> SafeRange:
    """Largest contiguous passing span of levels around the default level.

    A level passes when it recorded zero crash/timeout repetitions, has at
    least one ok repetition, and its ok mean is not ``degraded`` in the
    sweep's direction. Fully-degraded levels fail and therefore bound the
    range.
    """
    if not sweep.levels:
        raise AnalysisError(f"{sweep.parameter}: empty sweep")
    if baseline_mean <= 0:
        raise AnalysisError(f"{sweep.parameter}: baseline mean must be positive")

    def passes(i: int) -> bool:
        counts = sweep.excluded[i]
        if counts.get(OUTCOME_CRASH, 0) or counts.get(OUTCOME_TIMEOUT, 0):
            return False
        mean = sweep.means[i]
        return mean is not None and not degraded(mean, baseline_mean, sweep.direction)

    spec = space.get(sweep.parameter)
    anchor = closest_index(spec, sweep.levels, spec.default)
    if not passes(anchor):
        raise AnalysisError(
            f"{sweep.parameter}: unsafe at default level {sweep.levels[anchor]!r} "
            f"on workload {sweep.workload_id}")
    lo = anchor
    while lo > 0 and passes(lo - 1):
        lo -= 1
    hi = anchor
    while hi < len(sweep.levels) - 1 and passes(hi + 1):
        hi += 1
    if spec.domain.kind in ("enum", "boolean"):
        return SafeRange(lo=sweep.levels[lo], hi=sweep.levels[hi],
                         values=sweep.levels[lo:hi + 1])
    return SafeRange(lo=sweep.levels[lo], hi=sweep.levels[hi])


def _intersect_ranges(a: SafeRange, b: SafeRange, space: ParameterSpace, param: str) -> SafeRange:
    """Intersection of two safe ranges for the same parameter, never empty: both
    hold the default's level of its one ``sweep_levels`` grid (``extract_safe_range``)."""
    if a.values is not None and b.values is not None:
        common = [v for v in a.values if v in b.values]
        return SafeRange(lo=common[0], hi=common[-1], values=common)
    lo = max(float(a.lo), float(b.lo))
    hi = min(float(a.hi), float(b.hi))
    if space.get(param).domain.kind == "integer":
        return SafeRange(lo=int(lo), hi=int(hi))
    return SafeRange(lo=lo, hi=hi)


def check_tau_s(tau_s: float) -> None:
    """Refuse a selection threshold that is negative, NaN or infinite."""
    if not 0 <= tau_s < math.inf:
        raise ParameterError(f"tau_s must be finite and >= 0, got {tau_s}")


def select_top_k(profiles: list[SensitivityProfile], tau_s: float) -> list[SensitivityProfile]:
    """Profiles with aggregate CV above the threshold, ranked descending.

    Ties break lexicographically by parameter name. An empty result is legal
    and surfaces as an anomaly downstream rather than an error here.
    """
    check_tau_s(tau_s)
    chosen = [p for p in profiles if p.aggregate_cv > tau_s]
    return sorted(chosen, key=lambda p: (-p.aggregate_cv, p.parameter))


def _profile_parameter(param: str, sweeps: dict, baseline_means: dict[str, float],
                       space: ParameterSpace,
                       workloads: list[WorkloadSpec]) -> SensitivityProfile:
    """One parameter's profile across workloads.

    Raises AnalysisError when the parameter cannot be profiled, e.g. when it
    is unsafe at its default level.
    """
    cvs: dict[str, float] = {}
    warnings: list[str] = []
    best_level: dict[str, Any] = {}
    safe: SafeRange | None = None
    agg_wid = None
    for w in workloads:
        sweep = sweeps[(param, w.id)]
        base = baseline_means[w.id]
        cvs[w.id] = compute_cv(sweep, base)
        if len(sweep.usable) < 3:
            warnings.append(f"{w.id}: only {len(sweep.usable)} usable levels")
        best_i = (max if w.direction == "maximize" else min)(sweep.usable,
                                                             key=sweep.means.__getitem__)
        best_level[w.id] = sweep.levels[best_i]
        rng = extract_safe_range(sweep, base, space)
        safe = rng if safe is None else _intersect_ranges(safe, rng, space, param)
        if agg_wid is None or cvs[w.id] > cvs[agg_wid]:
            agg_wid = w.id
    return SensitivityProfile(
        parameter=param,
        cv_per_workload=cvs,
        aggregate_cv=max(cvs.values()),
        shape=classify_shape(sweeps[(param, agg_wid)], baseline_means[agg_wid]),
        safe_range=safe,
        best_level=best_level,
        warnings=warnings,
    )


def analyze_sensitivity(records: Iterable[Measurement], space: ParameterSpace,
                        workloads: list[WorkloadSpec], levels_per_param: int,
                        repetitions: int, tau_s: float = DEFAULT_TAU_S,
                        campaign_id: str = "") -> SensitivityReport:
    """Full stage-1 analysis of a sweep plan's records into a SensitivityReport.

    ``levels_per_param`` and ``repetitions`` are those the sweep was planned
    with: they name the cells its table reads (``build_sweep_results``). The
    report carries ``campaign_id`` and the space's hash.

    Per-parameter CVs are computed per workload and aggregated by max; the
    shape label and per-workload best levels come from the sweeps; safe
    ranges are intersected across workloads so every downstream probe is safe
    everywhere. ``excluded_runs`` counts the runs left out of the analysis:
    failed baseline runs, and every crashed, timed-out or degraded sweep run.
    """
    sweeps, baseline_means, excluded_runs = build_sweep_results(
        records, space, workloads, levels_per_param, repetitions)
    for w in workloads:
        if w.id not in baseline_means:
            raise AnalysisError(f"no usable baseline measurements for workload {w.id!r}")

    profiles: list[SensitivityProfile] = []
    excluded: dict[str, str] = {}
    excluded_runs += sum(n for sweep in sweeps.values() for counts in sweep.excluded
                         for n in counts.values())
    for spec in space:
        try:
            profiles.append(_profile_parameter(spec.name, sweeps, baseline_means, space,
                                               workloads))
        except AnalysisError as e:
            excluded[spec.name] = str(e)  # one bad parameter must not sink the stage

    profiles.sort(key=lambda p: (-p.aggregate_cv, p.parameter))
    selected = {p.parameter for p in select_top_k(profiles, tau_s)}
    for rank, p in enumerate(profiles, start=1):
        p.rank = rank
        p.selected = p.parameter in selected

    return SensitivityReport(
        campaign_id=campaign_id,
        space_hash=space.space_hash(),
        tau_s=tau_s,
        baseline_means=baseline_means,
        profiles=profiles,
        excluded_runs=excluded_runs,
        excluded=excluded,
    )
