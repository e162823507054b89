"""Two-stage pairwise interaction screening.

Stage A runs a 2x2 factorial at the safe-range extremes of each pair and
scores the interaction contrast against the grand mean (Int%). Pairs above
the advance threshold (and the undetermined band, to preserve recall) move to
Stage B: a 4x4 factorial with repetitions, a balanced two-way fixed-effects
ANOVA, an exact F-test on the interaction term, and Benjamini-Hochberg FDR
correction across all tested (pair, workload) combinations. Confirmed pairs
are those with eta^2 above threshold and corrected q below threshold.

This module owns every screening decision: ``stage_a_record`` judges a
stage-A table (unsafe when unbalanced, else an Int% and a verdict),
``InteractionRecord.advances`` is the one stage-B gate, ``attach_stage_b``
adds the ANOVA (or marks the record unsafe), and ``finalize_records``
confirms. The campaign only plans the runs and reads each table back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Any

from .errors import AnalysisError, ParameterError
from .harness import OUTCOME_OK, CampaignStore, PlanEntry
from .jsonfile import JsonArtifact, Record
from .sensitivity import SafeRange, SensitivityReport
from .space import Configuration, ParameterSpace, ParameterSpec, WorkloadSpec, snap_to_domain
from .stats import benjamini_hochberg, f_upper_tail_p

VERDICT_ADVANCE = "advance"
VERDICT_INDEPENDENT = "independent"
VERDICT_UNDETERMINED = "undetermined"

ADVANCE_PCT = 15.0      # stage-A Int% above which a pair advances
INDEPENDENT_PCT = 5.0   # stage-A Int% below which a pair is independent
ETA2_MIN = 0.15         # eta^2 a confirmed interaction must exceed
Q_MAX = 0.05            # BH q a confirmed interaction must stay below
STAGE_B_REPS = 3        # repetitions per stage-B cell
# Levels per parameter of every grid: the stage-B tables, the joint grid
# search and the document grids. One value, so the joint stage and the
# compiled document reuse the screen's cells.
GRID_LEVELS = 4


@dataclass
class FactorialTable:
    """Balanced a x b factorial of ok metric values for one workload."""

    pair: tuple[str, str]
    levels_a: list[Any]
    levels_b: list[Any]
    cells: list[list[list[float]]]  # [i][j] -> r ok values
    workload_id: str

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.levels_a), len(self.levels_b))

    def is_balanced(self, r: int) -> bool:
        return all(len(cell) == r for row in self.cells for cell in row)

    def cell_means(self) -> list[list[float]]:
        out = []
        for row in self.cells:
            means = []
            for cell in row:
                if not cell:
                    raise AnalysisError(f"{self.pair}: empty factorial cell (unbalanced table)")
                means.append(sum(cell) / len(cell))
            out.append(means)
        return out


@dataclass
class AnovaDecomposition(Record, name="ANOVA decomposition",
                         dump={"f_interaction": lambda f: "inf" if math.isinf(f) else f},
                         load={"f_interaction": lambda f: math.inf if f == "inf" else f}):
    """Balanced two-way fixed-effects sums-of-squares decomposition; an
    infinite F is written as "inf"."""

    ss_a: float
    ss_b: float
    ss_interaction: float
    ss_error: float
    ss_total: float
    df_a: int
    df_b: int
    df_interaction: int
    df_error: int
    f_interaction: float
    p_value: float


@dataclass
class InteractionRecord(Record, name="interaction record", optional=("decomposition",)):
    """Screening outcome for one (pair, workload); ``decomposition`` is left
    out when there is none."""

    pair: tuple[str, str]
    workload_id: str
    stage_a_int_pct: float | None = None
    stage_a_verdict: str | None = None
    eta_squared: float | None = None
    partial_eta_squared: float | None = None
    p_value: float | None = None
    q_value: float | None = None
    confirmed: bool = False
    unsafe_to_screen: bool = False
    decomposition: AnovaDecomposition | None = None

    def advances(self) -> bool:
        """Whether stage B tests this (pair, workload): a safe stage-A table
        whose verdict is not independent (undetermined advances, for recall)."""
        return not self.unsafe_to_screen and self.stage_a_verdict not in (
            None, VERDICT_INDEPENDENT)


@dataclass
class InteractionReport(JsonArtifact, name="interaction report", written=("thresholds",),
                        pinned={"schema_version": 1}):
    campaign_id: str
    space_hash: str
    records: list[InteractionRecord]

    def confirmed_pairs(self) -> dict[tuple[str, str], float]:
        """Pair -> max eta^2 over the workloads that confirmed it."""
        return {pair: rec.eta_squared for pair, rec in self.confirmed_records().items()}

    def confirmed_records(self) -> dict[tuple[str, str], InteractionRecord]:
        """Pair -> the confirming record with the largest eta^2."""
        out: dict[tuple[str, str], InteractionRecord] = {}
        for rec in self.records:
            if rec.confirmed and rec.eta_squared is not None:
                prev = out.get(rec.pair)
                if prev is None or rec.eta_squared > prev.eta_squared:
                    out[rec.pair] = rec
        return out

    def to_json(self) -> dict:
        """One key per field, and the screen's `thresholds`, which are not read."""
        return {**super().to_json(),
                "thresholds": {"advance_pct": ADVANCE_PCT, "independent_pct": INDEPENDENT_PCT,
                               "eta2_min": ETA2_MIN, "q_max": Q_MAX,
                               "stage_b_levels": GRID_LEVELS, "stage_b_reps": STAGE_B_REPS}}


def plan_pairs(top_k: list[str]) -> list[tuple[str, str]]:
    """All C(k, 2) unordered pairs in canonical (lexicographic) order."""
    if len(top_k) < 2:
        raise AnalysisError(f"need at least 2 parameters to screen pairs, got {len(top_k)}")
    if len(set(top_k)) != len(top_k):
        raise ParameterError("top_k parameter names must be unique")
    return sorted(tuple(sorted(pair)) for pair in combinations(top_k, 2))


def _span_points(spec: ParameterSpec, safe: SafeRange, fracs: list[float]) -> list[Any]:
    """Values at the given fractional positions of the safe span, deduplicated."""
    dom = spec.domain
    if dom.kind in ("enum", "boolean"):
        vals = safe.values if safe.values is not None else list(dom.ordered_values)
        n = len(vals)
        idxs: list[int] = []
        for f in fracs:
            i = round(f * (n - 1))
            if i not in idxs:
                idxs.append(i)
        return [vals[i] for i in sorted(idxs)]
    lo, hi = float(safe.lo), float(safe.hi)
    out: list[Any] = []
    for f in fracs:
        v = snap_to_domain(spec, lo + f * (hi - lo))
        if v not in out:
            out.append(v)
    return out


def stage_a_levels(spec: ParameterSpec, safe: SafeRange, interior: bool = False) -> list[Any]:
    """Two factor levels: the safe-range extremes (or interior fallback points)."""
    fracs = [0.25, 0.75] if interior else [0.0, 1.0]
    return _span_points(spec, safe, fracs)


def stage_b_levels(spec: ParameterSpec, safe: SafeRange, interior: bool = False,
                   factorial: bool = True) -> list[Any]:
    """`GRID_LEVELS` probe points spread across the safe range.

    With ``factorial=True`` (ANOVA tables), domains too coarse for
    `GRID_LEVELS` distinct values fall back to 2 (the extremes), keeping the
    factorial shape in {2, GRID_LEVELS}. Grid consumers (joint search,
    document grids) pass ``factorial=False`` and keep every distinct level,
    e.g. all 3 values of a ternary enum.
    """
    count = GRID_LEVELS
    if interior:
        fracs = [(2 * k + 1) / (2 * count) for k in range(count)]
    else:
        fracs = [k / (count - 1) for k in range(count)]
    levels = _span_points(spec, safe, fracs)
    if len(levels) >= count:
        return levels[:count]
    if factorial and len(levels) > 2:
        return [levels[0], levels[-1]]
    return levels


@dataclass(frozen=True)
class PairGrid:
    """One pair's factorial grid at one stage: ``configs[i][j]`` assigns
    ``levels_a[i]`` to the pair's first member and ``levels_b[j]`` to its
    second. The grid's plan and the tables read back from the store share
    these objects, so each configuration is built, and its canonical text
    written, once."""

    pair: tuple[str, str]
    levels_a: list[Any]
    levels_b: list[Any]
    configs: tuple[tuple[Configuration, ...], ...] = field(init=False, repr=False,
                                                           compare=False)

    def __post_init__(self):
        a, b = self.pair
        object.__setattr__(self, "configs", tuple(
            tuple(Configuration({a: va, b: vb}) for vb in self.levels_b)
            for va in self.levels_a))


def plan_pair_table(grid: PairGrid, workloads: list[WorkloadSpec],
                    repetitions: int) -> list[PlanEntry]:
    """Full-factorial plan entries for one pair's grid."""
    return [(config, w, rep) for row in grid.configs for config in row
            for w in workloads for rep in range(repetitions)]


def table_from_log(store: CampaignStore, grid: PairGrid, workload_id: str,
                   repetitions: int = 1) -> FactorialTable:
    """Assemble the factorial table for one (pair, workload) from the
    campaign store.

    Each cell reads its planned repetitions ``0 .. repetitions - 1`` by their
    exact keys, built from the grid's own configurations, and keeps the ok
    values, sorted. A store holding both the 1-rep stage-A corners and the
    3-rep stage-B grid thus yields a clean table for either stage, and no
    read depends on how many repetitions the store holds elsewhere.
    """
    get, reps = store.get, range(repetitions)
    cells = []
    for row in grid.configs:
        row_cells = []
        for config in row:
            text = config.canonical()
            values = []
            for rep in reps:
                m = get((text, workload_id, rep))
                if m is not None and m.outcome == OUTCOME_OK:
                    values.append(m.metric_value)
            values.sort()
            row_cells.append(values)
        cells.append(row_cells)
    return FactorialTable(pair=grid.pair, levels_a=grid.levels_a, levels_b=grid.levels_b,
                          cells=cells, workload_id=workload_id)


def stage_a_int_pct(table: FactorialTable) -> float:
    """Approximate interaction percentage from a 2x2 table.

    100 * |y(+,+) - y(+,-) - y(-,+) + y(-,-)| / (|sum of the four means| / 4).
    Exactly additive cell means give 0.
    """
    if table.shape != (2, 2):
        raise AnalysisError(f"{table.pair}: stage A requires a 2x2 table, got {table.shape}")
    means = table.cell_means()
    y_ll, y_lh = means[0][0], means[0][1]
    y_hl, y_hh = means[1][0], means[1][1]
    numerator = abs(y_hh - y_hl - y_lh + y_ll)
    denominator = abs(y_hh + y_hl + y_lh + y_ll) / 4.0
    if denominator == 0:
        raise AnalysisError(f"{table.pair}: zero grand mean in stage A table")
    return 100.0 * numerator / denominator


def stage_a_verdict(int_pct: float) -> str:
    if int_pct > ADVANCE_PCT:
        return VERDICT_ADVANCE
    if int_pct < INDEPENDENT_PCT:
        return VERDICT_INDEPENDENT
    return VERDICT_UNDETERMINED


def two_way_anova(table: FactorialTable, repetitions: int) -> AnovaDecomposition:
    """Balanced two-way fixed-effects decomposition with the exact F-test.

    SS_A = b*r * sum_i (m_i. - m)^2        SS_B = a*r * sum_j (m_.j - m)^2
    SS_AB = r * sum_ij (m_ij - m_i. - m_.j + m)^2
    SS_E = sum_ijk (y_ijk - m_ij)^2        F = (SS_AB/df_AB) / (SS_E/df_E)

    Deterministic data degenerates cleanly: SS_E = 0 with SS_AB = 0 gives
    p = 1; SS_E = 0 with SS_AB > 0 gives p = 0.
    """
    a, b = table.shape
    if a < 2 or b < 2:
        raise AnalysisError(f"{table.pair}: factorial needs at least 2 levels per factor")
    if not table.is_balanced(repetitions):
        raise AnalysisError(f"{table.pair}: unbalanced table on workload {table.workload_id}")
    cells = table.cells
    n = a * b * repetitions
    grand = sum(v for row in cells for cell in row for v in cell) / n
    m_ij = [[sum(cell) / repetitions for cell in row] for row in cells]
    m_i = [sum(row) / b for row in m_ij]
    m_j = [sum(m_ij[i][j] for i in range(a)) / a for j in range(b)]

    ss_a = b * repetitions * sum((mi - grand) ** 2 for mi in m_i)
    ss_b = a * repetitions * sum((mj - grand) ** 2 for mj in m_j)
    ss_ab = repetitions * sum(
        (m_ij[i][j] - m_i[i] - m_j[j] + grand) ** 2 for i in range(a) for j in range(b))
    ss_e = sum((v - m_ij[i][j]) ** 2
               for i in range(a) for j in range(b) for v in cells[i][j])
    ss_total = sum((v - grand) ** 2 for row in cells for cell in row for v in cell)

    df_a, df_b = a - 1, b - 1
    df_ab = df_a * df_b
    df_e = a * b * (repetitions - 1)

    if ss_e == 0.0:
        if ss_ab == 0.0:
            f_stat, p = 0.0, 1.0
        else:
            f_stat, p = math.inf, 0.0
    else:
        if df_e == 0:
            raise AnalysisError(f"{table.pair}: no error degrees of freedom (r=1)")
        f_stat = (ss_ab / df_ab) / (ss_e / df_e)
        p = f_upper_tail_p(f_stat, df_ab, df_e)

    return AnovaDecomposition(ss_a=ss_a, ss_b=ss_b, ss_interaction=ss_ab,
                              ss_error=ss_e, ss_total=ss_total,
                              df_a=df_a, df_b=df_b, df_interaction=df_ab, df_error=df_e,
                              f_interaction=f_stat, p_value=p)


def eta_squared(decomp: AnovaDecomposition) -> float:
    """Interaction effect size: SS_interaction / SS_total."""
    if decomp.ss_total == 0.0:
        return 0.0
    return decomp.ss_interaction / decomp.ss_total


def partial_eta_squared(decomp: AnovaDecomposition) -> float:
    """The partial variant SS_AB / (SS_AB + SS_E), surfaced alongside eta^2."""
    denom = decomp.ss_interaction + decomp.ss_error
    if denom == 0.0:
        return 0.0
    return decomp.ss_interaction / denom


def stage_a_record(table: FactorialTable) -> InteractionRecord:
    """Judge one (pair, workload) stage-A table.

    An unbalanced table (a corner with no ok run) is unsafe to screen and
    carries no verdict; otherwise the record carries the Int% and verdict.
    """
    if not table.is_balanced(1):
        return InteractionRecord(pair=table.pair, workload_id=table.workload_id,
                                 unsafe_to_screen=True)
    int_pct = stage_a_int_pct(table)
    return InteractionRecord(pair=table.pair, workload_id=table.workload_id,
                             stage_a_int_pct=int_pct, stage_a_verdict=stage_a_verdict(int_pct))


def attach_stage_b(rec: InteractionRecord, table: FactorialTable) -> None:
    """Add the stage-B ANOVA of an advancing record, or mark the record
    unsafe when its table is unbalanced. Confirmation is decided later, after
    BH correction across the whole campaign."""
    if not table.is_balanced(STAGE_B_REPS):
        rec.unsafe_to_screen = True
        return
    decomp = two_way_anova(table, STAGE_B_REPS)
    rec.eta_squared = eta_squared(decomp)
    rec.partial_eta_squared = partial_eta_squared(decomp)
    rec.p_value = decomp.p_value
    rec.decomposition = decomp


def finalize_records(records: list[InteractionRecord]) -> list[InteractionRecord]:
    """Apply BH-FDR across every tested (pair, workload) and set confirmations.
    Only a confirmed record keeps its ANOVA decomposition."""
    tested = [r for r in records if r.p_value is not None]
    qs = benjamini_hochberg([r.p_value for r in tested])
    for rec, q in zip(tested, qs):
        rec.q_value = q
        rec.confirmed = (rec.eta_squared is not None
                         and rec.eta_squared > ETA2_MIN
                         and q < Q_MAX)
        if not rec.confirmed:
            rec.decomposition = None
    return records


@dataclass
class PairLevels:
    """Factor levels chosen for one pair: ([levels of a], [levels of b]) per stage."""

    stage_a: tuple[list[Any], list[Any]]
    stage_b: tuple[list[Any], list[Any]]


def choose_pair_levels(pairs: list[tuple[str, str]], report: SensitivityReport,
                       space: ParameterSpace, interior: bool = False
                       ) -> dict[tuple[str, str], PairLevels | None]:
    """Factor levels for both stages of each pair, from its members'
    sensitivity safe ranges, each member's computed once. A pair with a
    member whose safe range is too narrow to screen (it collapses to one
    level) maps to None: it is unsafe to screen."""
    members: dict[str, tuple[list[Any], list[Any]] | None] = {}
    for name in sorted({name for pair in pairs for name in pair}):
        spec, safe = space.get(name), report.profile(name).safe_range
        a_levels = stage_a_levels(spec, safe, interior=interior)
        b_levels = stage_b_levels(spec, safe, interior=interior)
        members[name] = (a_levels, b_levels) if min(len(a_levels), len(b_levels)) >= 2 else None
    out: dict[tuple[str, str], PairLevels | None] = {}
    for a, b in pairs:
        la, lb = members[a], members[b]
        out[(a, b)] = (PairLevels(stage_a=(la[0], lb[0]), stage_b=(la[1], lb[1]))
                       if la and lb else None)
    return out
