"""Stage-gated profiling campaigns over a single on-disk directory.

A campaign directory owns all state: the declaration files' hashes, stage
progress, measurement logs, analysis reports, the compiled document, and
tuning traces. Stages advance monotonically (sweep, screen, joint, compile)
and each stage resumes from whatever measurements already reached disk.
Budget accounting mirrors the three-stage cost staging: sensitivity scan,
correlation screen, joint optimization.
"""

from __future__ import annotations

import fcntl
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field

from .docgen import ProceduralDocument, compile_document
from .errors import AnalysisError, ParameterError
from .executor import TuningSession, run_session
from .harness import Adapter, MeasurementLog, PlanEntry, run_plan
from .interaction import (STAGE_B_REPS, VERDICT_INDEPENDENT, InteractionRecord,
                          InteractionReport, choose_pair_levels, finalize_records,
                          plan_pair_table, plan_pairs, screen_pair, stage_a_int_pct,
                          stage_a_verdict, table_from_log)
from .jsonfile import JsonArtifact
from .sensitivity import DEFAULT_TAU_S, SensitivityReport, analyze_sensitivity, plan_sweep
from .space import ParameterSpace, WorkloadSpec
from .topology import (CorrelationGraph, OptimaReport, build_graph, measure_baselines,
                       optimize_component, plan_joint_search, rejection_reason)

STAGES = ("planned", "sweep-done", "screen-done", "joint-done", "compiled")

SWEEP_LOG = "sweep_log.jsonl"
SCREEN_LOG = "screen_log.jsonl"
JOINT_LOG = "joint_log.jsonl"
SENSITIVITY_REPORT = "sensitivity_report.json"
INTERACTION_REPORT = "interaction_report.json"
OPTIMA_REPORT = "optima_report.json"
DOCUMENT_FILE = "document.json"
STATE_FILE = "state.json"
LOCK_FILE = ".lock"

REFERENCE_BUDGET_SHAPE = {"sensitivity": 57, "screen": 32, "joint": 11}


@dataclass
class CampaignState(JsonArtifact):
    stage: str
    seed: int
    space_hash: str
    campaign_id: str
    budgets: dict[str, int] = field(default_factory=dict)     # planned entries per stage
    runs_used: dict[str, int] = field(default_factory=dict)   # fresh runs executed per stage

    def stage_index(self) -> int:
        return STAGES.index(self.stage)

    def to_json(self) -> dict:
        return {"stage": self.stage, "seed": self.seed, "space_hash": self.space_hash,
                "campaign_id": self.campaign_id, "budgets": self.budgets,
                "runs_used": self.runs_used}

    @classmethod
    def from_json(cls, d: dict) -> "CampaignState":
        return cls(stage=d["stage"], seed=int(d["seed"]), space_hash=d["space_hash"],
                   campaign_id=d["campaign_id"], budgets=dict(d.get("budgets", {})),
                   runs_used=dict(d.get("runs_used", {})))


class Campaign:
    """Filesystem-backed campaign with monotone stage transitions."""

    def __init__(self, directory: str, space: ParameterSpace,
                 workloads: list[WorkloadSpec], seed: int):
        self.directory = directory
        self.space = space
        self.workloads = workloads
        self.seed = seed
        os.makedirs(directory, exist_ok=True)
        self.state = self._load_or_init_state()

    # -- state ----------------------------------------------------------

    def path(self, name: str) -> str:
        return os.path.join(self.directory, name)

    def _load_or_init_state(self) -> CampaignState:
        path = self.path(STATE_FILE)
        space_hash = self.space.space_hash()
        campaign_id = f"c{self.seed:016x}-{space_hash[:8]}"
        if os.path.exists(path):
            state = CampaignState.load(path)
            if state.space_hash != space_hash:
                raise ParameterError(
                    f"campaign directory was created for space {state.space_hash}, "
                    f"not {space_hash}")
            if state.seed != self.seed:
                raise ParameterError(
                    f"campaign directory was created with seed {state.seed}, not {self.seed}")
            return state
        state = CampaignState(stage="planned", seed=self.seed,
                              space_hash=space_hash, campaign_id=campaign_id)
        state.save(path)
        return state

    def _save_state(self) -> None:
        self.state.save(self.path(STATE_FILE))

    def require_stage(self, minimum: str, command: str) -> None:
        if self.state.stage_index() < STAGES.index(minimum):
            raise ParameterError(
                f"{command} requires stage {minimum!r} but campaign is at "
                f"{self.state.stage!r}; run the earlier stages first")

    def _advance(self, stage: str) -> None:
        if STAGES.index(stage) > self.state.stage_index():
            self.state.stage = stage
        self._save_state()

    @contextmanager
    def lock(self):
        """One process owns a campaign directory at a time.

        The owner holds an exclusive ``flock`` on the lock file, which the
        kernel releases however the owner ends, so a file left behind by a
        process that is gone is simply locked again. The file holds the
        owner's PID for diagnostics only.
        """
        path = self.path(LOCK_FILE)
        fd = os.open(path, os.O_CREAT | os.O_WRONLY)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            # The previous owner may have removed the file between our open
            # and our flock; a lock on a removed file guards nothing.
            if os.fstat(fd).st_ino != os.stat(path).st_ino:
                raise BlockingIOError
        except (BlockingIOError, FileNotFoundError):
            os.close(fd)
            raise ParameterError(
                f"campaign directory {self.directory} is locked by another process") from None
        try:
            os.ftruncate(fd, 0)
            os.write(fd, str(os.getpid()).encode())
            yield
        finally:
            with suppress(FileNotFoundError):
                os.remove(path)
            os.close(fd)

    def _load_log(self, name: str) -> MeasurementLog | None:
        path = self.path(name)
        if os.path.exists(path):
            return MeasurementLog.load(path)
        return None

    # -- stage 1: sensitivity sweep ---------------------------------------

    def profile(self, adapter: Adapter, levels_per_param: int = 5, repetitions: int = 3,
                tau_s: float = DEFAULT_TAU_S, parallelism: int = 1) -> SensitivityReport:
        plan = plan_sweep(self.space, self.workloads, levels_per_param, repetitions)
        existing = self._load_log(SWEEP_LOG)
        fresh = len(plan) if existing is None else sum(
            1 for c, w, rep in plan if not existing.has(c, w.id, rep))
        log = run_plan(adapter, plan, parallelism=parallelism, seed=self.seed,
                       existing=existing, log_meta={"stage": "sweep"},
                       journal=self.path(SWEEP_LOG))
        log.save(self.path(SWEEP_LOG))
        report = analyze_sensitivity(log, self.space, self.workloads, levels_per_param,
                                     tau_s=tau_s)
        report.save(self.path(SENSITIVITY_REPORT))
        self.state.budgets["sensitivity"] = len(plan)
        self.state.runs_used["sensitivity"] = \
            self.state.runs_used.get("sensitivity", 0) + fresh
        self._advance("sweep-done")
        return report

    # -- stage 2: interaction screen --------------------------------------

    def screen(self, adapter: Adapter, parallelism: int = 1) -> InteractionReport:
        self.require_stage("sweep-done", "screen")
        report = SensitivityReport.load(self.path(SENSITIVITY_REPORT))
        top_names = [p.parameter for p in report.top_k()]

        records: list[InteractionRecord] = []
        plan: list[PlanEntry] = []
        seen_keys: set[tuple[str, str, int]] = set()

        def extend(entries: list[PlanEntry]) -> None:
            for c, w, rep in entries:
                key = (c.config_hash(), w.id, rep)
                if key not in seen_keys:
                    seen_keys.add(key)
                    plan.append((c, w, rep))

        log = self._load_log(SCREEN_LOG)
        executed = 0

        def run() -> MeasurementLog:
            """Execute whatever part of the accumulated plan is still missing."""
            nonlocal log, executed
            prior = log
            executed += len(plan) if prior is None else sum(
                1 for c, w, rep in plan if not prior.has(c, w.id, rep))
            log = run_plan(adapter, plan, parallelism=parallelism, seed=self.seed,
                           existing=prior, log_meta={"stage": "screen"},
                           journal=self.path(SCREEN_LOG))
            return log

        if len(top_names) < 2:
            interaction = InteractionReport(campaign_id=report.campaign_id,
                                            space_hash=report.space_hash, records=[])
            interaction.save(self.path(INTERACTION_REPORT))
            self.state.budgets["screen"] = 0
            self.state.runs_used["screen"] = 0
            self._advance("screen-done")
            return interaction

        pairs = plan_pairs(top_names)
        levels: dict[tuple[str, str], object] = {}
        unsafe: dict[tuple[str, str], bool] = {}
        for pair in pairs:
            try:
                levels[pair] = choose_pair_levels(pair, report, self.space)
            except AnalysisError:
                unsafe[pair] = True

        # Stage A at safe-range extremes, one repetition.
        for pair in pairs:
            if pair in levels:
                extend(plan_pair_table(pair, levels[pair].stage_a[0],
                                       levels[pair].stage_a[1], self.workloads, 1))
        log = run()

        # Retry unbalanced pairs once on interior levels.
        retried: set[tuple[str, str]] = set()
        for pair in pairs:
            if pair not in levels:
                continue
            pl = levels[pair]
            if any(not table_from_log(log, pair, pl.stage_a[0], pl.stage_a[1], w.id)
                   .is_balanced(1) for w in self.workloads):
                try:
                    levels[pair] = choose_pair_levels(pair, report, self.space,
                                                      interior=True)
                    extend(plan_pair_table(pair, levels[pair].stage_a[0],
                                           levels[pair].stage_a[1], self.workloads, 1))
                    retried.add(pair)
                except AnalysisError:
                    unsafe[pair] = True
        if retried:
            log = run()

        # Stage A verdicts decide which (pair, workload) tables stage B needs:
        # exactly those screen_pair analyses.
        advancing = False
        for pair in pairs:
            if pair in unsafe or pair not in levels:
                continue
            pl = levels[pair]
            for w in self.workloads:
                table = table_from_log(log, pair, pl.stage_a[0], pl.stage_a[1], w.id)
                if table.is_balanced(1) and \
                        stage_a_verdict(stage_a_int_pct(table)) != VERDICT_INDEPENDENT:
                    advancing = True
                    extend(plan_pair_table(pair, pl.stage_b[0], pl.stage_b[1],
                                           [w], STAGE_B_REPS))
        if advancing:
            log = run()

        for pair in pairs:
            if pair in unsafe or pair not in levels:
                for w in self.workloads:
                    records.append(InteractionRecord(
                        pair=pair, workload_id=w.id, stage_a_int_pct=None,
                        stage_a_verdict=None, unsafe_to_screen=True))
                continue
            records.extend(screen_pair(log, pair, self.workloads, levels[pair]))
        finalize_records(records)

        log.save(self.path(SCREEN_LOG))
        interaction = InteractionReport(campaign_id=report.campaign_id,
                                        space_hash=report.space_hash, records=records)
        interaction.save(self.path(INTERACTION_REPORT))
        self.state.budgets["screen"] = len(plan)
        self.state.runs_used["screen"] = executed
        self._advance("screen-done")
        return interaction

    # -- stage 3: joint optimization --------------------------------------

    def joint(self, adapter: Adapter, repetitions: int = 3,
              parallelism: int = 1) -> OptimaReport:
        self.require_stage("screen-done", "joint")
        sens = SensitivityReport.load(self.path(SENSITIVITY_REPORT))
        inter = InteractionReport.load(self.path(INTERACTION_REPORT))
        top_names = [p.parameter for p in sens.top_k()]
        graph = build_graph(top_names, inter) if top_names else \
            CorrelationGraph(nodes=[], edges=[], components=[])

        screen_log = self._load_log(SCREEN_LOG)
        baselines, base_log = measure_baselines(adapter, self.workloads, repetitions,
                                                self.seed, parallelism)
        planned = len(base_log)
        executed = len(base_log)
        optima, rejected = [], []
        joint_records = list(base_log.records)
        joint_keys = {m.key() for m in joint_records}
        for component in graph.multi_components():
            reason = rejection_reason(component)
            if reason is not None:
                rejected.append({"component": component, "reason": reason})
                continue
            plan = plan_joint_search(component, sens, self.space, self.workloads,
                                     repetitions=repetitions)
            planned += plan.budget
            cached = screen_log
            fresh = plan.budget if cached is None else sum(
                1 for c, w, rep in plan.entries() if not cached.has(c, w.id, rep))
            executed += fresh
            comp_optima, comp_log = optimize_component(
                adapter, plan, self.seed, baselines, parallelism, cached=cached)
            optima.extend(comp_optima)
            for m in comp_log:
                if m.key() not in joint_keys:
                    joint_keys.add(m.key())
                    joint_records.append(m)

        joint_log = MeasurementLog(seed=self.seed, space_hash=self.state.space_hash,
                                   meta={"stage": "joint"})
        for m in joint_records:
            joint_log.append(m)
        joint_log.save(self.path(JOINT_LOG))

        result = OptimaReport(campaign_id=sens.campaign_id, space_hash=sens.space_hash,
                              graph=graph, optima=optima, baseline_means=baselines,
                              runs_used=executed, rejected=rejected)
        result.save(self.path(OPTIMA_REPORT))
        self.state.budgets["joint"] = planned
        self.state.runs_used["joint"] = executed
        self._advance("joint-done")
        return result

    # -- stage 4: document compilation ------------------------------------

    def compile(self) -> ProceduralDocument:
        self.require_stage("joint-done", "compile")
        sens = SensitivityReport.load(self.path(SENSITIVITY_REPORT))
        inter = InteractionReport.load(self.path(INTERACTION_REPORT))
        optima_report = OptimaReport.load(self.path(OPTIMA_REPORT))
        doc = compile_document(sens, inter, optima_report.graph, optima_report.optima,
                               self.space, self.workloads)
        doc.save(self.path(DOCUMENT_FILE))
        self._advance("compiled")
        return doc

    # -- stage 5: online tuning -------------------------------------------

    def tune(self, adapter: Adapter, budget: int, seed: int | None = None,
             trace_name: str = "trace.jsonl") -> TuningSession:
        self.require_stage("compiled", "tune")
        doc = ProceduralDocument.load(self.path(DOCUMENT_FILE))
        session = run_session(doc, adapter, budget, self.seed if seed is None else seed)
        session.save_trace(self.path(trace_name))
        if session.final_config is not None:
            with open(self.path("final_config.properties"), "w", encoding="utf-8") as fh:
                resolved = self.space.resolve(session.final_config)
                for name in sorted(session.final_config.assignments):
                    fh.write(f"{name}={resolved[name]}\n")
        return session

    # -- reporting ----------------------------------------------------------

    def budget_summary(self) -> list[str]:
        """Stage budget breakdown against the reference 57/32/11 shape."""
        used = {s: self.state.runs_used.get(s, 0) for s in ("sensitivity", "screen", "joint")}
        total = sum(used.values())
        lines = [f"stage budgets ({total} runs total):"]
        for stage_name, reference in REFERENCE_BUDGET_SHAPE.items():
            share = 100.0 * used[stage_name] / total if total else 0.0
            lines.append(f"  {stage_name:<12} {used[stage_name]:>8} runs "
                         f"({share:5.1f}%, reference {reference}%)")
        return lines
