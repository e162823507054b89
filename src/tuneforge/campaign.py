"""Stage-gated profiling campaigns over a single on-disk directory.

A campaign directory owns all state: the parameter declaration's hash and
the declared workloads, which a campaign built on the directory must match,
stage progress, measurement journals, analysis reports, the compiled
document, and tuning traces. Stages advance monotonically (sweep, screen,
joint, compile).
Each measuring stage appends its fresh runs to its own journal, and one
``CampaignStore`` per ``Campaign`` object reads every journal at most once and
answers each stage's plans from all of them: a stage resumes from whatever
measurements already reached disk, and the joint stage takes the sweep's
all-defaults runs as its baseline. Budget accounting mirrors the three-stage
cost staging: sensitivity scan, correlation screen, joint optimization.

Every report a stage reads, and the document that tuning and export read,
goes through one reader that refuses an artifact another campaign or space
wrote. Each stage reads only what it uses: screen the sensitivity report,
joint the sensitivity and interaction reports, compile the sensitivity and
optima reports, and tune the document. A ``Campaign`` object holds every
report it wrote or read and hands it on to the next stage in memory, so it
reads a report from disk at most once, on a resume, and never one it wrote.
"""

from __future__ import annotations

import fcntl
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field

from .docgen import ProceduralDocument, compile_document
from .errors import AnalysisError, ParameterError
from .executor import TuningSession, run_session
from .harness import Adapter, CampaignStore, PlanEntry, campaign_id_for, run_plan
from .interaction import (STAGE_B_REPS, InteractionRecord, InteractionReport, PairGrid,
                          attach_stage_b, choose_pair_levels, finalize_records,
                          plan_pair_table, plan_pairs, stage_a_record, table_from_log)
from .jsonfile import JsonArtifact, write_text
from .sensitivity import (DEFAULT_TAU_S, SensitivityReport, analyze_sensitivity, check_tau_s,
                          plan_sweep)
from .space import ParameterSpace, WorkloadSpec
from .topology import (OptimaReport, build_graph, measure_baselines, optimize_component,
                       plan_joint_search, rejection_reason)

STAGES = ("planned", "sweep-done", "screen-done", "joint-done", "compiled")

SWEEP_LOG = "sweep_log.jsonl"
SCREEN_LOG = "screen_log.jsonl"
JOINT_LOG = "joint_log.jsonl"
SENSITIVITY_REPORT = "sensitivity_report.json"
INTERACTION_REPORT = "interaction_report.json"
OPTIMA_REPORT = "optima_report.json"
DOCUMENT_FILE = "document.json"
TRACE_FILE = "trace.jsonl"
STATE_FILE = "state.json"
LOCK_FILE = ".lock"

REFERENCE_BUDGET_SHAPE = {"sensitivity": 57, "screen": 32, "joint": 11}


@dataclass
class CampaignState(JsonArtifact, name="campaign state", defaulted=("workloads",)):
    """A campaign's identity and progress. ``workloads`` is the declaration
    the campaign was created with, in order (the first is the document's
    primary); a state written before it was recorded loads without it."""

    stage: str
    seed: int
    space_hash: str
    campaign_id: str
    budgets: dict[str, int] = field(default_factory=dict)     # planned entries per stage
    # runs each stage's journal holds, so a killed invocation's runs count too
    runs_used: dict[str, int] = field(default_factory=dict)
    workloads: list[WorkloadSpec] | None = None

    def stage_index(self) -> int:
        return STAGES.index(self.stage)


def workload_drift(recorded: list[WorkloadSpec], declared: list[WorkloadSpec]) -> list[str]:
    """Each change from the ``recorded`` workload declaration to ``declared``:
    a workload removed or added, a changed metric name or direction, and a
    changed order of the workloads both hold."""
    old, new = {w.id: w for w in recorded}, {w.id: w for w in declared}
    drift = [f"workload {wid!r} removed" for wid in old if wid not in new]
    drift += [f"workload {wid!r} added" for wid in new if wid not in old]
    for wid, was in old.items():
        now = new.get(wid)
        if now is not None and now.metric_name != was.metric_name:
            drift.append(f"workload {wid!r} metric {was.metric_name!r} -> {now.metric_name!r}")
        if now is not None and now.direction != was.direction:
            drift.append(f"workload {wid!r} direction {was.direction} -> {now.direction}")
    kept = [wid for wid in old if wid in new], [wid for wid in new if wid in old]
    if kept[0] != kept[1]:
        drift.append(f"workload order {kept[0]} -> {kept[1]}")
    return drift


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
        # file name -> the report or document this object last wrote or read
        self._held: dict[str, JsonArtifact] = {}
        self.store = CampaignStore(seed, self.state.space_hash, {
            "sweep": self.path(SWEEP_LOG), "screen": self.path(SCREEN_LOG),
            "joint": self.path(JOINT_LOG)})

    # -- state ----------------------------------------------------------

    def path(self, name: str) -> str:
        return os.path.join(self.directory, name)

    def _load_or_init_state(self) -> CampaignState:
        path = self.path(STATE_FILE)
        space_hash = self.space.space_hash()
        if os.path.exists(path):
            state = CampaignState.load(path)
            if state.space_hash != space_hash:
                raise ParameterError(
                    f"campaign directory was created for space {state.space_hash}, "
                    f"not {space_hash}")
            if state.seed != self.seed:
                raise ParameterError(
                    f"campaign directory was created with seed {state.seed}, not {self.seed}")
            if state.workloads is None:
                state.workloads = list(self.workloads)
                state.save(path)
            drift = workload_drift(state.workloads, self.workloads)
            if drift:
                raise ParameterError("campaign directory was created for other workloads: "
                                     + "; ".join(drift))
            return state
        state = CampaignState(stage="planned", seed=self.seed,
                              space_hash=space_hash,
                              campaign_id=campaign_id_for(self.seed, space_hash),
                              workloads=list(self.workloads))
        state.save(path)
        return state

    def _report(self, cls, name: str):
        """The artifact ``name`` as this object last wrote or read it, read
        from disk only the first time; AnalysisError when another campaign or
        space wrote it. The document names its owner in its fingerprint."""
        if name in self._held:
            return self._held[name]
        report, state = cls.load(self.path(name)), self.state
        owner = report.fingerprint if cls is ProceduralDocument else vars(report)
        if (owner.get("campaign_id"), owner.get("space_hash")) != (state.campaign_id,
                                                                   state.space_hash):
            raise AnalysisError(f"{self.path(name)} belongs to campaign {owner.get('campaign_id')}")
        self._held[name] = report
        return report

    def _save(self, name: str, report: JsonArtifact) -> None:
        """Write ``report`` to ``name`` and hold it for the stages after this one."""
        report.save(self.path(name))
        self._held[name] = report

    def document(self) -> ProceduralDocument:
        """The compiled document, refused when another campaign compiled it."""
        return self._report(ProceduralDocument, DOCUMENT_FILE)

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

    # -- stage 1: sensitivity sweep ---------------------------------------

    def profile(self, adapter: Adapter, levels_per_param: int = 5, repetitions: int = 3,
                tau_s: float = DEFAULT_TAU_S, parallelism: int = 1) -> SensitivityReport:
        check_tau_s(tau_s)  # before any run, not after the sweep
        plan = plan_sweep(self.space, self.workloads, levels_per_param, repetitions)
        self.store.begin("sweep")
        records = run_plan(adapter, plan, parallelism=parallelism, seed=self.seed,
                           store=self.store)
        report = analyze_sensitivity(records, self.space, self.workloads, levels_per_param,
                                     repetitions, tau_s=tau_s,
                                     campaign_id=self.state.campaign_id)
        self._save(SENSITIVITY_REPORT, report)
        self.state.budgets["sensitivity"] = len(plan)
        self.state.runs_used["sensitivity"] = self.store.journaled("sweep")
        self._advance("sweep-done")
        return report

    # -- stage 2: interaction screen --------------------------------------

    def screen(self, adapter: Adapter, parallelism: int = 1) -> InteractionReport:
        """One linear pass: stage A for every pair, one retry on interior levels
        for pairs unbalanced at the extremes, stage B for exactly the advancing
        records. Each pair's grid of configurations is built once per stage,
        and every table is read back from the campaign store through the
        configurations its plan ran."""
        self.require_stage("sweep-done", "screen")
        report = self._report(SensitivityReport, SENSITIVITY_REPORT)
        top_names = [p.parameter for p in report.top_k()]
        self.store.begin("screen")
        planned: set[tuple[str, str, int]] = set()

        def run(plan: list[PlanEntry]) -> None:
            planned.update(m.key() for m in run_plan(adapter, plan, parallelism=parallelism,
                                                     seed=self.seed, store=self.store))

        def stage_a(pairs: list[tuple[str, str]]) -> dict[tuple[str, str], list]:
            """Run the pairs' stage-A corners as one plan and judge every table;
            a pair without levels is unsafe on every workload."""
            grids = {pair: PairGrid(pair, *levels[pair].stage_a) for pair in pairs if levels[pair]}
            run([e for grid in grids.values() for e in plan_pair_table(grid, self.workloads, 1)])
            return {pair: [stage_a_record(table_from_log(self.store, grids[pair], w.id))
                           if pair in grids else
                           InteractionRecord(pair=pair, workload_id=w.id, unsafe_to_screen=True)
                           for w in self.workloads] for pair in pairs}

        pairs = plan_pairs(top_names) if len(top_names) > 1 else []
        levels = choose_pair_levels(pairs, report, self.space)
        records = stage_a(pairs)
        retry = [pair for pair in pairs if levels[pair]
                 and any(rec.unsafe_to_screen for rec in records[pair])]
        levels.update(choose_pair_levels(retry, report, self.space, interior=True))
        records.update(stage_a(retry))

        advancing = [(rec, w) for pair in pairs
                     for rec, w in zip(records[pair], self.workloads) if rec.advances()]
        grids_b = {pair: PairGrid(pair, *levels[pair].stage_b)
                   for pair in {rec.pair for rec, _ in advancing}}
        run([e for rec, w in advancing
             for e in plan_pair_table(grids_b[rec.pair], [w], STAGE_B_REPS)])
        for rec, w in advancing:
            attach_stage_b(rec, table_from_log(self.store, grids_b[rec.pair], w.id,
                                               repetitions=STAGE_B_REPS))
        interaction = InteractionReport(
            campaign_id=report.campaign_id, space_hash=report.space_hash,
            records=finalize_records([rec for pair in pairs for rec in records[pair]]))
        self._save(INTERACTION_REPORT, interaction)
        self.state.budgets["screen"] = len(planned)
        self.state.runs_used["screen"] = self.store.journaled("screen")
        self._advance("screen-done")
        return interaction

    # -- stage 3: joint optimization --------------------------------------

    def joint(self, adapter: Adapter, repetitions: int = 3,
              parallelism: int = 1) -> OptimaReport:
        self.require_stage("screen-done", "joint")
        sens = self._report(SensitivityReport, SENSITIVITY_REPORT)
        inter = self._report(InteractionReport, INTERACTION_REPORT)
        top_names = [p.parameter for p in sens.top_k()]
        graph = build_graph(top_names, inter)

        self.store.begin("joint")
        baselines, base_records = measure_baselines(adapter, self.workloads, repetitions,
                                                    self.seed, parallelism, store=self.store)
        planned = len(base_records)
        optima, rejected = [], []
        for component in graph.multi_components():
            reason = rejection_reason(component)
            if reason is not None:
                rejected.append({"component": component, "reason": reason})
                continue
            plan = plan_joint_search(component, sens, self.space, self.workloads,
                                     repetitions=repetitions)
            planned += plan.budget
            comp_optima, _ = optimize_component(adapter, plan, self.seed, baselines,
                                                parallelism, store=self.store)
            optima.extend(comp_optima)

        runs_used = self.store.journaled("joint")
        result = OptimaReport(campaign_id=sens.campaign_id, space_hash=sens.space_hash,
                              graph=graph, optima=optima, baseline_means=baselines,
                              runs_used=runs_used, rejected=rejected)
        self._save(OPTIMA_REPORT, result)
        self.state.budgets["joint"] = planned
        self.state.runs_used["joint"] = runs_used
        self._advance("joint-done")
        return result

    # -- stage 4: document compilation ------------------------------------

    def compile(self) -> ProceduralDocument:
        self.require_stage("joint-done", "compile")
        sens = self._report(SensitivityReport, SENSITIVITY_REPORT)
        optima = self._report(OptimaReport, OPTIMA_REPORT)
        doc = compile_document(sens, optima, self.space, self.workloads)
        self._save(DOCUMENT_FILE, doc)
        self._advance("compiled")
        return doc

    # -- stage 5: online tuning -------------------------------------------

    def tune(self, adapter: Adapter, budget: int, seed: int | None = None) -> TuningSession:
        self.require_stage("compiled", "tune")
        doc = self.document()
        session = run_session(doc, adapter, budget, self.seed if seed is None else seed)
        session.save_trace(self.path(TRACE_FILE))
        if session.final_config is not None:
            resolved = self.space.resolve(session.final_config)
            write_text(self.path("final_config.properties"),
                       "".join(f"{name}={resolved[name]}\n"
                               for name in sorted(session.final_config.assignments)))
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
