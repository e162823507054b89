"""Deterministic interpreter for procedural tuning documents.

A session walks the skill DAG from the orchestration root in repeated passes:
steps execute in order, branches jump within a skill, each skill names the
skill that follows it (`next`), and postcondition violations route through
the skill's declared adaptation edge or abort. The root skill's
postconditions are the convergence criteria, evaluated at the end of each
pass. Every predicate evaluation is recorded with the symbol values it used,
so a trace can be replayed and checked offline.

The interpreter resolves everything from the document itself. The
``step_resolver`` hook lets an external agent override a skill's `next`;
without it, or when it returns None, the session follows `next`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable

from . import expr as expr_mod
from .docgen import (TARGET_END, BenchmarkStep, ComputeStep, ProceduralDocument, Skill,
                     best_index_signal)
# Bound here as well, where perfbench/tracing.py times the session path's
# validation; a document validates through `ProceduralDocument.violations`.
from .docgen import validate_document  # noqa: F401
from .errors import DocumentError, ExpressionError, ParameterError
from .harness import OUTCOME_OK, Adapter, cell_seed, repetition_seed, run_valid_experiment
from .jsonfile import dump_fields, load_fields, thaw, write_text
from .space import Configuration, WorkloadSpec, validate_configuration

STATUS_RUNNING = "running"
STATUS_CONVERGED = "converged"
STATUS_ABORTED = "aborted"


@dataclass
class TraceEvent:
    """One replayable execution event (timestamps are a logical counter)."""

    seq: int
    skill: str
    action: str
    step: int | None = None
    inputs: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    predicates: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return dump_fields(self)

    @classmethod
    def from_json(cls, d: dict) -> "TraceEvent":
        """The event ``to_json`` wrote, or AnalysisError, so that a renamed key
        cannot replay as an empty default."""
        return load_fields(cls, d, "trace event")


@dataclass
class TuningSession:
    fingerprint: dict[str, str]
    document_hash: str
    adapter_id: str
    trial_budget: int
    seed: int
    signals: dict[str, Any] = field(default_factory=dict)
    trace: list[TraceEvent] = field(default_factory=list)
    status: str = STATUS_RUNNING
    final_config: Configuration | None = None
    final_metric: float | None = None
    trials_used: int = 0
    passes: int = 0
    diagnostic: str | None = None

    def trace_header(self) -> dict:
        return {"fingerprint": self.fingerprint, "document_hash": self.document_hash,
                "adapter_id": self.adapter_id, "trial_budget": self.trial_budget,
                "seed": self.seed}

    def save_trace(self, path: str) -> None:
        lines = [self.trace_header()] + [event.to_json() for event in self.trace]
        write_text(path, "".join(json.dumps(d, sort_keys=True) + "\n" for d in lines))

    def benchmarked_configs(self) -> list[tuple[Configuration, str]]:
        """(config, workload) of every benchmark step in trace order."""
        out = []
        for e in self.trace:
            if e.action == BenchmarkStep.action:
                out.append((Configuration(e.inputs["config"]), e.inputs["workload_id"]))
        return out


def load_trace(path: str) -> tuple[dict, list[TraceEvent]]:
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        events = [TraceEvent.from_json(json.loads(line))
                  for line in fh if line.strip()]
    return header, events


class _Abort(Exception):
    def __init__(self, diagnostic: str):
        super().__init__(diagnostic)
        self.diagnostic = diagnostic


class SessionRunner:
    """Internal interpreter state for one tuning session."""

    def __init__(self, doc: ProceduralDocument, adapter: Adapter, budget: int, seed: int,
                 step_resolver: Callable[[Skill, dict], str | None] | None = None):
        if budget < 1:
            raise ParameterError("trial budget must be >= 1")
        if doc.violations:
            raise DocumentError("document rejected: " + "; ".join(doc.violations))
        self.doc = doc
        self.adapter = adapter
        self.seed = seed
        self.step_resolver = step_resolver
        self.skills = {s.id: s for s in doc.skills}
        self.workloads = {w.id: w for w in doc.workloads}
        self.direction = self.workloads[doc.primary_workload].direction
        self.session = TuningSession(
            fingerprint=dict(doc.fingerprint),
            document_hash=doc.hash,
            adapter_id=type(adapter).__name__,
            trial_budget=budget,
            seed=seed,
        )
        self.incumbent: tuple[Configuration, float] | None = None
        self._seq = 0
        self._benchmarks_this_pass = 0

    # -- tracing -------------------------------------------------------

    def _event(self, skill: str, action: str, step: int | None = None,
               inputs: dict | None = None, outputs: dict | None = None,
               predicates: list[dict] | None = None) -> TraceEvent:
        event = TraceEvent(seq=self._seq, skill=skill, action=action, step=step,
                           inputs=inputs or {}, outputs=outputs or {},
                           predicates=predicates or [])
        self._seq += 1
        self.session.trace.append(event)
        return event

    def _eval_predicate(self, text: str, skill: Skill) -> tuple[bool, dict]:
        """Evaluate one predicate on the environment the trace records, as
        ``replay_session`` does; an evaluation error aborts the session.

        A validated document can still read a declared signal that was never
        set, e.g. when a branch skipped the step that computes it.
        """
        parsed = expr_mod.parse(text)
        env: dict[str, Any] = {}
        for symbol in sorted(parsed.symbols()):
            if symbol in self.session.signals:
                env[symbol] = self.session.signals[symbol]
            elif symbol in skill.reference_data:
                env[symbol] = skill.reference_data[symbol]
        try:
            verdict = expr_mod.evaluate_predicate(text, env, {})
        except ExpressionError as e:
            raise _Abort(f"{skill.id}: predicate {text!r} failed: {e}")
        return verdict, {"expr": text, "env": env, "verdict": verdict}

    # -- step execution --------------------------------------------------

    def _resolve_template(self, step: BenchmarkStep, skill: Skill) -> Configuration:
        """The step's literal template; with `pin_best`, every other grid
        parameter at the level its best-index signal names."""
        resolved = thaw(step.template)
        if step.pin_best:
            for param, grid in self.doc.grids.items():
                if param in resolved:
                    continue
                signal = best_index_signal(param)
                if signal not in self.session.signals:
                    raise _Abort(f"{skill.id}: template references unset signal {signal!r}")
                idx = float(self.session.signals[signal])
                if math.isfinite(idx):
                    idx = int(round(idx))
                if not 0 <= idx < len(grid):
                    raise _Abort(f"{skill.id}: grid index {idx} out of range for {param!r}")
                resolved[param] = grid[idx]
        return Configuration(resolved)

    def _check_safe(self, config: Configuration, skill: Skill) -> None:
        """Hard containment check: never benchmark outside the space's domains
        or the documented safe ranges."""
        result = validate_configuration(self.adapter.space, config)
        if not result.ok:
            raise _Abort(f"{skill.id}: invalid configuration: " + "; ".join(result.violations))
        for param, value in config.assignments.items():
            safe = self.doc.safe_range_of(param)
            if safe is None:
                raise _Abort(f"{skill.id}: parameter {param!r} has no documented safe range")
            if safe.values is not None:
                if value not in safe.values:
                    raise _Abort(
                        f"{skill.id}: {param}={value!r} outside safe set {list(safe.values)}")
            elif not (isinstance(value, (int, float))
                      and float(safe.lo) <= float(value) <= float(safe.hi)):
                raise _Abort(
                    f"{skill.id}: {param}={value!r} outside safe range [{safe.lo}, {safe.hi}]")

    def _run_benchmark(self, skill: Skill, index: int, step: BenchmarkStep) -> None:
        """Execute one benchmark step; no ok repetition aborts the session."""
        if self.session.trials_used + 1 > self.session.trial_budget:
            raise _Abort("trial budget exhausted")
        config = self._resolve_template(step, skill)
        self._check_safe(config, skill)
        workload = self.workloads[step.workload_id]
        metrics, outcomes = [], []
        prefix = cell_seed(self.seed, config, workload.id)
        for rep in range(step.repetitions):
            m = run_valid_experiment(self.adapter, config, workload, rep,
                                     repetition_seed(prefix, rep))
            outcomes.append(m.outcome)
            if m.outcome == OUTCOME_OK:
                metrics.append(m.metric_value)
        self.session.trials_used += 1
        self._benchmarks_this_pass += 1
        outputs: dict[str, Any] = {"outcomes": outcomes}
        if metrics:
            mean = sum(metrics) / len(metrics)
            self.session.signals[step.out] = mean
            outputs[step.out] = mean
            if step.adopt:
                self._adopt(config, mean, workload)
        self._event(skill.id, step.action, step=index,
                    inputs={"config": config.assignments, "workload_id": workload.id,
                            "repetitions": step.repetitions},
                    outputs=outputs)
        if not metrics:
            raise _Abort(f"{skill.id}: step {index} benchmark produced no ok repetition "
                         f"({outcomes})")

    def _adopt(self, config: Configuration, metric: float, workload: WorkloadSpec) -> None:
        if workload.id != self.doc.primary_workload:
            return
        if self.incumbent is None or workload.better(metric, self.incumbent[1]):
            self.incumbent = (config, metric)

    def _run_skill(self, skill: Skill) -> str:
        """Execute one skill; returns the skill to run next, or TARGET_END."""
        preds = []
        for text in skill.preconditions:
            verdict, record = self._eval_predicate(text, skill)
            preds.append(record)
            if not verdict:
                self._event(skill.id, "preconditions", predicates=preds)
                raise _Abort(f"{skill.id}: precondition failed: {text}")
        if preds:
            self._event(skill.id, "preconditions", predicates=preds)

        i = 0
        steps = skill.procedure
        while i < len(steps):
            step = steps[i]
            if isinstance(step, BenchmarkStep):
                self._run_benchmark(skill, i, step)
            elif isinstance(step, ComputeStep):
                try:
                    value = expr_mod.evaluate(step.expr, self.session.signals,
                                              skill.reference_data)
                except ExpressionError as e:
                    raise _Abort(f"{skill.id}: step {i} compute failed: {e}")
                self.session.signals[step.out] = value
                self._event(skill.id, step.action, step=i,
                            inputs={"expr": step.expr}, outputs={step.out: value})
            else:  # a BranchStep; loading admits no other step class
                verdict, record = self._eval_predicate(step.cond, skill)
                self._event(skill.id, step.action, step=i,
                            inputs={"cond": step.cond, "target": step.target},
                            predicates=[record])
                if verdict:
                    i = step.target
                    continue
            i += 1

        if skill.id != self.doc.root and skill.postconditions:
            preds = []
            ok = True
            for text in skill.postconditions:
                verdict, record = self._eval_predicate(text, skill)
                preds.append(record)
                ok = ok and verdict
            self._event(skill.id, "postconditions", predicates=preds)
            if not ok:
                if skill.adaptation_target is not None:
                    self._event(skill.id, "adaptation",
                                outputs={"target": skill.adaptation_target})
                    return skill.adaptation_target
                failed = [p["expr"] for p in preds if not p["verdict"]]
                raise _Abort(f"{skill.id}: postcondition violated with no adaptation edge: "
                             + "; ".join(failed))

        if self.step_resolver is not None:
            resolved = self.step_resolver(skill, dict(self.session.signals))
            if resolved is not None:
                self._event(skill.id, "decision", outputs={"target": resolved, "resolver": True})
                return resolved
        self._event(skill.id, "decision", outputs={"target": skill.next})
        return skill.next

    # -- session loop ----------------------------------------------------

    def run(self) -> TuningSession:
        root = self.skills[self.doc.root]
        try:
            while True:
                self.session.passes += 1
                self._benchmarks_this_pass = 0
                current = self.doc.root
                while True:
                    target = self._run_skill(self.skills[current])
                    if target == TARGET_END:
                        break
                    if target not in self.skills:
                        raise _Abort(f"{current}: decision routed to unknown skill {target!r}")
                    current = target
                preds = []
                converged = True
                for text in root.postconditions:
                    verdict, record = self._eval_predicate(text, root)
                    preds.append(record)
                    converged = converged and verdict
                self._event(root.id, "pass",
                            outputs={"pass": self.session.passes, "converged": converged},
                            predicates=preds)
                if converged:
                    self._finish_converged()
                    return self.session
                if self._benchmarks_this_pass == 0:
                    raise _Abort("pass issued no benchmarks and did not converge")
        except _Abort as e:
            self.session.status = STATUS_ABORTED
            self.session.diagnostic = e.diagnostic
            self._event("session", "status",
                        outputs={"status": STATUS_ABORTED, "diagnostic": e.diagnostic})
            return self.session

    def _finish_converged(self) -> None:
        if self.incumbent is not None:
            config, metric = self.incumbent
        else:
            config, metric = Configuration({}), None
        result = validate_configuration(self.adapter.space, config)
        if not result.ok:
            raise _Abort("incumbent configuration failed validation: "
                         + "; ".join(result.violations))
        self.session.status = STATUS_CONVERGED
        self.session.final_config = config
        self.session.final_metric = metric
        self._event("session", "status",
                    outputs={"status": STATUS_CONVERGED,
                             "final_config": config.assignments,
                             "final_metric": metric})


def run_session(doc: ProceduralDocument, adapter: Adapter, budget: int, seed: int,
                step_resolver: Callable[[Skill, dict], str | None] | None = None) -> TuningSession:
    """Interpret a document against an adapter within a benchmark-step budget.

    The session is fully determined by (document, adapter, seed, budget):
    per-repetition seeds derive from the session seed and the configuration,
    and trace timestamps are logical sequence numbers.
    """
    return SessionRunner(doc, adapter, budget, seed, step_resolver).run()


@dataclass
class ReplayResult:
    ok: bool
    mismatches: list[dict]


def replay_session(header: dict, events: list[TraceEvent],
                   doc: ProceduralDocument) -> ReplayResult:
    """Re-evaluate every recorded predicate and compute step, in trace order.

    Predicates are evaluated in their recorded environment. Signals are
    rebuilt from the benchmark and compute outputs as recorded, and each
    compute step's expression, read from the document, must give its recorded
    output again. Rejects traces whose fingerprint or document hash does not
    match the document. A mismatch on any verdict or computed value marks the
    trace as tampered or nondeterministic.
    """
    if header.get("fingerprint") != doc.fingerprint or \
            header.get("document_hash") != doc.hash:
        raise DocumentError("trace fingerprint does not match this document")
    skills = {s.id: s for s in doc.skills}
    signals: dict[str, Any] = {}
    mismatches = []
    for event in events:
        for pred in event.predicates:
            try:
                verdict = expr_mod.evaluate_predicate(pred["expr"], pred.get("env", {}), {})
            except ExpressionError:
                verdict = None
            if verdict is not bool(pred["verdict"]):
                mismatches.append({"seq": event.seq, "skill": event.skill,
                                   "expr": pred["expr"], "recorded": pred["verdict"],
                                   "replayed": verdict})
        if event.action not in (BenchmarkStep.action, ComputeStep.action):
            continue
        skill = skills.get(event.skill)
        procedure = skill.procedure if skill is not None else []
        step = procedure[event.step] \
            if isinstance(event.step, int) and 0 <= event.step < len(procedure) else None
        if step is None or step.action != event.action:
            mismatches.append({"seq": event.seq, "skill": event.skill, "expr": None,
                               "recorded": event.action, "replayed": None})
            continue
        if isinstance(step, BenchmarkStep):
            if step.out in event.outputs:
                signals[step.out] = event.outputs[step.out]
            continue
        recorded = event.outputs.get(step.out)
        try:
            replayed = expr_mod.evaluate(step.expr, signals, skill.reference_data)
        except ExpressionError:
            replayed = None
        if replayed != recorded:
            mismatches.append({"seq": event.seq, "skill": event.skill, "expr": step.expr,
                               "recorded": recorded, "replayed": replayed})
        signals[step.out] = recorded
    return ReplayResult(ok=not mismatches, mismatches=mismatches)
