"""Deterministic interpreter for procedural tuning documents.

A session walks the skill DAG from the orchestration root in repeated passes:
steps execute in order, branches jump within a skill, each skill names the
skill that follows it (`next`), and postcondition violations route through
the skill's declared adaptation edge or abort. The root skill's
postconditions are the convergence criteria, evaluated at the end of each
pass. Every predicate evaluation is recorded with the symbol values it used,
so a trace can be replayed and checked offline. The budget counts the trials
the system ran; a repeated effective configuration reads its first measurement.

What every session would redo on the same document is done once per
document and space (`ProceduralDocument.prepared`). Each precondition,
postcondition, branch condition and compute expression is parsed and bound
to its place, so a session evaluates it without looking its text up. Each
`pin_best` step's open grid parameters are listed with their index signals.
A benchmark step's configuration at the grid levels its signals name, its
effective configuration and its safety verdict are resolved by the first
session that reaches the step at those levels and kept for the later ones,
so a session reads its signals and looks the run up.

The interpreter resolves everything from the document itself. The
``step_resolver`` hook lets an external agent override a skill's `next`;
without it, or when it returns None, the session follows `next`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable, TypedDict

from . import expr as expr_mod
from .docgen import (TARGET_END, BenchmarkStep, ComputeStep, Fingerprint, LiteralRun, Pins,
                     ProceduralDocument, Skill)
# Bound here as well, where perfbench/tracing.py times the session path's
# validation; a document validates through `ProceduralDocument.violations`.
from .docgen import validate_document  # noqa: F401
from .errors import AnalysisError, DocumentError, ExpressionError, ParameterError
from .harness import (OUTCOME_OK, Adapter, campaign_mix, cell_prefix, repetition_seed,
                      run_valid_experiment)
from .jsonfile import Record, check, thaw, write_text
from .space import Configuration, WorkloadSpec, validate_configuration

STATUS_RUNNING = "running"
STATUS_CONVERGED = "converged"
STATUS_ABORTED = "aborted"


# One predicate evaluation, as `_eval_predicate` records it: `env` maps each
# symbol to the value the evaluation read.
Predicate = TypedDict("Predicate", {"expr": str, "env": dict[str, Any], "verdict": bool})

# The first line of a trace: `TuningSession.trace_header`.
TraceHeader = TypedDict("TraceHeader", {"fingerprint": Fingerprint, "document_hash": str,
                                        "adapter_id": str, "trial_budget": int, "seed": int})


@dataclass(slots=True)
class TraceEvent(Record, name="trace event"):
    """One replayable execution event (timestamps are a logical counter).

    It loads with exactly the keys it writes, so that a renamed key cannot
    replay as an empty default, and a malformed predicate is refused at load
    rather than raised from the replay."""

    seq: int
    skill: str
    action: str
    step: int | None = None
    inputs: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    predicates: list[Predicate] = field(default_factory=list)


@dataclass
class TuningSession:
    fingerprint: Fingerprint
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

    def trace_header(self) -> TraceHeader:
        return {"fingerprint": self.fingerprint, "document_hash": self.document_hash,
                "adapter_id": self.adapter_id, "trial_budget": self.trial_budget,
                "seed": self.seed}

    def save_trace(self, path: str) -> None:
        lines = [self.trace_header()] + [event.to_json() for event in self.trace]
        write_text(path, "".join(json.dumps(d, sort_keys=True) + "\n" for d in lines))

    def benchmarked_configs(self) -> list[tuple[Configuration, str]]:
        """(config, workload) of every benchmark step the system ran, in trace order."""
        out = []
        for e in self.trace:
            if e.action == BenchmarkStep.action and "reused_from" not in e.inputs:
                out.append((Configuration(e.inputs["config"]), e.inputs["workload_id"]))
        return out


def load_trace(path: str) -> tuple[TraceHeader, list[TraceEvent]]:
    """The header and events of a saved trace; AnalysisError for a line that
    is not JSON, naming the file and line, and for a header or an event its
    writer would not write."""
    def parse(n: int, line: str) -> Any:
        try:
            return json.loads(line)
        except ValueError as e:
            raise AnalysisError(f"{path}: line {n} is not valid JSON: {e}") from None

    with open(path, encoding="utf-8") as fh:
        header = check(TraceHeader, parse(1, fh.readline()), "trace header")
        events = [TraceEvent.from_json(parse(n, line))
                  for n, line in enumerate(fh, 2) if line.strip()]
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
        self.mix = campaign_mix(seed)
        self.step_resolver = step_resolver
        self.skills = {s.id: s for s in doc.skills}
        self.prepared = doc.prepared(adapter.space)
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
        # (effective config, workload, repetitions) -> (seq, outcomes, ok metrics)
        self._measured: dict[tuple[Configuration, str, int], tuple[int, list, list]] = {}

    # -- tracing -------------------------------------------------------

    def _event(self, skill: str, action: str, step: int | None = None,
               inputs: dict | None = None, outputs: dict | None = None,
               predicates: list[dict] | None = None) -> TraceEvent:
        event = TraceEvent(self._seq, skill, action, step, inputs or {}, outputs or {},
                           predicates or [])
        self._seq += 1
        self.session.trace.append(event)
        return event

    def _eval_predicate(self, parsed: expr_mod.Expr, skill: Skill) -> tuple[bool, dict]:
        """Evaluate one prepared predicate on the environment the trace
        records, as ``replay_session`` does; an evaluation error aborts the
        session.

        A validated document can still read a declared signal that was never
        set, e.g. when a branch skipped the step that computes it.
        """
        text = parsed.text
        signals, reference = self.session.signals, skill.reference_data
        env: dict[str, Any] = {}
        for symbol in parsed.sorted_symbols:
            if symbol in signals:
                env[symbol] = signals[symbol]
            elif symbol in reference:
                env[symbol] = reference[symbol]
        try:
            verdict = expr_mod.evaluate_predicate(parsed, env, {})
        except ExpressionError as e:
            raise _Abort(f"{skill.id}: predicate {text!r} failed: {e}")
        return verdict, {"expr": text, "env": env, "verdict": verdict}

    # -- step execution --------------------------------------------------

    def _step_run(self, skill: Skill, index: int, step: BenchmarkStep, pins: Pins) -> LiteralRun:
        """A benchmark step's run: its template with every pinned parameter at
        the level its best-index signal names, resolved and checked on the
        space by the first session that reaches the step at those levels."""
        signals = self.session.signals
        indexes = []
        for param, signal, grid in pins:
            if signal not in signals:
                raise _Abort(f"{skill.id}: template references unset signal {signal!r}")
            idx = float(signals[signal])
            if math.isfinite(idx):
                idx = int(round(idx))
            if not 0 <= idx < len(grid):
                raise _Abort(f"{skill.id}: grid index {idx} out of range for {param!r}")
            indexes.append(idx)
        key = (skill.id, index, *indexes)
        run = self.prepared.runs.get(key)
        if run is None:  # no lock: threads racing here resolve equal runs
            resolved = thaw(step.template)
            for (param, _, grid), idx in zip(pins, indexes):
                resolved[param] = grid[idx]
            config, space = Configuration(resolved), self.adapter.space
            refusal = self.doc.refusal(space, config)
            run = self.prepared.runs[key] = LiteralRun(
                config, None if refusal else space.effective(config), refusal)
        return run

    def _run_benchmark(self, skill: Skill, index: int, step: BenchmarkStep,
                       run: LiteralRun) -> None:
        """Run one benchmark step's effective configuration; no ok repetition
        aborts the session. A step repeating an earlier step's (effective config,
        workload, repetitions) reads its measurement, names its event in
        ``reused_from`` and costs no trial.

        Hard containment: a configuration outside the space's domains or the
        documented safe ranges aborts the session before it runs."""
        config, effective = run.config, run.effective
        if run.refusal is not None:
            raise _Abort(f"{skill.id}: {run.refusal}")
        workload = self.workloads[step.workload_id]
        inputs = {"config": dict(config.assignments), "workload_id": workload.id,
                  "repetitions": step.repetitions}
        key = (effective, workload.id, step.repetitions)
        if key in self._measured:
            inputs["reused_from"], outcomes, metrics = self._measured[key]
        else:
            if self.session.trials_used + 1 > self.session.trial_budget:
                raise _Abort("trial budget exhausted")
            outcomes, metrics = [], []
            prefix = cell_prefix(self.mix, effective.canonical(), workload.id)
            for rep in range(step.repetitions):
                m = run_valid_experiment(self.adapter, effective, workload, rep,
                                         repetition_seed(prefix, rep))
                outcomes.append(m.outcome)
                if m.outcome == OUTCOME_OK:
                    metrics.append(m.metric_value)
            self.session.trials_used += 1
            self._benchmarks_this_pass += 1
            self._measured[key] = (self._seq, outcomes, metrics)
        outputs: dict[str, Any] = {"outcomes": list(outcomes)}
        if metrics:
            mean = sum(metrics) / len(metrics)
            self.session.signals[step.out] = mean
            outputs[step.out] = mean
            if step.adopt:
                self._adopt(config, mean, workload)
        self._event(skill.id, step.action, step=index, inputs=inputs, outputs=outputs)
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
        prepared = self.prepared.skills[skill.id]
        preds = []
        for parsed in prepared.preconditions:
            verdict, record = self._eval_predicate(parsed, skill)
            preds.append(record)
            if not verdict:
                self._event(skill.id, "preconditions", predicates=preds)
                raise _Abort(f"{skill.id}: precondition failed: {parsed.text}")
        if preds:
            self._event(skill.id, "preconditions", predicates=preds)

        i = 0
        steps, entries = skill.procedure, prepared.steps
        while i < len(steps):
            step, entry = steps[i], entries[i]
            if isinstance(step, BenchmarkStep):
                self._run_benchmark(skill, i, step, self._step_run(skill, i, step, entry))
            elif isinstance(step, ComputeStep):
                try:
                    value = entry.evaluate(self.session.signals, skill.reference_data)
                except ExpressionError as e:
                    raise _Abort(f"{skill.id}: step {i} compute failed: {e}")
                self.session.signals[step.out] = value
                self._event(skill.id, step.action, step=i,
                            inputs={"expr": step.expr}, outputs={step.out: value})
            else:  # a BranchStep; loading admits no other step class
                verdict, record = self._eval_predicate(entry, skill)
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
            for parsed in prepared.postconditions:
                verdict, record = self._eval_predicate(parsed, skill)
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
        convergence = self.prepared.skills[root.id].postconditions
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
                for parsed in convergence:
                    verdict, record = self._eval_predicate(parsed, root)
                    preds.append(record)
                    converged = converged and verdict
                self._event(root.id, "pass",
                            outputs={"pass": self.session.passes, "converged": converged},
                            predicates=preds)
                if converged:
                    self._finish_converged()
                    return self.session
                if self._benchmarks_this_pass == 0:
                    raise _Abort("pass ran no new trial and did not converge")
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
        # a copy: the adopted configuration may be one every session shares
        config = Configuration(config.assignments)
        violations = validate_configuration(self.adapter.space, config)
        if violations:
            raise _Abort("incumbent configuration failed validation: " + "; ".join(violations))
        self.session.status = STATUS_CONVERGED
        self.session.final_config = config
        self.session.final_metric = metric
        self._event("session", "status",
                    outputs={"status": STATUS_CONVERGED,
                             "final_config": config.assignments,
                             "final_metric": metric})


def run_session(doc: ProceduralDocument, adapter: Adapter, budget: int, seed: int,
                step_resolver: Callable[[Skill, dict], str | None] | None = None) -> TuningSession:
    """Interpret a document against an adapter within a budget of trials.

    A trial is a benchmark step the system ran; a step repeating an earlier
    step's effective configuration reads that measurement and costs none. The
    session is fully determined by (document, adapter, seed, budget):
    per-repetition seeds derive from the session seed and the effective
    configuration, and trace timestamps are logical sequence numbers.
    """
    return SessionRunner(doc, adapter, budget, seed, step_resolver).run()


@dataclass
class ReplayResult:
    ok: bool
    mismatches: list[dict]


def replay_session(header: TraceHeader, events: list[TraceEvent],
                   doc: ProceduralDocument) -> ReplayResult:
    """Re-evaluate every recorded predicate and compute step, in trace order.

    Predicates are evaluated in their recorded environment. Signals are
    rebuilt from the benchmark and compute outputs as recorded, and each
    compute step's expression, read from the document, must give its recorded
    output again. A benchmark event that reused a measurement must name an
    earlier one that ran it, with the same workload, repetitions, outcomes and
    mean. Rejects traces whose fingerprint or document hash does not match the
    document. A mismatch on any verdict or computed value marks the trace as
    tampered or nondeterministic.
    """
    if header.get("fingerprint") != doc.fingerprint or \
            header.get("document_hash") != doc.hash:
        raise DocumentError("trace fingerprint does not match this document")
    skills = {s.id: s for s in doc.skills}
    signals: dict[str, Any] = {}
    ran: dict[int, tuple] = {}  # seq -> what a benchmark event that ran measured
    mismatches = []
    for event in events:
        for pred in event.predicates:
            try:
                verdict = expr_mod.evaluate_predicate(pred["expr"], pred["env"], {})
            except ExpressionError:
                verdict = None
            if verdict is not pred["verdict"]:
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
            measured = (event.inputs.get("workload_id"), event.inputs.get("repetitions"),
                        event.outputs.get("outcomes"), event.outputs.get(step.out))
            source = event.inputs.get("reused_from")
            if "reused_from" not in event.inputs:
                ran[event.seq] = measured
            elif not isinstance(source, int) or ran.get(source) != measured:
                mismatches.append({"seq": event.seq, "skill": event.skill, "expr": None,
                                   "recorded": source, "replayed": None})
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
