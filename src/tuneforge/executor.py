"""Deterministic interpreter for procedural tuning documents.

A session walks the skill DAG from the orchestration root in repeated passes:
steps execute in order, branches jump within a skill, decision criteria pick
the next skill (first matching condition wins), and postcondition violations
route through the skill's declared adaptation edge or abort. The root skill's
postconditions are the convergence criteria, evaluated at the end of each
pass. Every predicate evaluation is recorded with the symbol values it used,
so a trace can be replayed and checked offline.

The interpreter resolves everything from the document itself. The
``step_resolver`` hook lets an external agent override decision-criteria
routing; the shipped default is pure first-match.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from . import expr as expr_mod
from .docgen import (ACTION_BENCHMARK, ACTION_BRANCH, ACTION_COMPARE,
                     ACTION_COMPUTE, ACTION_MEASURE, TARGET_ABORT, TARGET_END,
                     ProceduralDocument, Skill, Step, validate_document)
from .errors import DocumentError, ExpressionError, ParameterError
from .harness import OUTCOME_OK, Adapter, run_experiment
from .space import Configuration, WorkloadSpec, validate_configuration

STATUS_RUNNING = "running"
STATUS_CONVERGED = "converged"
STATUS_ABORTED = "aborted"


def evaluate_predicate(text: str, signal_store: Mapping[str, Any],
                       reference_data: Mapping[str, Any]) -> bool:
    """Total, deterministic predicate evaluation; unknown symbols raise."""
    return expr_mod.evaluate_predicate(text, signal_store, reference_data)


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
        return {"seq": self.seq, "skill": self.skill, "action": self.action,
                "step": self.step, "inputs": self.inputs, "outputs": self.outputs,
                "predicates": self.predicates}

    @classmethod
    def from_json(cls, d: dict) -> "TraceEvent":
        return cls(seq=d["seq"], skill=d["skill"], action=d["action"], step=d.get("step"),
                   inputs=dict(d.get("inputs", {})), outputs=dict(d.get("outputs", {})),
                   predicates=list(d.get("predicates", [])))


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
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.trace_header(), sort_keys=True) + "\n")
            for event in self.trace:
                fh.write(json.dumps(event.to_json(), sort_keys=True) + "\n")

    def benchmarked_configs(self) -> list[tuple[Configuration, str]]:
        """(config, workload) of every benchmark step in trace order."""
        out = []
        for e in self.trace:
            if e.action == ACTION_BENCHMARK:
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
        violations = validate_document(doc)
        if violations:
            raise DocumentError("document rejected: " + "; ".join(violations))
        self.doc = doc
        self.adapter = adapter
        self.seed = seed
        self.step_resolver = step_resolver
        self.skills = {s.id: s for s in doc.skills}
        self.workloads = {w.id: w for w in doc.workloads}
        self.direction = self.workloads[doc.primary_workload].direction
        self.session = TuningSession(
            fingerprint=dict(doc.fingerprint),
            document_hash=doc.document_hash(),
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
        """Evaluate one predicate; an evaluation error aborts the session.

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
            verdict = evaluate_predicate(text, self.session.signals, skill.reference_data)
        except ExpressionError as e:
            raise _Abort(f"{skill.id}: predicate {text!r} failed: {e}")
        return verdict, {"expr": text, "env": env, "verdict": verdict}

    # -- step execution --------------------------------------------------

    def _resolve_template(self, template: dict[str, Any], skill: Skill) -> Configuration:
        resolved: dict[str, Any] = {}
        for param, spec in template.items():
            if isinstance(spec, dict) and "$signal" in spec:
                name = spec["$signal"]
                if name not in self.session.signals:
                    raise _Abort(f"{skill.id}: template references unset signal {name!r}")
                resolved[param] = self.session.signals[name]
            elif isinstance(spec, dict) and "$grid" in spec:
                grid_param, signal = spec["$grid"]
                if signal not in self.session.signals:
                    raise _Abort(f"{skill.id}: template references unset signal {signal!r}")
                grid = self.doc.grids.get(grid_param)
                if grid is None:
                    raise _Abort(f"{skill.id}: no grid for parameter {grid_param!r}")
                idx = int(round(float(self.session.signals[signal])))
                if not 0 <= idx < len(grid):
                    raise _Abort(f"{skill.id}: grid index {idx} out of range for {grid_param!r}")
                resolved[param] = grid[idx]
            else:
                resolved[param] = spec
        return Configuration(resolved)

    def _check_safe(self, config: Configuration, skill: Skill) -> None:
        """Hard containment check: never benchmark outside documented safe ranges."""
        for param, value in config.assignments.items():
            safe = self.doc.safe_range_of(param)
            if safe is None:
                raise _Abort(f"{skill.id}: parameter {param!r} has no documented safe range")
            if safe.values is not None:
                if value not in safe.values:
                    raise _Abort(f"{skill.id}: {param}={value!r} outside safe set {safe.values}")
            elif not (float(safe.lo) <= float(value) <= float(safe.hi)):
                raise _Abort(
                    f"{skill.id}: {param}={value!r} outside safe range [{safe.lo}, {safe.hi}]")
        result = validate_configuration(self.adapter.space, config)
        if not result.ok:
            raise _Abort(f"{skill.id}: invalid configuration: " + "; ".join(result.violations))

    def _run_benchmark(self, skill: Skill, index: int, step: Step) -> int | None:
        """Execute one benchmark step; returns an error-branch target or None."""
        if self.session.trials_used + 1 > self.session.trial_budget:
            raise _Abort("trial budget exhausted")
        config = self._resolve_template(step.template or {}, skill)
        self._check_safe(config, skill)
        workload = self.workloads[step.workload_id]
        reps = step.repetitions or 1
        metrics, outcomes = [], []
        for rep in range(reps):
            m = run_experiment(self.adapter, config, workload, rep, self.seed)
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
        self._event(skill.id, ACTION_BENCHMARK, step=index,
                    inputs={"config": config.assignments, "workload_id": workload.id,
                            "repetitions": reps},
                    outputs=outputs)
        if not metrics:
            if step.on_error is not None:
                return step.on_error
            raise _Abort(f"{skill.id}: step {index} benchmark produced no ok repetition "
                         f"({outcomes})")
        return None

    def _adopt(self, config: Configuration, metric: float, workload: WorkloadSpec) -> None:
        if workload.id != self.doc.primary_workload:
            return
        if self.incumbent is None or workload.better(metric, self.incumbent[1]):
            self.incumbent = (config, metric)

    def _run_skill(self, skill: Skill) -> str:
        """Execute one skill; returns the chosen decision target."""
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
            if step.action == ACTION_BENCHMARK:
                jump = self._run_benchmark(skill, i, step)
                if jump is not None:
                    i = jump
                    continue
            elif step.action == ACTION_MEASURE:
                probe = getattr(self.adapter, "probe", None)
                if probe is None:
                    raise _Abort(f"{skill.id}: adapter exposes no signal probe for {step.name!r}")
                value = probe(step.name)
                self.session.signals[step.name] = value
                self._event(skill.id, ACTION_MEASURE, step=i,
                            inputs={"name": step.name}, outputs={step.name: value})
            elif step.action == ACTION_COMPUTE:
                try:
                    value = expr_mod.evaluate(step.expr, self.session.signals,
                                              skill.reference_data)
                except ExpressionError as e:
                    raise _Abort(f"{skill.id}: step {i} compute failed: {e}")
                self.session.signals[step.out] = value
                self._event(skill.id, ACTION_COMPUTE, step=i,
                            inputs={"expr": step.expr}, outputs={step.out: value})
            elif step.action == ACTION_COMPARE:
                text = step.compare_text()
                verdict, record = self._eval_predicate(text, skill)
                outputs = {}
                if step.out:
                    self.session.signals[step.out] = 1.0 if verdict else 0.0
                    outputs[step.out] = self.session.signals[step.out]
                self._event(skill.id, ACTION_COMPARE, step=i,
                            inputs={"expr": text}, outputs=outputs, predicates=[record])
            elif step.action == ACTION_BRANCH:
                verdict, record = self._eval_predicate(step.cond, skill)
                self._event(skill.id, ACTION_BRANCH, step=i,
                            inputs={"cond": step.cond, "target": step.target},
                            predicates=[record])
                if verdict:
                    i = step.target
                    continue
            else:
                raise _Abort(f"{skill.id}: unknown action {step.action!r}")
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

        resolved = None
        if self.step_resolver is not None:
            resolved = self.step_resolver(skill, dict(self.session.signals))
        if resolved is not None:
            self._event(skill.id, "decision", outputs={"target": resolved, "resolver": True})
            return resolved
        preds = []
        for cond, target in skill.decision_criteria:
            verdict, record = self._eval_predicate(cond, skill)
            preds.append(record)
            if verdict:
                self._event(skill.id, "decision", outputs={"target": target}, predicates=preds)
                return target
        if not skill.decision_criteria:
            self._event(skill.id, "decision", outputs={"target": TARGET_END}, predicates=[])
            return TARGET_END
        self._event(skill.id, "decision", outputs={"target": None}, predicates=preds)
        raise _Abort(f"{skill.id}: no decision criterion matched")

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
                    if target == TARGET_ABORT:
                        raise _Abort(f"{current}: decision criteria routed to abort")
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
    """Re-evaluate every recorded predicate from its recorded environment.

    Rejects traces whose fingerprint or document hash does not match the
    document. A mismatch on any verdict marks the trace as tampered or
    nondeterministic.
    """
    if header.get("fingerprint") != doc.fingerprint or \
            header.get("document_hash") != doc.document_hash():
        raise DocumentError("trace fingerprint does not match this document")
    mismatches = []
    for event in events:
        for pred in event.predicates:
            try:
                verdict = evaluate_predicate(pred["expr"], pred.get("env", {}), {})
            except ExpressionError:
                verdict = None
            if verdict is not bool(pred["verdict"]):
                mismatches.append({"seq": event.seq, "skill": event.skill,
                                   "expr": pred["expr"], "recorded": pred["verdict"],
                                   "replayed": verdict})
    return ReplayResult(ok=not mismatches, mismatches=mismatches)


def replay_trace_file(path: str, doc: ProceduralDocument) -> ReplayResult:
    header, events = load_trace(path)
    return replay_session(header, events, doc)
