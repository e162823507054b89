"""Deterministic interpreter for procedural tuning documents.

A session walks the skill DAG from the orchestration root in repeated passes:
steps execute in order, branches jump within a skill, each skill names the
skill that follows it (`next`), and postcondition violations route through
the skill's declared adaptation edge or abort. The root skill's
postconditions are the convergence criteria, evaluated at the end of each
pass. Every predicate evaluation is recorded with the symbol values it used.
The budget counts the trials the system ran; a trial is keyed by its
effective configuration's canonical text, its workload and its repetitions,
and a repeated key reads its first measurement.

What every session would redo on the same document is done once per
document and space (`ProceduralDocument.prepared`). The skills and workloads
are tabled by id. Each precondition, postcondition, branch condition and
compute expression is parsed and bound to its place, so a session evaluates
it without looking its text up. Each `pin_best` step's open grid parameters
are listed with their index signals. A benchmark step's configuration at the
grid levels its signals name, its effective configuration and its safety
verdict are resolved by the first session that reaches the step with those
signal values and kept for the later ones, so a session reads its signals
and looks the run up; an unpinned step's run is looked up by (skill, step).
The sha256 part of each measured cell's run seeds (`harness.cell_hash`) is
computed by the first session that measures the cell and kept, so a later
trial on it only mixes in the session seed (`harness.cell_prefix`).

Each trace event is built by one positional constructor, and each step
dispatches on its exact class. Each repetition of a trial goes through the
harness's outcome classifier (`run_repetition`); a session journals nothing,
so it builds no journal record.

The interpreter resolves everything from the document itself. The
``step_resolver`` hook lets an external agent override a skill's `next`;
without it, or when it returns None, the session follows `next`.

`replay_session` checks a trace by running its session again on the
document and the space it ran on. The recorded measurements and resolver
decisions are its inputs; every other event must come out as recorded.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from types import MappingProxyType, SimpleNamespace
from typing import Any, Callable, Mapping, TypedDict

from . import expr as expr_mod
from .docgen import (TARGET_END, BenchmarkStep, ComputeStep, Fingerprint, LiteralRun, Pins,
                     PreparedSkill, ProceduralDocument, Skill)
# Bound here as well, where perfbench/tracing.py times the session path's
# validation; a document validates through `ProceduralDocument.violations`.
from .docgen import validate_document  # noqa: F401
from .errors import AnalysisError, DocumentError, ExpressionError, ParameterError
from .harness import (OUTCOME_OK, Adapter, campaign_mix, cell_hash, cell_prefix,
                      repetition_seed, run_repetition)
from .jsonfile import Record, check, thaw, write_text
from .space import Configuration, ParameterSpace, WorkloadSpec

STATUS_RUNNING = "running"
STATUS_CONVERGED = "converged"
STATUS_ABORTED = "aborted"

# The reference data of a predicate's evaluation: none, since its environment
# holds every value it reads. One shared, read-only mapping.
_NO_REFERENCE: Mapping[str, Any] = MappingProxyType({})


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
        self.prepared = doc.prepared(adapter.space)
        self.skills, self.workloads = self.prepared.skills, self.prepared.workloads
        self.session = TuningSession(
            fingerprint=dict(doc.fingerprint),
            document_hash=doc.hash,
            adapter_id=type(adapter).__name__,
            trial_budget=budget,
            seed=seed,
        )
        self.incumbent: tuple[Configuration, float] | None = None
        self._benchmarks_this_pass = 0
        # (canonical effective config, workload, repetitions) -> (seq, outcomes, mean)
        self._measured: dict[tuple[str, str, int], tuple[int, list, float | None]] = {}
        trace = self.session.trace
        append = trace.append

        def event(skill: str, action: str, step: int | None, inputs: dict, outputs: dict,
                  predicates: list) -> None:
            """Record one trace event, given every field but its seq: its position."""
            append(TraceEvent(len(trace), skill, action, step, inputs, outputs, predicates))
        self._event = event

    # -- tracing -------------------------------------------------------

    def _eval_predicate(self, parsed: expr_mod.Expr, skill: Skill) -> tuple[bool, dict]:
        """Evaluate one prepared predicate, recording the symbol values it read;
        an evaluation error aborts the session.

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
            verdict = expr_mod.evaluate_predicate(parsed, env, _NO_REFERENCE)
        except ExpressionError as e:
            raise _Abort(f"{skill.id}: predicate {text!r} failed: {e}")
        return verdict, {"expr": text, "env": env, "verdict": verdict}

    # -- step execution --------------------------------------------------

    def _step_run(self, skill: Skill, index: int, step: BenchmarkStep, pins: Pins) -> LiteralRun:
        """A benchmark step's run: its template with every pinned parameter at
        the grid level its best-index signal names, resolved and checked on the
        space by the first session that reaches the step with those levels.

        Runs are kept by (skill, step, grid index of each pin), so an unpinned
        step's by (skill, step). A pinned step's is first looked up by the raw
        signal values, which hit when the values are integral (an argmax
        output is); other values are rounded first, so the runs kept are
        bounded by the grid levels reached."""
        signals, runs = self.session.signals, self.prepared.runs
        if not pins:
            run = runs.get((skill.id, index))
        else:
            try:
                run = runs.get((skill.id, index, *[signals[signal] for _, signal, _ in pins]))
            except KeyError:
                run = None  # a signal is unset, and the checks below name it
        if run is not None:
            return run
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
        run = runs.get(key)
        if run is None:  # no lock: threads racing here resolve equal runs
            resolved = thaw(step.template)
            for (param, _, grid), idx in zip(pins, indexes):
                resolved[param] = grid[idx]
            config, space = Configuration(resolved), self.adapter.space
            refusal = self.doc.refusal(space, config)
            run = runs[key] = LiteralRun(
                config, None if refusal else space.effective(config), refusal)
        return run

    def _run_benchmark(self, skill: Skill, index: int, step: BenchmarkStep,
                       run: LiteralRun) -> None:
        """Run one benchmark step's effective configuration; no ok repetition
        aborts the session. A step repeating an earlier step's (effective config,
        workload, repetitions), the config by its canonical text, reads its
        measurement, names its event in ``reused_from`` and costs no trial.

        Hard containment: a configuration outside the space's domains or the
        documented safe ranges aborts the session before it runs."""
        config, effective = run.config, run.effective
        if run.refusal is not None:
            raise _Abort(f"{skill.id}: {run.refusal}")
        workload = self.workloads[step.workload_id]
        inputs = {"config": dict(config.assignments), "workload_id": workload.id,
                  "repetitions": step.repetitions}
        key = (effective.canonical(), workload.id, step.repetitions)
        measured = self._measured.get(key)
        if measured is not None:
            inputs["reused_from"], outcomes, mean = measured
        else:
            if self.session.trials_used + 1 > self.session.trial_budget:
                raise _Abort("trial budget exhausted")
            outcomes, mean = self._measure(effective, workload, step)
            self.session.trials_used += 1
            self._benchmarks_this_pass += 1
            self._measured[key] = (len(self.session.trace), outcomes, mean)
        outputs: dict[str, Any] = {"outcomes": list(outcomes)}
        if mean is not None:
            self.session.signals[step.out] = mean
            outputs[step.out] = mean
            if step.adopt:
                self._adopt(config, mean, workload)
        self._event(skill.id, step.action, index, inputs, outputs, [])
        if mean is None:
            raise _Abort(f"{skill.id}: step {index} benchmark produced no ok repetition "
                         f"({outcomes})")

    def _measure(self, effective: Configuration, workload: WorkloadSpec,
                 step: BenchmarkStep) -> tuple[list[str], float | None]:
        """One trial: the outcome of each repetition of the step, as the
        harness classifies it, and the mean of the ok ones' metrics (None when
        none is ok). A session journals nothing, so no record is built."""
        outcomes, metrics = [], []
        cells, cell = self.prepared.cells, (effective.canonical(), workload.id)
        digest = cells.get(cell)
        if digest is None:
            digest = cells[cell] = cell_hash(*cell)
        adapter, prefix = self.adapter, cell_prefix(self.mix, digest)
        for rep in range(step.repetitions):
            outcome, metric, _ = run_repetition(adapter, effective, workload,
                                                repetition_seed(prefix, rep))
            outcomes.append(outcome)
            if metric is not None:
                metrics.append(metric)
        return outcomes, sum(metrics) / len(metrics) if metrics else None

    def _adopt(self, config: Configuration, metric: float, workload: WorkloadSpec) -> None:
        if workload.id != self.doc.primary_workload:
            return
        if self.incumbent is None or workload.better(metric, self.incumbent[1]):
            self.incumbent = (config, metric)

    def _run_skill(self, prepared: PreparedSkill) -> str:
        """Execute one prepared skill; returns the skill to run next, or TARGET_END."""
        event, skill = self._event, prepared.skill
        skill_id = skill.id
        preds = []
        for parsed in prepared.preconditions:
            verdict, record = self._eval_predicate(parsed, skill)
            preds.append(record)
            if not verdict:
                event(skill_id, "preconditions", None, {}, {}, preds)
                raise _Abort(f"{skill_id}: precondition failed: {parsed.text}")
        if preds:
            event(skill_id, "preconditions", None, {}, {}, preds)

        i = 0
        steps, entries = skill.procedure, prepared.steps
        signals, reference = self.session.signals, skill.reference_data
        while i < len(steps):
            step = steps[i]
            if type(step) is ComputeStep:
                try:
                    value = signals[step.out] = entries[i].evaluate(signals, reference)
                except ExpressionError as e:
                    raise _Abort(f"{skill_id}: step {i} compute failed: {e}")
                event(skill_id, step.action, i, {"expr": step.expr}, {step.out: value}, [])
            elif type(step) is BenchmarkStep:
                self._run_benchmark(skill, i, step, self._step_run(skill, i, step, entries[i]))
            else:  # a BranchStep; loading admits no other step class
                verdict, record = self._eval_predicate(entries[i], skill)
                event(skill_id, step.action, i, {"cond": step.cond, "target": step.target}, {},
                      [record])
                if verdict:
                    i = step.target
                    continue
            i += 1

        if skill_id != self.doc.root and skill.postconditions:
            preds = []
            ok = True
            for parsed in prepared.postconditions:
                verdict, record = self._eval_predicate(parsed, skill)
                preds.append(record)
                ok = ok and verdict
            event(skill_id, "postconditions", None, {}, {}, preds)
            if not ok:
                if skill.adaptation_target is not None:
                    event(skill_id, "adaptation", None, {}, {"target": skill.adaptation_target},
                          [])
                    return skill.adaptation_target
                failed = [p["expr"] for p in preds if not p["verdict"]]
                raise _Abort(f"{skill_id}: postcondition violated with no adaptation edge: "
                             + "; ".join(failed))

        if self.step_resolver is not None:
            resolved = self.step_resolver(skill, dict(signals))
            if resolved is not None:
                event(skill_id, "decision", None, {}, {"target": resolved, "resolver": True}, [])
                return resolved
        event(skill_id, "decision", None, {}, {"target": skill.next}, [])
        return skill.next

    # -- session loop ----------------------------------------------------

    def run(self) -> TuningSession:
        prepared_root = self.skills[self.doc.root]
        root, convergence = prepared_root.skill, prepared_root.postconditions
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
                self._event(root.id, "pass", None, {},
                            {"pass": self.session.passes, "converged": converged}, preds)
                if converged:
                    self._finish_converged()
                    return self.session
                if self._benchmarks_this_pass == 0:
                    raise _Abort("pass ran no new trial and did not converge")
        except _Abort as e:
            self.session.status = STATUS_ABORTED
            self.session.diagnostic = e.diagnostic
            self._event("session", "status", None, {},
                        {"status": STATUS_ABORTED, "diagnostic": e.diagnostic}, [])
            return self.session

    def _finish_converged(self) -> None:
        if self.incumbent is not None:
            config, metric = self.incumbent
        else:
            config, metric = Configuration({}), None
        # a copy: the adopted configuration may be one every session shares
        config = Configuration(config.assignments)
        self.session.status = STATUS_CONVERGED
        self.session.final_config = config
        self.session.final_metric = metric
        self._event("session", "status", None, {},
                    {"status": STATUS_CONVERGED, "final_config": config.assignments,
                     "final_metric": metric}, [])


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


class _Replay(SessionRunner):
    """A session run again, reading its inputs from the recorded trace."""

    def __init__(self, header: TraceHeader, events: list[TraceEvent],
                 doc: ProceduralDocument, space: ParameterSpace):
        # position -> outputs
        recorded = self.recorded = dict(enumerate(e.outputs for e in events))
        # an adapter that is never asked to measure
        super().__init__(doc, SimpleNamespace(space=space), header["trial_budget"],
                         header["seed"])
        trace = self.session.trace

        def recorded_decision(skill: Skill, signals: dict) -> str | None:
            # closes over the trace, not the runner, so that no cycle holds the runner
            outputs = recorded.get(len(trace), {})
            target = outputs.get("target")
            return target if outputs.get("resolver") is True and isinstance(target, str) else None
        self.step_resolver = recorded_decision

    def _measure(self, effective: Configuration, workload: WorkloadSpec,
                 step: BenchmarkStep) -> tuple[list[str], float | None]:
        """The recorded outcomes and mean; none, which aborts the session, where
        the recorded event holds no measurement of the step."""
        outputs = self.recorded.get(len(self.session.trace), {})
        outcomes, mean = outputs.get("outcomes"), outputs.get(step.out)
        try:
            check(tuple[list[str], float | None], (outcomes, mean), "measurement")
        except AnalysisError:
            return [], None
        measured = len(outcomes) == step.repetitions and (mean is None) != (OUTCOME_OK in outcomes)
        return (outcomes, mean) if measured else ([], None)


def replay_session(header: TraceHeader, events: list[TraceEvent], doc: ProceduralDocument,
                   space: ParameterSpace) -> ReplayResult:
    """Run a recorded session again on the document and the space it ran on,
    and report the first position where the two traces differ.

    A benchmark step that would run reads the outcomes and mean recorded at
    its position, and a step resolver's decision follows the recorded one.
    Every other event (predicates, computed values, configurations run or
    reused, adaptations, decisions, passes, the final status) must come out
    as recorded; after the first that does not, nothing lines up. Rejects
    traces whose fingerprint or document hash does not match the document.
    """
    if header.get("fingerprint") != doc.fingerprint or \
            header.get("document_hash") != doc.hash:
        raise DocumentError("trace fingerprint does not match this document")
    replayed = _Replay(header, events, doc, space).run().trace
    for seq in range(max(len(events), len(replayed))):
        pair = [trace[seq].to_json() if seq < len(trace) else None for trace in (events, replayed)]
        # compared as written: True is not 1, and a NaN equals itself
        if json.dumps(pair[0], sort_keys=True) != json.dumps(pair[1], sort_keys=True):
            return ReplayResult(False, [{"seq": seq, "recorded": pair[0], "replayed": pair[1]}])
    return ReplayResult(True, [])
