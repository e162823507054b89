"""tuneforge benchmark: the offline pipeline and tuning sessions on planted models.

    python3 perfbench/run.py --workload planted-116 --seed 1 --seconds 30 --trace 0

Run from the repository root. It is a closed loop with one client: one
process, ``parallelism=1`` (the CLI default), every call waiting for the
previous one. The tuneforge package is imported from ``src/`` of the
checkout and driven only through its public API (``Campaign``,
``SimulatorAdapter``, ``run_session``). Without ``--workload`` every workload
runs, each in a fresh child process.

With ``--trace 0`` the run prints the end-to-end metrics, timings in ``ref``
units (see ``reference_s``) with the raw wall times beside them. With
``--trace 1`` it runs each operation untraced and then traced, prints the
per-layer metrics and the tracing overhead, and writes the spans under
``.perfbench/``.
Metric names and units come from ``BENCHMARK.json``. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 when any output was wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
# The sibling modules, also where Python does not put the script's own
# directory on the path (PYTHONSAFEPATH, -P).
sys.path.insert(0, HERE)
from tracing import PATCH_SITES, Tracer  # noqa: E402

REPO = os.path.dirname(HERE)
SRC = os.path.join(REPO, "src")
WORK_DIR = os.path.join(REPO, ".perfbench")

SETUP_BURST_S = 0.4      # set-ups before each pipeline, at least one
PIPELINES = 5
SESSIONS_PER_PIPELINE = 20  # 100 per run: p90 then has ten sessions beyond it
TRACE_SESSIONS = 40
SESSION_BUDGET = 120
REFERENCE_LOOP = 60_000  # about 4 ms of pure-Python arithmetic
STAGES = ("profile", "screen", "joint", "compile")
RUN_STAGES = ("sensitivity", "screen", "joint")


def import_tuneforge():
    """Import tuneforge from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, SRC)
    try:
        import tuneforge
    except ImportError as e:
        sys.exit(f"perfbench: cannot import tuneforge from {SRC}: {e}")
    if not os.path.abspath(tuneforge.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: tuneforge was imported from {tuneforge.__file__}, not {SRC}")
    return tuneforge


def reference_s() -> float:
    """Wall time of a fixed pure-Python loop: the speed this process gets right now.

    The speed a process gets on a shared host drifts by up to 2x over tens of
    seconds, so every timed call is bracketed by this loop and its wall time
    is also reported in units of the loop (``ref``), which removes part of
    that drift.
    """
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i
    return time.perf_counter() - start


def timed(fn):
    """Call ``fn``; return its result, its wall seconds, and its wall time in ref units."""
    before = reference_s()
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    return result, wall, 2 * wall / (before + reference_s())


def file_digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


@dataclass
class Pipeline:
    """One fresh campaign through profile, screen, joint and compile."""

    stage_s: dict[str, float]
    stage_ref: dict[str, float]
    runs: dict[str, int]
    digest: str
    doc: object
    problems: list[str]
    advance_ratio: float = 0.0
    confirm_ratio: float = 0.0
    cache_hit_ratio: float = 0.0
    journal_bytes: int = 0


@dataclass
class Session:
    ms: float
    ref: float
    trials: int
    digest: str
    problems: list[str]


@dataclass
class Inputs:
    workload: object                     # workloads.Workload, loaded from its files
    adapter: object
    shifted_adapter: object | None


class TimedAdapter:
    """Adapter proxy that records a ``harness.adapter`` span per measurement."""

    def __init__(self, inner, tracer):
        self.space = inner.space
        self.max_concurrency = inner.max_concurrency
        self.measure = tracer.wrap("harness.adapter", inner.measure)


class Bench:
    """One run of one workload: set-up, checked operations, and their metrics."""

    def __init__(self, tf, workloads, workload_name: str, seed: int):
        self.tf = tf
        self.workloads = workloads
        self.builder = workloads.BUILDERS[workload_name]
        self.name = workload_name
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        os.makedirs(WORK_DIR, exist_ok=True)
        self.tmp_root = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)

    def close(self) -> None:
        shutil.rmtree(self.tmp_root, ignore_errors=True)

    def operation(self, fn, *args):
        """Run one checked operation; count it, and count it failed on any problem."""
        self.attempted += 1
        try:
            result = fn(*args)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        if result.problems:
            self.failed += 1
            for p in result.problems:
                print(f"perfbench: {self.name}: {p}", file=sys.stderr)
        return result

    # -- set-up -----------------------------------------------------------

    def setup(self) -> Inputs:
        """Declare the workload in files, load it back, and build the adapters."""
        directory = tempfile.mkdtemp(prefix="decl-", dir=self.tmp_root)
        try:
            workload = self.workloads.declare_and_load(self.builder(), directory)
        finally:
            shutil.rmtree(directory)
        shifted = None if workload.shifted is None else \
            self.tf.SimulatorAdapter(workload.space, workload.shifted)
        return Inputs(workload=workload,
                      adapter=self.tf.SimulatorAdapter(workload.space, workload.model),
                      shifted_adapter=shifted)

    # -- the offline pipeline ---------------------------------------------

    def pipeline(self, inputs: Inputs, index: int, tracer=None) -> Pipeline:
        """Pipeline ``index`` of this run; each index has its own campaign seed."""
        from tuneforge import campaign as campaign_mod
        w = inputs.workload
        adapter = inputs.adapter if tracer is None else TimedAdapter(inputs.adapter, tracer)
        directory = tempfile.mkdtemp(prefix="campaign-", dir=self.tmp_root)
        try:
            campaign = campaign_mod.Campaign(directory, w.space, w.workloads,
                                             self.seed * 1000 + index)
            calls = {
                "profile": lambda: campaign.profile(adapter, levels_per_param=w.levels_per_param,
                                                    repetitions=3, tau_s=0.05),
                "screen": lambda: campaign.screen(adapter),
                "joint": lambda: campaign.joint(adapter, repetitions=3),
                "compile": lambda: campaign.compile(),
            }
            stage_s, stage_ref, results = {}, {}, {}
            for stage in STAGES:
                with campaign.lock():
                    results[stage], stage_s[stage], stage_ref[stage] = timed(calls[stage])
            sens, inter, doc = results["profile"], results["screen"], results["compile"]
            problems = []
            top_k = {p.parameter for p in sens.top_k()}
            if top_k != w.expected_top_k:
                problems.append(f"top-k {sorted(top_k)} is not the planted set")
            confirmed = set(inter.confirmed_pairs())
            if confirmed != w.expected_confirmed:
                problems.append(f"confirmed pairs {sorted(confirmed)} are not the planted ones")
            violations = self.tf.validate_document(doc)
            if violations:
                problems.append(f"document invalid: {violations}")
            if os.path.exists(campaign.path(campaign_mod.LOCK_FILE)):
                problems.append("stale campaign lock left behind")

            state = campaign.state
            pairs = {r.pair for r in inter.records}
            advanced = {r.pair for r in inter.records
                        if r.stage_a_verdict not in (None, "independent")}
            logs = [campaign.path(n) for n in
                    (campaign_mod.SWEEP_LOG, campaign_mod.SCREEN_LOG, campaign_mod.JOINT_LOG)]
            return Pipeline(
                stage_s=stage_s, stage_ref=stage_ref,
                runs={s: state.runs_used[s] for s in RUN_STAGES},
                digest=file_digest([campaign.path(n) for n in (
                    campaign_mod.SENSITIVITY_REPORT, campaign_mod.INTERACTION_REPORT,
                    campaign_mod.OPTIMA_REPORT, campaign_mod.DOCUMENT_FILE)]),
                doc=doc, problems=problems,
                advance_ratio=len(advanced) / len(pairs) if pairs else 0.0,
                confirm_ratio=len(confirmed) / len(advanced) if advanced else 0.0,
                cache_hit_ratio=(state.budgets["joint"] - state.runs_used["joint"])
                / state.budgets["joint"],
                journal_bytes=sum(os.path.getsize(p) for p in logs if os.path.exists(p)))
        finally:
            shutil.rmtree(directory)

    # -- tuning sessions --------------------------------------------------

    def session(self, inputs: Inputs, doc, index: int) -> Session:
        shifted = inputs.shifted_adapter is not None and index % 2 == 1
        adapter = inputs.shifted_adapter if shifted else inputs.adapter
        s, wall, ref = timed(lambda: self.tf.run_session(
            doc, adapter, SESSION_BUDGET, self.seed * 100_000 + index))
        problems = []
        if s.status != "converged" or s.trials_used > SESSION_BUDGET:
            problems.append(f"session {index}: {s.status} after {s.trials_used} trials "
                            f"({s.diagnostic})")
        for config, _ in s.benchmarked_configs():
            for param, value in config.assignments.items():
                safe = doc.safe_range_of(param)
                inside = safe is not None and (
                    value in safe.values if safe.values is not None
                    else float(safe.lo) <= float(value) <= float(safe.hi))
                if not inside:
                    problems.append(f"session {index}: {param}={value!r} outside its safe range")
        if shifted and not any(e.action == "adaptation" for e in s.trace):
            problems.append(f"session {index}: shifted model triggered no adaptation")
        digest = hashlib.sha256(json.dumps(
            [e.to_json() for e in s.trace], sort_keys=True).encode()).hexdigest()
        return Session(ms=wall * 1e3, ref=ref, trials=s.trials_used, digest=digest,
                       problems=problems)

    def sessions(self, inputs: Inputs, doc, first: int, count: int) -> list[Session]:
        """``count`` sessions with consecutive seeds from index ``first``."""
        results = [self.operation(self.session, inputs, doc, index)
                   for index in range(first, first + count)]
        return [r for r in results if r is not None]

    # -- the two modes ------------------------------------------------------

    def measure(self, seconds: float) -> dict[str, float]:
        """Untraced run: the end-to-end metrics."""
        # At least PIPELINES pipelines and ``seconds``. Set-ups, pipelines and
        # sessions take turns, so each samples the whole run: the host's speed
        # drifts over tens of seconds, and a median over the run's first
        # seconds alone would follow that drift.
        start = time.perf_counter()
        setup_s: list[float] = []
        pipelines: list[Pipeline] = []
        sessions: list[Session] = []
        inputs = None
        while len(pipelines) < PIPELINES or time.perf_counter() - start < seconds:
            burst = time.perf_counter()
            while True:
                setup_start = time.perf_counter()
                fresh = self.setup()
                setup_s.append(time.perf_counter() - setup_start)
                if inputs is None:
                    inputs = fresh
                if time.perf_counter() - burst >= SETUP_BURST_S:
                    break
            pipeline = self.operation(self.pipeline, inputs, len(pipelines))
            if pipeline is None:
                raise RuntimeError("pipeline raised; no document to tune")
            pipelines.append(pipeline)
            sessions += self.sessions(inputs, pipeline.doc, len(sessions),
                                      SESSIONS_PER_PIPELINE)

        med = statistics.median
        metrics = {
            "setup_s": med(setup_s),
            "runs_total": med([sum(p.runs.values()) for p in pipelines]),
            "session_trials": statistics.mean([s.trials for s in sessions]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        for stage in RUN_STAGES:
            metrics[f"runs_{stage}"] = med([p.runs[stage] for p in pipelines])
        # Gated in ref units; the raw wall times are printed beside them.
        metrics["pipeline_ref"] = med([sum(p.stage_ref.values()) for p in pipelines])
        metrics["pipeline_s"] = med([sum(p.stage_s.values()) for p in pipelines])
        for stage in STAGES:
            metrics[f"{stage}_s"] = med([p.stage_s[stage] for p in pipelines])
        for name, values in (("session_ref", [s.ref for s in sessions]),
                             ("session_ms", [s.ms for s in sessions])):
            metrics[f"{name}_p50"] = med(values)
            metrics[f"{name}_p90"] = statistics.quantiles(values, n=10)[-1]
        metrics["success_rate"] = 1.0 - self.failed / self.attempted
        return metrics

    def trace(self, per_layer: list[str]) -> dict[str, float]:
        """Each operation untraced, then traced right after it: the per-layer metrics.

        Pairing each traced operation with its untraced twin, adjacent in
        time, keeps the drift in machine speed out of the tracing overhead.
        """
        inputs = self.setup()
        tracer = Tracer()
        untraced = [self.operation(self.pipeline, inputs, 0)]
        with tracer.install():
            traced = [self.operation(self.pipeline, inputs, 0, tracer)]
        for index in range(TRACE_SESSIONS):
            untraced.append(self.operation(self.session, inputs, untraced[0].doc, index))
            with tracer.install():
                traced.append(self.operation(self.session, inputs, traced[0].doc, index))
        tracer.save(os.path.join(WORK_DIR, f"spans-{self.name}-seed{self.seed}.json"),
                    {"workload": self.name, "seed": self.seed})

        self.attempted += 1
        if [r.digest for r in traced] != [r.digest for r in untraced] or \
                traced[0].runs != untraced[0].runs:
            print(f"perfbench: {self.name}: a repetition of one seed, traced, changed the "
                  f"artifacts or run counts", file=sys.stderr)
            self.failed += 1

        w = inputs.workload
        plan = self.tf.plan_sweep(w.space, w.workloads, w.levels_per_param, 3)
        defaults = {p.name: p.default for p in w.space}
        reruns = sum(1 for c, _, _ in plan if c.assignments and all(
            defaults[k] == v for k, v in c.assignments.items()))

        stats = tracer.summary()
        pipeline = traced[0]
        metrics = {
            "simulator.measure.us_per_call":
                stats["simulator.measure"]["s"] / stats["simulator.measure"]["calls"] * 1e6,
            "harness.overhead_us_per_run":
                stats["harness.run_plan"]["self_s"] / stats["harness.adapter"]["calls"] * 1e6,
            "harness.journal_bytes": pipeline.journal_bytes,
            "interaction.advance_ratio": pipeline.advance_ratio,
            "interaction.confirm_ratio": pipeline.confirm_ratio,
            "sensitivity.default_rerun_share": reruns / len(plan),
            "topology.cache_hit_ratio": pipeline.cache_hit_ratio,
            "trace.overhead_ratio": statistics.median(
                [sum(traced[0].stage_ref.values()) / sum(untraced[0].stage_ref.values())]
                + [t.ref / u.ref for u, t in zip(untraced[1:], traced[1:])]),
        }
        spans = {name for name, _, _ in PATCH_SITES} | {"harness.adapter"}
        for name in per_layer:
            span, _, key = name.rpartition(".")
            if span in spans and key in ("calls", "s", "self_s"):
                metrics[name] = stats.get(span, {}).get(key, 0)
        return metrics


def run_all(spec: dict, args) -> int:
    """Every workload in a fresh child process; exit 1 if any run failed."""
    status = 0
    for w in spec["workloads"]:
        print(f"== {w['name']}: {w['why']}", flush=True)
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", w["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=REPO, timeout=900)
        status = status or child.returncode
    return 1 if status else 0


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                        help="run one workload in this process (default: all, one child each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(spec, args)

    tf = import_tuneforge()
    import workloads  # imports tuneforge, so only once src/ is on the path
    declared = spec["per_layer" if args.trace else "end_to_end"]
    bench = Bench(tf, workloads, args.workload, args.seed)
    try:
        if args.trace:
            metrics = bench.trace([m["name"] for m in declared])
        else:
            metrics = bench.measure(args.seconds)
    except Exception:
        traceback.print_exc()
        bench.failed += 1
        metrics = {}
    finally:
        bench.close()

    missing = {m["name"] for m in declared} - set(metrics)
    if metrics and missing:
        print(f"perfbench: metrics missing: {sorted(missing)}", file=sys.stderr)
    correct = bench.failed == 0 and not missing
    attempted = max(bench.attempted, 1)
    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"error_rate {bench.failed / attempted:.4f} ({bench.failed} of {attempted} failed)")
    result = {}
    for m in declared:
        if m["name"] in metrics:
            result[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
            print(f"  {m['name']:<36} {metrics.pop(m['name']):>14.6g} {m['unit']}")
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>14.6g} (raw wall time, not gated)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": bench.failed,
                      "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
