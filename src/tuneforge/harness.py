"""Benchmark execution harness.

Runs experiment plans against a system-under-test through a pluggable adapter
and records outcomes in an append-only, line-delimited measurement log. Every
run's randomness derives from a 64-bit mix of (campaign seed, configuration
hash, workload id, repetition), so logs are reproducible regardless of worker
scheduling.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Iterable, Protocol

from .errors import AdapterError, CrashError, ParameterError
from .space import Configuration, ParameterSpace, WorkloadSpec, validate_configuration

OUTCOME_OK = "ok"
OUTCOME_CRASH = "crash"
OUTCOME_TIMEOUT = "timeout"
OUTCOME_DEGRADED = "degraded"

# Fraction of the default-config baseline below which an ok run is re-tagged
# as degraded and a sweep level falls outside the safe range (mirrors the
# ">50% throughput loss" severity rule).
DEGRADATION_FRACTION = 0.5


def splitmix64(x: int) -> int:
    """One round of the splitmix64 mixer; total over Z/2^64."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def mix_seed(campaign_seed: int, config: Configuration, workload_id: str, repetition: int) -> int:
    """Derive the per-run 64-bit seed; order-free and collision-resistant."""
    h = int.from_bytes(hashlib.sha256(
        (config.canonical() + "\x1f" + workload_id).encode()).digest()[:8], "big")
    s = splitmix64(campaign_seed & 0xFFFFFFFFFFFFFFFF)
    s = splitmix64(s ^ h)
    s = splitmix64(s ^ repetition)
    return s


@dataclass(frozen=True)
class Measurement:
    """One benchmark observation."""

    config: Configuration
    workload_id: str
    repetition: int
    metric_value: float | None
    outcome: str
    wall_time: float = 0.0
    diagnostic: str | None = None

    def __post_init__(self):
        if self.outcome == OUTCOME_OK:
            if self.metric_value is None or not (float("-inf") < self.metric_value < float("inf")):
                raise ParameterError("ok outcome requires a finite metric_value")
        if self.outcome == OUTCOME_CRASH and self.metric_value is not None:
            raise ParameterError("crash outcome must not carry a metric_value")

    def key(self) -> tuple[str, str, int]:
        return (self.config.config_hash(), self.workload_id, self.repetition)

    def to_json(self) -> dict:
        d: dict[str, Any] = {
            "config": self.config.assignments,
            "workload_id": self.workload_id,
            "repetition": self.repetition,
            "metric_value": self.metric_value,
            "outcome": self.outcome,
            "wall_time": self.wall_time,
        }
        if self.diagnostic is not None:
            d["diagnostic"] = self.diagnostic
        return d

    @classmethod
    def from_json(cls, d: dict, configs: dict[str, Configuration] | None = None) -> "Measurement":
        """Rebuild a record; with ``configs`` (canonical form -> Configuration),
        records with equal configurations share one object."""
        config = Configuration(d["config"])
        if configs is not None:
            config = configs.setdefault(config.canonical(), config)
        return cls(
            config=config,
            workload_id=sys.intern(d["workload_id"]),
            repetition=int(d["repetition"]),
            metric_value=d["metric_value"],
            outcome=sys.intern(d["outcome"]),
            wall_time=float(d.get("wall_time", 0.0)),
            diagnostic=d.get("diagnostic"),
        )


class MeasurementLog:
    """Append-only sequence of measurements plus campaign metadata.

    (config hash, workload, repetition) triples are unique; re-appending an
    existing key is rejected. Records are indexed by (config hash, workload),
    so reading one cell does not scan the log. Persists as one JSON record per
    line under a single JSON header line, so a crashed campaign can be resumed
    by reading whatever prefix made it to disk.
    """

    def __init__(self, seed: int, space_hash: str, campaign_id: str = "",
                 meta: dict | None = None):
        self.seed = seed
        self.space_hash = space_hash
        self.campaign_id = campaign_id or f"c{seed:016x}-{space_hash[:8]}"
        self.meta = dict(meta or {})
        self._records: list[Measurement] = []
        self._keys: set[tuple[str, str, int]] = set()
        self._cells: dict[tuple[str, str], list[Measurement]] = {}

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    @property
    def records(self) -> tuple[Measurement, ...]:
        return tuple(self._records)

    def append(self, m: Measurement) -> None:
        k = m.key()
        if k in self._keys:
            raise ParameterError(f"duplicate measurement key {k}")
        self._keys.add(k)
        self._records.append(m)
        self._cells.setdefault(k[:2], []).append(m)

    def has(self, config: Configuration, workload_id: str, repetition: int) -> bool:
        return (config.config_hash(), workload_id, repetition) in self._keys

    def cell(self, config: Configuration, workload_id: str) -> tuple[Measurement, ...]:
        """Every record of one (configuration, workload), in append order."""
        return tuple(self._cells.get((config.config_hash(), workload_id), ()))

    def header(self) -> dict:
        return {"seed": self.seed, "space_hash": self.space_hash,
                "campaign_id": self.campaign_id, "meta": self.meta}

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.header(), sort_keys=True) + "\n")
            for m in self._records:
                fh.write(json.dumps(m.to_json(), sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str) -> "MeasurementLog":
        """Read a log, tolerating a truncated trailing line (killed writer).

        Records with equal configurations share one Configuration, and
        workload ids and outcomes are interned, so a loaded log holds each
        distinct configuration once.
        """
        configs: dict[str, Configuration] = {}
        with open(path, encoding="utf-8") as fh:
            header = json.loads(fh.readline())
            log = cls(seed=header["seed"], space_hash=header["space_hash"],
                      campaign_id=header.get("campaign_id", ""), meta=header.get("meta"))
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = Measurement.from_json(json.loads(line), configs)
                except (json.JSONDecodeError, KeyError):
                    break  # interrupted mid-write; everything before it is good
                log.append(record)
        return log


class Adapter(Protocol):
    """What the harness needs from a system-under-test."""

    space: ParameterSpace
    max_concurrency: int

    def measure(self, config: Configuration, workload: WorkloadSpec, seed: int) -> float:
        """Run one benchmark repetition; return the metric value.

        Raises CrashError when the target crashed and TimeoutError when the
        wall-time budget was exceeded.
        """
        ...


class ShellAdapter:
    """Runs a user command per measurement.

    The configuration arrives as environment variables (one per resolved
    parameter, plus TF_WORKLOAD / TF_SEED); the command must print a line
    ``METRIC <float>``. Nonzero exit status counts as a crash.
    """

    def __init__(self, space: ParameterSpace, command: str, timeout_s: float = 300.0):
        self.space = space
        self.command = command
        self.timeout_s = timeout_s
        self.max_concurrency = 1

    def measure(self, config: Configuration, workload: WorkloadSpec, seed: int) -> float:
        env = dict(os.environ)
        for name, value in self.space.resolve(config).items():
            env[name] = str(value)
        env["TF_WORKLOAD"] = workload.id
        env["TF_SEED"] = str(seed)
        try:
            proc = subprocess.run(shlex.split(self.command), env=env,
                                  capture_output=True, text=True, timeout=self.timeout_s)
        except subprocess.TimeoutExpired:
            raise TimeoutError(f"command exceeded {self.timeout_s}s")
        if proc.returncode != 0:
            raise CrashError(f"exit status {proc.returncode}: {proc.stderr.strip()[:200]}")
        for line in proc.stdout.splitlines():
            if line.startswith("METRIC "):
                try:
                    return float(line.split(None, 1)[1])
                except ValueError:
                    raise AdapterError(f"unparseable metric line {line!r}")
        raise AdapterError("command printed no 'METRIC <float>' line")


def run_experiment(adapter: Adapter, config: Configuration, workload: WorkloadSpec,
                   repetition: int, seed: int) -> Measurement:
    """Execute one benchmark repetition and wrap the outcome.

    Adapter crashes and timeouts become crash/timeout outcomes with the
    diagnostic attached, and a metric that is not finite (NaN or infinite)
    becomes a crash; they never abort the caller.
    """
    result = validate_configuration(adapter.space, config)
    if not result.ok:
        raise ParameterError("invalid configuration: " + "; ".join(result.violations))
    run_seed = mix_seed(seed, config, workload.id, repetition)
    start = time.perf_counter()
    try:
        value = float(adapter.measure(config, workload, run_seed))
        if not math.isfinite(value):
            raise CrashError(f"non-finite metric {value}")
        outcome, metric, diag = OUTCOME_OK, value, None
    except CrashError as e:
        outcome, metric, diag = OUTCOME_CRASH, None, e.diagnostic
    except TimeoutError as e:
        outcome, metric, diag = OUTCOME_TIMEOUT, None, str(e)
    except Exception as e:  # adapter I/O failure counts as a crash, not an abort
        outcome, metric, diag = OUTCOME_CRASH, None, f"{type(e).__name__}: {e}"
    wall = time.perf_counter() - start
    return Measurement(config=config, workload_id=workload.id, repetition=repetition,
                       metric_value=metric, outcome=outcome, wall_time=wall, diagnostic=diag)


PlanEntry = tuple[Configuration, WorkloadSpec, int]


class _Journal:
    """Crash-safe incremental record writer: one flushed line per measurement.

    A plan interrupted mid-flight leaves a loadable prefix on disk; the next
    run carries those records instead of re-measuring them.
    """

    def __init__(self, path: str, header: dict, fresh: bool):
        self._lock = threading.Lock()
        self._fh = open(path, "a", encoding="utf-8")
        if fresh:
            self._fh.write(json.dumps(header, sort_keys=True) + "\n")
            self._fh.flush()

    def write(self, m: Measurement) -> None:
        with self._lock:
            self._fh.write(json.dumps(m.to_json(), sort_keys=True) + "\n")
            self._fh.flush()

    def close(self) -> None:
        self._fh.close()


def run_plan(adapter: Adapter, plan: list[PlanEntry], parallelism: int = 1,
             seed: int = 0, existing: MeasurementLog | None = None,
             log_meta: dict | None = None,
             space_hash: str | None = None,
             journal: str | None = None) -> MeasurementLog:
    """Execute a plan, one Measurement per entry, in plan order.

    Entries already present in ``existing`` (or in the on-disk ``journal``
    from an interrupted run) are carried over unmeasured: resume semantics
    and cached-cell reuse. When ``journal`` is given, every fresh measurement
    is appended and flushed as it completes, so a crash loses at most the
    in-flight entries. The resulting log content is a pure function of
    (plan, adapter, seed): records are keyed by plan entry, never by worker
    arrival order.
    """
    keys = [(c.config_hash(), w.id, rep) for c, w, rep in plan]
    if len(set(keys)) != len(keys):
        raise ParameterError("plan entries must be unique")
    if parallelism < 1:
        raise ParameterError("parallelism must be >= 1")
    parallelism = min(parallelism, getattr(adapter, "max_concurrency", parallelism) or parallelism)

    log = MeasurementLog(seed=seed,
                         space_hash=space_hash or adapter.space.space_hash(),
                         meta=log_meta)
    carried: dict[tuple[str, str, int], Measurement] = {}
    if existing is not None:
        if existing.seed != seed:
            raise ParameterError(
                f"resume log was recorded with seed {existing.seed}, not {seed}")
        carried = {m.key(): m for m in existing}
    journal_exists = journal is not None and os.path.exists(journal)
    if journal_exists:
        for m in MeasurementLog.load(journal):
            carried.setdefault(m.key(), m)

    todo: list[tuple[int, PlanEntry]] = []
    results: list[Measurement | None] = [None] * len(plan)
    for i, (config, workload, rep) in enumerate(plan):
        prior = carried.get(keys[i])
        if prior is not None:
            results[i] = prior
        else:
            todo.append((i, (config, workload, rep)))

    writer = None
    if journal is not None and todo:
        writer = _Journal(journal, log.header(), fresh=not journal_exists)

    def work(item: tuple[int, PlanEntry]) -> tuple[int, Measurement]:
        i, (config, workload, rep) = item
        m = run_experiment(adapter, config, workload, rep, seed)
        if writer is not None:
            writer.write(m)
        return i, m

    try:
        if todo:
            if parallelism == 1:
                for item in todo:
                    i, m = work(item)
                    results[i] = m
            else:
                with ThreadPoolExecutor(max_workers=parallelism) as pool:
                    for i, m in pool.map(work, todo):
                        results[i] = m
    finally:
        if writer is not None:
            writer.close()

    tagged = _tag_degraded([m for m in results if m is not None], plan)
    for m in tagged:
        log.append(m)
    return log


def _tag_degraded(records: list[Measurement], plan: list[PlanEntry]) -> list[Measurement]:
    """Re-tag ok runs far below the default-config baseline as degraded.

    The baseline is the per-workload mean of ok all-defaults measurements in
    the same plan; computed after the whole plan finishes so tagging does not
    depend on completion order. Plans without baseline entries are returned
    unchanged.
    """
    baseline: dict[str, list[float]] = {}
    for m in records:
        if m.config.is_default() and m.outcome == OUTCOME_OK:
            baseline.setdefault(m.workload_id, []).append(m.metric_value)
    means = {w: sum(v) / len(v) for w, v in baseline.items() if v}
    if not means:
        return records
    out = []
    for m in records:
        base = means.get(m.workload_id)
        if (base is not None and base > 0 and m.outcome == OUTCOME_OK
                and not m.config.is_default()
                and m.metric_value < DEGRADATION_FRACTION * base):
            m = replace(m, outcome=OUTCOME_DEGRADED)
        out.append(m)
    return out


def mean_ok_metric(records: Iterable[Measurement]) -> float | None:
    """Mean metric over ok records, or None when there are none."""
    values = [m.metric_value for m in records if m.outcome == OUTCOME_OK]
    if not values:
        return None
    return sum(values) / len(values)
