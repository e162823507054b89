"""Benchmark execution harness.

Runs experiment plans against a system-under-test through a pluggable adapter
and records outcomes in append-only, line-delimited journals that one
``CampaignStore`` per campaign indexes. A configuration's identity is its
canonical text (``Configuration.canonical``). Every run's randomness derives
from a 64-bit mix of (campaign seed, canonical configuration, workload id,
repetition), so measurements are reproducible regardless of worker scheduling.
The mix is the campaign seed's own mix (``campaign_mix``), computed once per
plan or session; a per-cell prefix over it, the canonical configuration and
the workload id (``cell_prefix``), computed once per cell of a plan or
benchmark step; and one splitmix64 round for the repetition. A plan also
builds the fixed head and tail of a cell's journal lines
(``Measurement.journal_cell``) once per cell, so each run formats only its
own fields and its record is built by one checked constructor.
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
from dataclasses import dataclass, field
from typing import Any, Iterable, Protocol

from .errors import AdapterError, CrashError, ParameterError
from .jsonfile import check
from .space import (Configuration, ParameterSpace, WorkloadSpec, json_scalar,
                    validate_configuration)

OUTCOME_OK = "ok"
OUTCOME_CRASH = "crash"
OUTCOME_TIMEOUT = "timeout"


def splitmix64(x: int) -> int:
    """One round of the splitmix64 mixer; total over Z/2^64."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def campaign_mix(campaign_seed: int) -> int:
    """The part of every run seed that only the campaign seed decides;
    computed once per plan or session."""
    return splitmix64(campaign_seed & 0xFFFFFFFFFFFFFFFF)


def cell_prefix(mix: int, canonical: str, workload_id: str) -> int:
    """The part of a run seed that one cell (canonical configuration,
    workload) shares across its repetitions, from the campaign's
    ``campaign_mix``."""
    h = int.from_bytes(hashlib.sha256(
        (canonical + "\x1f" + workload_id).encode()).digest()[:8], "big")
    return splitmix64(mix ^ h)


def cell_seed(campaign_seed: int, config: Configuration, workload_id: str) -> int:
    """``cell_prefix`` of one cell, from the campaign seed itself."""
    return cell_prefix(campaign_mix(campaign_seed), config.canonical(), workload_id)


def repetition_seed(prefix: int, repetition: int) -> int:
    """The run seed of one repetition of the cell whose ``cell_seed`` is ``prefix``."""
    return splitmix64(prefix ^ repetition)


def mix_seed(campaign_seed: int, config: Configuration, workload_id: str, repetition: int) -> int:
    """Derive the per-run 64-bit seed; order-free and collision-resistant."""
    return repetition_seed(cell_seed(campaign_seed, config, workload_id), repetition)


_INF = math.inf
_JOURNAL_FIELDS = tuple[dict, str, int, float | None, str, float, str | None]  # field order


@dataclass(frozen=True, slots=True, init=False)
class Measurement:
    """One benchmark observation."""

    config: Configuration
    workload_id: str
    repetition: int
    metric_value: float | None
    outcome: str
    wall_time: float = 0.0
    diagnostic: str | None = None
    # One key tuple per record, shared by every index that holds the record.
    _key: tuple[str, str, int] = field(init=False, repr=False, compare=False)

    def __init__(self, config: Configuration, workload_id: str, repetition: int,
                 metric_value: float | None, outcome: str, wall_time: float = 0.0,
                 diagnostic: str | None = None):
        if outcome == OUTCOME_OK:
            if metric_value is None or not -_INF < metric_value < _INF:
                raise ParameterError("ok outcome requires a finite metric_value")
        elif outcome == OUTCOME_CRASH and metric_value is not None:
            raise ParameterError("crash outcome must not carry a metric_value")
        set_ = object.__setattr__.__get__(self)
        set_("config", config)
        set_("workload_id", workload_id)
        set_("repetition", repetition)
        set_("metric_value", metric_value)
        set_("outcome", outcome)
        set_("wall_time", wall_time)
        set_("diagnostic", diagnostic)
        set_("_key", (config.canonical(), workload_id, repetition))

    def key(self) -> tuple[str, str, int]:
        return self._key

    @staticmethod
    def journal_cell(canonical: str, workload_id: str) -> tuple[str, str]:
        """The fixed head and tail of the journal lines of one cell (canonical
        configuration, workload), which ``journal_line`` writes around the
        fields of one run."""
        return (f'{{"config": {canonical}, ',
                f'"workload_id": {json_scalar(workload_id)}}}\n')

    def journal_line(self, cell: tuple[str, str] | None = None) -> str:
        """This record as one journal line: the text of
        ``json.dumps(self.to_json(), sort_keys=True) + "\\n"``, built around
        the configuration's cached canonical JSON instead of re-encoding it.
        The fields are written in sorted key order. ``cell`` is this record's
        ``journal_cell``, when the caller has it already."""
        head, tail = cell or self.journal_cell(self._key[0], self.workload_id)
        diagnostic = ("" if self.diagnostic is None
                      else f'"diagnostic": {json_scalar(self.diagnostic)}, ')
        return (f'{head}{diagnostic}'
                f'"metric_value": {json_scalar(self.metric_value)}, '
                f'"outcome": {json_scalar(self.outcome)}, '
                f'"repetition": {json_scalar(self.repetition)}, '
                f'"wall_time": {json_scalar(self.wall_time)}, {tail}')

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
        records with equal configurations share one object. ParameterError for
        a line ``journal_line`` does not write: a field of another type, an
        unknown outcome, or a crash or timeout carrying a metric."""
        config, workload_id, repetition, metric, outcome, wall_time, diagnostic = check(
            _JOURNAL_FIELDS, (d["config"], d["workload_id"], d["repetition"], d["metric_value"],
                              d["outcome"], d.get("wall_time", 0.0), d.get("diagnostic")),
            "journal line", ParameterError)
        if (outcome not in (OUTCOME_OK, OUTCOME_CRASH, OUTCOME_TIMEOUT)
                or (outcome == OUTCOME_OK) != (metric is not None)):
            raise ParameterError(f"journal line: outcome {outcome!r} with metric {metric!r}")
        config = Configuration(config)
        if configs is not None:
            config = configs.setdefault(config.canonical(), config)
        return cls(config, sys.intern(workload_id), repetition, metric, sys.intern(outcome),
                   wall_time, diagnostic)


def campaign_id_for(seed: int, space_hash: str) -> str:
    """The identity of the campaign a seed and a space define."""
    return f"c{seed:016x}-{space_hash[:8]}"


class MeasurementLog:
    """The journal file format: one JSON header line, then one JSON record
    per line.

    (canonical configuration, workload, repetition) triples are unique;
    re-appending an existing key is rejected. Records are kept in append
    order. A ``CampaignStore`` is the index that answers lookups; this class
    only writes and reads whole journals.
    """

    def __init__(self, seed: int, space_hash: str, campaign_id: str = "",
                 meta: dict | None = None):
        self.seed = seed
        self.space_hash = space_hash
        self.campaign_id = campaign_id or campaign_id_for(seed, space_hash)
        self.meta = dict(meta or {})
        self._records: list[Measurement] = []
        self._keys: set[tuple[str, str, int]] = set()

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    def append(self, m: Measurement) -> None:
        k = m.key()
        if k in self._keys:
            raise ParameterError(f"duplicate measurement key {k}")
        self._keys.add(k)
        self._records.append(m)

    def header(self) -> dict:
        return {"seed": self.seed, "space_hash": self.space_hash,
                "campaign_id": self.campaign_id, "meta": self.meta}

    def header_line(self) -> str:
        return json.dumps(self.header(), sort_keys=True) + "\n"

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.header_line())
            fh.writelines(m.journal_line() for m in self._records)

    @classmethod
    def load(cls, path: str) -> "MeasurementLog":
        """Read a log, tolerating torn and corrupt lines (see ``read_journal``).

        Records with equal configurations share one Configuration, and
        workload ids and outcomes are interned, so a loaded log holds each
        distinct configuration once. A repeated key keeps its first record.
        """
        header, records, _ = read_journal(path, 0, {})
        if header is None:
            raise ParameterError(f"{path} has no measurement log header")
        log = cls(seed=header["seed"], space_hash=header["space_hash"],
                  campaign_id=header.get("campaign_id", ""), meta=header.get("meta"))
        for m in records:
            if m.key() not in log._keys:
                log.append(m)
        return log


def read_journal(path: str, start: int, configs: dict[str, Configuration]
                 ) -> tuple[dict | None, list[Measurement], int]:
    """Parse the complete lines of a journal from byte offset ``start``.

    Returns the header (parsed only when ``start`` is 0; None when the file
    is empty or its first line is torn or not a header), the records, and the
    offset just past the last complete line. A last line without its newline
    is a write torn by a killed writer and is left unread; a complete line
    that does not parse is skipped. A journal without a valid header holds no
    records. ``configs`` (canonical form -> Configuration) is shared across
    calls so equal configurations are one object.
    """
    with open(path, "rb") as fh:
        fh.seek(start)
        data = fh.read()
    end = data.rfind(b"\n") + 1
    lines = data[:end].splitlines()
    header = None
    if start == 0:
        try:
            header = json.loads(lines[0]) if lines else None
        except ValueError:
            pass
        if not (isinstance(header, dict) and isinstance(header.get("seed"), int)
                and "space_hash" in header):
            return None, [], end
        lines = lines[1:]
    records = []
    for line in lines:
        try:
            records.append(Measurement.from_json(json.loads(line), configs))
        except (ValueError, KeyError, TypeError, ParameterError):
            continue  # a corrupt line; the lines around it are good
    return header, records, start + end


class CampaignStore:
    """Every measurement of one campaign, read from its stage journals once.

    Each stage appends its fresh runs to its own journal, one flushed line
    per run as it completes; no journal is ever rewritten. The store reads
    each journal once, later only the bytes another process appended since
    (``refresh``), and answers ``has``/``get``/``cell`` across all stages
    under one (canonical configuration, workload, repetition) identity, the
    first record of a key winning. Equal configurations built separately
    share one entry; ``{"a": 1}``, ``{"a": 1.0}`` and ``{"a": True}`` are three.
    It is the campaign's only index of measurements and keeps one dict entry
    per record. ``journaled(stage)`` counts the records that stage's journal
    holds, read or appended. Journals and the store hold the raw outcomes the
    adapter produced.
    """

    def __init__(self, seed: int, space_hash: str, journals: dict[str, str]):
        self.seed = seed
        self.space_hash = space_hash
        self.journals = dict(journals)           # stage name -> journal path
        self._stage: str | None = None
        self._fh = None
        self._write_lock = threading.Lock()
        self._reset()

    def _reset(self) -> None:
        self._records: dict[tuple[str, str, int], Measurement] = {}
        self._reps = 0                            # one past the highest repetition
        self._configs: dict[str, Configuration] = {}
        self._offset = dict.fromkeys(self.journals, 0)   # bytes read or written
        self._headed = dict.fromkeys(self.journals, False)
        self._journaled = dict.fromkeys(self.journals, 0)

    def __len__(self) -> int:
        return len(self._records)

    def journaled(self, stage: str) -> int:
        """How many records ``stage``'s journal holds, as this store last saw it."""
        return self._journaled[stage]

    def get(self, key: tuple[str, str, int]) -> Measurement | None:
        return self._records.get(key)

    def has(self, config: Configuration, workload_id: str, repetition: int) -> bool:
        return (config.canonical(), workload_id, repetition) in self._records

    def cell(self, config: Configuration, workload_id: str) -> tuple[Measurement, ...]:
        """Every record of one (configuration, workload), in repetition order."""
        text = config.canonical()
        found = (self._records.get((text, workload_id, rep)) for rep in range(self._reps))
        return tuple(m for m in found if m is not None)

    def _index(self, m: Measurement) -> None:
        self._records.setdefault(m.key(), m)
        self._reps = max(self._reps, m.repetition + 1)

    def begin(self, stage: str) -> None:
        """Send the fresh runs of the following plans to ``stage``'s journal."""
        if stage not in self.journals:
            raise ParameterError(f"no journal for stage {stage!r}")
        self._stage = stage
        self.refresh()

    def refresh(self) -> None:
        """Index whatever reached a journal since this store last read or wrote it.

        A journal that grew had records appended by another process, so only
        its tail is read. One that shrank was rewritten or removed, so the
        whole index is read again.
        """
        sizes = {}
        for stage, path in self.journals.items():
            try:
                sizes[stage] = os.path.getsize(path)
            except FileNotFoundError:
                sizes[stage] = 0
        if any(sizes[s] < self._offset[s] for s in self.journals):
            self._reset()
        for stage, path in self.journals.items():
            if sizes[stage] != self._offset[stage]:
                self._read(stage, path)

    def _read(self, stage: str, path: str) -> None:
        start = self._offset[stage]
        header, records, end = read_journal(path, start, self._configs)
        if start == 0 and header is not None:
            if header["seed"] != self.seed:
                raise ParameterError(
                    f"journal {path} was recorded with seed {header['seed']}, not {self.seed}")
            if header["space_hash"] != self.space_hash:
                raise ParameterError(f"journal {path} was recorded for space "
                                     f"{header['space_hash']}, not {self.space_hash}")
            self._headed[stage] = True
        self._offset[stage] = end
        self._journaled[stage] += len(records)
        for m in records:
            self._index(m)

    def append(self, m: Measurement, cell: tuple[str, str] | None = None) -> None:
        """Journal one fresh run of the current stage as one flushed line;
        ``cell`` is the record's ``Measurement.journal_cell``, when the caller
        has it already.

        Safe to call from worker threads. The record enters the index only
        through ``commit``.
        """
        line = m.journal_line(cell).encode()
        with self._write_lock:
            if self._fh is None:
                self._fh = self._open()
            self._fh.write(line)
            self._fh.flush()
            self._offset[self._stage] += len(line)
            self._journaled[self._stage] += 1

    def _open(self):
        """Open the current journal for appending, cutting any torn tail first.

        Everything past the store's offset is a torn last line (``refresh``
        read every complete one), so it is cut before the next record could
        be glued onto it. A journal without a valid header starts over.
        """
        if self._stage is None:
            raise ParameterError("no stage begun: call begin() before running a plan")
        stage = self._stage
        fh = open(self.journals[stage], "ab")
        try:
            if not self._headed[stage]:
                fh.truncate(0)
                text = MeasurementLog(self.seed, self.space_hash,
                                      meta={"stage": stage}).header_line().encode()
                fh.write(text)
                fh.flush()
                self._offset[stage] = len(text)
                self._headed[stage] = True
            elif os.fstat(fh.fileno()).st_size > self._offset[stage]:
                fh.truncate(self._offset[stage])
        except BaseException:
            fh.close()
            raise
        return fh

    def commit(self, records: Iterable[Measurement]) -> None:
        """Index a plan's fresh records, in plan order, and close the journal."""
        try:
            for m in records:
                self._index(m)
        finally:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


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
    ``METRIC <float>``. Nonzero exit status counts as a crash; a command that
    cannot be started (missing, not executable) and a missing or unparseable
    metric line break the contract and raise AdapterError. A command that
    names no program is refused when the adapter is built.
    """

    def __init__(self, space: ParameterSpace, command: str, timeout_s: float = 300.0):
        try:
            self.argv = shlex.split(command)
        except ValueError as e:
            raise ParameterError(f"shell command {command!r}: {e}") from None
        if not self.argv:
            raise ParameterError("shell command is empty")
        self.space = space
        self.timeout_s = timeout_s
        self.max_concurrency = 1

    def measure(self, config: Configuration, workload: WorkloadSpec, seed: int) -> float:
        env = dict(os.environ)
        for name, value in self.space.resolve(config).items():
            env[name] = str(value)
        env["TF_WORKLOAD"] = workload.id
        env["TF_SEED"] = str(seed)
        try:
            proc = subprocess.run(self.argv, env=env,
                                  capture_output=True, text=True, timeout=self.timeout_s)
        except subprocess.TimeoutExpired:
            raise TimeoutError(f"command exceeded {self.timeout_s}s")
        except OSError as e:
            raise AdapterError(f"command cannot start: {e}") from None
        if proc.returncode != 0:
            raise CrashError(f"exit status {proc.returncode}: {proc.stderr.strip()[:200]}")
        for line in proc.stdout.splitlines():
            if line.startswith("METRIC "):
                try:
                    return float(line[len("METRIC "):])
                except ValueError:
                    raise AdapterError(f"unparseable metric line {line!r}")
        raise AdapterError("command printed no 'METRIC <float>' line")


def _check_valid(space: ParameterSpace, config: Configuration) -> None:
    violations = validate_configuration(space, config)
    if violations:
        raise ParameterError("invalid configuration: " + "; ".join(violations))


def run_experiment(adapter: Adapter, config: Configuration, workload: WorkloadSpec,
                   repetition: int, seed: int) -> Measurement:
    """Validate the configuration, then execute one benchmark repetition.

    An invalid configuration raises ParameterError before anything runs.
    ``run_plan`` validates a plan's configurations once, up front, and then
    measures through ``run_valid_experiment``.
    """
    _check_valid(adapter.space, config)
    return run_valid_experiment(adapter, config, workload, repetition,
                                mix_seed(seed, config, workload.id, repetition))


def run_valid_experiment(adapter: Adapter, config: Configuration, workload: WorkloadSpec,
                         repetition: int, run_seed: int) -> Measurement:
    """Execute one repetition of a valid configuration with its run seed
    (``mix_seed``) and wrap the outcome.

    Adapter crashes and timeouts become crash/timeout outcomes with the
    diagnostic attached, and a metric that is not finite (NaN or infinite)
    becomes a crash; they never abort the caller. An AdapterError means the
    adapter broke its contract rather than the system crashing, so it is
    raised: recording it would poison every later resume.
    """
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
    except AdapterError:
        raise
    except Exception as e:  # adapter I/O failure counts as a crash, not an abort
        outcome, metric, diag = OUTCOME_CRASH, None, f"{type(e).__name__}: {e}"
    wall = time.perf_counter() - start
    return Measurement(config, workload.id, repetition, metric, outcome, wall, diag)


PlanEntry = tuple[Configuration, WorkloadSpec, int]


def run_plan(adapter: Adapter, plan: list[PlanEntry], parallelism: int = 1,
             seed: int = 0, store: CampaignStore | None = None) -> list[Measurement]:
    """Execute a plan, one Measurement per entry, in plan order.

    Every distinct configuration of the plan is validated once, before any
    entry runs, so an invalid plan raises ParameterError having measured and
    journaled nothing. With a ``store``, entries it already holds, from any
    stage and from this process or an interrupted earlier one, are carried
    over unmeasured. Each fresh measurement is appended to the store's
    current journal as one ``Measurement.journal_line`` as it completes, so
    a crash loses at most the in-flight entries; the store indexes the fresh
    records in plan order once the plan ends, also when it ends in an
    exception. An AdapterError aborts the plan.

    Returns the plan's records, one per entry in plan order, with the
    outcomes the adapter produced: a pure function of (plan, adapter, seed),
    never of worker arrival order.
    """
    keys = [(c.canonical(), w.id, rep) for c, w, rep in plan]
    if len(set(keys)) != len(keys):
        raise ParameterError("plan entries must be unique")
    if parallelism < 1:
        raise ParameterError("parallelism must be >= 1")
    checked = set()
    for (text, _, _), (config, _, _) in zip(keys, plan):
        if text not in checked:
            checked.add(text)
            _check_valid(adapter.space, config)
    parallelism = min(parallelism, getattr(adapter, "max_concurrency", parallelism) or parallelism)

    results: list[Measurement | None] = [None] * len(plan)
    if store is not None:
        if store.seed != seed:
            raise ParameterError(f"the store holds seed {store.seed}'s runs, not seed {seed}'s")
        store.refresh()
        results = [store.get(k) for k in keys]
    todo = [i for i, m in enumerate(results) if m is None]
    # Planners put the repetition innermost, so each cell's seed prefix and
    # journal parts are computed once, for its first fresh entry, and its
    # later entries share them.
    mix = campaign_mix(seed)
    run_seeds, parts, cell, prefix, journal = [], [], None, 0, None
    for i in todo:
        text, workload_id, rep = keys[i]
        if cell != (text, workload_id):
            cell = (text, workload_id)
            prefix = cell_prefix(mix, text, workload_id)
            journal = Measurement.journal_cell(text, workload_id)
        run_seeds.append(repetition_seed(prefix, rep))
        parts.append(journal)

    def work(i: int, run_seed: int, journal: tuple[str, str]) -> None:
        config, workload, rep = plan[i]
        m = run_valid_experiment(adapter, config, workload, rep, run_seed)
        if store is not None:
            store.append(m, journal)
        results[i] = m

    try:
        if parallelism == 1:
            for i, run_seed, journal in zip(todo, run_seeds, parts):
                work(i, run_seed, journal)
        elif todo:
            with ThreadPoolExecutor(max_workers=parallelism) as pool:
                for _ in pool.map(work, todo, run_seeds, parts):
                    pass
    finally:
        if store is not None:
            store.commit(results[i] for i in todo if results[i] is not None)
    return results
