"""Benchmark execution harness.

Runs experiment plans against a system-under-test through a pluggable adapter
and records outcomes in append-only, line-delimited journals that one
``CampaignStore`` per campaign indexes. A configuration's identity is its
canonical text (``Configuration.canonical``). Every run's randomness derives
from a 64-bit mix of (campaign seed, canonical configuration, workload id,
repetition), so measurements are reproducible regardless of worker scheduling.
The mix has three parts: the campaign seed's own mix (``campaign_mix``),
computed once per plan or session; the cell's part, the sha256 of the
canonical configuration and the workload id (``cell_hash``), which a session
keeps per cell of its prepared document; and one splitmix64 round for the
repetition (``repetition_seed``). One function, ``cell_prefix``, mixes the
first two for campaign runs and session trials alike, once per cell of a plan
or benchmark step; ``mix_seed`` writes the composition out for one run. A
plan also builds the fixed head of a cell's journal lines
(``Measurement.journal_head``) once per cell and the tail (``journal_tail``)
once per workload, so each run formats only its own fields and its record is
built by one checked constructor. Each journal line is
written with one ``write()`` call on an unbuffered file, so it has reached the
kernel before the next run starts.
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


def cell_hash(canonical: str, workload_id: str) -> int:
    """The part of a run seed that only one cell (canonical configuration,
    workload) decides, whatever the campaign seed: the first 8 bytes of a
    sha256, which a session keeps per cell of its prepared document."""
    return int.from_bytes(hashlib.sha256(
        (canonical + "\x1f" + workload_id).encode()).digest()[:8], "big")


def cell_prefix(mix: int, digest: int) -> int:
    """The part of a run seed that one cell shares across its repetitions:
    the cell's ``cell_hash`` ``digest`` mixed with the campaign's ``campaign_mix``."""
    return splitmix64(mix ^ digest)


def repetition_seed(prefix: int, repetition: int) -> int:
    """The run seed of one repetition of the cell whose ``cell_prefix`` is ``prefix``."""
    return splitmix64(prefix ^ repetition)


def mix_seed(campaign_seed: int, config: Configuration, workload_id: str, repetition: int) -> int:
    """Derive the per-run 64-bit seed; order-free and collision-resistant."""
    return repetition_seed(cell_prefix(campaign_mix(campaign_seed),
                                       cell_hash(config.canonical(), workload_id)), repetition)


_INF = math.inf
_JOURNAL_FIELDS = tuple[dict, str, int, float | None, str, float, str | None]  # field order
_OUTCOME_TEXT = {outcome: f'"outcome": "{outcome}", '
                 for outcome in (OUTCOME_OK, OUTCOME_CRASH, OUTCOME_TIMEOUT)}


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
        _set_config(self, config)
        _set_workload_id(self, workload_id)
        _set_repetition(self, repetition)
        _set_metric_value(self, metric_value)
        _set_outcome(self, outcome)
        _set_wall_time(self, wall_time)
        _set_diagnostic(self, diagnostic)
        _set_key(self, (config.canonical(), workload_id, repetition))

    def key(self) -> tuple[str, str, int]:
        return self._key

    @staticmethod
    def journal_head(canonical: str) -> str:
        """The start of the journal lines of one configuration."""
        return f'{{"config": {canonical}, '

    @staticmethod
    def journal_tail(workload_id: str) -> str:
        """The end of the journal lines of one workload."""
        return f'"workload_id": {json_scalar(workload_id)}}}\n'

    def journal_line(self, cell: tuple[str, str] | None = None) -> str:
        """This record as one journal line: the text of
        ``json.dumps(self.to_json(), sort_keys=True) + "\\n"``, built around
        the configuration's cached canonical JSON instead of re-encoding it.
        The fields are written in sorted key order: a known outcome as
        constant text, an int or a finite float as its ``repr`` (what
        ``json.dumps`` writes), anything else through ``json_scalar``.
        ``cell`` is this record's (``journal_head``, ``journal_tail``), when
        the caller has them already."""
        head, tail = cell or (self.journal_head(self._key[0]),
                              self.journal_tail(self.workload_id))
        diagnostic = ("" if self.diagnostic is None
                      else f'"diagnostic": {json_scalar(self.diagnostic)}, ')
        metric, rep, wall = self.metric_value, self.repetition, self.wall_time
        metric = (repr(metric) if type(metric) is float and -_INF < metric < _INF
                  else json_scalar(metric))
        rep = repr(rep) if type(rep) is int else json_scalar(rep)
        wall = repr(wall) if type(wall) is float and -_INF < wall < _INF else json_scalar(wall)
        outcome = _OUTCOME_TEXT.get(self.outcome) or f'"outcome": {json_scalar(self.outcome)}, '
        return (f'{head}{diagnostic}"metric_value": {metric}, {outcome}'
                f'"repetition": {rep}, "wall_time": {wall}, {tail}')

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


# A record's __init__ sets its slots through their descriptors, which a frozen
# class's __setattr__ does not intercept.
(_set_config, _set_workload_id, _set_repetition, _set_metric_value, _set_outcome,
 _set_wall_time, _set_diagnostic, _set_key) = (
    getattr(Measurement, name).__set__ for name in (
        "config", "workload_id", "repetition", "metric_value", "outcome", "wall_time",
        "diagnostic", "_key"))


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

    Each stage appends its fresh runs to its own journal, one unbuffered
    line per run as it completes; no journal is ever rewritten. The store
    reads each journal once, later only the bytes another process appended
    since (``refresh``), and answers ``has``/``get`` across all stages under
    one (canonical configuration, workload, repetition) identity, the first
    record of a key winning. A reader asks for each key it needs; the store
    cannot be iterated or scanned. Equal configurations built separately
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

    def _index(self, records: Iterable[Measurement]) -> None:
        setdefault = self._records.setdefault
        for m in records:
            setdefault(m._key, m)

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
        self._index(records)

    def append(self, m: Measurement, cell: tuple[str, str] | None = None) -> None:
        """Journal one fresh run of the current stage as one line, written
        with one ``write()`` call on the unbuffered journal, so the line has
        reached the kernel when this returns. ``cell`` is the record's
        (``journal_head``, ``journal_tail``), when the caller has them
        already. A short write raises OSError; the next ``_open`` cuts the
        partial line.

        Safe to call from worker threads. The record enters the index only
        through ``commit``.
        """
        line = m.journal_line(cell).encode()
        with self._write_lock:
            if self._fh is None:
                self._fh = self._open()
            written = self._fh.write(line)
            if written != len(line):
                raise OSError(f"short journal write: {written} of {len(line)} bytes")
            self._offset[self._stage] += len(line)
            self._journaled[self._stage] += 1

    def _open(self):
        """Open the current journal, unbuffered, for appending, cutting any
        torn tail first.

        Everything past the store's offset is a torn last line (``refresh``
        read every complete one), so it is cut before the next record could
        be glued onto it. A journal without a valid header starts over.
        """
        if self._stage is None:
            raise ParameterError("no stage begun: call begin() before running a plan")
        stage = self._stage
        fh = open(self.journals[stage], "ab", buffering=0)
        try:
            if not self._headed[stage]:
                fh.truncate(0)
                text = MeasurementLog(self.seed, self.space_hash,
                                      meta={"stage": stage}).header_line().encode()
                written = fh.write(text)
                if written != len(text):
                    raise OSError(f"short journal write: {written} of {len(text)} bytes")
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
            self._index(records)
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


def run_experiment(adapter: Adapter, config: Configuration, workload: WorkloadSpec,
                   repetition: int, seed: int) -> Measurement:
    """One benchmark repetition: ``run_plan`` of its one entry, so an invalid
    configuration raises ParameterError before anything runs."""
    return run_plan(adapter, [(config, workload, repetition)], seed=seed)[0]


def run_repetition(adapter: Adapter, config: Configuration, workload: WorkloadSpec,
                   run_seed: int) -> tuple[str, float | None, str | None]:
    """Execute one repetition of a valid configuration with its run seed
    (``mix_seed``); the (outcome, metric, diagnostic) it comes to. This is
    the harness's one outcome classifier, for campaign runs and session
    trials alike.

    A finite metric is ok. Adapter crashes and timeouts become crash/timeout
    outcomes with the diagnostic attached, and a metric that is not finite
    (NaN or infinite) becomes a crash, as does any other exception of the
    adapter's (an I/O failure); they never abort the caller. An AdapterError
    means the adapter broke its contract rather than the system crashing, so
    it is raised: recording it would poison every later resume.
    """
    try:
        value = float(adapter.measure(config, workload, run_seed))
    except CrashError as e:
        return OUTCOME_CRASH, None, e.diagnostic
    except TimeoutError as e:
        return OUTCOME_TIMEOUT, None, str(e)
    except AdapterError:
        raise
    except Exception as e:  # adapter I/O failure counts as a crash, not an abort
        return OUTCOME_CRASH, None, f"{type(e).__name__}: {e}"
    if -_INF < value < _INF:
        return OUTCOME_OK, value, None
    return OUTCOME_CRASH, None, f"non-finite metric {value}"


PlanEntry = tuple[Configuration, WorkloadSpec, int]


def run_plan(adapter: Adapter, plan: list[PlanEntry], parallelism: int = 1,
             seed: int = 0, store: CampaignStore | None = None) -> list[Measurement]:
    """Execute a plan, one Measurement per entry, in plan order.

    One pass over the plan builds each entry's key, validates each distinct
    configuration once and looks the key up in the store; a plan that
    repeats an entry, asks for ``parallelism < 1``, holds an invalid
    configuration or comes with a store of another seed raises
    ParameterError, checked in that order, having measured and journaled
    nothing (a journal of another campaign that the store's ``refresh``
    finds is refused before them). With a ``store``, entries it already holds, from any stage and
    from this process or an interrupted earlier one, are carried over
    unmeasured. Each fresh measurement is appended to the store's current
    journal as one ``Measurement.journal_line`` as it completes, so a crash
    loses at most the in-flight entries; the store indexes the fresh records
    in plan order once the plan ends, also when it ends in an exception. An
    AdapterError aborts the plan.

    Returns the plan's records, one per entry in plan order, with the
    outcomes the adapter produced: a pure function of (plan, adapter, seed),
    never of worker arrival order.
    """
    found = {}.get
    if store is not None and store.seed == seed:
        store.refresh()
        found = store._records.get
    # Planners put the repetition innermost, so each cell's seed prefix and
    # journal head are computed once, for its first fresh entry, and its
    # later entries share them; each workload's journal tail is built once.
    space, mix = adapter.space, campaign_mix(seed)
    keys, results, todo, run_seeds, parts = [], [], [], [], []
    checked: set[str] = set()
    tails: dict[str, str] = {}
    invalid = cell_text = cell_workload = None
    for i, (config, workload, rep) in enumerate(plan):
        text, workload_id = config.canonical(), workload.id
        key = (text, workload_id, rep)
        keys.append(key)
        if text not in checked:
            checked.add(text)
            violations = validate_configuration(space, config)
            if violations and invalid is None:
                invalid = "invalid configuration: " + "; ".join(violations)
        m = found(key)
        results.append(m)
        if m is None:
            if text != cell_text or workload_id != cell_workload:
                cell_text, cell_workload = text, workload_id
                prefix = cell_prefix(mix, cell_hash(text, workload_id))
                tail = tails.get(workload_id)
                if tail is None:
                    tail = tails[workload_id] = Measurement.journal_tail(workload_id)
                journal = (Measurement.journal_head(text), tail)
            todo.append(i)
            run_seeds.append(repetition_seed(prefix, rep))
            parts.append(journal)
    if len(set(keys)) != len(keys):
        raise ParameterError("plan entries must be unique")
    if parallelism < 1:
        raise ParameterError("parallelism must be >= 1")
    if invalid is not None:
        raise ParameterError(invalid)
    if store is not None and store.seed != seed:
        raise ParameterError(f"the store holds seed {store.seed}'s runs, not seed {seed}'s")
    parallelism = min(parallelism, getattr(adapter, "max_concurrency", parallelism) or parallelism)

    def work(i: int, run_seed: int, journal: tuple[str, str]) -> None:
        config, workload, rep = plan[i]
        start = time.perf_counter()
        outcome, metric, diag = run_repetition(adapter, config, workload, run_seed)
        m = Measurement(config, workload.id, rep, metric, outcome,
                        time.perf_counter() - start, diag)
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
