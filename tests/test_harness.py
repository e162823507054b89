"""Harness: run_experiment outcomes, plan execution, log persistence, seeds."""

import dataclasses
import json
import math
import os
import random
import re
import stat
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import one_workload, random_log, stored_cell, unit_space
from tuneforge.errors import AdapterError, CrashError, ParameterError
from tuneforge.harness import (CampaignStore, Measurement, MeasurementLog, ShellAdapter,
                               campaign_mix, cell_hash, cell_prefix, mix_seed,
                               repetition_seed, run_experiment, run_plan, splitmix64)
from tuneforge.simulator import (CrashRegion, Response, SimulatorAdapter,
                                 SimulatorModel, standard_normal)
from tuneforge.space import Configuration, Domain, ParameterSpace, ParameterSpec, WorkloadSpec


def flat_adapter(space, base=1000.0, sigma=0.0, **kwargs):
    return SimulatorAdapter(space, SimulatorModel(base_rate=base, sigma=sigma, **kwargs))


def journal_store(path, seed, space, stage="sweep"):
    """A store over one journal, as one process opens it, with that stage begun."""
    store = CampaignStore(seed, space.space_hash(), {stage: str(path)})
    store.begin(stage)
    return store


def count_calls(adapter):
    """Record the canonical configuration of every measurement from now on."""
    calls = []
    original = adapter.measure

    def counting(config, workload, seed):
        calls.append(config.canonical())
        return original(config, workload, seed)

    adapter.measure = counting
    return calls


def assert_index_matches(store, records):
    """Each (config, workload) cell of the store holds exactly ``records``'
    records for it, in repetition order."""
    cells = {}
    for m in records:
        cells.setdefault((m.config.canonical(), m.workload_id), []).append(m)
    for cell in cells.values():
        assert stored_cell(store, cell[0].config, cell[0].workload_id) == \
            tuple(sorted(cell, key=lambda m: m.repetition))


class TestSeeds:
    def test_splitmix_is_stable(self):
        # fixed values so a refactor cannot silently change every log
        assert splitmix64(0) == 16294208416658607535
        assert splitmix64(1) != splitmix64(2)

    def test_mix_seed_depends_on_every_component(self):
        space = unit_space(["p"])
        c1, c2 = Configuration({"p": 0.1}), Configuration({"p": 0.2})
        base = mix_seed(7, c1, "w0", 0)
        assert base == mix_seed(7, Configuration({"p": 0.1}), "w0", 0)
        assert base != mix_seed(8, c1, "w0", 0)
        assert base != mix_seed(7, c2, "w0", 0)
        assert base != mix_seed(7, c1, "w1", 0)
        assert base != mix_seed(7, c1, "w0", 1)

    def test_mix_seed_is_the_cell_prefix_and_one_repetition_round(self):
        config = Configuration({"p": 0.1})
        for seed, workload_id, rep in ((7, "w0", 0), (2**64 + 7, "w1", 5), (0, "", 2**40),
                                       (-1, "w\"1", 3)):
            mix = campaign_mix(seed)
            assert mix == splitmix64(seed & (2**64 - 1))
            prefix = cell_prefix(mix, cell_hash(config.canonical(), workload_id))
            assert mix_seed(seed, config, workload_id, rep) == \
                repetition_seed(prefix, rep) == splitmix64(prefix ^ rep)

    # (campaign seed, assignments, workload id, repetition) and their cell_hash,
    # cell_prefix and mix_seed as literals: the relations above hold for any
    # consistent change of every seed, which would change every journal
    GOLDEN_CELLS = (
        (0, {}, "w0", 0,
         3475099393725177279, 2836266150311136192, 12452243919524766134),
        (7, {"p": 0.1}, "w0", 2,
         15138153969955343127, 7956893758539163044, 17840467056066144851),
        (2**64 + 7, {"p": 0.1, "q": "xé"}, "w\"1", 5,
         3821569190554968033, 9387303984617863269, 4776337384222005164),
        (123456789, {"cache_mb": 64, "sync_mode": "strict"}, "heavy", 1,
         6634035408266179670, 9738616390414571990, 8046717257858842400),
        (-1, {"a": True, "b": None, "c": 1e-300}, "", 2**40,
         14516677287813982445, 9464997634655849533, 2461166302080061737),
    )

    def test_run_seeds_are_pinned(self):
        for seed, assignments, workload_id, rep, _, prefix, run_seed in self.GOLDEN_CELLS:
            config = Configuration(assignments)
            digest = cell_hash(config.canonical(), workload_id)
            assert cell_prefix(campaign_mix(seed), digest) == prefix
            assert mix_seed(seed, config, workload_id, rep) == run_seed

    def test_cell_hash_is_pinned_and_mixed_into_the_cell_prefix(self):
        for seed, assignments, workload_id, _, digest, prefix, _ in self.GOLDEN_CELLS:
            canonical = Configuration(assignments).canonical()
            assert cell_hash(canonical, workload_id) == digest
            assert cell_prefix(campaign_mix(seed), digest) == \
                splitmix64(campaign_mix(seed) ^ digest) == prefix

    def test_standard_normal_is_pinned(self):
        for seed, z in ((0, -0.452757740217458), (1, -0.028249746095854695),
                        (2**63, 0.17296665463814775), (2**64 - 1, 0.4038981710442082),
                        (16294208416658607535, -0.2788749225862045),
                        (123456789, -1.9881494154350863)):
            assert standard_normal(seed) == z


class RecordingAdapter:
    """Returns a metric made from the run seed and records every run's
    (canonical configuration, workload, run seed)."""

    def __init__(self, space):
        self.space = space
        self.max_concurrency = 64
        self.runs = []

    def measure(self, config, workload, seed):
        self.runs.append((config.canonical(), workload.id, seed))
        return float(seed >> 11)


class TestSeedCensus:
    """Every run of a plan gets ``mix_seed(campaign seed, configuration,
    workload, repetition)``, whichever cell's seed prefix it shares."""

    def setup_method(self):
        self.space = unit_space(["p", "q"])
        self.workloads = [WorkloadSpec(id="w0"), WorkloadSpec(id="w1")]

    @staticmethod
    def seeded(seed, entries):
        return [(c.canonical(), w.id, mix_seed(seed, c, w.id, rep)) for c, w, rep in entries]

    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_every_entry_runs_with_its_mix_seed(self, parallelism):
        configs = [Configuration({"p": i / 4.0}) for i in range(5)] + [Configuration({})]
        cell_major = [(c, w, rep) for c in configs for w in self.workloads for rep in range(3)]
        # repetition outermost: consecutive entries belong to different cells
        rep_major = [(Configuration(c.assignments), w, rep)
                     for rep in (3, 4) for c in configs for w in self.workloads]
        plan = cell_major + rep_major
        adapter = RecordingAdapter(self.space)
        records = run_plan(adapter, plan, parallelism=parallelism, seed=41)
        want = self.seeded(41, plan)
        assert sorted(adapter.runs) == sorted(want)
        assert [m.metric_value for m in records] == [float(s >> 11) for _, _, s in want]

    def test_a_cell_with_a_stored_first_repetition_runs_the_rest_with_theirs(self, tmp_path):
        store = journal_store(tmp_path / "log.jsonl", 9, self.space)
        adapter = RecordingAdapter(self.space)
        run_plan(adapter, [(Configuration({"q": 0.5}), self.workloads[0], 0)],
                 seed=9, store=store)
        plan = [(Configuration({"q": 0.5}), w, rep) for w in self.workloads for rep in range(3)]
        adapter.runs.clear()
        run_plan(adapter, plan, seed=9, store=store)
        assert adapter.runs == self.seeded(9, plan[1:])


def build(style, config, workload_id, repetition, metric_value, outcome, wall_time=0.0,
          diagnostic=None):
    """A Measurement built with positional or with keyword arguments."""
    if style == "positional":
        return Measurement(config, workload_id, repetition, metric_value, outcome,
                           wall_time, diagnostic)
    return Measurement(config=config, workload_id=workload_id, repetition=repetition,
                       metric_value=metric_value, outcome=outcome, wall_time=wall_time,
                       diagnostic=diagnostic)


STYLES = ("positional", "keyword")


class TestMeasurement:
    """The record's one checked constructor, called with positional and with
    keyword arguments."""

    def test_ok_requires_finite_metric(self):
        for style in STYLES:
            for metric in (None, math.nan, math.inf, -math.inf):
                with pytest.raises(ParameterError, match="finite metric_value"):
                    build(style, Configuration({}), "w0", 0, metric, "ok")

    def test_records_have_no_instance_dict(self):
        for style in STYLES:
            m = build(style, Configuration({}), "w0", 0, 1.0, "ok")
            assert not hasattr(m, "__dict__")

    def test_crash_carries_no_metric(self):
        for style in STYLES:
            with pytest.raises(ParameterError, match="must not carry"):
                build(style, Configuration({}), "w0", 0, 5.0, "crash")
            m = build(style, Configuration({}), "w0", 0, None, "crash", diagnostic="boom")
            assert m.metric_value is None and m.diagnostic == "boom"

    @pytest.mark.parametrize("name", ["config", "workload_id", "repetition", "metric_value",
                                      "outcome", "wall_time", "diagnostic", "_key"])
    def test_fields_cannot_be_assigned(self, name):
        for style in STYLES:
            m = build(style, Configuration({"p": 1}), "w0", 0, 1.0, "ok")
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(m, name, None)

    def test_key_is_the_canonical_text_workload_and_repetition(self):
        for style in STYLES:
            config = Configuration({"q": 1.0, "p": "x\"y"})
            m = build(style, config, "w1", 3, None, "timeout", diagnostic="slow")
            assert m.key() == ('{"p": "x\\"y", "q": 1.0}', "w1", 3) == \
                (config.canonical(), m.workload_id, m.repetition)

    def test_equality_ignores_the_key(self):
        for style in STYLES:
            a = build(style, Configuration({"p": 1}), "w0", 2, 4.5, "ok", wall_time=0.25)
            b = build(style, Configuration({"p": 1}), "w0", 2, 4.5, "ok", wall_time=0.25)
            object.__setattr__(b, "_key", ("another", "key", 9))
            assert a == b and hash(a) == hash(b)
            assert a != build(style, Configuration({"p": 1}), "w0", 2, 4.5, "ok",
                              wall_time=0.5)

    @pytest.mark.parametrize("fields", [
        ({"p": -0.0, "s": "\u00e9"}, "w\"0", 0, 1e-300, "ok", 0.125, None),
        ({}, "w0", 2**40, None, "crash", 0.0, "exit 1\n"),
        ({"b": True}, "w1", 1, None, "timeout", 3.5, "slow"),
    ], ids=["ok", "crash", "timeout"])
    def test_from_json_round_trips(self, fields):
        assignments, *rest = fields
        for style in STYLES:
            m = build(style, Configuration(assignments), *rest)
            again = Measurement.from_json(json.loads(json.dumps(m.to_json())))
            assert again == m and again.key() == m.key()
            assert again.to_json() == m.to_json()

    def test_the_key_is_not_an_argument(self):
        with pytest.raises(TypeError):
            Measurement(Configuration({}), "w0", 0, 1.0, "ok", _key=("{}", "w0", 0))


class TestRunExperiment:
    def setup_method(self):
        self.space = unit_space(["p"])
        self.w = one_workload()[0]

    def test_flat_model_identity(self):
        adapter = flat_adapter(self.space)
        m = run_experiment(adapter, Configuration({"p": 0.3}), self.w, 0, seed=1)
        assert m.outcome == "ok" and m.metric_value == 1000.0

    def test_planted_crash_region(self):
        space = ParameterSpace((ParameterSpec(
            name="p", domain=Domain("integer", 0, 12), default=0),))
        adapter = flat_adapter(space, crashes={"p": CrashRegion(8, 10)})
        m = run_experiment(adapter, Configuration({"p": 9}), self.w, 0, seed=1)
        assert m.outcome == "crash" and m.metric_value is None
        ok = run_experiment(adapter, Configuration({"p": 8}), self.w, 0, seed=1)
        assert ok.outcome == "ok"  # the region is open at its low end

    def test_linear_up_at_domain_max(self):
        adapter = flat_adapter(self.space,
                               responses={"p": Response(shape="linear-up", strength=0.2)})
        m = run_experiment(adapter, Configuration({"p": 1.0}), self.w, 0, seed=1)
        assert m.metric_value == pytest.approx(1200.0, abs=1e-9)

    def test_simulator_determinism_bit_identical(self):
        adapter = flat_adapter(self.space, sigma=0.05)
        a = run_experiment(adapter, Configuration({"p": 0.4}), self.w, 3, seed=99)
        b = run_experiment(adapter, Configuration({"p": 0.4}), self.w, 3, seed=99)
        assert a.metric_value == b.metric_value
        c = run_experiment(adapter, Configuration({"p": 0.4}), self.w, 4, seed=99)
        assert c.metric_value != a.metric_value

    def test_invalid_configuration_rejected(self):
        adapter = flat_adapter(self.space)
        with pytest.raises(ParameterError):
            run_experiment(adapter, Configuration({"p": 3.0}), self.w, 0, seed=1)


# run_plan's refusals, in the order it checks them
PLAN_ERRORS = (("duplicate", "plan entries must be unique"),
               ("parallelism", "parallelism must be >= 1"),
               ("invalid", "invalid configuration: p=3.0 out of range continuous[0.0, 1.0]"),
               ("seed", "the store holds seed 3's runs, not seed 4's"))


class TestRunPlan:
    def setup_method(self):
        self.space = unit_space(["p", "q"])
        self.w = one_workload()[0]

    def test_empty_plan_empty_log(self):
        log = run_plan(flat_adapter(self.space), [], seed=0)
        assert len(log) == 0

    def test_full_study_scale_plan_count(self):
        # 2099 configs x 3 repetitions = 6297 records, matching the sweep
        # arithmetic scale reported for the full parameter study.
        adapter = flat_adapter(self.space)
        plan = [(Configuration({"p": (i % 1000) / 1000.0, "q": (i // 1000) / 10.0}),
                 self.w, rep)
                for i in range(2099) for rep in range(3)]
        log = run_plan(adapter, plan, parallelism=8, seed=5)
        assert len(log) == 6297

    def test_parallelism_does_not_change_content(self):
        adapter = flat_adapter(self.space, sigma=0.02)
        plan = [(Configuration({"p": i / 40.0}), self.w, rep)
                for i in range(40) for rep in range(3)]
        log1 = run_plan(adapter, plan, parallelism=1, seed=11)
        log8 = run_plan(adapter, plan, parallelism=8, seed=11)
        strip = lambda log: [(m.config.canonical(), m.workload_id, m.repetition,
                              m.metric_value, m.outcome) for m in log]
        assert strip(log1) == strip(log8)

    def test_plan_entries_must_be_unique(self):
        entry = (Configuration({"p": 0.5}), self.w, 0)
        with pytest.raises(ParameterError):
            run_plan(flat_adapter(self.space), [entry, entry], seed=0)

    @pytest.mark.parametrize("errors", [
        [name for i, (name, _) in enumerate(PLAN_ERRORS) if mask >> i & 1]
        for mask in range(1, 2 ** len(PLAN_ERRORS))])
    def test_plan_errors_raise_in_order_and_journal_nothing(self, tmp_path, errors):
        # The invalid configuration comes first and the repeated entry last,
        # so the error raised is decided by precedence, not by plan position.
        adapter = flat_adapter(self.space)
        calls = count_calls(adapter)
        plan = [(Configuration({"p": i / 10.0}), self.w, 0) for i in range(4)]
        if "invalid" in errors:
            plan.insert(0, (Configuration({"p": 3.0}), self.w, 0))
        if "duplicate" in errors:
            plan.append((Configuration({"p": 0.1}), self.w, 0))
        path = tmp_path / "log.jsonl"
        store = journal_store(path, 3, self.space)
        message = next(text for name, text in PLAN_ERRORS if name in errors)
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            run_plan(adapter, plan, parallelism=0 if "parallelism" in errors else 2,
                     seed=4 if "seed" in errors else 3, store=store)
        assert calls == []
        assert not path.exists()
        assert store.journaled("sweep") == 0 and len(store) == 0

    def test_plan_with_an_invalid_last_entry_measures_and_journals_nothing(self, tmp_path):
        adapter = flat_adapter(self.space)
        calls = count_calls(adapter)
        plan = [(Configuration({"p": i / 10.0}), self.w, 0) for i in range(5)]
        plan.append((Configuration({"p": 3.0}), self.w, 0))
        path = tmp_path / "log.jsonl"
        store = journal_store(path, 3, self.space)
        with pytest.raises(ParameterError, match="p=3.0 out of range"):
            run_plan(adapter, plan, seed=3, store=store)
        assert calls == []
        assert not path.exists()
        assert store.journaled("sweep") == 0 and len(store) == 0

    def test_each_distinct_configuration_is_validated_once(self, monkeypatch):
        from tuneforge import harness
        checked = []
        original = harness.validate_configuration

        def counting(space, config):
            checked.append(config.canonical())
            return original(space, config)

        monkeypatch.setattr(harness, "validate_configuration", counting)
        workloads = [self.w, WorkloadSpec(id="w1")]
        configs = [Configuration({"p": v}) for v in (0.0, 0.5, 1.0)]
        plan = [(Configuration(c.assignments), w, rep)
                for c in configs for w in workloads for rep in range(3)]
        assert len(run_plan(flat_adapter(self.space), plan, seed=0)) == 18
        assert checked == [c.canonical() for c in configs]

    def test_resume_skips_completed_entries(self, tmp_path):
        adapter = flat_adapter(self.space, sigma=0.01)
        plan = [(Configuration({"p": i / 10.0}), self.w, 0) for i in range(10)]
        store = journal_store(tmp_path / "log.jsonl", 3, self.space)
        run_plan(adapter, plan[:5], seed=3, store=store)
        calls = count_calls(adapter)
        full = run_plan(adapter, plan, seed=3, store=store)
        assert len(full) == 10
        assert len(calls) == 5  # only the missing half was measured
        assert store.journaled("sweep") == 10 and len(store) == 10

    def test_resume_rejects_mismatched_seed(self, tmp_path):
        adapter = flat_adapter(self.space)
        plan = [(Configuration({"p": 0.1}), self.w, 0)]
        store = journal_store(tmp_path / "log.jsonl", 3, self.space)
        run_plan(adapter, plan, seed=3, store=store)
        with pytest.raises(ParameterError):
            run_plan(adapter, plan, seed=4, store=store)
        with pytest.raises(ParameterError, match="recorded with seed 3"):
            run_plan(adapter, plan, seed=4,
                     store=journal_store(tmp_path / "log.jsonl", 4, self.space))

    def test_noise_unbiased_at_desk_scale(self):
        adapter = flat_adapter(self.space, sigma=0.05)
        plan = [(Configuration({"p": 0.5}), self.w, rep) for rep in range(1000)]
        log = run_plan(adapter, plan, parallelism=8, seed=21)
        mean_ratio = sum(m.metric_value for m in log) / len(log) / 1000.0
        assert 0.99 <= mean_ratio <= 1.02  # lognormal mean exp(sigma^2/2) ~ 1.00125

    def test_crash_recorded_per_entry_without_aborting(self):
        space = ParameterSpace((ParameterSpec(
            name="p", domain=Domain("integer", 0, 12), default=0),))
        adapter = flat_adapter(space, crashes={"p": CrashRegion(8, 10)})
        plan = [(Configuration({"p": v}), self.w, 0) for v in (1, 9, 12)]
        log = run_plan(adapter, plan, seed=0)
        assert [m.outcome for m in log] == ["ok", "crash", "ok"]

    def test_non_finite_metric_is_crash_without_aborting(self):
        # e.g. a shell benchmark printing "METRIC nan" or "METRIC inf"
        values = {0.1: 5.0, 0.2: math.nan, 0.3: math.inf, 0.4: -math.inf, 0.5: 7.0}

        class StubAdapter:
            space = self.space
            max_concurrency = 1

            def measure(self, config, workload, seed):
                return values[config.assignments["p"]]

        plan = [(Configuration({"p": v}), self.w, 0) for v in values]
        log = run_plan(StubAdapter(), plan, seed=0)
        assert [m.outcome for m in log] == ["ok", "crash", "crash", "crash", "ok"]
        assert [m.metric_value for m in log] == [5.0, None, None, None, 7.0]
        assert [m.diagnostic for m in log] == [
            None, "non-finite metric nan", "non-finite metric inf",
            "non-finite metric -inf", None]


class TestCrashRecovery:
    def setup_method(self):
        self.space = unit_space(["p"])
        self.w = one_workload()[0]
        self.plan = [(Configuration({"p": i / 10.0}), self.w, 0) for i in range(10)]

    def test_journal_written_incrementally_and_resumed(self, tmp_path):
        adapter = flat_adapter(self.space, sigma=0.02)
        journal = tmp_path / "log.jsonl"
        # first run dies after half the plan (simulated by only submitting half)
        run_plan(adapter, self.plan[:5], seed=3, store=journal_store(journal, 3, self.space))
        partial = MeasurementLog.load(str(journal))
        assert len(partial) == 5
        assert partial.meta == {"stage": "sweep"}

        calls = count_calls(adapter)
        full = run_plan(adapter, self.plan, seed=3, store=journal_store(journal, 3, self.space))
        assert len(full) == 10
        assert len(calls) == 5  # journal carried the first half

    def test_torn_trailing_write_is_dropped_on_load(self, tmp_path):
        adapter = flat_adapter(self.space)
        journal = tmp_path / "log.jsonl"
        run_plan(adapter, self.plan[:4], seed=0, store=journal_store(journal, 0, self.space))
        with open(journal, "a", encoding="utf-8") as fh:
            fh.write('{"config": {"p": 0.9}, "workl')  # killed mid-write
        recovered = MeasurementLog.load(str(journal))
        assert len(recovered) == 4
        store = journal_store(journal, 0, self.space)
        assert len(store) == 4
        assert_index_matches(store, recovered)
        assert stored_cell(store, Configuration({"p": 0.9}), "w0") == ()
        # and the resumed run completes the plan without tripping on the tear
        full = run_plan(adapter, self.plan, seed=0, store=journal_store(journal, 0, self.space))
        assert len(full) == 10
        assert len(MeasurementLog.load(str(journal))) == 10

    def test_torn_tail_is_cut_before_the_next_append(self, tmp_path):
        # Once glued onto a torn line, a record was unreadable, and so was
        # every record after it: each resume measured them all again.
        adapter = flat_adapter(self.space, sigma=0.02)
        journal = tmp_path / "log.jsonl"
        run_plan(adapter, self.plan[:4], seed=0, store=journal_store(journal, 0, self.space))
        with open(journal, "a", encoding="utf-8") as fh:
            fh.write('{"config": {"p": 0.9}, "workl')
        calls = count_calls(adapter)
        run_plan(adapter, self.plan[:8], seed=0, store=journal_store(journal, 0, self.space))
        assert len(calls) == 4
        assert len(MeasurementLog.load(str(journal))) == 8
        run_plan(adapter, self.plan, seed=0, store=journal_store(journal, 0, self.space))
        assert len(calls) == 6
        assert journal.read_bytes().count(b"\n") == 11  # the header and ten records

    @pytest.mark.parametrize("field, value", [
        ("repetition", 1.7), ("repetition", True), ("repetition", "2"), ("wall_time", "0.1"),
        ("outcome", "bogus"), ("outcome", "timeout"), ("config", [["p", 0.9]]),
        ("diagnostic", 5),
    ], ids=["repetition-float", "repetition-true", "repetition-string", "wall-time-string",
            "outcome-unknown", "timeout-with-metric", "config-pairs", "diagnostic-int"])
    def test_line_not_of_the_written_types_is_skipped(self, tmp_path, field, value):
        # Each once loaded as a converted record: repetitions 1.7 and true
        # both as 1, so two different lines could share one key.
        adapter = flat_adapter(self.space)
        journal = tmp_path / "log.jsonl"
        run_plan(adapter, self.plan[:4], seed=0, store=journal_store(journal, 0, self.space))
        line = {"config": {"p": 0.9}, "workload_id": "w0", "repetition": 0,
                "metric_value": 1000.0, "outcome": "ok", "wall_time": 0.0, field: value}
        with open(journal, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(line) + "\n")
        store = journal_store(journal, 0, self.space)
        assert len(store) == 4 and stored_cell(store, Configuration({"p": 0.9}), "w0") == ()
        calls = count_calls(adapter)
        assert len(run_plan(adapter, self.plan, seed=0, store=store)) == 10
        assert len(calls) == 6

    @pytest.mark.parametrize("content", [b"", b'{"seed": 0, "space_h', b"not a header\n"])
    def test_journal_without_a_header_holds_no_records(self, tmp_path, content):
        # empty: killed between creating the file and writing its header
        adapter = flat_adapter(self.space)
        journal = tmp_path / "log.jsonl"
        journal.write_bytes(content)
        calls = count_calls(adapter)
        full = run_plan(adapter, self.plan, seed=0, store=journal_store(journal, 0, self.space))
        assert len(full) == 10 and len(calls) == 10
        loaded = MeasurementLog.load(str(journal))
        assert loaded.seed == 0 and len(loaded) == 10

    def test_index_holds_records_carried_from_existing_and_journal(self, tmp_path):
        # ``ours`` measured the first records in this process; an independent
        # store then appends more to the same journal, as another process
        # would between two of this process's plans.
        adapter = flat_adapter(self.space, sigma=0.02)
        journal = tmp_path / "log.jsonl"
        plan = [(c, w, rep) for c, w, _ in self.plan for rep in range(2)]
        ours = journal_store(journal, 2, self.space)
        existing = run_plan(adapter, plan[:6], seed=2, store=ours)
        run_plan(adapter, plan[6:12], seed=2, store=journal_store(journal, 2, self.space))
        calls = count_calls(adapter)
        full = run_plan(adapter, plan, seed=2, store=ours)
        assert len(full) == len(plan) and len(calls) == len(plan) - 12
        assert len(ours) == len(plan)
        assert_index_matches(ours, full)
        assert full[:6] == existing
        assert len(MeasurementLog.load(str(journal))) == len(plan)

    def test_removed_journal_is_read_again_and_rebuilt(self, tmp_path):
        adapter = flat_adapter(self.space)
        journal = tmp_path / "log.jsonl"
        store = journal_store(journal, 1, self.space)
        run_plan(adapter, self.plan, seed=1, store=store)
        journal.unlink()
        calls = count_calls(adapter)
        run_plan(adapter, self.plan[:3], seed=1, store=store)
        assert len(calls) == 3 and len(store) == 3
        assert len(MeasurementLog.load(str(journal))) == 3

    def test_append_after_begin_keeps_an_existing_journal(self, tmp_path):
        adapter = flat_adapter(self.space)
        journal = tmp_path / "log.jsonl"
        run_plan(adapter, self.plan[:3], seed=1, store=journal_store(journal, 1, self.space))
        store = journal_store(journal, 1, self.space)
        store.append(run_experiment(adapter, *self.plan[3], seed=1))
        store.commit([])
        assert len(MeasurementLog.load(str(journal))) == 4

    def test_completed_journal_untouched_on_noop_rerun(self, tmp_path):
        adapter = flat_adapter(self.space)
        journal = tmp_path / "log.jsonl"
        run_plan(adapter, self.plan, seed=1, store=journal_store(journal, 1, self.space))
        before = journal.read_bytes()
        run_plan(adapter, self.plan, seed=1, store=journal_store(journal, 1, self.space))
        assert journal.read_bytes() == before

    def test_store_cell_is_in_repetition_order_at_any_parallelism(self, tmp_path):
        adapter = flat_adapter(self.space, sigma=0.02)
        config = Configuration({"p": 0.5})
        plan = [(config, self.w, rep) for rep in reversed(range(40))]
        store = journal_store(tmp_path / "log.jsonl", 4, self.space)
        records = run_plan(adapter, plan, parallelism=8, seed=4, store=store)
        assert [m.repetition for m in records] == list(reversed(range(40)))
        assert [m.repetition for m in stored_cell(store, config, "w0")] == list(range(40))
        assert store.has(config, "w0", 39) and not store.has(config, "w0", 40)

    def test_interrupted_plan_indexes_what_it_journaled(self, tmp_path):
        adapter = flat_adapter(self.space)
        original = adapter.measure
        done = []

        def interrupted(config, workload, seed):
            if len(done) == 4:
                raise KeyboardInterrupt
            done.append(config.canonical())
            return original(config, workload, seed)

        adapter.measure = interrupted
        store = journal_store(tmp_path / "log.jsonl", 0, self.space)
        with pytest.raises(KeyboardInterrupt):
            run_plan(adapter, self.plan, seed=0, store=store)
        assert len(store) == 4 and store.journaled("sweep") == 4
        adapter.measure = original
        calls = count_calls(adapter)
        run_plan(adapter, self.plan, seed=0, store=store)
        assert len(calls) == 6
        assert len(MeasurementLog.load(str(tmp_path / "log.jsonl"))) == 10


# Every JSON scalar a configuration value may be; floats include -0.0, NaN,
# infinities, subnormals and the largest finite values.
class TestConfigurationIdentity:
    """A configuration's identity is its canonical text, not ``==`` on values."""

    def setup_method(self):
        self.space = ParameterSpace((ParameterSpec("a", Domain("enum", values=(1, 1.0, True)),
                                                   default=1),))
        self.w = one_workload()[0]

    def test_equal_values_of_distinct_types_are_distinct_entries(self, tmp_path):
        configs = [Configuration({"a": v}) for v in (1, 1.0, True)]
        assert len({c.canonical() for c in configs}) == 3
        plan = [(c, self.w, 0) for c in configs]
        store = journal_store(tmp_path / "log.jsonl", 0, self.space)
        records = run_plan(flat_adapter(self.space), plan, seed=0, store=store)
        assert len({m.key() for m in records}) == 3
        assert len(store) == 3 and store.journaled("sweep") == 3
        for c, m in zip(configs, records):
            assert stored_cell(store, c, self.w.id) == (m,)
            assert store.has(c, self.w.id, 0)

    def test_equal_configurations_built_separately_share_one_entry(self, tmp_path):
        store = journal_store(tmp_path / "log.jsonl", 0, self.space)
        adapter = flat_adapter(self.space)
        calls = count_calls(adapter)
        first = run_plan(adapter, [(Configuration({"a": 1.0}), self.w, 0)], seed=0, store=store)
        again = run_plan(adapter, [(Configuration({"a": 1.0}), self.w, 0)], seed=0, store=store)
        assert again[0] is first[0] and calls == ['{"a": 1.0}']
        assert len(store) == 1 and store.journaled("sweep") == 1

    def test_a_repeated_entry_is_refused(self):
        for value in (1, 1.0, True):
            entry = (Configuration({"a": value}), self.w, 2)
            again = (Configuration({"a": value}), self.w, 2)
            with pytest.raises(ParameterError, match="unique"):
                run_plan(flat_adapter(self.space), [entry, again], seed=0)


json_scalars = st.one_of(st.integers(-2**70, 2**70), st.floats(), st.booleans(),
                         st.text(), st.none())
outcomes = st.one_of(
    st.tuples(st.just("ok"), st.floats(allow_nan=False, allow_infinity=False)),
    st.tuples(st.just("crash"), st.none()),
    st.tuples(st.just("timeout"), st.one_of(st.none(), st.floats())))


class TestJournalLine:
    @settings(max_examples=400, deadline=None)
    @given(assignments=st.dictionaries(st.text(), json_scalars, max_size=4),
           workload_id=st.text(min_size=1), repetition=st.integers(0, 2**40),
           outcome=outcomes, wall_time=st.floats(),
           diagnostic=st.one_of(st.none(), st.text()))
    @example(assignments={"q": -0.0, "p\u00e9": 5e-324, "b": True, "s": 'x"y', "n": None},
             workload_id="w\u00fc\"0", repetition=0, outcome=("ok", 1.7976931348623157e308),
             wall_time=-0.0, diagnostic='exit "1":\nstack\ttrace \u2603 \U0001f600\\')
    @example(assignments={}, workload_id="w0", repetition=2**40, outcome=("timeout", None),
             wall_time=2.2250738585072014e-308, diagnostic="")
    def test_line_is_the_sorted_json_of_the_record(self, assignments, workload_id, repetition,
                                                   outcome, wall_time, diagnostic):
        m = Measurement(Configuration(assignments), workload_id, repetition, outcome[1],
                        outcome[0], wall_time=wall_time, diagnostic=diagnostic)
        assert m.journal_line() == json.dumps(m.to_json(), sort_keys=True) + "\n"

    def test_log_save_and_store_append_write_the_same_bytes(self, tmp_path):
        records, _ = random_log(random.Random(14), records=300)
        records.append(Measurement(Configuration({"a": -0.0}), "w0", 7, None, "crash",
                                   wall_time=1e-300, diagnostic='bad "quote"\n\u00e9'))
        log = MeasurementLog(seed=6, space_hash="h", meta={"stage": "screen"})
        for m in records:
            log.append(m)
        log.save(str(tmp_path / "saved.jsonl"))
        store = CampaignStore(6, "h", {"screen": str(tmp_path / "appended.jsonl")})
        store.begin("screen")
        for m in records:
            store.append(m)
        store.commit(records)
        assert (tmp_path / "appended.jsonl").read_bytes() == \
            (tmp_path / "saved.jsonl").read_bytes()


ESCAPED = ("plain", 'q"uote', "back\\slash", "tab\tnew\nline", "\u00e9t\u00e9",
           "\U0001f600", "\x1f")
CENSUS_SPACE = ParameterSpace((
    ParameterSpec(name="i", domain=Domain("integer", -5, 5), default=0),
    ParameterSpec(name="f", domain=Domain("continuous", -1.0, 1.0), default=0.0),
    ParameterSpec(name="b", domain=Domain("boolean"), default=False),
    ParameterSpec(name="s", domain=Domain("enum", values=ESCAPED), default="plain"),
))
CENSUS_WORKLOADS = (WorkloadSpec(id="w0"), WorkloadSpec(id='w"\u00fc\\1\n'))
census_configs = st.fixed_dictionaries({}, optional={
    "i": st.integers(-5, 5), "f": st.floats(-1.0, 1.0) | st.just(-0.0),
    "b": st.booleans(), "s": st.sampled_from(ESCAPED)})
census_behaviours = st.one_of(
    st.tuples(st.just("ok"), st.floats(allow_nan=False, allow_infinity=False)),
    st.tuples(st.just("crash"), st.text(max_size=8)),
    st.tuples(st.just("timeout"), st.text(max_size=8)),
    st.tuples(st.just("non-finite"), st.sampled_from([math.nan, math.inf, -math.inf])),
    st.tuples(st.just("exception"), st.text(max_size=8)))


class ScriptedAdapter:
    """Behaves as ``script`` says for each run seed: returns a metric or
    raises as a crashing, timing-out or failing target would."""

    max_concurrency = 64

    def __init__(self, space, script):
        self.space = space
        self.script = script

    def measure(self, config, workload, seed):
        kind, value = self.script[seed]
        if kind == "crash":
            raise CrashError(value)
        if kind == "timeout":
            raise TimeoutError(value)
        if kind == "exception":
            raise Exception(value)
        return value


def expected_outcome(kind, value):
    """(outcome, metric, diagnostic) of one scripted run."""
    if kind == "ok":
        return "ok", value, None
    if kind == "non-finite":
        return "crash", None, f"non-finite metric {value}"
    if kind == "exception":
        return "crash", None, f"Exception: {value}"
    return kind, None, value


class TestJournalCensus:
    """Every line ``run_plan`` journals is the sorted JSON of the record it
    returns, for every outcome and for configuration values and workload ids
    that need escaping, at any parallelism, and reads back as that record."""

    @settings(max_examples=60, deadline=None)
    @given(entries=st.lists(st.tuples(census_configs, st.sampled_from(range(2)),
                                      st.integers(0, 2), census_behaviours),
                            min_size=1, max_size=24,
                            unique_by=lambda e: (Configuration(e[0]).canonical(), e[1], e[2])),
           seed=st.integers(0, 2**64 - 1))
    @example(entries=[({"f": -0.0, "s": 'q"uote'}, 1, 0, ("ok", -0.0)),
                      ({"f": -0.0, "s": 'q"uote'}, 1, 1, ("crash", 'exit "1"\n')),
                      ({"f": 0.0}, 1, 0, ("timeout", "slow")),
                      ({"i": 1, "b": True}, 0, 2, ("non-finite", math.nan)),
                      ({"i": 1, "b": True}, 0, 0, ("exception", "\u2603")),
                      ({}, 0, 0, ("ok", 1e308))], seed=0)
    def test_each_line_is_the_sorted_json_of_its_record(self, entries, seed):
        plan = [(Configuration(a), CENSUS_WORKLOADS[w], rep) for a, w, rep, _ in entries]
        script = {mix_seed(seed, c, w.id, rep): behaviour
                  for (c, w, rep), (*_, behaviour) in zip(plan, entries)}
        runs = {}
        with tempfile.TemporaryDirectory() as tmp:
            for parallelism in (1, 4):
                path = os.path.join(tmp, f"p{parallelism}.jsonl")
                store = journal_store(path, seed, CENSUS_SPACE)
                records = run_plan(ScriptedAdapter(CENSUS_SPACE, script), plan,
                                   parallelism=parallelism, seed=seed, store=store)
                assert [(m.outcome, m.metric_value, m.diagnostic) for m in records] == \
                    [expected_outcome(*behaviour) for *_, behaviour in entries]
                with open(path, encoding="utf-8") as fh:
                    lines = fh.readlines()[1:]
                written = [json.dumps(m.to_json(), sort_keys=True) + "\n" for m in records]
                if parallelism == 1:
                    assert lines == written
                else:
                    assert sorted(lines) == sorted(written)
                fresh = CampaignStore(seed, CENSUS_SPACE.space_hash(), {"sweep": path})
                fresh.refresh()
                assert len(fresh) == len(records)
                assert [fresh.get(m.key()) for m in records] == records
                runs[parallelism] = [dataclasses.replace(m, wall_time=0.0) for m in records]
        assert runs[1] == runs[4]


class TestMeasurementLog:
    def test_round_trip(self, tmp_path):
        log = MeasurementLog(seed=9, space_hash="abc", meta={"stage": "sweep"})
        log.append(Measurement(Configuration({"p": 1}), "w0", 0, 10.5, "ok", wall_time=0.1))
        log.append(Measurement(Configuration({"p": 2}), "w0", 0, None, "crash",
                               diagnostic="boom"))
        path = tmp_path / "log.jsonl"
        log.save(str(path))
        loaded = MeasurementLog.load(str(path))
        assert loaded.seed == 9 and loaded.campaign_id == log.campaign_id
        assert [m.to_json() for m in loaded] == [m.to_json() for m in log]

    def test_duplicate_keys_rejected(self):
        log = MeasurementLog(seed=0, space_hash="x")
        m = Measurement(Configuration({"p": 1}), "w0", 0, 1.0, "ok")
        log.append(m)
        with pytest.raises(ParameterError):
            log.append(m)
        with pytest.raises(ParameterError):
            log.append(Measurement(Configuration({"p": 1}), "w0", 0, 2.0, "ok"))
        assert list(log) == [m]


    def test_load_shares_equal_configurations_and_saves_identically(self, tmp_path):
        log = MeasurementLog(seed=0, space_hash="x")
        for m in random_log(random.Random(5), records=400)[0]:
            log.append(m)
        for value in (1, 1.0, True):  # equal under ==, distinct canonical forms
            log.append(Measurement(Configuration({"a": value}), "w0", 9, 1.0, "ok"))
        path, again = tmp_path / "log.jsonl", tmp_path / "again.jsonl"
        log.save(str(path))
        loaded = MeasurementLog.load(str(path))
        loaded.save(str(again))
        assert again.read_bytes() == path.read_bytes()
        first: dict[str, Configuration] = {}
        for m in loaded:
            shared = first.setdefault(m.config.canonical(), m.config)
            assert m.config is shared
            assert m.workload_id is sys.intern(m.workload_id)
            assert m.outcome is sys.intern(m.outcome)
        assert len({id(m.config) for m in loaded}) == len(first) < len(loaded)
        store = CampaignStore(0, "x", {"sweep": str(path)})
        store.refresh()
        assert_index_matches(store, loaded)


    def test_only_the_harness_names_the_journal_format(self):
        # the campaign store is the one index; the other modules read records
        import tuneforge
        package = os.path.dirname(tuneforge.__file__)

        def names_it(name):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                return "MeasurementLog" in fh.read()

        naming = sorted(n for n in os.listdir(package) if n.endswith(".py") and names_it(n))
        assert naming == ["__init__.py", "harness.py"]


class TestShellAdapter:
    def make_script(self, tmp_path, body):
        path = tmp_path / "bench.sh"
        path.write_text("#!/bin/sh\n" + body + "\n")
        path.chmod(path.stat().st_mode | stat.S_IEXEC)
        return str(path)

    def test_metric_line_parsed_and_env_passed(self, tmp_path):
        space = unit_space(["knob"], default=0.25)
        script = self.make_script(tmp_path, 'echo "METRIC $knob"')
        adapter = ShellAdapter(space, script)
        m = run_experiment(adapter, Configuration({"knob": 0.75}), one_workload()[0], 0, 1)
        assert m.outcome == "ok" and m.metric_value == 0.75

    def test_defaults_resolved_into_env(self, tmp_path):
        space = unit_space(["knob"], default=0.25)
        script = self.make_script(tmp_path, 'echo "METRIC $knob"')
        adapter = ShellAdapter(space, script)
        m = run_experiment(adapter, Configuration({}), one_workload()[0], 0, 1)
        assert m.metric_value == 0.25

    def test_nonzero_exit_is_crash(self, tmp_path):
        space = unit_space(["knob"])
        script = self.make_script(tmp_path, "exit 3")
        adapter = ShellAdapter(space, script)
        m = run_experiment(adapter, Configuration({}), one_workload()[0], 0, 1)
        assert m.outcome == "crash" and "3" in m.diagnostic

    @pytest.mark.parametrize("kind", ["missing", "not-executable"])
    def test_command_that_cannot_start_is_adapter_error(self, tmp_path, kind):
        space = unit_space(["knob"])
        command = str(tmp_path / "nowhere" / "bench.sh")
        if kind == "not-executable":
            command = self.make_script(tmp_path, 'echo "METRIC 1"')
            os.chmod(command, 0o644)
        adapter = ShellAdapter(space, command)
        with pytest.raises(AdapterError, match="cannot start"):
            run_experiment(adapter, Configuration({}), one_workload()[0], 0, 1)
        journal = tmp_path / "log.jsonl"
        plan = [(Configuration({"knob": 0.5}), one_workload()[0], 0)]
        with pytest.raises(AdapterError):
            run_plan(adapter, plan, seed=1, store=journal_store(journal, 1, space))
        assert not journal.exists()

    @pytest.mark.parametrize("command", ["", "   ", "'unclosed"])
    def test_command_without_a_program_is_rejected(self, command):
        with pytest.raises(ParameterError):
            ShellAdapter(unit_space(["knob"]), command)

    def test_missing_metric_line_aborts_with_adapter_error(self, tmp_path):
        # a broken adapter contract is not a crash of the system under test
        space = unit_space(["knob"])
        script = self.make_script(tmp_path, 'echo "no metric here"')
        adapter = ShellAdapter(space, script)
        with pytest.raises(AdapterError, match="METRIC"):
            run_experiment(adapter, Configuration({}), one_workload()[0], 0, 1)
        journal = tmp_path / "log.jsonl"
        plan = [(Configuration({"knob": v}), one_workload()[0], 0) for v in (0.1, 0.2)]
        with pytest.raises(AdapterError):
            run_plan(adapter, plan, seed=1, store=journal_store(journal, 1, space))
        assert not journal.exists()
