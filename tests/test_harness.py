"""Harness: run_experiment outcomes, plan execution, log persistence, seeds."""

import math
import os
import random
import stat
import sys

import pytest

from helpers import one_workload, random_log, unit_space
from tuneforge.errors import AdapterError, ParameterError
from tuneforge.harness import (CampaignStore, Measurement, MeasurementLog, ShellAdapter,
                               mix_seed, run_experiment, run_plan, splitmix64)
from tuneforge.simulator import (CrashRegion, Response, SimulatorAdapter,
                                 SimulatorModel)
from tuneforge.space import Configuration, Domain, ParameterSpace, ParameterSpec


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
        assert store.cell(cell[0].config, cell[0].workload_id) == \
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


class TestMeasurement:
    def test_ok_requires_finite_metric(self):
        with pytest.raises(ParameterError):
            Measurement(Configuration({}), "w0", 0, None, "ok")
        with pytest.raises(ParameterError):
            Measurement(Configuration({}), "w0", 0, math.nan, "ok")

    def test_records_have_no_instance_dict(self):
        m = Measurement(Configuration({}), "w0", 0, 1.0, "ok")
        assert not hasattr(m, "__dict__")

    def test_crash_carries_no_metric(self):
        with pytest.raises(ParameterError):
            Measurement(Configuration({}), "w0", 0, 5.0, "crash")
        m = Measurement(Configuration({}), "w0", 0, None, "crash", diagnostic="boom")
        assert m.metric_value is None


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

    def test_resume_skips_completed_entries(self, tmp_path):
        adapter = flat_adapter(self.space, sigma=0.01)
        plan = [(Configuration({"p": i / 10.0}), self.w, 0) for i in range(10)]
        store = journal_store(tmp_path / "log.jsonl", 3, self.space)
        run_plan(adapter, plan[:5], seed=3, store=store)
        calls = count_calls(adapter)
        full = run_plan(adapter, plan, seed=3, store=store)
        assert len(full) == 10
        assert len(calls) == 5  # only the missing half was measured
        assert store.appended == 10 and len(store) == 10

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
        assert store.cell(Configuration({"p": 0.9}), "w0") == ()
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
        assert [m.repetition for m in store.cell(config, "w0")] == list(range(40))
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
        assert len(store) == 4 and store.appended == 4
        adapter.measure = original
        calls = count_calls(adapter)
        run_plan(adapter, self.plan, seed=0, store=store)
        assert len(calls) == 6
        assert len(MeasurementLog.load(str(tmp_path / "log.jsonl"))) == 10


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
