"""Sweep planning, CV computation, shape classification, safe ranges, top-k."""

import json
import re

import pytest

from helpers import cv_oracle, one_workload, unit_space
from tuneforge.errors import AnalysisError, ParameterError
from tuneforge.harness import Measurement, MeasurementLog, run_plan
from tuneforge.sensitivity import (SensitivityProfile, SensitivityReport, SafeRange,
                                   SweepResult, analyze_sensitivity, build_sweep_results,
                                   classify_shape, compute_cv, degraded, extract_safe_range,
                                   plan_sweep, select_top_k, sweep_levels)
from tuneforge.simulator import (CrashRegion, Response, SimulatorAdapter,
                                 SimulatorModel)
from tuneforge.space import (Configuration, Domain, ParameterSpace, ParameterSpec,
                             WorkloadSpec)


def mixed_space():
    """One parameter of each domain kind, defaults on the grid but for `off`."""
    return ParameterSpace((
        ParameterSpec(name="cont", domain=Domain("continuous", 0.0, 1.0), default=0.5),
        ParameterSpec(name="int", domain=Domain("integer", 1, 9), default=1),
        ParameterSpec(name="mode", domain=Domain("enum", values=("a", "b", "c")), default="b"),
        ParameterSpec(name="flag", domain=Domain("boolean"), default=False),
        ParameterSpec(name="off", domain=Domain("continuous", 0.0, 1.0), default=0.3),
    ))


def sweep_of(means, parameter="p", workload="w0", reps=1, excluded=None):
    """SweepResult with the given level means (each level = `reps` equal values)."""
    levels = list(range(len(means)))
    values = [[m] * reps if m is not None else [] for m in means]
    return SweepResult(parameter=parameter, workload_id=workload, levels=levels,
                       values=values,
                       excluded=excluded or [{} for _ in means])


class TestPlanSweep:
    def test_one_param_three_levels_three_reps(self):
        space = unit_space(["p"])
        plan = plan_sweep(space, one_workload(), levels_per_param=3, repetitions=3)
        sweep_entries = [e for e in plan if not e[0].is_default()]
        baseline_entries = [e for e in plan if e[0].is_default()]
        assert len(sweep_entries) == 6
        assert len(baseline_entries) == 3

    def test_full_study_scale_arithmetic(self):
        # 116 parameters x 5 non-default levels x 3 reps x 3 workloads, plus
        # the baseline, which is also every parameter's sixth (default) level
        space = unit_space([f"p{i:03d}" for i in range(116)])
        workloads = [WorkloadSpec(id=w) for w in ("w1", "w2", "w3")]
        plan = plan_sweep(space, workloads, levels_per_param=6, repetitions=3)
        sweep_entries = [e for e in plan if not e[0].is_default()]
        assert len(sweep_entries) == 116 * 5 * 3 * 3
        assert len(plan) == 5229
        log = run_plan(SimulatorAdapter(space, SimulatorModel(base_rate=100.0)), plan, seed=0)
        sweeps, _, _ = build_sweep_results(log, space, workloads, 6, 3)
        assert len(sweeps) == 116 * 3
        for sweep in sweeps.values():
            assert len(sweep.levels) == 6
            assert [len(v) for v in sweep.values] == [3] * 6

    def test_each_entry_varies_exactly_one_coordinate(self):
        space = unit_space(["p", "q"])
        plan = plan_sweep(space, one_workload(), levels_per_param=3, repetitions=1)
        sweep_entries = [e for e in plan if not e[0].is_default()]
        assert len(sweep_entries) == 4
        assert all(len(c.assignments) == 1 for c, _, _ in sweep_entries)

    def test_no_entry_assigns_a_parameter_its_default(self):
        space = mixed_space()
        plan = plan_sweep(space, one_workload(), levels_per_param=5, repetitions=2)
        for config, _, _ in plan:
            for name, value in config.assignments.items():
                assert value != space.get(name).default, (name, value)

    def test_off_grid_default_adds_no_level(self):
        space = mixed_space()
        plan = plan_sweep(space, one_workload(), levels_per_param=5, repetitions=1)
        planned = {}
        for config, _, _ in plan:
            for name, value in config.assignments.items():
                planned.setdefault(name, set()).add(value)
        assert sweep_levels(space.get("off"), 5) == ([0.0, 0.25, 0.5, 0.75, 1.0], None)
        assert planned["off"] == {0.0, 0.25, 0.5, 0.75, 1.0}
        log = run_plan(SimulatorAdapter(space, SimulatorModel(base_rate=100.0)), plan, seed=0)
        sweeps, _, _ = build_sweep_results(log, space, one_workload(), 5, 1)
        assert sweeps[("off", "w0")].levels == [0.0, 0.25, 0.5, 0.75, 1.0]
        # On-grid defaults: one level fewer planned, the full grid analysed.
        assert len(planned["cont"]) == 4 and len(sweeps[("cont", "w0")].levels) == 5
        assert len(planned["flag"]) == 1 and sweeps[("flag", "w0")].levels == [False, True]
        assert planned["mode"] == {"a", "c"}
        assert sweeps[("mode", "w0")].levels == ["a", "b", "c"]

    def test_preconditions(self):
        space = unit_space(["p"])
        with pytest.raises(ParameterError):
            plan_sweep(space, one_workload(), levels_per_param=2, repetitions=1)
        with pytest.raises(ParameterError):
            plan_sweep(space, [], levels_per_param=3, repetitions=1)


class TestDefaultLevel:
    def test_default_level_is_the_baseline_records(self):
        space = unit_space(["p"])  # grid [0, 0.5, 1], default 0.0
        log = MeasurementLog(seed=0, space_hash="x")
        base = Configuration({})
        log.append(Measurement(base, "w0", 0, 100.0, "ok"))
        log.append(Measurement(base, "w0", 1, None, "crash"))
        log.append(Measurement(base, "w0", 2, 104.0, "ok"))
        for rep, (mid, hi) in enumerate([(110.0, 120.0), (112.0, 118.0), (111.0, 121.0)]):
            log.append(Measurement(Configuration({"p": 0.5}), "w0", rep, mid, "ok"))
            log.append(Measurement(Configuration({"p": 1.0}), "w0", rep, hi, "ok"))
        # an explicit default-level record, as logs of earlier plans hold
        log.append(Measurement(Configuration({"p": 0.0}), "w0", 0, 999.0, "ok"))
        sweeps, baseline_means, failed = build_sweep_results(log, space, one_workload(), 3, 3)
        sweep = sweeps[("p", "w0")]
        assert sweep.levels == [0.0, 0.5, 1.0]
        assert sweep.values[0] == [100.0, 104.0]
        assert sweep.excluded == [{}, {}, {}]  # the baseline's crash counts against no one
        assert baseline_means == {"w0": 102.0} and failed == 1

    @pytest.mark.parametrize("domain, default, grid, index", [
        (Domain("continuous", 0.0, 1.0), 0, [0.0, 0.25, 0.5, 0.75, 1.0], 0),
        (Domain("continuous", 0.0, 1.0), 0.3, [0.0, 0.25, 0.5, 0.75, 1.0], None),
        (Domain("enum", values=("a", "b", "c")), "b", ["a", "b", "c"], 1),
        (Domain("enum", values=(0, False, "auto")), False, [0, False, "auto"], 1),
        (Domain("enum", values=(1, True)), True, [1, True], 1),
    ], ids=["int-default-on-a-real-level", "off-grid", "enum", "0-is-not-False",
            "1-is-not-True"])
    def test_sweep_levels_finds_the_default_level(self, domain, default, grid, index):
        # an enum level is the default only when it has the default's type,
        # as Domain.contains matches values; a numeric one by value alone
        levels, default_idx = sweep_levels(
            ParameterSpec(name="m", domain=domain, default=default), 5)
        assert [(type(v), v) for v in levels] == [(type(v), v) for v in grid]
        assert default_idx == index

    def test_a_mixed_type_enum_sweeps_each_level_but_its_default(self):
        space = ParameterSpace((ParameterSpec(
            name="m", domain=Domain("enum", values=(0, False, "auto")), default=False),))
        plan = plan_sweep(space, one_workload(), levels_per_param=3, repetitions=1)
        assert [c.canonical() for c, _, _ in plan] == ['{}', '{"m": 0}', '{"m": "auto"}']
        model = SimulatorModel(base_rate=100.0,
                               responses={"m": Response(shape="linear-up", strength=1.0)})
        log = run_plan(SimulatorAdapter(space, model), plan, seed=0)
        sweeps, _, _ = build_sweep_results(log, space, one_workload(), 3, 1)
        # level 0's cell is its own run, level False's the baseline
        assert sweeps[("m", "w0")].values == [[100.0], [150.0], [200.0]]

    def test_baseline_failure_excludes_no_parameter(self):
        space = unit_space(["p", "q"])  # grids [0, 0.5, 1], defaults 0.0
        log = MeasurementLog(seed=0, space_hash="x")
        base = Configuration({})
        log.append(Measurement(base, "w0", 0, 100.0, "ok"))
        log.append(Measurement(base, "w0", 1, None, "timeout"))
        log.append(Measurement(base, "w0", 2, 100.0, "ok"))
        for rep in range(3):
            log.append(Measurement(Configuration({"p": 0.5}), "w0", rep, 110.0, "ok"))
            log.append(Measurement(Configuration({"p": 1.0}), "w0", rep, 120.0, "ok"))
            log.append(Measurement(Configuration({"q": 0.5}), "w0", rep, 101.0, "ok"))
        log.append(Measurement(Configuration({"q": 1.0}), "w0", 0, None, "crash"))
        log.append(Measurement(Configuration({"q": 1.0}), "w0", 1, 102.0, "ok"))
        log.append(Measurement(Configuration({"q": 1.0}), "w0", 2, 102.0, "ok"))
        report = analyze_sensitivity(log, space, one_workload(), 3, 3)
        assert report.excluded == {}
        assert report.excluded_runs == 2
        assert report.profile("p").safe_range.to_json() == {"lo": 0.0, "hi": 1.0}
        assert report.profile("q").safe_range.to_json() == {"lo": 0.0, "hi": 0.5}

    def test_every_swept_pair_reads_its_workloads_baseline(self):
        space = mixed_space()
        workloads = [WorkloadSpec(id="wa"), WorkloadSpec(id="wb")]
        model = SimulatorModel(base_rate=100.0, sigma=0.05, responses={
            "cont": Response(shape="linear-up", strength=0.3),
            "mode": Response(shape="quadratic-peak", strength=0.2, peak=0.5)})
        plan = plan_sweep(space, workloads, levels_per_param=5, repetitions=3)
        log = run_plan(SimulatorAdapter(space, model), plan, seed=6)
        sweeps, _, _ = build_sweep_results(log, space, workloads, 5, 3)
        assert len(sweeps) == 5 * 2
        for (param, wid), sweep in sweeps.items():
            spec = space.get(param)
            baseline = [m.metric_value for m in log
                        if m.config.is_default() and m.workload_id == wid]
            grid, default_idx = sweep_levels(spec, 5)
            assert sweep.levels == grid
            if default_idx is not None:
                assert sweep.values[default_idx] == baseline
            else:
                assert baseline not in sweep.values


class TestSweepReads:
    def test_records_off_the_plan_leave_the_report_unchanged(self):
        # The table is the plan's grid, read by exact key: a further
        # repetition, an explicit default, a two-parameter record and an
        # off-grid level are all left unread.
        space = unit_space(["p", "q"])  # grids [0, 0.25, 0.5, 0.75, 1], defaults 0.0
        adapter = SimulatorAdapter(space, SimulatorModel(
            base_rate=100.0, sigma=0.02,
            responses={"p": Response(shape="linear-up", strength=0.3),
                       "q": Response(shape="quadratic-peak", strength=0.2, peak=0.5)}))
        plan = plan_sweep(space, one_workload(), levels_per_param=5, repetitions=2)
        planned = run_plan(adapter, plan, seed=3)
        extra = [Measurement(Configuration({"p": 0.5}), "w0", 2, 400.0, "ok"),
                 Measurement(Configuration({"p": 0.0}), "w0", 0, 999.0, "ok"),
                 Measurement(Configuration({"p": 0.5, "q": 0.5}), "w0", 0, 10.0, "ok"),
                 Measurement(Configuration({"q": 0.6}), "w0", 0, 700.0, "ok")]
        alone = analyze_sensitivity(planned, space, one_workload(), 5, 2)
        assert analyze_sensitivity(planned + extra, space, one_workload(), 5, 2) == alone


    def test_a_planned_run_missing_from_the_records_leaves_its_cell_short(self):
        space = unit_space(["p"])  # grid [0, 0.5, 1], default 0.0
        adapter = SimulatorAdapter(space, SimulatorModel(base_rate=100.0))
        planned = run_plan(adapter, plan_sweep(space, one_workload(), 3, 2), seed=0)
        kept = [m for m in planned if (m.config.assignments, m.repetition) != ({"p": 1.0}, 1)]
        sweeps, _, _ = build_sweep_results(kept, space, one_workload(), 3, 2)
        assert [len(v) for v in sweeps[("p", "w0")].values] == [2, 2, 1]
        assert sweeps[("p", "w0")].excluded == [{}, {}, {}]


class TestArgumentChecks:
    @pytest.mark.parametrize("call, error, named", [
        (lambda: plan_sweep(unit_space(["p"]), one_workload(), 3, 0), ParameterError,
         "repetitions must be >= 1"),
        (lambda: classify_shape(sweep_of([100, 110, 120]), 0.0), AnalysisError,
         "p: baseline mean must be positive"),
        (lambda: extract_safe_range(sweep_of([]), 100.0, unit_space(["p"])), AnalysisError,
         "p: empty sweep"),
        (lambda: extract_safe_range(sweep_of([100]), -1.0, unit_space(["p"])), AnalysisError,
         "p: baseline mean must be positive"),
        (lambda: SensitivityReport(campaign_id="c", space_hash="h", tau_s=0.05,
                                   baseline_means={}, profiles=[]).profile("p"),
         ParameterError, "no profile for parameter 'p'"),
    ], ids=["no-repetition", "shape-baseline", "empty-sweep", "range-baseline", "no-profile"])
    def test_each_check_names_its_input(self, call, error, named):
        with pytest.raises(error, match=f"^{re.escape(named)}$"):
            call()

    def test_a_workload_without_an_ok_baseline_run_is_refused(self):
        space = unit_space(["p"], default=1.0)  # the default crashes
        adapter = SimulatorAdapter(space, SimulatorModel(
            base_rate=100.0, crashes={"p": CrashRegion(0.9, 1.0)}))
        log = run_plan(adapter, plan_sweep(space, one_workload(), 3, 1), seed=0)
        with pytest.raises(AnalysisError,
                           match="^no usable baseline measurements for workload 'w0'$"):
            analyze_sensitivity(log, space, one_workload(), 3, 1)

    def test_two_usable_levels_are_profiled_with_a_warning(self):
        space = unit_space(["p"])  # grid [0, 0.5, 1]; 1 crashes
        adapter = SimulatorAdapter(space, SimulatorModel(
            base_rate=100.0, responses={"p": Response(shape="linear-up", strength=0.2)},
            crashes={"p": CrashRegion(0.9, 1.0)}))
        log = run_plan(adapter, plan_sweep(space, one_workload(), 3, 1), seed=0)
        profile = analyze_sensitivity(log, space, one_workload(), 3, 1).profile("p")
        assert profile.warnings == ["w0: only 2 usable levels"]
        assert profile.shape == "flat"  # too few levels to classify
        assert profile.aggregate_cv > 0


class TestComputeCv:
    def test_constant_response_is_zero(self):
        assert compute_cv(sweep_of([100, 100, 100]), 100.0) == 0.0

    def test_hand_computed_case(self):
        assert compute_cv(sweep_of([90, 100, 120]), 100.0) == pytest.approx(0.30)

    def test_analytic_linear_up_with_centered_default(self):
        # multiplier spans [1.0, 1.2], default at the middle (multiplier 1.1)
        space = ParameterSpace((ParameterSpec(
            name="p", domain=Domain("continuous", 0.0, 1.0), default=0.5),))
        adapter = SimulatorAdapter(space, SimulatorModel(
            base_rate=1000.0, responses={"p": Response(shape="linear-up", strength=0.2)}))
        plan = plan_sweep(space, one_workload(), levels_per_param=5, repetitions=1)
        log = run_plan(adapter, plan, seed=0)
        report = analyze_sensitivity(log, space, one_workload(), 5, 1)
        assert report.profile("p").aggregate_cv == pytest.approx(0.2 / 1.1, rel=1e-9)

    def test_oracle_equivalence_from_raw_log(self):
        space = unit_space(["p", "q"])
        adapter = SimulatorAdapter(space, SimulatorModel(
            base_rate=800.0, sigma=0.03,
            responses={"p": Response(shape="linear-up", strength=0.25),
                       "q": Response(shape="quadratic-peak", strength=0.15, peak=0.3)}))
        plan = plan_sweep(space, one_workload(), levels_per_param=5, repetitions=3)
        log = run_plan(adapter, plan, seed=4)
        report = analyze_sensitivity(log, space, one_workload(), 5, 3)
        for param in ("p", "q"):
            assert report.profile(param).cv_per_workload["w0"] == pytest.approx(
                cv_oracle(log, param, "w0"), rel=1e-12)

    def test_errors(self):
        with pytest.raises(AnalysisError):
            compute_cv(sweep_of([100, 100]), 0.0)
        with pytest.raises(AnalysisError):
            compute_cv(sweep_of([100, None, None]), 100.0)


class TestClassifyShape:
    def test_flat_below_tolerance(self):
        assert classify_shape(sweep_of([100, 101, 100]), 100.0) == "flat"

    def test_monotonic_up(self):
        assert classify_shape(sweep_of([100, 110, 125, 140]), 100.0) == "monotonic-up"

    def test_monotonic_down(self):
        assert classify_shape(sweep_of([140, 125, 110, 100]), 100.0) == "monotonic-down"

    def test_step_function_beats_monotone_label(self):
        # single gap of 59 out of a 61-wide range dominates
        assert classify_shape(sweep_of([100, 101, 160, 161]), 100.0) == "step-function"

    def test_non_monotonic_interior_optimum(self):
        assert classify_shape(sweep_of([100, 130, 120, 90]), 100.0) == "non-monotonic"

    def test_small_reversal_within_noise_still_monotone(self):
        # r=1 tolerance is FLAT_TOL * baseline = 2.0; the 1-unit dip is noise
        assert classify_shape(sweep_of([100, 110, 109, 120]), 100.0) == "monotonic-up"

    def test_two_usable_levels_fall_back_to_flat(self):
        assert classify_shape(sweep_of([100, None, 150]), 100.0) == "flat"


class TestExtractSafeRange:
    def setup_method(self):
        self.space = ParameterSpace((ParameterSpec(
            name="p", domain=Domain("integer", 0, 4), default=2),))

    def r(self, means, excluded=None):
        sweep = sweep_of(means, excluded=excluded)
        sweep.levels = [0, 1, 2, 3, 4][:len(means)]
        return extract_safe_range(sweep, 100.0, self.space)

    def test_all_ok_full_range(self):
        safe = self.r([100, 105, 110, 108, 102])
        assert (safe.lo, safe.hi) == (0, 4)

    def test_crash_at_top_truncates(self):
        safe = self.r([100, 105, 110, 108, None],
                      excluded=[{}, {}, {}, {}, {"crash": 1}])
        assert (safe.lo, safe.hi) == (0, 3)

    def test_degraded_middle_bounds_range(self):
        # level 3 below half baseline; default (level 2) sits below it
        safe = self.r([100, 105, 110, 40, 102])
        assert (safe.lo, safe.hi) == (0, 2)

    def test_unsafe_at_default_is_an_error(self):
        with pytest.raises(AnalysisError):
            self.r([100, 105, 30, 105, 100])

    def test_crash_truncation_on_simulator(self):
        space = ParameterSpace((ParameterSpec(
            name="p", domain=Domain("continuous", 0.0, 10.0), default=2.0),))
        adapter = SimulatorAdapter(space, SimulatorModel(
            base_rate=100.0, crashes={"p": CrashRegion(8.0, 10.0)}))
        plan = plan_sweep(space, one_workload(), levels_per_param=5, repetitions=2)
        log = run_plan(adapter, plan, seed=0)
        report = analyze_sensitivity(log, space, one_workload(), 5, 2)
        safe = report.profile("p").safe_range
        assert safe.hi == 7.5  # grid [0, 2.5, 5, 7.5, 10]; 10 crashed


class TestDegradation:
    """An ok run that lost more than half of the baseline's performance is
    degraded: below half a maximized baseline, above twice a minimized one."""

    def sweep(self, direction, high_mult):
        # grid [0, 0.25, 0.5, 0.75, 1]; only the top level steps to high_mult
        space = unit_space(["p"])
        workloads = one_workload(direction)
        adapter = SimulatorAdapter(space, SimulatorModel(base_rate=100.0, responses={
            "p": Response(shape="step", threshold=0.9, low_mult=1.0, high_mult=high_mult)}))
        log = run_plan(adapter, plan_sweep(space, workloads, 5, 3), seed=0)
        sweeps, _, _ = build_sweep_results(log, space, workloads, 5, 3)
        return sweeps[("p", "w0")], analyze_sensitivity(log, space, workloads, 5, 3)

    def test_runs_below_half_a_maximized_baseline_are_degraded(self):
        sweep, report = self.sweep("maximize", 0.3)
        assert sweep.excluded == [{}, {}, {}, {}, {"degraded": 3}]
        assert sweep.values[-1] == [] and len(sweep.values[2]) == 3
        assert report.excluded_runs == 3
        assert report.profile("p").safe_range.to_json() == {"lo": 0.0, "hi": 0.75}

    def test_runs_above_twice_a_minimized_baseline_are_degraded(self):
        sweep, report = self.sweep("minimize", 3.0)
        assert sweep.excluded[-1] == {"degraded": 3}
        assert report.excluded_runs == 3
        assert report.profile("p").safe_range.to_json() == {"lo": 0.0, "hi": 0.75}

    def test_a_minimized_metric_that_falls_is_not_degraded(self):
        sweep, report = self.sweep("minimize", 0.3)
        assert sweep.excluded[-1] == {} and len(sweep.values[-1]) == 3
        assert report.excluded_runs == 0
        assert report.profile("p").safe_range.to_json() == {"lo": 0.0, "hi": 1.0}

    def test_safe_range_bound_follows_the_direction(self):
        sweep = sweep_of([100, 105, 110, 205, 102])
        sweep.direction = "minimize"
        safe = extract_safe_range(sweep, 100.0, unit_space(["p"]))
        assert (safe.lo, safe.hi) == (0, 2)


    @pytest.mark.parametrize("direction", ["maximize", "minimize"])
    def test_a_baseline_that_is_not_positive_degrades_nothing(self, direction):
        for baseline in (0.0, -5.0):
            assert not degraded(-1e9, baseline, direction)
            assert not degraded(1e9, baseline, direction)


class TestUnsafeDefaultExclusion:
    def test_parameter_unsafe_at_default_is_excluded_not_fatal(self):
        # grid [0, 2.5, 5, 7.5, 10]: the level nearest the default (2.5) crashes
        space = ParameterSpace((
            ParameterSpec(name="p", domain=Domain("continuous", 0.0, 10.0), default=2.0),
            ParameterSpec(name="q", domain=Domain("continuous", 0.0, 1.0), default=0.0)))
        adapter = SimulatorAdapter(space, SimulatorModel(
            base_rate=100.0, responses={"q": Response(shape="linear-up", strength=0.4)},
            crashes={"p": CrashRegion(2.2, 3.0)}))
        plan = plan_sweep(space, one_workload(), levels_per_param=5, repetitions=2)
        log = run_plan(adapter, plan, seed=0)
        report = analyze_sensitivity(log, space, one_workload(), 5, 2)
        assert [p.parameter for p in report.profiles] == ["q"]
        assert report.profile("q").selected
        assert report.excluded == {"p": "p: unsafe at default level 2.5 on workload w0"}
        data = report.to_json()
        assert data["excluded"] == report.excluded
        assert SensitivityReport.from_json(data).excluded == report.excluded

    def test_report_without_exclusions_omits_the_field(self):
        space = unit_space(["p"])
        adapter = SimulatorAdapter(space, SimulatorModel(
            base_rate=100.0, responses={"p": Response(shape="linear-up", strength=0.4)}))
        plan = plan_sweep(space, one_workload(), levels_per_param=3, repetitions=1)
        report = analyze_sensitivity(run_plan(adapter, plan, seed=0), space, one_workload(), 3, 1)
        assert report.excluded == {}
        assert "excluded" not in report.to_json()
        assert SensitivityReport.from_json(report.to_json()).excluded == {}


class TestSelectTopK:
    def profiles(self, cvs):
        return [SensitivityProfile(parameter=n, cv_per_workload={"w0": cv},
                                   aggregate_cv=cv, shape="flat",
                                   safe_range=SafeRange(0, 1))
                for n, cv in cvs.items()]

    def test_threshold_filter(self):
        chosen = select_top_k(self.profiles({"a": 0.30, "b": 0.04, "c": 0.08}), 0.05)
        assert [p.parameter for p in chosen] == ["a", "c"]

    def test_empty_result_allowed(self):
        assert select_top_k(self.profiles({"a": 0.01}), 0.05) == []

    def test_ties_break_lexicographically(self):
        chosen = select_top_k(self.profiles({"b": 0.2, "a": 0.2, "c": 0.3}), 0.05)
        assert [p.parameter for p in chosen] == ["c", "a", "b"]

    def test_planted_recovery_on_simulator(self):
        # 20 parameters, 4 planted sensitive with CV >= 0.10, the rest flat
        names = [f"p{i:02d}" for i in range(20)]
        space = unit_space(names)
        responses = {names[i]: Response(shape="linear-up", strength=s)
                     for i, s in zip((0, 5, 11, 17), (0.25, 0.18, 0.14, 0.10))}
        adapter = SimulatorAdapter(space, SimulatorModel(
            base_rate=1000.0, sigma=0.01, responses=responses))
        plan = plan_sweep(space, one_workload(), levels_per_param=5, repetitions=3)
        log = run_plan(adapter, plan, parallelism=8, seed=13)
        report = analyze_sensitivity(log, space, one_workload(), 5, 3, tau_s=0.05)
        selected = {p.parameter for p in report.top_k()}
        assert selected == {"p00", "p05", "p11", "p17"}  # precision = recall = 1

    def test_scale_invariance(self):
        # multiplying every measurement and the baseline by c leaves
        # CV, rank, selection, and shape label unchanged
        space = unit_space(["p", "q"])
        responses = {"p": Response(shape="linear-up", strength=0.3),
                     "q": Response(shape="quadratic-peak", strength=0.1, peak=0.5)}
        workloads = one_workload()
        reports = []
        for base in (1000.0, 3333.0):
            adapter = SimulatorAdapter(space, SimulatorModel(
                base_rate=base, responses=responses))
            plan = plan_sweep(space, workloads, levels_per_param=5, repetitions=1)
            log = run_plan(adapter, plan, seed=2)
            reports.append(analyze_sensitivity(log, space, workloads, 5, 1))
        for a, b in zip(reports[0].profiles, reports[1].profiles):
            assert a.parameter == b.parameter
            assert a.aggregate_cv == pytest.approx(b.aggregate_cv, rel=1e-12)
            assert (a.rank, a.selected, a.shape) == (b.rank, b.selected, b.shape)


class TestLogReplay:
    def test_analysis_from_persisted_log_equals_live_analysis(self, tmp_path):
        space = unit_space(["p", "q"])
        adapter = SimulatorAdapter(space, SimulatorModel(
            base_rate=900.0, sigma=0.02,
            responses={"p": Response(shape="linear-up", strength=0.3),
                       "q": Response(shape="step", threshold=0.5,
                                     low_mult=1.0, high_mult=1.2)}))
        plan = plan_sweep(space, one_workload(), levels_per_param=5, repetitions=3)
        live = run_plan(adapter, plan, seed=8)
        path = tmp_path / "log.jsonl"
        journal = MeasurementLog(seed=8, space_hash=space.space_hash())
        for m in live:
            journal.append(m)
        journal.save(str(path))
        replayed = list(MeasurementLog.load(str(path)))
        a = analyze_sensitivity(live, space, one_workload(), 5, 3)
        b = analyze_sensitivity(replayed, space, one_workload(), 5, 3)
        assert a.to_json() == b.to_json()


class TestReport:
    def test_round_trip(self, tmp_path):
        space = unit_space(["p", "q"])
        adapter = SimulatorAdapter(space, SimulatorModel(
            base_rate=100.0, responses={"p": Response(shape="linear-up", strength=0.4)}))
        plan = plan_sweep(space, one_workload(), levels_per_param=3, repetitions=1)
        log = run_plan(adapter, plan, seed=0)
        report = analyze_sensitivity(log, space, one_workload(), 3, 1)
        path = tmp_path / "report.json"
        report.save(str(path))
        from tuneforge.sensitivity import SensitivityReport
        loaded = SensitivityReport.load(str(path))
        assert loaded.to_json() == report.to_json()

    @pytest.mark.parametrize("key,renamed", [("best_level", "bestlevel"),
                                             ("warnings", "warning")])
    def test_renamed_profile_key_fails_the_load(self, tmp_path, key, renamed):
        # A misspelled key must not load as the field's default (best level {}).
        space = unit_space(["p"])
        adapter = SimulatorAdapter(space, SimulatorModel(
            base_rate=100.0, responses={"p": Response(shape="linear-up", strength=0.4)}))
        plan = plan_sweep(space, one_workload(), levels_per_param=3, repetitions=1)
        data = analyze_sensitivity(run_plan(adapter, plan, seed=0), space, one_workload(),
                                   3, 1).to_json()
        profile = data["profiles"][0]
        profile[renamed] = profile.pop(key)
        path = tmp_path / "report.json"
        path.write_text(json.dumps(data))
        with pytest.raises(AnalysisError, match=f"missing keys \\['{key}'\\]"):
            SensitivityReport.load(str(path))

    @pytest.mark.parametrize("d", [{"values": []}, {"values": 5}, {"values": [1], "lo": 1},
                                   {"lo": "a", "hi": 1.0}, {"lo": 0.0}, {"lo": True, "hi": 1},
                                   [0.0, 1.0]],
                             ids=["no-values", "values-int", "values-and-lo", "lo-str",
                                  "no-hi", "lo-bool", "list"])
    def test_malformed_safe_range_fails_the_load(self, d):
        with pytest.raises(AnalysisError, match="safe range is malformed"):
            SafeRange.from_json(d)
