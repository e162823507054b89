"""Correlation graph decomposition and component-wise joint optimization."""

import random
from collections import Counter

import pytest

from helpers import global_grid_argmax, one_workload, random_log, unit_space
from tuneforge.errors import AnalysisError, CrashError, ParameterError
from tuneforge.interaction import InteractionRecord, InteractionReport
from tuneforge.sensitivity import SafeRange, SensitivityProfile, SensitivityReport
from tuneforge.simulator import Coupling, CrashRegion, Response, SimulatorAdapter, SimulatorModel
from tuneforge.space import Configuration, Domain, ParameterSpace, ParameterSpec
from tuneforge.topology import (CorrelationGraph, JointSearchPlan, _grid_means,
                                build_graph, independent_baseline, measure_baselines,
                                optimize_component, plan_joint_search)


def make_report(confirmed_pairs, nodes):
    """InteractionReport with the given confirmed (pair -> eta2) map."""
    records = []
    for pair, eta in confirmed_pairs.items():
        records.append(InteractionRecord(pair=pair, workload_id="w0",
                                         stage_a_int_pct=50.0, stage_a_verdict="advance",
                                         eta_squared=eta, p_value=0.001, q_value=0.001,
                                         confirmed=True))
    return InteractionReport(campaign_id="c0", space_hash="h0", records=records)


def sens_report(names, safe=(0.0, 1.0), best=1.0):
    profiles = [SensitivityProfile(parameter=n, cv_per_workload={"w0": 0.2},
                                   aggregate_cv=0.2, shape="monotonic-up",
                                   safe_range=SafeRange(*safe), rank=i + 1, selected=True,
                                   best_level={"w0": best})
                for i, n in enumerate(names)]
    return SensitivityReport(campaign_id="c0", space_hash="h0", tau_s=0.05,
                             baseline_means={"w0": 1000.0}, profiles=profiles)


class TestBuildGraph:
    def test_no_confirmed_pairs_gives_singletons(self):
        g = build_graph(["a", "b", "c"], make_report({}, ["a", "b", "c"]))
        assert g.components == [["a"], ["b"], ["c"]]
        assert g.edges == []

    def test_transitive_connectivity(self):
        g = build_graph(list("abcde"),
                        make_report({("a", "b"): 0.3, ("b", "c"): 0.2}, list("abcde")))
        assert g.components == [["a", "b", "c"], ["d"], ["e"]]
        assert g.multi_components() == [["a", "b", "c"]]
        assert g.isolates() == ["d", "e"]

    def test_planted_structure_sizes(self):
        nodes = [f"n{i:02d}" for i in range(15)]
        confirmed = {("n00", "n01"): 0.5, ("n00", "n02"): 0.4, ("n01", "n02"): 0.3,
                     ("n03", "n04"): 0.2}
        g = build_graph(nodes, make_report(confirmed, nodes))
        sizes = sorted(len(c) for c in g.components)
        assert sizes == [1] * 10 + [2, 3]

    def test_components_partition_nodes_and_contain_every_edge(self):
        nodes = [f"n{i:02d}" for i in range(12)]
        confirmed = {("n00", "n07"): 0.3, ("n03", "n07"): 0.2, ("n05", "n09"): 0.6}
        g = build_graph(nodes, make_report(confirmed, nodes))
        flattened = sorted(x for comp in g.components for x in comp)
        assert flattened == sorted(nodes)  # disjoint cover, no repeats
        # n00 joins n03's component through n07: members sorted, components by
        # their first member
        assert g.multi_components() == [["n00", "n03", "n07"], ["n05", "n09"]]
        assert all(0.15 < e.eta_squared <= 1.0 for e in g.edges)
        for e in g.edges:
            assert any(e.a in comp and e.b in comp for comp in g.components)

    def test_edge_weight_is_max_over_confirming_workloads(self):
        records = [
            InteractionRecord(pair=("a", "b"), workload_id=w, stage_a_int_pct=50.0,
                              stage_a_verdict="advance", eta_squared=e, p_value=0.001,
                              q_value=0.001, confirmed=True)
            for w, e in (("w0", 0.25), ("w1", 0.45))]
        report = InteractionReport(campaign_id="c0", space_hash="h0", records=records)
        g = build_graph(["a", "b"], report)
        assert len(g.edges) == 1
        edge = g.edges[0]
        assert (edge.a, edge.b, edge.eta_squared) == ("a", "b", 0.45)
        assert edge.p_value == 0.001 and edge.q_value == 0.001

    def test_round_trip(self):
        g = build_graph(["a", "b"], make_report({("a", "b"): 0.3}, ["a", "b"]))
        assert CorrelationGraph.from_json(g.to_json()).to_json() == g.to_json()


class BothSetCrashes:
    """Measures through ``inner``, but crashes when ``a`` and ``b`` are both set."""

    max_concurrency = 1

    def __init__(self, inner):
        self.space = inner.space
        self.inner = inner

    def measure(self, config, workload, seed):
        if {"a", "b"} <= config.assignments.keys():
            raise CrashError("a and b together")
        return self.inner.measure(config, workload, seed)


class TestArgumentChecks:
    def test_a_confirmed_pair_outside_the_top_k_is_refused(self):
        with pytest.raises(AnalysisError,
                           match=r"^confirmed pair \(a, z\) outside the top-k node set$"):
            build_graph(["a", "b"], make_report({("a", "z"): 0.3}, ["a", "b"]))

    def test_a_baseline_without_an_ok_run_is_refused(self):
        space = unit_space(["a"], default=1.0)  # the default crashes
        adapter = SimulatorAdapter(space, SimulatorModel(
            base_rate=100.0, crashes={"a": CrashRegion(0.9, 1.0)}))
        with pytest.raises(AnalysisError, match="^baseline measurement failed on workload w0$"):
            measure_baselines(adapter, one_workload(), 2, seed=0)

    @pytest.mark.parametrize("repetitions", [0, -1])
    def test_baselines_of_no_repetition_are_refused(self, repetitions):
        adapter = SimulatorAdapter(unit_space(["a"]), SimulatorModel(base_rate=100.0))
        with pytest.raises(ParameterError, match="^repetitions must be >= 1$"):
            measure_baselines(adapter, one_workload(), repetitions, seed=0)

    def test_an_empty_component_is_refused(self):
        space = unit_space(["a"])
        adapter = SimulatorAdapter(space, SimulatorModel(base_rate=100.0))
        with pytest.raises(ParameterError, match="^component must be non-empty$"):
            independent_baseline(adapter, [], sens_report(["a"]), space, one_workload()[0],
                                 repetitions=1, seed=0)

    def test_a_combination_without_an_ok_run_is_refused(self):
        space = unit_space(["a", "b"])
        adapter = BothSetCrashes(SimulatorAdapter(space, SimulatorModel(
            base_rate=100.0, responses={"a": Response(shape="linear-up", strength=0.2),
                                        "b": Response(shape="linear-up", strength=0.2)})))
        with pytest.raises(AnalysisError,
                           match="^independent combination failed on workload w0$"):
            independent_baseline(adapter, ["a", "b"], sens_report(["a", "b"]), space,
                                 one_workload()[0], repetitions=2, seed=0)


class TestPlanJointSearch:
    def test_three_parameter_component_budget_192(self):
        report = sens_report(["a", "b", "c"])
        plan = plan_joint_search(["a", "b", "c"], report, unit_space(["a", "b", "c"]),
                                 one_workload(), repetitions=3)
        assert plan.budget == 192  # 4^3 * 3 * 1

    def test_two_parameter_budget_48(self):
        report = sens_report(["a", "b"])
        plan = plan_joint_search(["a", "b"], report, unit_space(["a", "b"]),
                                 one_workload(), repetitions=3)
        assert plan.budget == 48

    def test_component_cap_guards_blowup(self):
        names = list("abcdef")
        report = sens_report(names)
        with pytest.raises(AnalysisError):
            plan_joint_search(names, report, unit_space(names), one_workload())

    def test_single_parameter_rejected(self):
        with pytest.raises(ParameterError):
            plan_joint_search(["a"], sens_report(["a"]), unit_space(["a"]), one_workload())

    def test_grid_points_respect_safe_ranges(self):
        report = sens_report(["a", "b"], safe=(0.25, 0.75))
        plan = plan_joint_search(["a", "b"], report, unit_space(["a", "b"]),
                                 one_workload())
        for levels in plan.grid.values():
            assert min(levels) == 0.25 and max(levels) == 0.75


class TestOptimizeComponent:
    def setup_method(self):
        self.space = unit_space(["a", "b"])
        self.workloads = one_workload()
        self.report = sens_report(["a", "b"])

    def run_joint(self, model, seed=0):
        adapter = SimulatorAdapter(self.space, model)
        baselines, _ = measure_baselines(adapter, self.workloads, 3, seed)
        plan = plan_joint_search(["a", "b"], self.report, self.space, self.workloads,
                                 repetitions=3)
        optima, log = optimize_component(adapter, plan, seed, baselines)
        return optima[0], adapter, baselines

    def test_flat_model_improvement_near_zero(self):
        opt, _, _ = self.run_joint(SimulatorModel(base_rate=1000.0))
        assert opt.best_metric == pytest.approx(1000.0)
        assert opt.improvement_vs_default == pytest.approx(0.0, abs=1e-12)

    def test_quadratic_peak_argmax_on_grid(self):
        # peak at 1/3, a grid point of [0, 1/3, 2/3, 1]
        model = SimulatorModel(
            base_rate=100.0,
            responses={"a": Response(shape="quadratic-peak", strength=0.5, peak=1 / 3),
                       "b": Response(shape="linear-up", strength=0.2)})
        opt, _, _ = self.run_joint(model)
        assert opt.best_config.assignments == {"a": pytest.approx(1 / 3), "b": 1.0}

    def test_antagonistic_coupling_joint_beats_independent(self):
        # each parameter looks best at its high end in isolation, but the
        # high-high corner is penalized
        model = SimulatorModel(
            base_rate=1000.0,
            responses={"a": Response(shape="linear-up", strength=0.4),
                       "b": Response(shape="linear-up", strength=0.2)},
            couplings=[Coupling("a", "b", -0.5)])
        opt, adapter, baselines = self.run_joint(model)
        combo, indep_metric, _ = independent_baseline(
            adapter, ["a", "b"], self.report, self.space, self.workloads[0], 3, seed=0)
        assert combo.assignments == {"a": 1.0, "b": 1.0}  # independent optima combine badly
        assert indep_metric < opt.best_metric              # strictly worse than joint
        grid = {"a": [0.0, 1 / 3, 2 / 3, 1.0], "b": [0.0, 1 / 3, 2 / 3, 1.0]}
        analytic_best, _ = global_grid_argmax(model, self.space, grid)
        assert opt.best_config == analytic_best

    def test_additive_model_independent_equals_joint(self):
        model = SimulatorModel(
            base_rate=1000.0,
            responses={"a": Response(shape="linear-up", strength=0.3),
                       "b": Response(shape="linear-up", strength=0.1)})
        opt, adapter, _ = self.run_joint(model)
        combo, indep_metric, _ = independent_baseline(
            adapter, ["a", "b"], self.report, self.space, self.workloads[0], 3, seed=0)
        assert combo == opt.best_config
        assert indep_metric == pytest.approx(opt.best_metric, rel=1e-12)

    def test_single_parameter_component_equals_joint_search(self):
        model = SimulatorModel(
            base_rate=100.0,
            responses={"a": Response(shape="quadratic-peak", strength=0.4, peak=2 / 3)})
        adapter = SimulatorAdapter(self.space, model)
        combo, metric, _ = independent_baseline(
            adapter, ["a"], self.report, self.space, self.workloads[0], 3, seed=0)
        assert combo.assignments == {"a": pytest.approx(2 / 3)}
        assert metric == pytest.approx(140.0)

    def test_all_crash_grid_is_an_error(self):
        from tuneforge.simulator import CrashRegion
        model = SimulatorModel(base_rate=10.0, crashes={"a": CrashRegion(-0.1, 1.1)})
        adapter = SimulatorAdapter(self.space, model)
        plan = plan_joint_search(["a", "b"], self.report, self.space, self.workloads,
                                 repetitions=1)
        with pytest.raises(AnalysisError):
            optimize_component(adapter, plan, 0, {"w0": 10.0})

    def test_tie_breaks_to_lexicographically_smallest(self):
        opt, _, _ = self.run_joint(SimulatorModel(base_rate=50.0))
        # flat model: every grid point ties; smallest canonical config wins
        assert opt.best_config.assignments == {"a": 0.0, "b": 0.0}


class RecordingAdapter:
    """Measures through ``inner`` and records each configuration it runs."""

    def __init__(self, inner):
        self.space = inner.space
        self.max_concurrency = 1
        self.inner = inner
        self.ran = []

    def measure(self, config, workload, seed):
        self.ran.append(config.canonical())
        return self.inner.measure(config, workload, seed)


class TestEffectiveConfigurations:
    @pytest.mark.parametrize("domain, default", [
        (Domain("continuous", 0.0, 1.0), 0), (Domain("enum", values=(False, 0.0, 1.0)), False)],
        ids=["int-zero", "false"])
    def test_a_default_of_another_type_keeps_a_zero_level_explicit(self, domain, default):
        # 0 == 0.0 == False, but their canonical texts differ: {"a": 0.0} is
        # not the default of a parameter whose default is 0 or False.
        space = ParameterSpace((ParameterSpec(name="a", domain=domain, default=default),
                                ParameterSpec(name="b", domain=Domain("continuous", 0.0, 1.0),
                                              default=0.0)))
        assert space.effective(Configuration({"a": 0.0, "b": 0.0})) == Configuration({"a": 0.0})
        assert space.effective(Configuration({"a": default, "b": 1.0})) == \
            Configuration({"b": 1.0})
        adapter = RecordingAdapter(SimulatorAdapter(space, SimulatorModel(base_rate=10.0)))
        plan = JointSearchPlan(component=["a", "b"], grid={"a": [0.0, 1.0], "b": [0.0, 1.0]},
                               repetitions=1, workloads=one_workload())
        (opt,), _ = optimize_component(adapter, plan, 0, {"w0": 10.0})
        assert set(adapter.ran) == {'{"a": 0.0}', '{"a": 0.0, "b": 1.0}', '{"a": 1.0}',
                                    '{"a": 1.0, "b": 1.0}'}
        assert opt.best_config == Configuration({"a": 0.0, "b": 0.0})


class TestDecompositionOptimality:
    def test_componentwise_optima_match_global_brute_force(self):
        # two components (sizes 3 and 2) plus 3 isolates, additive across
        # components by construction (multiplicative separable model)
        names = ["a1", "a2", "a3", "b1", "b2", "c1", "c2", "c3"]
        space = unit_space(names)
        model = SimulatorModel(
            base_rate=1000.0,
            responses={
                "a1": Response(shape="linear-up", strength=0.3),
                "a2": Response(shape="quadratic-peak", strength=0.25, peak=2 / 3),
                "a3": Response(shape="linear-down", strength=0.2),
                "b1": Response(shape="linear-up", strength=0.3),
                "b2": Response(shape="linear-up", strength=0.15),
                "c1": Response(shape="linear-up", strength=0.1),
                "c2": Response(shape="quadratic-peak", strength=0.2, peak=1 / 3),
                "c3": Response(shape="linear-down", strength=0.12),
            },
            couplings=[Coupling("a1", "a2", 0.8), Coupling("a2", "a3", -0.4),
                       Coupling("b1", "b2", -0.6)])
        adapter = SimulatorAdapter(space, model)
        report = sens_report(names)
        workloads = one_workload()
        baselines, _ = measure_baselines(adapter, workloads, 1, seed=0)

        combined: dict = {}
        for comp in (["a1", "a2", "a3"], ["b1", "b2"]):
            plan = plan_joint_search(comp, report, space, workloads, repetitions=1)
            optima, _ = optimize_component(adapter, plan, 0, baselines)
            combined.update(optima[0].best_config.assignments)

        levels = [0.0, 1 / 3, 2 / 3, 1.0]
        grid = {n: levels for n in ("a1", "a2", "a3", "b1", "b2")}
        expected, _ = global_grid_argmax(model, space, grid)  # 4^5 = 1024 points
        assert Configuration(combined) == expected


def full_scan_grid_means(records, configs, workload_id):
    """Reference grid means: one full pass over the records, summing in order."""
    by_config = {}
    for m in records:
        if m.workload_id == workload_id and m.outcome == "ok":
            by_config.setdefault(m.config.canonical(), []).append(m.metric_value)
    means = {}
    for c in configs:
        vals = by_config.get(c.canonical())
        if vals:
            means[c.canonical()] = sum(vals) / len(vals)
    return means


class TestGridMeansIndex:
    def logged_configs(self, records):
        """Every configuration of the records, plus one that no record carries."""
        configs = {m.config.canonical(): m.config for m in records}
        return list(configs.values()) + [Configuration({"a": 0.5})]

    def test_matches_full_scan_reference(self):
        multi_record_means = 0
        for seed in range(25):
            records, workloads = random_log(random.Random(seed))
            configs = self.logged_configs(records)
            for w in workloads:
                expected = full_scan_grid_means(records, configs, w)
                assert _grid_means(records, w) == expected
            ok_counts = Counter((m.config.canonical(), m.workload_id)
                                for m in records if m.outcome == "ok")
            multi_record_means += sum(n > 1 for n in ok_counts.values())
        assert multi_record_means > 0
