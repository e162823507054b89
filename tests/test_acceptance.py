"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criteria are oracle- and property-based on the synthetic simulator;
the reference scale numbers (run counts, thresholds, budget shares) anchor
the structure.
"""

import json
import os
import time

import numpy as np
import pytest
import scipy.stats

from helpers import (anova_oracle, global_grid_argmax, one_workload,
                     run_small_pipeline, shifted_small_model, small_model,
                     unit_space, SMALL_NAMES)
from tuneforge.campaign import Campaign, DOCUMENT_FILE, SENSITIVITY_REPORT
from tuneforge.docgen import ProceduralDocument, compile_document, validate_document
from tuneforge.executor import run_session
from tuneforge.interaction import FactorialTable, eta_squared, stage_a_int_pct, two_way_anova
from tuneforge.simulator import (Coupling, Response, SimulatorAdapter, SimulatorModel)
from tuneforge.space import Configuration, WorkloadSpec
from tuneforge.stats import benjamini_hochberg, f_upper_tail_p
from tuneforge.topology import (independent_baseline, measure_baselines,
                                optimize_component, plan_joint_search)


def announce(number: int, name: str, started: float, limit_s: float) -> None:
    elapsed = time.time() - started
    assert elapsed < limit_s, f"criterion {number} exceeded {limit_s}s ({elapsed:.1f}s)"
    print(f"\nACCEPTANCE {number:>2} PASS  {name}  ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    return run_small_pipeline(tmp_path_factory.mktemp("accept_small"))


@pytest.fixture(scope="module")
def pg_scale(tmp_path_factory):
    """116-parameter synthetic space shaped like the full-scale study:
    15 sensitive parameters, two strong 3-parameter components, a band of
    weak couplings that advance but do not confirm."""
    names = [f"p{i:03d}" for i in range(1, 117)]
    strengths = [0.20, 0.15, 0.12, 0.10, 0.095, 0.09, 0.085, 0.082, 0.080,
                 0.078, 0.076, 0.074, 0.073, 0.072, 0.070]
    responses = {names[i]: Response(shape="linear-up", strength=s)
                 for i, s in enumerate(strengths)}
    for i in range(15, 116, 2):
        responses[names[i]] = Response(shape="linear-up", strength=0.004)
    strong = [("p001", "p002"), ("p002", "p003"), ("p004", "p005"), ("p005", "p006")]
    weak = [("p007", "p008"), ("p007", "p009"), ("p008", "p009"), ("p010", "p011"),
            ("p010", "p012"), ("p011", "p012"), ("p013", "p014"), ("p013", "p015"),
            ("p014", "p015"), ("p007", "p010"), ("p008", "p011")]
    model = SimulatorModel(
        base_rate=1000.0, sigma=0.01, responses=responses,
        couplings=[Coupling(a, b, 1.5) for a, b in strong] +
                  [Coupling(a, b, 0.12) for a, b in weak])
    space = unit_space(names)
    workloads = [WorkloadSpec(id=w, metric_name="tps", direction="maximize")
                 for w in ("w_read", "w_write", "w_olap")]
    adapter = SimulatorAdapter(space, model)
    campaign = Campaign(str(tmp_path_factory.mktemp("accept_pg")), space, workloads, seed=7)
    campaign.profile(adapter, levels_per_param=6, repetitions=3, tau_s=0.05)
    campaign.screen(adapter)
    campaign.joint(adapter, repetitions=3)
    return {"campaign": campaign, "strong": strong, "names": names}


def random_table(rng):
    raw = rng.normal(100.0, 10.0, size=(4, 4, 3))
    cells = [[list(map(float, raw[i][j])) for j in range(4)] for i in range(4)]
    return FactorialTable(pair=("a", "b"), levels_a=list(range(4)),
                          levels_b=list(range(4)), cells=cells, workload_id="w0")


class TestCriterion1AnovaOracle:
    def test_oracle_equivalence_on_100_random_tables(self):
        started = time.time()
        rng = np.random.default_rng(515)
        for _ in range(100):
            t = random_table(rng)
            d = two_way_anova(t, 3)
            ref = anova_oracle(t.cells)
            assert d.ss_a == pytest.approx(ref["ss_a"], rel=1e-9)
            assert d.ss_b == pytest.approx(ref["ss_b"], rel=1e-9)
            assert d.ss_interaction == pytest.approx(ref["ss_ab"], rel=1e-9)
            assert d.ss_error == pytest.approx(ref["ss_e"], rel=1e-9)
            assert d.ss_total == pytest.approx(ref["ss_total"], rel=1e-9)
            assert d.f_interaction == pytest.approx(ref["f"], rel=1e-9)
            assert eta_squared(d) == pytest.approx(ref["eta2"], rel=1e-9)
            parts = d.ss_a + d.ss_b + d.ss_interaction + d.ss_error
            assert parts == pytest.approx(d.ss_total, rel=1e-9)
        announce(1, "ANOVA decomposition matches brute-force oracle", started, 5.0)


class TestCriterion2ContrastNullAndScale:
    def test_additive_null_and_scale_invariance(self):
        started = time.time()
        additive = FactorialTable(pair=("a", "b"), levels_a=[0, 1], levels_b=[0, 1],
                                  cells=[[[10.0], [20.0]], [[30.0], [40.0]]],
                                  workload_id="w0")
        assert stage_a_int_pct(additive) <= 1e-9

        rng = np.random.default_rng(2)
        raw = rng.normal(100.0, 12.0, size=(4, 4, 3))
        c = 3.7
        cells1 = [[list(map(float, raw[i][j])) for j in range(4)] for i in range(4)]
        cells2 = [[[v * c for v in cell] for cell in row] for row in cells1]
        t1 = FactorialTable(("a", "b"), list(range(4)), list(range(4)), cells1, "w0")
        t2 = FactorialTable(("a", "b"), list(range(4)), list(range(4)), cells2, "w0")
        d1, d2 = two_way_anova(t1, 3), two_way_anova(t2, 3)
        assert eta_squared(d1) == pytest.approx(eta_squared(d2), rel=1e-12)
        assert d1.f_interaction == pytest.approx(d2.f_interaction, rel=1e-12)
        assert d1.p_value == pytest.approx(d2.p_value, rel=1e-12)
        s1 = FactorialTable(("a", "b"), [0, 1], [0, 1],
                            [[[100.0], [120.0]], [[130.0], [190.0]]], "w0")
        s2 = FactorialTable(("a", "b"), [0, 1], [0, 1],
                            [[[100.0 * c], [120.0 * c]], [[130.0 * c], [190.0 * c]]], "w0")
        assert stage_a_int_pct(s1) == pytest.approx(stage_a_int_pct(s2), rel=1e-12)
        announce(2, "interaction contrast: additive null and scale invariance", started, 1.0)


class TestCriterion3FPValue:
    def test_reference_accuracy_and_monotonicity(self):
        started = time.time()
        mine = f_upper_tail_p(3.0, 9, 32)
        assert mine == pytest.approx(scipy.stats.f.sf(3.0, 9, 32), abs=1e-8)
        grid = np.linspace(0.0, 15.0, 100)
        ps = [f_upper_tail_p(float(f), 9, 32) for f in grid]
        assert all(a >= b for a, b in zip(ps, ps[1:]))
        assert ps[0] == 1.0
        announce(3, "F-tail p-value matches independent reference", started, 1.0)


class TestCriterion4BenjaminiHochberg:
    def test_hand_case_and_properties(self):
        started = time.time()
        assert benjamini_hochberg([0.01, 0.04, 0.03, 0.005]) == \
            pytest.approx([0.02, 0.04, 0.04, 0.02], abs=1e-15)
        rng = np.random.default_rng(44)
        for _ in range(1000):
            m = int(rng.integers(1, 30))
            p = rng.uniform(0.0, 1.0, size=m).tolist()
            q = benjamini_hochberg(p)
            assert all(qi >= pi for qi, pi in zip(q, p))
            order = sorted(range(m), key=lambda i: p[i])
            qs = [q[i] for i in order]
            assert all(a <= b + 1e-15 for a, b in zip(qs, qs[1:]))
        announce(4, "BH-FDR hand case exact; step-up properties on 1000 vectors",
                 started, 1.0)


class TestCriterion5PlantedRecovery:
    def test_top_k_and_coupling_recovery(self, tmp_path):
        started = time.time()
        names = [f"q{i:02d}" for i in range(20)]
        sensitive = {"q00": 0.25, "q05": 0.18, "q11": 0.14, "q17": 0.10}
        couplings = [Coupling("q00", "q05", 1.5), Coupling("q05", "q11", 1.5),
                     Coupling("q11", "q17", 1.5)]
        model = SimulatorModel(
            base_rate=1000.0, sigma=0.01,
            responses={n: Response(shape="linear-up", strength=s)
                       for n, s in sensitive.items()},
            couplings=couplings)
        space = unit_space(names)
        campaign = Campaign(str(tmp_path / "recovery"), space, one_workload(), seed=3)
        adapter = SimulatorAdapter(space, model)
        report = campaign.profile(adapter, levels_per_param=5, repetitions=3, tau_s=0.05)
        selected = {p.parameter for p in report.top_k()}
        assert selected == set(sensitive)  # precision = recall = 1.0

        inter = campaign.screen(adapter)
        confirmed = set(inter.confirmed_pairs())
        planted = {("q00", "q05"), ("q05", "q11"), ("q11", "q17")}
        assert confirmed == planted  # all 3 confirmed, zero false confirmations
        for rec in inter.records:
            if rec.confirmed:
                assert rec.eta_squared > 0.15 and rec.q_value < 0.05
        announce(5, "planted sensitivities and couplings recovered exactly",
                 started, 120.0)


class TestCriterion6JointVsIndependent:
    def test_antagonistic_coupling_gap(self):
        started = time.time()
        space = unit_space(["a", "b"])
        model = SimulatorModel(
            base_rate=1000.0, sigma=0.0,
            responses={"a": Response(shape="linear-up", strength=0.4),
                       "b": Response(shape="linear-up", strength=0.2)},
            couplings=[Coupling("a", "b", -0.5)])
        adapter = SimulatorAdapter(space, model)
        workloads = one_workload()
        from tuneforge.sensitivity import SafeRange, SensitivityProfile, SensitivityReport
        profiles = [SensitivityProfile(parameter=n, cv_per_workload={"w0": 0.3},
                                       aggregate_cv=0.3, shape="monotonic-up",
                                       safe_range=SafeRange(0.0, 1.0), rank=i + 1,
                                       selected=True)
                    for i, n in enumerate(["a", "b"])]
        report = SensitivityReport(campaign_id="c", space_hash="h", tau_s=0.05,
                                   baseline_means={"w0": 1000.0}, profiles=profiles)
        baselines, _ = measure_baselines(adapter, workloads, 3, seed=0)
        plan = plan_joint_search(["a", "b"], report, space, workloads, repetitions=3)
        optima, _ = optimize_component(adapter, plan, 0, baselines)
        joint = optima[0]
        combo, indep_metric, _ = independent_baseline(
            adapter, ["a", "b"], report, space, workloads[0], 3, seed=0)
        assert indep_metric < joint.best_metric  # independent strictly worse
        grid = {"a": [0.0, 1 / 3, 2 / 3, 1.0], "b": [0.0, 1 / 3, 2 / 3, 1.0]}
        analytic, _ = global_grid_argmax(model, space, grid)
        assert joint.best_config == analytic      # exact argmax match at sigma=0
        announce(6, "joint optimum beats independent combination; argmax exact",
                 started, 30.0)


class TestCriterion7DecompositionOptimality:
    def test_componentwise_equals_global_argmax(self):
        started = time.time()
        names = ["a1", "a2", "a3", "b1", "b2", "c1", "c2", "c3"]
        space = unit_space(names)
        model = SimulatorModel(
            base_rate=1000.0, sigma=0.0,
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
        from tuneforge.sensitivity import SafeRange, SensitivityProfile, SensitivityReport
        profiles = [SensitivityProfile(parameter=n, cv_per_workload={"w0": 0.3},
                                       aggregate_cv=0.3, shape="monotonic-up",
                                       safe_range=SafeRange(0.0, 1.0), rank=i + 1,
                                       selected=True)
                    for i, n in enumerate(names)]
        report = SensitivityReport(campaign_id="c", space_hash="h", tau_s=0.05,
                                   baseline_means={"w0": 1000.0}, profiles=profiles)
        workloads = one_workload()
        baselines, _ = measure_baselines(adapter, workloads, 1, seed=0)
        combined = {}
        for comp in (["a1", "a2", "a3"], ["b1", "b2"]):
            plan = plan_joint_search(comp, report, space, workloads, repetitions=1)
            optima, _ = optimize_component(adapter, plan, 0, baselines)
            combined.update(optima[0].best_config.assignments)
        levels = [0.0, 1 / 3, 2 / 3, 1.0]
        grid = {n: levels for n in ("a1", "a2", "a3", "b1", "b2")}
        expected, _ = global_grid_argmax(model, space, grid)  # 1024 grid points
        assert Configuration(combined) == expected
        announce(7, "component-wise optima equal global brute-force argmax",
                 started, 120.0)


class TestCriterion8DocumentIntegrity:
    def test_validate_roundtrip_determinism(self, small, tmp_path):
        started = time.time()
        doc = small["doc"]
        assert validate_document(doc) == []
        path = tmp_path / "doc.json"
        doc.save(str(path))
        loaded = ProceduralDocument.load(str(path))
        assert loaded.to_json() == doc.to_json()
        doc2 = compile_document(small["sensitivity"], small["optima"],
                                small["space"], small["workloads"])
        assert doc2.serialize() == doc.serialize()  # byte-deterministic compile
        announce(8, "document validates, round-trips, compiles byte-identically",
                 started, 5.0)


class TestCriterion9ExecutorConvergenceAndSafety:
    def test_matched_convergence_and_trace_validity(self, small):
        started = time.time()
        doc = small["doc"]
        space = small["space"]
        model = small["model"]
        session = run_session(doc, SimulatorAdapter(space, model), budget=30, seed=101)
        assert session.status == "converged"
        assert session.trials_used <= 30

        grid = dict(doc.grids)
        best_config, best_metric = global_grid_argmax(model, space, grid)
        achieved = model.true_metric(space, session.final_config, "w0")
        assert achieved >= 0.99 * best_metric  # within 1% of planted optimum

        # 100% valid rate: every benchmarked configuration inside safe ranges
        benchmarks = 0
        for config, _ in session.benchmarked_configs():
            for param, value in config.assignments.items():
                safe = doc.safe_range_of(param)
                assert safe is not None
                assert float(safe.lo) <= float(value) <= float(safe.hi)
            benchmarks += 1
        assert benchmarks == session.trials_used

        shifted = shifted_small_model()
        session2 = run_session(doc, SimulatorAdapter(space, shifted), budget=120, seed=11)
        assert session2.status == "converged"
        assert session2.trials_used <= 120
        assert any(e.action == "adaptation" for e in session2.trace)
        best2_config, best2_metric = global_grid_argmax(shifted, space, grid)
        achieved2 = shifted.true_metric(space, session2.final_config, "w0")
        assert achieved2 >= 0.99 * best2_metric
        announce(9, "executor converges in 30/120 trials with a 100% valid trace",
                 started, 180.0)


class TestCriterion10EndToEndDeterminism:
    def test_cli_pipeline_byte_identical_across_runs_and_parallelism(self, tmp_path):
        started = time.time()
        import yaml
        from tuneforge.cli import main
        space_doc = {
            "schema_version": 1,
            "parameters": [
                {"name": n, "domain": {"type": "continuous", "lo": 0.0, "hi": 1.0},
                 "default": 0.0} for n in SMALL_NAMES],
            "workloads": [{"id": "w0", "metric_name": "tps", "direction": "maximize"}],
        }
        space_path = tmp_path / "space.yaml"
        space_path.write_text(yaml.safe_dump(space_doc))
        model_path = tmp_path / "model.yaml"
        small_model().save(str(model_path))

        def pipeline(campaign, parallelism):
            common = ["--space", str(space_path), "--workloads", str(space_path),
                      "--campaign", campaign, "--seed", "17"]
            adapter = ["--adapter", f"sim:{model_path}", "--parallelism", str(parallelism)]
            assert main(["profile"] + common + adapter) == 0
            assert main(["screen"] + common + adapter) == 0
            assert main(["joint"] + common + adapter) == 0
            assert main(["compile"] + common) == 0
            assert main(["tune", "--budget", "40"] + common + adapter) == 0

        artifacts = ("sensitivity_report.json", "interaction_report.json",
                     "optima_report.json", DOCUMENT_FILE, "trace.jsonl",
                     "final_config.properties")
        dirs = []
        for name, par in (("r1", 1), ("r2", 1), ("r8", 8)):
            d = str(tmp_path / name)
            pipeline(d, par)
            dirs.append(d)
        for artifact in artifacts:
            contents = [open(os.path.join(d, artifact), "rb").read() for d in dirs]
            assert contents[0] == contents[1], f"{artifact} differs between runs"
            assert contents[0] == contents[2], f"{artifact} differs at parallelism 8"
        announce(10, "CLI pipeline byte-identical across runs and parallelism 1 vs 8",
                 started, 600.0)


class TestCriterion11BudgetShape:
    def test_three_stage_split_near_reference(self, pg_scale):
        started = time.time()
        campaign = pg_scale["campaign"]
        report_path = campaign.path(SENSITIVITY_REPORT)
        with open(report_path) as fh:
            selected = [p for p in json.load(fh)["profiles"] if p["selected"]]
        assert len(selected) == 15  # k = 15 at tau_s = 0.05

        used = campaign.state.runs_used
        total = sum(used[s] for s in ("sensitivity", "screen", "joint"))
        assert 8000 <= total <= 15000  # on the order of 11,000 runs
        shares = {s: 100.0 * used[s] / total for s in ("sensitivity", "screen", "joint")}
        reference = {"sensitivity": 57.0, "screen": 32.0, "joint": 11.0}
        for stage, ref in reference.items():
            assert abs(shares[stage] - ref) <= 10.0, \
                f"{stage}: {shares[stage]:.1f}% vs {ref}% reference"
        print(f"\n  budget split: " + ", ".join(
            f"{s} {shares[s]:.1f}%" for s in ("sensitivity", "screen", "joint")) +
            f" of {total} runs")

        # Full-scale document: 15 per-parameter + 2 per-component +
        # orchestration is the floor; the export carries all 15 safe ranges.
        doc = campaign.compile()
        assert validate_document(doc) == []
        assert len(doc.skills) >= 15 + 2 + 1
        from tuneforge.docgen import export_knowledge
        export = export_knowledge(doc)
        assert len(export.safe_ranges) == 15
        announce(11, "stage budgets within 10 points of the 57/32/11 reference",
                 started, 300.0)
