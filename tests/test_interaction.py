"""Two-stage interaction screening against hand computations and oracles."""

import json
import math
import random
import re

import numpy as np
import pytest

from helpers import (INDEX_LEVELS, INDEX_PARAMS, anova_oracle, one_workload, random_log,
                     store_of, unit_space)
from tuneforge.errors import AnalysisError
from tuneforge.harness import run_plan
from tuneforge.interaction import (AnovaDecomposition, FactorialTable, InteractionRecord,
                                   InteractionReport, PairGrid, attach_stage_b,
                                   eta_squared, finalize_records,
                                   partial_eta_squared, plan_pair_table, plan_pairs,
                                   stage_a_int_pct, stage_a_record, stage_a_verdict,
                                   table_from_log, two_way_anova)
from tuneforge.simulator import Coupling, Response, SimulatorAdapter, SimulatorModel
from tuneforge.space import Configuration


def table_2x2(means, reps=1):
    """2x2 table from cell means [ll, lh, hl, hh]; each cell holds `reps` copies."""
    ll, lh, hl, hh = means
    return FactorialTable(pair=("a", "b"), levels_a=[0, 1], levels_b=[0, 1],
                          cells=[[[ll] * reps, [lh] * reps], [[hl] * reps, [hh] * reps]],
                          workload_id="w0")


def table_from_grid(grid, reps=3, noise=None):
    """4x4 (or axb) table replicating grid[i][j] into reps values."""
    a, b = len(grid), len(grid[0])
    cells = []
    for i in range(a):
        row = []
        for j in range(b):
            base = grid[i][j]
            if noise is None:
                row.append([float(base)] * reps)
            else:
                row.append([float(base + noise[i][j][k]) for k in range(reps)])
        cells.append(row)
    return FactorialTable(pair=("a", "b"), levels_a=list(range(a)),
                          levels_b=list(range(b)), cells=cells, workload_id="w0")


class TestPlanPairs:
    def test_minimum_pair(self):
        assert plan_pairs(["a", "b"]) == [("a", "b")]

    def test_eleven_parameters_give_55_pairs(self):
        assert len(plan_pairs([f"p{i}" for i in range(11)])) == 55

    def test_fifteen_parameters_give_105_pairs(self):
        pairs = plan_pairs([f"p{i:02d}" for i in range(15)])
        assert len(pairs) == 105
        assert pairs == sorted(pairs)
        assert all(a < b for a, b in pairs)

    def test_fewer_than_two_is_an_error(self):
        with pytest.raises(AnalysisError):
            plan_pairs(["only"])


class TestStageA:
    def test_additive_means_give_zero(self):
        # 40 - 30 - 20 + 10 = 0
        assert stage_a_int_pct(table_2x2([10, 20, 30, 40])) == pytest.approx(0.0, abs=1e-9)
        assert stage_a_verdict(0.0) == "independent"

    def test_hand_computed_eighty_percent(self):
        # |200 - 100 - 100 + 100| / (500/4) = 80%
        pct = stage_a_int_pct(table_2x2([100, 100, 100, 200]))
        assert pct == pytest.approx(80.0)
        assert stage_a_verdict(pct) == "advance"

    def test_undetermined_band(self):
        assert stage_a_verdict(10.0) == "undetermined"
        assert stage_a_verdict(4.99) == "independent"
        assert stage_a_verdict(15.01) == "advance"

    def test_planted_coupling_matches_hand_evaluated_model(self):
        # y(na, nb) = 1000 * (1 + 0.5 * na * nb): multiplicative coupling 1.5
        # at the high-high corner, sigma = 0
        space = unit_space(["a", "b"])
        adapter = SimulatorAdapter(space, SimulatorModel(
            base_rate=1000.0, couplings=[Coupling("a", "b", 0.5)]))
        grid = PairGrid(("a", "b"), [0.0, 1.0], [0.0, 1.0])
        store = store_of(run_plan(adapter, plan_pair_table(grid, one_workload(), 1), seed=0))
        table = table_from_log(store, grid, "w0")
        expected = 100.0 * 500.0 / (4500.0 / 4)  # |1500-1000-1000+1000| over mean
        assert stage_a_int_pct(table) == pytest.approx(expected, abs=1e-9)

    def test_unbalanced_cell_is_an_error(self):
        t = table_2x2([1, 2, 3, 4])
        t.cells[1][1] = []
        with pytest.raises(AnalysisError):
            stage_a_int_pct(t)


class TestScreenDecisions:
    """stage_a_record judges a stage-A table, advances() gates stage B, and
    attach_stage_b adds the ANOVA."""

    def test_stage_a_record_carries_int_pct_and_verdict(self):
        rec = stage_a_record(table_2x2([100, 100, 100, 200]))
        assert (rec.pair, rec.workload_id) == (("a", "b"), "w0")
        assert rec.stage_a_int_pct == pytest.approx(80.0)
        assert rec.stage_a_verdict == "advance" and not rec.unsafe_to_screen

    @pytest.mark.parametrize("means, advances", [
        ([100, 100, 100, 200], True),    # advance
        ([100, 100, 100, 110], True),    # undetermined, about 9.8%
        ([10, 20, 30, 40], False),       # independent
    ])
    def test_every_verdict_but_independent_advances(self, means, advances):
        assert stage_a_record(table_2x2(means)).advances() is advances

    def test_unbalanced_stage_a_table_is_unsafe_and_does_not_advance(self):
        table = table_2x2([100, 100, 100, 200])
        table.cells[1][1] = []
        rec = stage_a_record(table)
        assert rec.unsafe_to_screen and not rec.advances()
        assert rec.stage_a_int_pct is None and rec.stage_a_verdict is None

    def test_attach_stage_b_adds_the_anova(self):
        rec = stage_a_record(table_2x2([100, 100, 100, 200]))
        table = table_from_grid([[1, 2], [3, 9]], noise=[[[0.1, -0.1, 0.0]] * 2] * 2)
        attach_stage_b(rec, table)
        decomp = two_way_anova(table, 3)
        assert rec.decomposition == decomp and rec.p_value == decomp.p_value
        assert rec.eta_squared == eta_squared(decomp)
        assert rec.partial_eta_squared == partial_eta_squared(decomp)

    def test_unbalanced_stage_b_table_marks_the_record_unsafe(self):
        rec = stage_a_record(table_2x2([100, 100, 100, 200]))
        table = table_from_grid([[1, 2], [3, 9]])
        table.cells[0][1].pop()
        attach_stage_b(rec, table)
        assert rec.unsafe_to_screen and rec.p_value is None
        assert rec.stage_a_verdict == "advance"  # stage A's judgement stays


class TestTwoWayAnova:
    def test_constant_table(self):
        t = table_from_grid([[5.0] * 4 for _ in range(4)])
        d = two_way_anova(t, 3)
        assert d.ss_total == 0.0 and d.p_value == 1.0
        assert eta_squared(d) == 0.0

    def test_additive_table_has_no_interaction(self):
        alpha = [1.0, 2.0, 4.0, 8.0]
        beta = [0.5, 1.0, 1.5, 2.0]
        grid = [[a + b for b in beta] for a in alpha]
        d = two_way_anova(table_from_grid(grid), 3)
        assert d.ss_interaction == pytest.approx(0.0, abs=1e-18)
        assert eta_squared(d) == pytest.approx(0.0, abs=1e-18)

    def test_deterministic_interaction_gives_p_zero(self):
        grid = [[i * j for j in range(4)] for i in range(4)]
        d = two_way_anova(table_from_grid(grid), 3)
        assert d.ss_error == 0.0 and d.ss_interaction > 0
        assert d.p_value == 0.0 and math.isinf(d.f_interaction)

    def test_oracle_equivalence_on_random_tables(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            raw = rng.normal(100.0, 10.0, size=(4, 4, 3))
            cells = [[list(map(float, raw[i][j])) for j in range(4)] for i in range(4)]
            t = FactorialTable(pair=("a", "b"), levels_a=list(range(4)),
                               levels_b=list(range(4)), cells=cells, workload_id="w0")
            d = two_way_anova(t, 3)
            ref = anova_oracle(cells)
            for mine, theirs in ((d.ss_a, ref["ss_a"]), (d.ss_b, ref["ss_b"]),
                                 (d.ss_interaction, ref["ss_ab"]),
                                 (d.ss_error, ref["ss_e"]),
                                 (d.ss_total, ref["ss_total"]),
                                 (d.f_interaction, ref["f"]),
                                 (eta_squared(d), ref["eta2"])):
                assert mine == pytest.approx(theirs, rel=1e-9)
            total = d.ss_a + d.ss_b + d.ss_interaction + d.ss_error
            assert total == pytest.approx(d.ss_total, rel=1e-9)
            assert d.df_a == 3 and d.df_b == 3
            assert d.df_interaction == 9 and d.df_error == 48 - 16

    def test_location_shift_leaves_interaction_terms_unchanged(self):
        rng = np.random.default_rng(8)
        raw = rng.normal(50.0, 5.0, size=(4, 4, 3))
        t1 = table_from_grid([[0.0] * 4] * 4, noise=[[list(raw[i][j]) for j in range(4)]
                                                     for i in range(4)])
        shifted = raw + 1000.0
        t2 = table_from_grid([[0.0] * 4] * 4, noise=[[list(shifted[i][j]) for j in range(4)]
                                                     for i in range(4)])
        d1, d2 = two_way_anova(t1, 3), two_way_anova(t2, 3)
        assert d1.ss_interaction == pytest.approx(d2.ss_interaction, rel=1e-6)
        assert d1.ss_error == pytest.approx(d2.ss_error, rel=1e-6)
        assert d1.f_interaction == pytest.approx(d2.f_interaction, rel=1e-6)
        assert d1.p_value == pytest.approx(d2.p_value, rel=1e-6)

    def test_scale_invariance_of_all_statistics(self):
        rng = np.random.default_rng(9)
        raw = rng.normal(100.0, 8.0, size=(4, 4, 3))
        cells1 = [[list(map(float, raw[i][j])) for j in range(4)] for i in range(4)]
        c = 7.25
        cells2 = [[[v * c for v in cell] for cell in row] for row in cells1]
        t1 = FactorialTable(("a", "b"), list(range(4)), list(range(4)), cells1, "w0")
        t2 = FactorialTable(("a", "b"), list(range(4)), list(range(4)), cells2, "w0")
        d1, d2 = two_way_anova(t1, 3), two_way_anova(t2, 3)
        assert eta_squared(d1) == pytest.approx(eta_squared(d2), rel=1e-12)
        assert d1.f_interaction == pytest.approx(d2.f_interaction, rel=1e-12)
        assert d1.p_value == pytest.approx(d2.p_value, rel=1e-12)
        m1 = table_2x2([float(raw[0][0][0]), 110.0, 120.0, 170.0])
        m2 = table_2x2([float(raw[0][0][0]) * c, 110.0 * c, 120.0 * c, 170.0 * c])
        assert stage_a_int_pct(m1) == pytest.approx(stage_a_int_pct(m2), rel=1e-12)

    def test_unbalanced_table_rejected(self):
        t = table_from_grid([[1.0] * 4 for _ in range(4)])
        t.cells[2][2] = t.cells[2][2][:2]
        with pytest.raises(AnalysisError):
            two_way_anova(t, 3)


class TestEtaSquared:
    def test_form_of_the_statistic(self):
        # SS_interaction / SS_total, e.g. 39 / 100 = 0.39
        d = two_way_anova(table_from_grid([[i * j for j in range(4)] for i in range(4)]), 3)
        d.ss_interaction, d.ss_total = 39.0, 100.0
        assert eta_squared(d) == pytest.approx(0.39)

    def test_zero_interaction(self):
        d = two_way_anova(table_from_grid([[float(i) for _ in range(4)] for i in range(4)]), 3)
        assert eta_squared(d) == 0.0

    def test_partial_variant_exposed(self):
        rng = np.random.default_rng(3)
        raw = rng.normal(10.0, 1.0, size=(4, 4, 3))
        cells = [[list(map(float, raw[i][j])) for j in range(4)] for i in range(4)]
        d = two_way_anova(FactorialTable(("a", "b"), list(range(4)), list(range(4)),
                                         cells, "w0"), 3)
        assert partial_eta_squared(d) == pytest.approx(
            d.ss_interaction / (d.ss_interaction + d.ss_error), rel=1e-12)
        assert partial_eta_squared(d) >= eta_squared(d)

    def test_simulator_planted_interaction_vs_oracle(self):
        space = unit_space(["a", "b"])
        adapter = SimulatorAdapter(space, SimulatorModel(
            base_rate=1000.0,
            responses={"a": Response(shape="linear-up", strength=0.1),
                       "b": Response(shape="linear-up", strength=0.1)},
            couplings=[Coupling("a", "b", 1.5)]))
        levels = [0.0, 1 / 3, 2 / 3, 1.0]
        grid = PairGrid(("a", "b"), levels, levels)
        store = store_of(run_plan(adapter, plan_pair_table(grid, one_workload(), 3), seed=0))
        t = table_from_log(store, grid, "w0", repetitions=3)
        d = two_way_anova(t, 3)
        ref = anova_oracle(t.cells)
        assert eta_squared(d) == pytest.approx(ref["eta2"], rel=1e-9)
        assert eta_squared(d) > 0.15


class TestPlantedRecall:
    def test_33_of_55_planted_couplings_all_advance(self, tmp_path):
        # 11 sensitive parameters; 33 of the 55 pairs carry couplings whose
        # analytic coarse interaction exceeds the advance threshold
        from tuneforge.campaign import Campaign

        names = [f"k{i:02d}" for i in range(11)]
        space = unit_space(names)
        responses = {n: Response(shape="linear-up", strength=0.08 + 0.005 * i)
                     for i, n in enumerate(names)}
        planted = plan_pairs(names)[:33]
        model = SimulatorModel(base_rate=1000.0, sigma=0.01, responses=responses,
                               couplings=[Coupling(a, b, 0.8) for a, b in planted])
        adapter = SimulatorAdapter(space, model)
        campaign = Campaign(str(tmp_path / "recall"), space, one_workload(), seed=6)
        campaign.profile(adapter, levels_per_param=4, repetitions=3, tau_s=0.05)
        report = campaign.screen(adapter)

        advancing = {r.pair for r in report.records
                     if r.stage_a_verdict in ("advance", "undetermined")}
        assert set(planted) <= advancing      # every planted coupling advances
        assert len(advancing) >= 33


class TestFinalize:
    def make_record(self, pair, p=None, eta=None):
        return InteractionRecord(pair=pair, workload_id="w0", stage_a_int_pct=50.0,
                                 stage_a_verdict="advance", eta_squared=eta, p_value=p)

    def test_bh_applied_across_tested_records(self):
        records = [self.make_record(("a", "b"), p=0.001, eta=0.4),
                   self.make_record(("a", "c"), p=0.2, eta=0.4),
                   self.make_record(("b", "c"), p=0.001, eta=0.05)]
        finalize_records(records)
        assert records[0].confirmed           # small q, big eta
        assert not records[1].confirmed       # q too large
        assert not records[2].confirmed       # eta too small
        assert all(r.q_value >= r.p_value for r in records)

    def test_untested_records_keep_no_q(self):
        rec = InteractionRecord(pair=("a", "b"), workload_id="w0",
                                stage_a_int_pct=1.0, stage_a_verdict="independent")
        finalize_records([rec])
        assert rec.q_value is None and not rec.confirmed


class TestReport:
    def test_renamed_record_key_fails_the_load(self, tmp_path):
        # A misspelled "confirmed" must not load as False and drop the pair.
        records = [InteractionRecord(pair=("a", "b"), workload_id="w0", stage_a_int_pct=50.0,
                                     stage_a_verdict="advance", eta_squared=0.4, p_value=0.001)]
        finalize_records(records)
        report = InteractionReport(campaign_id="c", space_hash="h", records=records)
        path = tmp_path / "report.json"
        report.save(str(path))
        assert InteractionReport.load(str(path)).confirmed_pairs() == {("a", "b"): 0.4}
        data = json.loads(path.read_text())
        data["records"][0]["confirmd"] = data["records"][0].pop("confirmed")
        path.write_text(json.dumps(data))
        with pytest.raises(AnalysisError,
                           match=r"missing keys \['confirmed'\], unknown keys \['confirmd'\]"):
            InteractionReport.load(str(path))

    @pytest.mark.parametrize("value", ["3.5", True, None, "Infinity"],
                             ids=["numeric-string", "true", "null", "other-string"])
    def test_f_statistic_that_is_not_a_number_fails_the_load(self, value):
        # only the string "inf" stands for a number; float() would take the rest
        decomposition = two_way_anova(FactorialTable(
            pair=("a", "b"), levels_a=[0, 1], levels_b=[0, 1], workload_id="w0",
            cells=[[[1.0, 2.0], [3.0, 4.5]], [[2.0, 2.5], [9.0, 8.0]]]), 2)
        d = decomposition.to_json()
        assert AnovaDecomposition.from_json(d) == decomposition
        assert AnovaDecomposition.from_json({**d, "f_interaction": "inf"}).f_interaction == math.inf
        with pytest.raises(AnalysisError,
                           match=rf"^ANOVA decomposition: f_interaction: {re.escape(repr(value))} "
                                 r"is not float$"):
            AnovaDecomposition.from_json({**d, "f_interaction": value})


def full_scan_table_cells(records, pair, levels_a, levels_b, workload_id, repetitions):
    """Reference table assembly: one full pass over the records per table."""
    a, b = pair
    index = {}
    for m in records:
        if m.workload_id != workload_id or m.outcome != "ok":
            continue
        if m.repetition >= repetitions:
            continue
        if set(m.config.assignments) != {a, b}:
            continue
        index.setdefault(m.config.canonical(), []).append(m.metric_value)
    cells = []
    for va in levels_a:
        row = []
        for vb in levels_b:
            key = Configuration({a: va, b: vb}).canonical()
            row.append(sorted(index.get(key, [])))
        cells.append(row)
    return cells


# Stage A corners (1 rep), the stage-B grid (3 reps), and a grid with a level
# (0.5) that no record carries, so some cells are empty.
TABLE_SHAPES = (([0.0, 1.0], [0.0, 1.0], 1),
                (list(INDEX_LEVELS), list(INDEX_LEVELS), 3),
                (list(INDEX_LEVELS), [0.0, 0.5, 1.0], 3))


class TestTableFromLogIndex:
    def test_matches_full_scan_reference(self):
        multi_value_cells = 0
        for seed in range(25):
            records, workloads = random_log(random.Random(seed))
            store = store_of(records)
            for pair in plan_pairs(list(INDEX_PARAMS)):
                for w in workloads:
                    for levels_a, levels_b, reps in TABLE_SHAPES:
                        table = table_from_log(store, PairGrid(pair, levels_a, levels_b), w,
                                               repetitions=reps)
                        expected = full_scan_table_cells(records, pair, levels_a, levels_b,
                                                         w, reps)
                        assert table.cells == expected
                        multi_value_cells += sum(len(c) > 1 for row in expected for c in row)
        assert multi_value_cells > 0

    def test_reads_no_full_scan(self):
        # the store cannot be iterated, and a table reads one exact key per
        # grid cell and planned repetition
        store = store_of(random_log(random.Random(1))[0])
        with pytest.raises(TypeError):
            iter(store)
        reads = []

        def counting_get(key, get=store.get):
            reads.append(key)
            return get(key)

        store.get = counting_get
        for levels_a, levels_b, reps in TABLE_SHAPES:
            reads.clear()
            grid = PairGrid(("a", "b"), levels_a, levels_b)
            table_from_log(store, grid, "w0", repetitions=reps)
            want = [(c.canonical(), "w0", rep) for row in grid.configs for c in row
                    for rep in range(reps)]
            assert reads == want
            # the keys carry the grid's own configurations' canonical text
            assert all(read[0] is key[0] for read, key in zip(reads, want))
