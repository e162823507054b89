"""Session outcomes and campaign runs per campaign seed.

    python3 tools/recovery.py --workload planted-116 --seeds 1000-1004 [--sessions 20]
                              [--json sessions.json]

Run from the repository root. For each campaign seed it runs one campaign of a
benchmark workload (``perfbench/workloads.py``, read and never written):
profile, screen, joint and compile, with the stage settings of
``perfbench/run.py``. Then it runs ``--sessions`` tuning sessions on the
document, with session seeds 100000, 100001, ... and a budget of 120 trials.
On a workload with a shifted model the odd sessions run against it, as in
``perfbench/run.py``.

It prints three tables, separated by blank lines. The first has one row per
campaign seed and model (matched, shifted), then one summary row per model
over all seeds:

- ``trials``: mean session trials, and ``reused``: mean benchmark steps that
  read an earlier step's measurement;
- ``adapted``: the share of sessions that took an adaptation edge;
- ``vs_static`` and ``vs_defaults``: the noise-free primary-workload metric
  (``SimulatorModel.true_metric``) of the session's final configuration,
  divided by that of the static configuration and of the defaults, each on
  the model the session ran on; the worst session and the median;
- ``vs_best``: that metric against the best one of two noise-free
  coordinate searches over the document's grids (top-k parameters only), one
  started from the session's final configuration and one from the static
  configuration: the final metric divided by the best when the workload
  maximizes, the best divided by the final metric when it minimizes, so it
  is at most 1.0. The worst session and the median.

The static configuration is what documentation-driven tuning sets from the
knowledge export: each top-k parameter at the end of its documented safe range
that its documented shape favours (monotonic-up or monotonic-down), the rest
at their default.

The second table has one row per campaign seed, read from the campaign's
journals before its directory is removed:

- ``runs_sensitivity``, ``runs_screen`` and ``runs_joint``: the fresh runs
  each stage journaled;
- ``repeats_screen`` and ``repeats_joint``: those of a stage's fresh runs
  whose effective configuration (``ParameterSpace.effective``), workload and
  repetition an earlier journaled record of the campaign already holds. The
  system runs such a run again although the campaign has its result.

The third table has one row per campaign seed, read from the campaign's
sensitivity and interaction reports before its directory is removed, then the
rows ``min``, ``p10``, ``p50`` and ``max`` over the seeds (quantiles
interpolated linearly between ranks):

- ``topk_recall`` and ``topk_precision``: the selected parameters against the
  workload's ``expected_top_k``; ``pairs_recall`` and ``pairs_precision``: the
  confirmed pairs against its ``expected_confirmed``. An empty set scores 1.0;
- ``cv_planted_min`` and ``cv_unplanted_max``: the weakest ``aggregate_cv`` of
  an expected top-k parameter and the strongest of any other profiled one,
  the margins around the selection threshold ``tau_s``;
- ``eta2_planted_min`` and ``eta2_unplanted_max``: the same for a pair's eta
  squared, its largest over the workloads where stage B gave one, around the
  confirmation threshold ``ETA2_MIN``.

A planted parameter or pair without a value counts as 0.0, and so does the
strongest unplanted one when there is none.

Standard output depends on the seeds only. The wall time of each campaign seed,
and the median wall time of its sessions, go to standard error. ``--json``
writes each campaign seed's runs and recovery row and every session's record:
trials, final effective configuration, true metrics and the best metric of the
searches.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
import types

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

import tuneforge  # noqa: E402
from tuneforge import (Configuration, SimulatorAdapter, export_knowledge,  # noqa: E402
                       run_session)
from tuneforge.campaign import (INTERACTION_REPORT, SENSITIVITY_REPORT,  # noqa: E402
                                Campaign)
from tuneforge.errors import CrashError  # noqa: E402
from tuneforge.harness import read_journal  # noqa: E402
from tuneforge.interaction import InteractionReport  # noqa: E402
from tuneforge.sensitivity import SafeRange, SensitivityReport  # noqa: E402

SESSION_SEED = 100_000
SESSION_BUDGET = 120
COLUMNS = ("seed", "model", "sessions", "converged", "trials", "reused", "adapted",
           "vs_static_min", "vs_static_p50", "vs_best_min", "vs_best_p50", "vs_defaults_p50")
RUN_COLUMNS = ("seed", "runs_sensitivity", "runs_screen", "runs_joint", "repeats_screen",
               "repeats_joint")
RECOVERY_COLUMNS = ("seed", "topk_recall", "topk_precision", "pairs_recall", "pairs_precision",
                    "cv_planted_min", "cv_unplanted_max", "eta2_planted_min",
                    "eta2_unplanted_max")


def load_workloads():
    """perfbench/workloads.py, executed without importing it (nothing is
    written beside it)."""
    path = os.path.join(REPO, "perfbench", "workloads.py")
    module = types.ModuleType("perfbench_workloads")
    sys.modules[module.__name__] = module  # dataclasses look their module up
    try:
        with open(path, encoding="utf-8") as fh:
            exec(compile(fh.read(), path, "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


def static_config(export, maximize: bool) -> Configuration:
    """Each exported top-k parameter at the safe-range end its shape favours:
    a numeric range's bound, or an enum range's first or last value."""
    assignments = {}
    for entry in export.top_k:
        if entry["shape"] not in ("monotonic-up", "monotonic-down"):
            continue
        safe = SafeRange.from_json(export.safe_ranges[entry["name"]])
        rises = entry["shape"] == "monotonic-up"
        assignments[entry["name"]] = safe.hi if rises == maximize else safe.lo
    return Configuration(assignments)


def coordinate_best(model, space, grids, start: Configuration, workload) -> float:
    """The best noise-free metric of ``workload`` that a coordinate search
    over ``grids`` (parameter -> levels) reaches from ``start``.

    Each pass sets every grid parameter in turn to the level that beats the
    best so far under the workload's direction, holding the others, and the
    passes stop when one changes nothing. A level in a planted crash region
    is passed over, so the result is never worse than ``start``'s metric.
    """
    assignments = dict(start.assignments)
    best = model.true_metric(space, start, workload.id)
    changed = True
    while changed:
        changed = False
        for name, grid in grids.items():
            for level in grid:
                trial = {**assignments, name: level}
                try:
                    value = model.true_metric(space, Configuration(trial), workload.id)
                except CrashError:
                    continue
                if workload.better(value, best):
                    best, assignments, changed = value, trial, True
    return best


def campaign_runs(campaign: Campaign) -> dict:
    """Fresh runs per stage, and the repeats among them: runs whose
    (effective configuration, workload, repetition) an earlier journaled
    record holds, in stage order and journal order."""
    held, counts = set(), {"seed": campaign.seed}
    for stage, column in (("sweep", "sensitivity"), ("screen", "screen"), ("joint", "joint")):
        _, records, _ = read_journal(campaign.store.journals[stage], 0, {})
        counts[f"runs_{column}"], repeats = len(records), 0
        for m in records:
            key = (campaign.space.effective(m.config).canonical(), m.workload_id, m.repetition)
            repeats += key in held
            held.add(key)
        if stage != "sweep":
            counts[f"repeats_{column}"] = repeats
    return counts


def campaign_recovery(w, campaign: Campaign) -> dict:
    """Recall, precision and margins of one campaign of workload ``w``
    against its planted truth, from the campaign's reports."""
    sensitivity = SensitivityReport.load(campaign.path(SENSITIVITY_REPORT))
    interaction = InteractionReport.load(campaign.path(INTERACTION_REPORT))
    cv = {p.parameter: p.aggregate_cv for p in sensitivity.profiles}
    eta2: dict[tuple[str, str], float] = {}  # pair (sorted, as screened) -> its largest
    for rec in interaction.records:
        if rec.eta_squared is not None:
            eta2[rec.pair] = max(rec.eta_squared, eta2.get(rec.pair, 0.0))
    counts = {}
    for name, margin, found, expected, values in (
            ("topk", "cv", {p.parameter for p in sensitivity.top_k()}, w.expected_top_k, cv),
            ("pairs", "eta2", set(interaction.confirmed_pairs()), w.expected_confirmed, eta2)):
        hits = len(found & expected)
        counts[f"{name}_recall"] = hits / len(expected) if expected else 1.0
        counts[f"{name}_precision"] = hits / len(found) if found else 1.0
        counts[f"{margin}_planted_min"] = min((values.get(k, 0.0) for k in expected),
                                              default=0.0)
        counts[f"{margin}_unplanted_max"] = max(
            (v for k, v in values.items() if k not in expected), default=0.0)
    return counts


@contextlib.contextmanager
def run_campaign(tf, w, campaign_seed: int):
    """One campaign of workload ``w`` run by package ``tf`` (``tuneforge``, or
    a copy of it under another name), with the stage settings of
    ``perfbench/run.py``; ``w``'s space, workloads and models are ``tf``'s
    own. Yields the campaign and its compiled document, and removes the
    campaign's directory on exit."""
    directory = tempfile.mkdtemp(prefix="campaign-")
    try:
        campaign = importlib.import_module(tf.__name__ + ".campaign").Campaign(
            directory, w.space, w.workloads, campaign_seed)
        adapter = tf.SimulatorAdapter(w.space, w.model)
        campaign.profile(adapter, levels_per_param=w.levels_per_param, repetitions=3,
                         tau_s=0.05)
        campaign.screen(adapter)
        campaign.joint(adapter, repetitions=3)
        yield campaign, campaign.compile()
    finally:
        shutil.rmtree(directory)


def session_model(w, index: int) -> tuple[str, object]:
    """The model session ``index`` runs against, by name: the shifted model on
    the odd sessions of a workload that has one, as in ``perfbench/run.py``."""
    if w.shifted is not None and index % 2 == 1:
        return "shifted", w.shifted
    return "matched", w.model


def campaign_sessions(w, campaign_seed: int, sessions: int
                      ) -> tuple[dict, list[dict], list[float]]:
    """One campaign of workload ``w``: its runs row, the records of its
    sessions and each session's wall time in seconds."""
    with run_campaign(tuneforge, w, campaign_seed) as (campaign, doc):
        runs = {**campaign_runs(campaign), **campaign_recovery(w, campaign)}
    primary = next(spec for spec in w.workloads if spec.id == doc.primary_workload)
    static = static_config(export_knowledge(doc), primary.direction == "maximize")
    searched: dict[tuple[str, str], float] = {}  # (model, start) -> its search's best

    def best_from(name: str, model, start: Configuration) -> float:
        key = (name, start.canonical())
        if key not in searched:
            searched[key] = coordinate_best(model, w.space, doc.grids, start, primary)
        return searched[key]

    records, wall = [], []
    for index in range(sessions):
        name, model = session_model(w, index)
        adapter = SimulatorAdapter(w.space, model)
        start = time.perf_counter()
        s = run_session(doc, adapter, SESSION_BUDGET, SESSION_SEED + index)
        wall.append(time.perf_counter() - start)
        final = s.final_config if s.final_config is not None else Configuration({})
        ends = [best_from(name, model, final), best_from(name, model, static)]
        records.append({
            "campaign_seed": campaign_seed, "session_seed": SESSION_SEED + index,
            "model": name, "status": s.status,
            "trials": s.trials_used,
            "reused": sum("reused_from" in e.inputs for e in s.trace),
            "adapted": any(e.action == "adaptation" for e in s.trace),
            "final_effective": w.space.effective(final).assignments,
            "true_metric": model.true_metric(w.space, final, primary.id),
            "static_metric": model.true_metric(w.space, static, primary.id),
            "best_metric": max(ends) if primary.direction == "maximize" else min(ends),
            "direction": primary.direction,
            "defaults_metric": model.true_metric(w.space, Configuration({}), primary.id),
        })
    return runs, records, wall


def row(seed: str, model: str, records: list[dict]) -> list[str]:
    vs_static = [r["true_metric"] / r["static_metric"] for r in records]
    vs_best = [r["true_metric"] / r["best_metric"] if r["direction"] == "maximize" else
               r["best_metric"] / r["true_metric"] for r in records]
    vs_defaults = [r["true_metric"] / r["defaults_metric"] for r in records]
    return [seed, model, str(len(records)),
            str(sum(r["status"] == "converged" for r in records)),
            f"{statistics.mean(r['trials'] for r in records):.2f}",
            f"{statistics.mean(r['reused'] for r in records):.2f}",
            f"{statistics.mean(r['adapted'] for r in records):.2f}",
            f"{min(vs_static):.4f}", f"{statistics.median(vs_static):.4f}",
            f"{min(vs_best):.4f}", f"{statistics.median(vs_best):.4f}",
            f"{statistics.median(vs_defaults):.4f}"]


def quantile(values: list[float], q: float) -> float:
    """The ``q`` quantile of ``values``, interpolated linearly between ranks."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def recovery_rows(campaigns: list[dict]) -> list[list[str]]:
    """The third table: one row per campaign, then min, p10, p50 and max."""
    def cells(values: dict) -> list[str]:
        return [f"{values[k]:.2f}" if k.endswith(("recall", "precision")) else
                f"{values[k]:.4f}" for k in RECOVERY_COLUMNS[1:]]

    rows = [list(RECOVERY_COLUMNS)] + [[str(c["seed"])] + cells(c) for c in campaigns]
    for label, q in (("min", 0.0), ("p10", 0.1), ("p50", 0.5), ("max", 1.0)):
        rows.append([label] + cells({k: quantile([c[k] for c in campaigns], q)
                                     for k in RECOVERY_COLUMNS[1:]}))
    return rows


def print_table(rows: list[list[str]]) -> None:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(r, widths)).rstrip())


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def main(argv: list[str] | None = None) -> int:
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="campaign seeds, A-B inclusive or one seed")
    parser.add_argument("--sessions", type=int, default=20,
                        help="sessions per campaign seed (default 20)")
    parser.add_argument("--json", help="write every session's record to this file")
    args = parser.parse_args(argv)

    w = workloads.BUILDERS[args.workload]()
    models = ["matched"] + (["shifted"] if w.shifted is not None else [])
    rows, everything, campaigns = [list(COLUMNS)], [], []
    for seed in args.seeds:
        start = time.perf_counter()
        runs, records, wall = campaign_sessions(w, seed, args.sessions)
        session_ms = f", median session {statistics.median(wall) * 1e3:.2f} ms" if wall else ""
        print(f"campaign seed {seed}: {time.perf_counter() - start:.2f} s{session_ms}",
              file=sys.stderr)
        campaigns.append(runs)
        everything += records
        rows += [row(str(seed), m, [r for r in records if r["model"] == m])
                 for m in models if any(r["model"] == m for r in records)]
    rows += [row("all", m, [r for r in everything if r["model"] == m])
             for m in models if any(r["model"] == m for r in everything)]
    print_table(rows)
    print()
    print_table([list(RUN_COLUMNS)] + [[str(c[k]) for k in RUN_COLUMNS] for c in campaigns])
    print()
    print_table(recovery_rows(campaigns))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "campaigns": campaigns,
                       "sessions": everything}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
