"""Shared fixtures and independent oracles for the test suite.

The oracles here are deliberately written as plain nested loops over raw
values, independent of the library's vectorized/algebraic implementations,
so agreement is meaningful.
"""

from __future__ import annotations

import json
import math
import os
import sys
import types
from itertools import product

from tuneforge.docgen import ProceduralDocument
from tuneforge.harness import CampaignStore, Measurement
from tuneforge.space import Configuration, Domain, ParameterSpace, ParameterSpec, WorkloadSpec


def load_perfbench_workloads():
    """perfbench/workloads.py, executed without importing it (nothing is
    written beside it)."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")
    module = types.ModuleType("perfbench_workloads")
    sys.modules[module.__name__] = module  # dataclasses look their module up
    try:
        with open(path, encoding="utf-8") as fh:
            exec(compile(fh.read(), path, "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


def unit_space(names, default=0.0):
    """Continuous [0, 1] parameters, default at the low end."""
    return ParameterSpace(tuple(
        ParameterSpec(name=n, domain=Domain("continuous", 0.0, 1.0), default=default)
        for n in names))


def one_workload(direction="maximize"):
    return [WorkloadSpec(id="w0", metric_name="tps", direction=direction)]


# ---------------------------------------------------------------------------
# Brute-force two-way ANOVA oracle: direct mean-subtraction sums over the
# raw grid, one observation at a time.
# ---------------------------------------------------------------------------

def anova_oracle(cells):
    """cells[i][j] -> list of r raw values. Returns dict of SS, df, F."""
    a = len(cells)
    b = len(cells[0])
    r = len(cells[0][0])

    total = 0.0
    n = 0
    for i in range(a):
        for j in range(b):
            for v in cells[i][j]:
                total += v
                n += 1
    grand = total / n

    cell_mean = [[sum(cells[i][j]) / len(cells[i][j]) for j in range(b)] for i in range(a)]
    row_mean = []
    for i in range(a):
        s = 0.0
        c = 0
        for j in range(b):
            for v in cells[i][j]:
                s += v
                c += 1
        row_mean.append(s / c)
    col_mean = []
    for j in range(b):
        s = 0.0
        c = 0
        for i in range(a):
            for v in cells[i][j]:
                s += v
                c += 1
        col_mean.append(s / c)

    ss_a = 0.0
    for i in range(a):
        ss_a += b * r * (row_mean[i] - grand) ** 2
    ss_b = 0.0
    for j in range(b):
        ss_b += a * r * (col_mean[j] - grand) ** 2
    ss_ab = 0.0
    for i in range(a):
        for j in range(b):
            ss_ab += r * (cell_mean[i][j] - row_mean[i] - col_mean[j] + grand) ** 2
    ss_e = 0.0
    ss_total = 0.0
    for i in range(a):
        for j in range(b):
            for v in cells[i][j]:
                ss_e += (v - cell_mean[i][j]) ** 2
                ss_total += (v - grand) ** 2

    df_ab = (a - 1) * (b - 1)
    df_e = a * b * (r - 1)
    f = math.inf if ss_e == 0 else (ss_ab / df_ab) / (ss_e / df_e)
    return {"ss_a": ss_a, "ss_b": ss_b, "ss_ab": ss_ab, "ss_e": ss_e,
            "ss_total": ss_total, "df_ab": df_ab, "df_e": df_e, "f": f,
            "eta2": 0.0 if ss_total == 0 else ss_ab / ss_total}


# ---------------------------------------------------------------------------
# Brute-force CV from a raw measurement log: regroup and average by hand.
# ---------------------------------------------------------------------------

def cv_oracle(log, param, workload_id):
    """(max level mean - min level mean) / baseline mean, straight from records.

    The parameter's default is a grid level, and the all-defaults baseline
    records are that level's measurements.
    """
    by_level = {}
    baseline = []
    for m in log:
        if m.workload_id != workload_id or m.outcome != "ok":
            continue
        if not m.config.assignments:
            baseline.append(m.metric_value)
        elif list(m.config.assignments) == [param]:
            by_level.setdefault(m.config.assignments[param], []).append(m.metric_value)
    base = sum(baseline) / len(baseline)
    level_means = [sum(v) / len(v) for v in by_level.values()] + [base]
    return (max(level_means) - min(level_means)) / base


# ---------------------------------------------------------------------------
# Random measurement records for checking indexed lookups against full scans.
# ---------------------------------------------------------------------------

INDEX_PARAMS = ("a", "b", "c", "d")
INDEX_LEVELS = (0.0, 0.25, 0.75, 1.0)


def random_log(rng, records=300):
    """Records mixing every shape the screen and joint journals hold.

    2-3 workloads, repetitions 0-3, ok/crash/timeout outcomes and
    configurations of 0-3 assignments over a small level set, so pairs
    overlap and most cells hold several records. Keys are unique. Returns
    (records, workload ids).
    """
    workloads = [f"w{i}" for i in range(rng.randint(2, 3))]
    out, keys = [], set()
    for _ in range(records):
        names = rng.sample(INDEX_PARAMS, rng.randint(0, 3))
        config = Configuration({n: rng.choice(INDEX_LEVELS) for n in names})
        workload, rep = rng.choice(workloads), rng.randint(0, 3)
        if (config.canonical(), workload, rep) in keys:
            continue
        keys.add((config.canonical(), workload, rep))
        outcome = rng.choice(("ok", "ok", "ok", "ok", "crash", "timeout"))
        metric = rng.uniform(1.0, 1000.0) if outcome == "ok" else None
        out.append(Measurement(config, workload, rep, metric, outcome))
    return out, workloads


def store_of(records):
    """A journal-less campaign store indexing ``records``. A store has no
    iteration API, so a reader given one cannot scan it in full."""
    store = CampaignStore(0, "x", {})
    store.commit(records)
    return store


def stored_cell(store, config, workload_id, repetitions=64):
    """The records ``store`` holds for one (configuration, workload) at
    repetitions below ``repetitions``, in repetition order, each read by its
    exact key through ``store.get``."""
    text = config.canonical()
    found = (store.get((text, workload_id, rep)) for rep in range(repetitions))
    return tuple(m for m in found if m is not None)


# ---------------------------------------------------------------------------
# Brute-force grid optimizer over the true (noise-free) simulator model.
# ---------------------------------------------------------------------------

def global_grid_argmax(model, space, grid, workload_id="w0", maximize=True):
    """Exhaustive search of the product grid on the analytic model."""
    names = sorted(grid)
    best = None
    for combo in product(*(grid[n] for n in names)):
        config = Configuration(dict(zip(names, combo)))
        value = model.true_metric(space, config, workload_id)
        key = config.canonical()
        if best is None:
            best = (value, key, config)
        else:
            better = value > best[0] if maximize else value < best[0]
            if better or (value == best[0] and key < best[1]):
                best = (value, key, config)
    return best[2], best[0]


# ---------------------------------------------------------------------------
# The simulator's metric as it was before models were compiled per workload:
# every parameter normalized, every response looked up and multiplied in.
# ---------------------------------------------------------------------------

def reference_true_metric(model, space, config, workload_id):
    """Noise-free metric by the uncompiled formula; raises as true_metric does."""
    from tuneforge.errors import CrashError
    from tuneforge.simulator import Response

    def response_for(param):
        over = model.overrides.get(workload_id, {})
        if param in over:
            return over[param]
        return model.responses.get(param, Response())

    resolved = space.resolve(config)
    norms = {name: space.get(name).domain.normalize(value)
             for name, value in resolved.items()}
    for name, region in model.crashes.items():
        if name in resolved and region.contains(resolved[name]):
            raise CrashError(f"planted crash region hit: {name}={resolved[name]!r}")
    metric = model.base_rate
    for name in resolved:
        metric *= response_for(name).multiplier(norms[name])
    for c in model.couplings:
        if c.a in norms and c.b in norms:
            metric *= c.multiplier(norms[c.a], norms[c.b])
    return metric


# ---------------------------------------------------------------------------
# Expression oracle: a syntax tree of the grammar's forms, its text, and a
# direct recursive walk that evaluates it as the grammar specifies.
# ---------------------------------------------------------------------------

def expr_text(tree):
    """The text of an expression tree; every operation in parentheses.

    A tree is ("num", v), ("sym", name), ("defined", name),
    ("bin", op, left, right) or ("call", fn, [args]).
    """
    kind = tree[0]
    if kind == "num":
        return repr(tree[1])
    if kind == "sym":
        return tree[1]
    if kind == "defined":
        return f"defined({tree[1]})"
    if kind == "bin":
        return f"({expr_text(tree[2])} {tree[1]} {expr_text(tree[3])})"
    return f"{tree[1]}({', '.join(expr_text(a) for a in tree[2])})"


def expr_oracle(tree, signals, reference, text):
    """The value of an expression tree: operands left to right, call
    arguments before the call, `and` stopping at a false left side; the same
    ExpressionError messages as the grammar's evaluator."""
    from tuneforge.errors import ExpressionError

    kind = tree[0]
    if kind == "num":
        return tree[1]
    if kind == "defined":
        return 1.0 if tree[1] in signals or tree[1] in reference else 0.0
    if kind == "sym":
        name = tree[1]
        if name in signals:
            value = signals[name]
        elif name in reference:
            value = reference[name]
        else:
            raise ExpressionError(f"unresolved symbol {name!r}", symbol=name)
        if value is True or value is False:
            return 1.0 if value else 0.0
        if type(value) not in (int, float):
            raise ExpressionError(f"symbol {name!r} is not numeric: {value!r}", symbol=name)
        return float(value)
    if kind == "bin":
        op = tree[1]
        left = expr_oracle(tree[2], signals, reference, text)
        if op == "and":
            if left == 0.0:
                return 0.0
            return 0.0 if expr_oracle(tree[3], signals, reference, text) == 0.0 else 1.0
        right = expr_oracle(tree[3], signals, reference, text)
        if op == "/" and right == 0.0:
            raise ExpressionError(f"division by zero in {text!r}")
        return {"+": lambda: left + right, "-": lambda: left - right,
                "*": lambda: left * right, "/": lambda: left / right,
                "<=": lambda: 1.0 if left <= right else 0.0,
                ">=": lambda: 1.0 if left >= right else 0.0}[op]()
    fn = tree[1]
    values = [expr_oracle(a, signals, reference, text) for a in tree[2]]
    if fn == "abs":
        return abs(values[0])
    if fn == "pick":
        i = values[0]
        if i % 1 != 0 or not 0 <= i <= len(values) - 2:
            raise ExpressionError(f"pick() index {i!r} is not an integer in "
                                  f"[0, {len(values) - 2}] in {text!r}")
        return values[int(i) + 1]
    # the first best value: a later one wins only when strictly better
    best = 0
    for i, value in enumerate(values):
        if (value > values[best]) if fn in ("max", "argmax") else (value < values[best]):
            best = i
    return float(best) if fn.startswith("arg") else values[best]


# ---------------------------------------------------------------------------
# A small planted campaign shared by docgen/executor/CLI tests: one strong
# 2-parameter coupling, two sensitive isolates, two flat parameters.
# ---------------------------------------------------------------------------

SMALL_NAMES = ["pa", "pb", "pc", "pd", "pe", "pf"]


def small_model(sigma=0.005):
    from tuneforge.simulator import Coupling, Response, SimulatorModel
    return SimulatorModel(
        base_rate=1000.0, sigma=sigma,
        responses={
            "pa": Response(shape="linear-up", strength=0.12),
            "pb": Response(shape="linear-up", strength=0.10),
            "pc": Response(shape="linear-up", strength=0.20),
            "pd": Response(shape="linear-down", strength=0.15),
        },
        couplings=[Coupling("pa", "pb", 1.5)])


def shifted_small_model(sigma=0.005):
    """Same space, different ground truth: pc and pd reverse direction."""
    from tuneforge.simulator import Coupling, Response, SimulatorModel
    return SimulatorModel(
        base_rate=1000.0, sigma=sigma,
        responses={
            "pa": Response(shape="linear-up", strength=0.12),
            "pb": Response(shape="linear-up", strength=0.10),
            "pc": Response(shape="linear-down", strength=0.20),
            "pd": Response(shape="linear-up", strength=0.15),
        },
        couplings=[Coupling("pa", "pb", 1.5)])


def edit_document(doc, edit):
    """``doc`` with ``edit`` applied to a plain copy of its JSON, loaded back.

    A compiled or loaded document is immutable, so a test changes one the way
    a user would: in its JSON. ``edit`` mutates the dict it is given.
    """
    d = json.loads(doc.serialize())
    edit(d)
    return ProceduralDocument.from_json(d)


def skill_json(d, skill_id):
    """The skill ``skill_id`` of a document's JSON."""
    return next(s for s in d["skills"] if s["id"] == skill_id)


def run_small_pipeline(directory, seed=42, compile_doc=True, direction="maximize"):
    """Profile + screen + joint (+ compile) the small planted campaign."""
    from tuneforge.campaign import Campaign
    from tuneforge.simulator import SimulatorAdapter

    space = unit_space(SMALL_NAMES)
    workloads = one_workload(direction)
    model = small_model()
    adapter = SimulatorAdapter(space, model)
    campaign = Campaign(str(directory), space, workloads, seed=seed)
    sens = campaign.profile(adapter, levels_per_param=5, repetitions=3, tau_s=0.05)
    inter = campaign.screen(adapter)
    optima = campaign.joint(adapter, repetitions=3)
    doc = campaign.compile() if compile_doc else None
    return {
        "campaign": campaign, "space": space, "workloads": workloads,
        "model": model, "adapter": adapter,
        "sensitivity": sens, "interaction": inter, "optima": optima, "doc": doc,
    }
