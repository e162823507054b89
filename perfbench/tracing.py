"""In-memory span recorder for the traced benchmark run.

A span is recorded around each call into a tuneforge layer by replacing the
function at every name it is looked up through when the pipeline runs: a
module global such as ``tuneforge.campaign.run_plan`` (the name ``campaign``
calls, bound at import time) or a class attribute such as
``SimulatorAdapter.measure``. Replacing only the definition would miss every
caller that imported the name. ``Tracer.install`` puts every original back on
exit, so the program outside the traced region is the untouched program.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager

# (span name, "module" or "module:Class", attribute looked up by the caller)
PATCH_SITES = (
    ("campaign.profile", "tuneforge.campaign:Campaign", "profile"),
    ("campaign.screen", "tuneforge.campaign:Campaign", "screen"),
    ("campaign.joint", "tuneforge.campaign:Campaign", "joint"),
    ("campaign.compile", "tuneforge.campaign:Campaign", "compile"),
    ("harness.run_plan", "tuneforge.campaign", "run_plan"),
    ("harness.run_plan", "tuneforge.topology", "run_plan"),
    ("harness.log_load", "tuneforge.harness:MeasurementLog", "load"),
    ("harness.log_save", "tuneforge.harness:MeasurementLog", "save"),
    ("simulator.measure", "tuneforge.simulator:SimulatorAdapter", "measure"),
    ("space.resolve", "tuneforge.space:ParameterSpace", "resolve"),
    ("sensitivity.analyze_sensitivity", "tuneforge.campaign", "analyze_sensitivity"),
    ("interaction.table_from_log", "tuneforge.campaign", "table_from_log"),
    ("interaction.table_from_log", "tuneforge.interaction", "table_from_log"),
    ("interaction.two_way_anova", "tuneforge.interaction", "two_way_anova"),
    ("stats.f_upper_tail_p", "tuneforge.interaction", "f_upper_tail_p"),
    ("stats.benjamini_hochberg", "tuneforge.interaction", "benjamini_hochberg"),
    ("topology.measure_baselines", "tuneforge.campaign", "measure_baselines"),
    ("topology.optimize_component", "tuneforge.campaign", "optimize_component"),
    ("docgen.compile_document", "tuneforge.campaign", "compile_document"),
    ("docgen.validate_document", "tuneforge.docgen", "validate_document"),
    ("docgen.validate_document", "tuneforge.executor", "validate_document"),
    ("docgen.document_hash", "tuneforge.docgen:ProceduralDocument", "document_hash"),
    ("expr.parse", "tuneforge.expr", "parse"),
    ("expr.evaluate_predicate", "tuneforge.expr", "evaluate_predicate"),
    ("executor.run_session", "tuneforge", "run_session"),
)


def _owner(target: str):
    module_name, _, class_name = target.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    """Spans as (name, start, end, parent index or -1), kept in call order."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_spans[-1] if open_spans else -1
            open_spans.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_spans.pop()
                spans[index] = (name, start, end, parent)
        return traced

    @contextmanager
    def install(self, sites=PATCH_SITES):
        """Replace every patch site with a traced wrapper; restore on exit."""
        originals = []
        try:
            for name, target, attr in sites:
                owner = _owner(target)
                original = vars(owner)[attr]
                originals.append((owner, attr, original))
                if isinstance(original, classmethod):
                    patched = classmethod(self.wrap(name, original.__func__))
                else:
                    patched = self.wrap(name, original)
                setattr(owner, attr, patched)
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; calls never overlap because the benchmark is one thread.
        """
        child_s = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), children in zip(self.spans, child_s):
            stat = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            stat["calls"] += 1
            stat["s"] += end - start
            stat["self_s"] += end - start - children
        return out

    def save(self, path: str, meta: dict) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "names": names, "spans": [
                [index[name], start, end, parent] for name, start, end, parent in self.spans]},
                fh)
