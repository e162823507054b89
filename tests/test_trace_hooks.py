"""The benchmark's trace hooks still find every name they patch.

``perfbench/tracing.py`` wraps each function at the name its caller looks it
up through (``vars(owner)[attr]``). A rename or a deleted import in the
package would make ``perfbench/run.py --trace 1`` fail, so every site is
checked here. A site that resolves but is no longer called through would
trace 0 calls, so the small campaign and one session run traced as well.
"""

import os
import types

import pytest

import tuneforge
from helpers import run_small_pipeline

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def _load_tracing():
    """Execute the file without importing it, so nothing is written beside it."""
    module = types.ModuleType("perfbench_tracing")
    with open(TRACING, encoding="utf-8") as fh:
        exec(compile(fh.read(), TRACING, "exec"), module.__dict__)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("site", tracing.PATCH_SITES, ids=lambda s: f"{s[1]}.{s[2]}")
def test_patch_site_resolves(site):
    _, target, attr = site
    assert attr in vars(tracing._owner(target))


def test_install_restores_every_site():
    before = [vars(tracing._owner(target))[attr] for _, target, attr in tracing.PATCH_SITES]
    with tracing.Tracer().install():
        pass
    after = [vars(tracing._owner(target))[attr] for _, target, attr in tracing.PATCH_SITES]
    assert all(a is b for a, b in zip(before, after))


# Sites no pipeline or session calls through, each with the reason. Every
# other site must record a call, so that a layer which stops being reached
# through its patched name (its trace would read 0) fails here.
DEAD_SITES = {
    ("tuneforge.space:ParameterSpace", "resolve"):
        "only the shell adapter and Campaign.tune resolve a configuration; the "
        "simulator evaluates through its compiled tables",
    ("tuneforge.executor", "validate_document"):
        "a session validates through ProceduralDocument.violations, which calls "
        "docgen's own name",
    ("tuneforge.harness:MeasurementLog", "load"):
        "the campaign reads its journals through CampaignStore",
    ("tuneforge.harness:MeasurementLog", "save"):
        "the campaign appends to its journals through CampaignStore",
    ("tuneforge.interaction", "table_from_log"):
        "the campaign calls the name it imported; nothing in tuneforge.interaction "
        "calls table_from_log",
}


def test_every_live_site_records_a_call(tmp_path):
    # one span name per site, so two sites of one span are told apart
    sites = [(f"{target}.{attr}", target, attr) for _, target, attr in tracing.PATCH_SITES]
    tracer = tracing.Tracer()
    with tracer.install(sites):
        p = run_small_pipeline(tmp_path)
        tuneforge.run_session(p["doc"], p["adapter"], budget=60, seed=1)
    summary = tracer.summary()
    calls = {(target, attr): summary.get(name, {"calls": 0})["calls"]
             for name, target, attr in sites}
    assert set(DEAD_SITES) <= set(calls)
    assert {site: n for site, n in calls.items() if site in DEAD_SITES} == \
        dict.fromkeys(DEAD_SITES, 0)
    assert [site for site, n in calls.items() if n == 0 and site not in DEAD_SITES] == []
