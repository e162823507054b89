"""The benchmark's trace hooks still find every name they patch.

``perfbench/tracing.py`` wraps each function at the name its caller looks it
up through (``vars(owner)[attr]``). A rename or a deleted import in the
package would make ``perfbench/run.py --trace 1`` fail, so every site is
checked here.
"""

import os
import types

import pytest

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
