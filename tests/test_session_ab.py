"""tools/session_ab.py: paired session timing against a git ref.

The comparison runs in-process on packages chosen here, so what it checks
does not depend on how the working tree differs from any commit."""

import os
import re
import sys
import types

import pytest

import tuneforge

REPO = os.path.join(os.path.dirname(__file__), os.pardir)
TOOL = os.path.join(REPO, "tools", "session_ab.py")
NUMBER = r"[0-9]+[.][0-9]{3}"


@pytest.fixture(scope="module")
def session_ab():
    """The tool, executed without importing it; the interpreter settings it
    changes are restored after this module's tests."""
    saved = sys.path[:], sys.dont_write_bytecode
    module = types.ModuleType("session_ab")
    module.__file__ = TOOL
    with open(TOOL, encoding="utf-8") as fh:
        exec(compile(fh.read(), TOOL, "exec"), module.__dict__)
    yield module
    sys.path[:], sys.dont_write_bytecode = saved


@pytest.fixture(scope="module")
def declared(session_ab, tmp_path_factory):
    w = session_ab.load_workloads().BUILDERS["screen-k30"]()
    return w, session_ab.declare(w, str(tmp_path_factory.mktemp("declared")))


def test_equal_packages_give_one_ratio_per_timed_session(session_ab, declared, capsys):
    w, paths = declared
    warm, cold = session_ab.compare(tuneforge, tuneforge, paths, w, 1000, "same",
                                    sessions=3, rounds=2)
    assert len(warm) == len(cold) == 6 and all(r > 0 for r in warm + cold)
    out = capsys.readouterr()
    assert re.sub(NUMBER, "T", out.out) == (
        "campaign seed 1000: 3 sessions equal; median session T ms at same, T ms here; "
        "median paired ratio T\n"
        "campaign seed 1000: cold first sessions; median session T ms at same, T ms here; "
        "median paired ratio T\n")
    assert out.err == ""


def test_a_cold_session_runs_first_on_a_freshly_loaded_copy(session_ab, declared):
    # every cold session gets a document of its own, loaded from the side's
    # text; a warm one gets the side's document
    w, paths = declared
    side = session_ab.Side(tuneforge, paths, w, 1000, 2)
    docs = []

    def recording(doc, adapter, budget, seed):
        docs.append(doc)
        return tuneforge.run_session(doc, adapter, budget, seed)

    side.run_session = recording
    for index in (0, 1, 1):
        assert side.timed(index, cold=True) > 0
    assert side.timed(0, cold=False) > 0
    assert len({id(doc) for doc in docs}) == 4 and docs[3] is side.doc
    assert all(doc.serialize() == side.text for doc in docs)


def test_differing_sessions_are_named_and_not_timed(session_ab, declared, capsys):
    w, paths = declared
    shifted_seeds = types.SimpleNamespace(**vars(tuneforge))
    shifted_seeds.run_session = lambda doc, adapter, budget, seed: tuneforge.run_session(
        doc, adapter, budget, seed + 1)
    assert session_ab.compare(shifted_seeds, tuneforge, paths, w, 1000, "other",
                              sessions=2, rounds=1) is None
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "campaign seed 1000: sessions [0, 1] differ\n"


@pytest.mark.skipif(not os.path.isdir(os.path.join(REPO, ".git")),
                    reason="the tool unpacks a git ref, and this checkout has no repository")
def test_a_ref_is_unpacked_as_its_own_package(session_ab, tmp_path):
    try:
        ref = session_ab.unpack_ref("HEAD", str(tmp_path))
        assert ref.__name__ == "tuneforge_ref"
        assert os.path.dirname(ref.__file__) == str(tmp_path / "tuneforge_ref")
        assert ref.run_session is not tuneforge.run_session
        assert ref.run_session.__module__ == "tuneforge_ref.executor"
    finally:
        sys.path.remove(str(tmp_path))
        for name in [n for n in sys.modules if n.split(".")[0] == "tuneforge_ref"]:
            del sys.modules[name]
