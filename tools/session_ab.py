"""Paired session timing of this checkout against another git ref.

    python3 tools/session_ab.py --ref HEAD~1 --workload screen-k30 --seeds 1000-1002

Run from the repository root. ``src/tuneforge`` at ``--ref`` is unpacked with
``git archive`` into a temporary directory and imported as the package
``tuneforge_ref`` beside this checkout's ``tuneforge``. Both read the same
declaration and model files, written from a benchmark workload
(``perfbench/workloads.py``, read and never written).

For each campaign seed, each package runs one campaign and then 20 tuning
sessions on its document, as ``tools/recovery.py`` does (``run_campaign``,
``session_model``, session seeds 100000, 100001, ... and a budget of 120
trials). The tool exits 1 unless the two documents are equal and every
session's trace and final configuration are equal.

Then it times the sessions in 4 rounds, each package running each session once
per round, in alternating order: ref first on even pairs, checkout first on
odd ones. Each pair gives the ratio checkout / ref. The first sessions on each
document, run for the equality check, are not timed, so these warm timings
exclude the per-document warm-up. It then times cold first sessions the same
way: each session of each round runs as its package's first session on a
freshly loaded copy of its document, so the time includes what a session
prepares once per document (validation, hash, prepared steps). Loading the
copy is not timed.

It prints each seed's median warm session time per package and median paired
ratio, and the same for the cold first sessions, then the median over all warm
pairs and over all cold pairs; a ratio below 1 means the checkout is faster.

Nothing is written under the repository.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from recovery import (SESSION_BUDGET, SESSION_SEED, load_workloads, parse_seeds,  # noqa: E402
                      run_campaign, session_model)
from tuneforge.space import dump_space  # noqa: E402

SESSIONS = 20  # per campaign seed
ROUNDS = 4  # timed runs of each session per package


def unpack_ref(ref: str, directory: str):
    """``src/tuneforge`` at ``ref``, imported as the package ``tuneforge_ref``."""
    archive = subprocess.run(["git", "archive", ref, "src/tuneforge"], cwd=REPO,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", directory], input=archive, check=True)
    os.rename(os.path.join(directory, "src", "tuneforge"),
              os.path.join(directory, "tuneforge_ref"))
    sys.path.insert(0, directory)
    return importlib.import_module("tuneforge_ref")


def declare(w, directory: str) -> dict[str, str]:
    """The workload's declaration and model files, by role."""
    paths = {"space": os.path.join(directory, "space.yaml"),
             "model": os.path.join(directory, "model.yaml")}
    with open(paths["space"], "w", encoding="utf-8") as fh:
        fh.write(dump_space(w.space, w.workloads))
    w.model.save(paths["model"])
    if w.shifted is not None:
        paths["shifted"] = os.path.join(directory, "shifted.yaml")
        w.shifted.save(paths["shifted"])
    return paths


class Side:
    """One package's campaign document, its text, and session adapters for
    one seed."""

    def __init__(self, tf, paths: dict[str, str], w, seed: int, sessions: int):
        w = types.SimpleNamespace(
            space=tf.load_space(paths["space"]), workloads=tf.load_workloads(paths["space"]),
            model=tf.SimulatorModel.load(paths["model"]),
            shifted=tf.SimulatorModel.load(paths["shifted"]) if "shifted" in paths else None,
            levels_per_param=w.levels_per_param)
        with run_campaign(tf, w, seed) as (_, doc):
            self.doc = doc
        self.text = doc.serialize()
        self.load = tf.ProceduralDocument.from_json
        self.run_session = tf.run_session
        self.adapters = [tf.SimulatorAdapter(w.space, session_model(w, i)[1])
                         for i in range(sessions)]

    def session(self, index: int, doc=None):
        return self.run_session(self.doc if doc is None else doc, self.adapters[index],
                                SESSION_BUDGET, SESSION_SEED + index)

    def timed(self, index: int, cold: bool) -> float:
        """Session ``index``'s wall time: on the document, or when ``cold`` as
        the first session on a freshly loaded copy of it."""
        doc = self.load(json.loads(self.text)) if cold else self.doc
        start = time.perf_counter()
        self.session(index, doc)
        return time.perf_counter() - start


def outcome(session) -> str:
    """A session's trace and final configuration, as text."""
    final = None if session.final_config is None else session.final_config.assignments
    return json.dumps([[e.to_json() for e in session.trace], final], sort_keys=True)


def compare(ref_tf, tf, paths: dict[str, str], w, seed: int, ref: str,
            sessions: int = SESSIONS, rounds: int = ROUNDS
            ) -> tuple[list[float], list[float]] | None:
    """Campaign seed ``seed``'s paired ratios, ``tf`` / ``ref_tf``, of warm
    and of cold first sessions, after its documents and sessions were found
    equal; None, with the difference on standard error, when they are not."""
    ref_side, new = (Side(package, paths, w, seed, sessions) for package in (ref_tf, tf))
    if ref_side.doc.serialize() != new.doc.serialize():
        print(f"campaign seed {seed}: the documents differ", file=sys.stderr)
        return None
    differ = [i for i in range(sessions)
              if outcome(ref_side.session(i)) != outcome(new.session(i))]
    if differ:
        print(f"campaign seed {seed}: sessions {differ} differ", file=sys.stderr)
        return None
    med, out = statistics.median, []
    for cold in (False, True):
        times, ratios = {"ref": [], "new": []}, []
        for r in range(rounds):
            for i in range(sessions):
                if (r * sessions + i) % 2:
                    new_s, ref_s = new.timed(i, cold), ref_side.timed(i, cold)
                else:
                    ref_s, new_s = ref_side.timed(i, cold), new.timed(i, cold)
                times["ref"].append(ref_s)
                times["new"].append(new_s)
                ratios.append(new_s / ref_s)
        head = (f"campaign seed {seed}: cold first sessions" if cold else
                f"campaign seed {seed}: {sessions} sessions equal")
        print(f"{head}; median session {med(times['ref']) * 1e3:.3f} ms at {ref}, "
              f"{med(times['new']) * 1e3:.3f} ms here; median paired ratio {med(ratios):.3f}")
        out.append(ratios)
    return out[0], out[1]


def main(argv: list[str] | None = None) -> int:
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ref", required=True, help="the git ref to compare against")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="campaign seeds, A-B inclusive or one seed")
    args = parser.parse_args(argv)

    import tuneforge
    w = workloads.BUILDERS[args.workload]()
    scratch = tempfile.mkdtemp(prefix="session-ab-")
    try:
        ref_tf = unpack_ref(args.ref, scratch)
        paths = declare(w, scratch)
        warm, cold, failed = [], [], False
        for seed in args.seeds:
            seed_ratios = compare(ref_tf, tuneforge, paths, w, seed, args.ref)
            failed |= seed_ratios is None
            if seed_ratios is not None:
                warm += seed_ratios[0]
                cold += seed_ratios[1]
        if warm:
            print(f"{args.workload}: {len(warm)} paired sessions, median ratio "
                  f"{statistics.median(warm):.3f} (checkout / {args.ref})")
            print(f"{args.workload}: {len(cold)} paired cold first sessions, median ratio "
                  f"{statistics.median(cold):.3f} (checkout / {args.ref})")
    finally:
        shutil.rmtree(scratch)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
