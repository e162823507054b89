"""Benchmark workloads: fixed planted simulator models and their expected recovery.

The planted models never change; the workload seed only selects the campaign
seeds, and with them the measurement noise of every run, and the session seeds.
Each model is declared the way a user declares a system (a space/workload
file and a simulator model file) and loaded back through the public loaders.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

from tuneforge import (Coupling, Domain, ParameterSpace, ParameterSpec, Response,
                       SimulatorModel, WorkloadSpec, load_space, load_workloads)
from tuneforge.space import dump_space


@dataclass(frozen=True)
class Workload:
    name: str
    space: ParameterSpace
    workloads: list[WorkloadSpec]
    model: SimulatorModel
    levels_per_param: int
    expected_top_k: frozenset[str]
    expected_confirmed: frozenset[tuple[str, str]]
    # Second ground truth the compiled document no longer matches; sessions
    # alternate between the matched and the shifted model when it is set.
    shifted: SimulatorModel | None = None


def _unit_space(names: list[str]) -> ParameterSpace:
    return ParameterSpace(tuple(
        ParameterSpec(name=n, domain=Domain("continuous", 0.0, 1.0), default=0.0)
        for n in names))


def _maximize(ids: tuple[str, ...]) -> list[WorkloadSpec]:
    return [WorkloadSpec(id=w, metric_name="tps", direction="maximize") for w in ids]


def planted_116() -> Workload:
    """The 116-parameter campaign of acceptance criterion 11.

    15 sensitive parameters, two strong 3-parameter chains, and a band of
    weak couplings that advance to stage B but do not confirm. The shifted
    model reverses the direction of two isolates (p007, p010), so their
    verify skills fail and route through the re-sweep adaptation edges.
    """
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
    shifted_responses = dict(responses)
    for name in ("p007", "p010"):
        shifted_responses[name] = Response(shape="linear-down",
                                           strength=responses[name].strength)
    return Workload(name="planted-116", space=_unit_space(names),
                    workloads=_maximize(("w_read", "w_write", "w_olap")), model=model,
                    levels_per_param=6, expected_top_k=frozenset(names[:15]),
                    expected_confirmed=frozenset(strong),
                    shifted=dataclasses.replace(model, responses=shifted_responses))


def screen_k30() -> Workload:
    """34 parameters, 30 of them sensitive, so the screen sees C(30,2) = 435 pairs.

    Strong couplings form chains of at most three (under the component cap),
    and two 2-parameter components let the joint stage reuse screen cells.
    """
    names = [f"s{i:02d}" for i in range(34)]
    responses = {names[i]: Response(shape="linear-up", strength=0.20 - 0.0045 * i)
                 for i in range(30)}
    for i in range(30, 34):
        responses[names[i]] = Response(shape="linear-up", strength=0.004)
    strong = [("s00", "s01"), ("s01", "s02"), ("s03", "s04"), ("s04", "s05"),
              ("s06", "s07"), ("s08", "s09"), ("s10", "s11"), ("s11", "s12")]
    weak = [("s13", "s14"), ("s15", "s16"), ("s17", "s18"), ("s19", "s20"),
            ("s21", "s22"), ("s23", "s24")]
    model = SimulatorModel(
        base_rate=1000.0, sigma=0.01, responses=responses,
        couplings=[Coupling(a, b, 1.5) for a, b in strong] +
                  [Coupling(a, b, 0.12) for a, b in weak])
    return Workload(name="screen-k30", space=_unit_space(names),
                    workloads=_maximize(("w_oltp", "w_scan")), model=model,
                    levels_per_param=5, expected_top_k=frozenset(names[:30]),
                    expected_confirmed=frozenset(strong))


BUILDERS = {"planted-116": planted_116, "screen-k30": screen_k30}


def declare_and_load(workload: Workload, directory: str) -> Workload:
    """Write the declaration files into ``directory`` and load them back."""
    space_path = os.path.join(directory, "space.yaml")
    with open(space_path, "w", encoding="utf-8") as fh:
        fh.write(dump_space(workload.space, workload.workloads))

    def round_trip(model: SimulatorModel | None, name: str) -> SimulatorModel | None:
        if model is None:
            return None
        path = os.path.join(directory, name)
        model.save(path)
        return SimulatorModel.load(path)

    return dataclasses.replace(workload, space=load_space(space_path),
                               workloads=load_workloads(space_path),
                               model=round_trip(workload.model, "model.yaml"),
                               shifted=round_trip(workload.shifted, "shifted.yaml"))
