"""Synthetic system-under-test with planted ground truth.

The simulator composes performance multiplicatively:

    metric = base_rate * prod_i f_i(x_i) * prod_ij g_ij(x_i, x_j) * noise

where each f_i is a named response shape over the parameter's normalized
position, each g_ij is a bilinear coupling reaching ``1 + strength`` at the
high-high corner, and noise is multiplicative lognormal. Because every term
has a closed form, analyses downstream (CV, Int%, eta squared, grid optima)
can be checked against hand-evaluated values. The model file loads as the
schema each record class declares (``jsonfile.Record``), no value converted;
its writer is hand-written, as a response writes its shape's keys and the
model sorts its maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Mapping

from .errors import CrashError, ParameterError
from .jsonfile import Record, write_text
from .space import Configuration, ParameterSpace, WorkloadSpec, dump_yaml, load_yaml

SHAPES = ("linear-up", "linear-down", "quadratic-peak", "step", "flat")


@dataclass(frozen=True)
class Response(Record, defaulted=("strength", "peak", "threshold", "low_mult", "high_mult")):
    """Per-parameter multiplier over the normalized position n in [0, 1].

    linear-up        1 + strength * n
    linear-down      1 + strength * (1 - n)
    quadratic-peak   1 + strength * (1 - ((n - peak) / w)^2), w = max(peak, 1-peak)
    step             low_mult below threshold, high_mult at or above
    flat             1
    """

    shape: str = "flat"
    strength: float = 0.0
    peak: float = 0.5
    threshold: float = 0.5
    low_mult: float = 1.0
    high_mult: float = 1.0

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise ParameterError(f"unknown response shape {self.shape!r}")
        if self.shape == "step" and (self.low_mult <= 0 or self.high_mult <= 0):
            raise ParameterError("step multipliers must be positive")
        if self.shape in ("linear-up", "linear-down", "quadratic-peak") and self.strength <= -1:
            raise ParameterError("strength must keep multipliers positive")

    def multiplier(self, n: float) -> float:
        if self.shape == "flat":
            return 1.0
        if self.shape == "linear-up":
            return 1.0 + self.strength * n
        if self.shape == "linear-down":
            return 1.0 + self.strength * (1.0 - n)
        if self.shape == "quadratic-peak":
            w = max(self.peak, 1.0 - self.peak) or 1.0
            return 1.0 + self.strength * (1.0 - ((n - self.peak) / w) ** 2)
        return self.low_mult if n < self.threshold else self.high_mult

    def to_json(self) -> dict:
        d: dict[str, Any] = {"shape": self.shape}
        if self.shape in ("linear-up", "linear-down", "quadratic-peak"):
            d["strength"] = self.strength
        if self.shape == "quadratic-peak":
            d["peak"] = self.peak
        if self.shape == "step":
            d.update(threshold=self.threshold, low_mult=self.low_mult, high_mult=self.high_mult)
        return d


@dataclass(frozen=True)
class Coupling(Record):
    """Bilinear pairwise term: g = 1 + strength * n_a * n_b.

    strength > 0 rewards the high-high corner; strength in (-1, 0) penalizes
    it (an antagonistic pair whose members each look good in isolation).
    """

    a: str
    b: str
    strength: float

    def __post_init__(self):
        if self.strength <= -1:
            raise ParameterError("coupling strength must be > -1 to keep multipliers positive")

    def multiplier(self, na: float, nb: float) -> float:
        return 1.0 + self.strength * na * nb


@dataclass(frozen=True)
class CrashRegion(Record):
    """Half-open interval (lo, hi]: the system crashes when lo < value <= hi."""

    lo: float
    hi: float

    def contains(self, value: Any) -> bool:
        try:
            v = float(value)
        except (TypeError, ValueError):
            return False
        return self.lo < v <= self.hi


# Fallback for parameters the model leaves unplanted.
_FLAT = Response()


class _WorkloadTable:
    """One model compiled against one space and one workload.

    ``defaults`` maps every parameter to its normalized default. ``factors``
    lists the model's multipliers at the defaults: first the non-flat
    responses in space order, then the couplings whose members are both in
    the space, in declaration order. ``terms`` maps a parameter to its
    response and its index in ``factors``; ``couplings`` maps a parameter to
    the indices and couplings it is a member of. Skipping the flat factors is
    exact: ``x * 1.0 == x`` for every float. ``crash_defaults`` holds the
    declared default of each crash-region parameter in the space.

    ``last`` memoizes the last configuration evaluated against the table as
    one tuple (canonical text, truth, crash diagnostic or None), written and
    read whole so that a thread never pairs one configuration's text with
    another's result.
    """

    __slots__ = ("space", "position", "defaults", "factors", "terms", "couplings",
                 "crash_defaults", "last")

    def __init__(self, model: "SimulatorModel", space: ParameterSpace, workload_id: str):
        self.space = space
        self.position = {spec.name: i for i, spec in enumerate(space)}
        self.defaults = {spec.name: spec.domain.normalize(spec.default) for spec in space}
        self.factors: list[float] = []
        self.terms: dict[str, tuple[int, Response]] = {}
        for spec in space:
            response = model.response_for(spec.name, workload_id)
            if response.shape != "flat":
                self.terms[spec.name] = (len(self.factors), response)
                self.factors.append(response.multiplier(self.defaults[spec.name]))
        self.couplings: dict[str, list[tuple[int, Coupling]]] = {}
        for c in model.couplings:
            if c.a in self.defaults and c.b in self.defaults:
                for name in {c.a, c.b}:
                    self.couplings.setdefault(name, []).append((len(self.factors), c))
                self.factors.append(c.multiplier(self.defaults[c.a], self.defaults[c.b]))
        self.crash_defaults = {name: space.get(name).default
                               for name in model.crashes if name in self.position}
        self.last: tuple[str | None, float, str | None] = (None, 0.0, None)

    def order(self, name: str) -> int:
        """Space position; names outside the space sort last, as resolve() puts them."""
        return self.position.get(name, len(self.position))


@dataclass(frozen=True)
class SimulatorModel(Record, name="model", error=ParameterError, pinned={"schema_version": 1},
                     defaulted=("schema_version", "sigma", "responses", "couplings", "crashes",
                                "overrides")):
    """Planted ground-truth model for one parameter space.

    ``overrides`` substitutes per-workload response functions, letting
    sensitivities differ across workloads. With sigma = 0 evaluation is
    deterministic; with all shapes flat it returns base_rate exactly.

    The model is immutable (its mappings are read-only), so it compiles itself
    lazily into one table per (space, workload) and evaluates a configuration
    in time proportional to its assignments, the non-flat responses and the
    couplings rather than to the size of the space.

    Its file may leave out every key but ``base_rate``, and a response every
    key but ``shape``: a missing key takes its default.
    """

    base_rate: float
    responses: Mapping[str, Response] = field(default_factory=dict)
    couplings: tuple[Coupling, ...] = ()
    crashes: Mapping[str, CrashRegion] = field(default_factory=dict)
    sigma: float = 0.0
    overrides: Mapping[str, Mapping[str, Response]] = field(default_factory=dict)

    def __post_init__(self):
        if self.base_rate <= 0:
            raise ParameterError("base_rate must be positive")
        if self.sigma < 0:
            raise ParameterError("sigma must be >= 0")
        object.__setattr__(self, "responses", MappingProxyType(dict(self.responses)))
        object.__setattr__(self, "couplings", tuple(self.couplings))
        object.__setattr__(self, "crashes", MappingProxyType(dict(self.crashes)))
        object.__setattr__(self, "overrides", MappingProxyType(
            {w: MappingProxyType(dict(m)) for w, m in self.overrides.items()}))
        object.__setattr__(self, "_tables", {})  # workload id -> _WorkloadTable

    def response_for(self, param: str, workload_id: str) -> Response:
        over = self.overrides.get(workload_id, {})
        if param in over:
            return over[param]
        return self.responses.get(param, _FLAT)

    def _table(self, space: ParameterSpace, workload_id: str) -> _WorkloadTable:
        # No lock: threads racing here build equal tables, and each caller
        # evaluates with the table it got, never one re-read for another space.
        table = self._tables.get(workload_id)
        if table is None or table.space is not space:
            table = self._tables[workload_id] = _WorkloadTable(self, space, workload_id)
        return table

    def cell_truth(self, space: ParameterSpace, config: Configuration, workload_id: str) -> float:
        """``true_metric``, evaluated once for consecutive calls on one cell
        (configuration, workload): the table of the cell's workload keeps the
        last cell's truth or crash diagnostic, and a crash cell raises
        CrashError with the same diagnostic again."""
        table = self._table(space, workload_id)
        text = config.canonical()
        last = table.last
        if last[0] != text:
            try:
                last = (text, self.true_metric(space, config, workload_id), None)
            except CrashError as e:
                last = (text, 0.0, e.diagnostic)
            table.last = last
        if last[2] is not None:
            raise CrashError(last[2])
        return last[1]

    def true_metric(self, space: ParameterSpace, config: Configuration, workload_id: str) -> float:
        """Noise-free metric; raises CrashError inside a planted crash region.

        The compiled table's at-default factors are copied, the factors of the
        assigned parameters and of the couplings they touch are replaced, and
        ``math.prod`` multiplies them left to right onto ``base_rate``: the
        same float operations, in the same order, as multiplying every
        response and then every coupling in turn.
        """
        table = self._table(space, workload_id)
        assigned = config.assignments
        # Factors are replaced by index, so the order names are normalized in
        # cannot change the value; it only decides which error is raised.
        try:
            norms = {name: space.get(name).domain.normalize(value)
                     for name, value in assigned.items()}
        except Exception:
            for name in sorted(assigned, key=table.order):  # the first in space order
                space.get(name).domain.normalize(assigned[name])
            raise
        for name, region in self.crashes.items():
            # The value resolve() would give: assigned, else the default.
            if name in assigned:
                value = assigned[name]
            elif name in table.crash_defaults:
                value = table.crash_defaults[name]
            else:
                continue
            if region.contains(value):
                raise CrashError(f"planted crash region hit: {name}={value!r}")
        factors = table.factors.copy()
        touched: dict[int, Coupling] = {}
        for name, n in norms.items():
            term = table.terms.get(name)
            if term is not None:
                factors[term[0]] = term[1].multiplier(n)
            touched.update(table.couplings.get(name, ()))
        defaults = table.defaults
        for i, c in touched.items():
            factors[i] = c.multiplier(norms.get(c.a, defaults[c.a]), norms.get(c.b, defaults[c.b]))
        return math.prod(factors, start=self.base_rate)

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "base_rate": self.base_rate,
            "sigma": self.sigma,
            "responses": {k: v.to_json() for k, v in sorted(self.responses.items())},
            "couplings": [c.to_json() for c in self.couplings],
            "crashes": {k: v.to_json() for k, v in sorted(self.crashes.items())},
            "overrides": {w: {k: v.to_json() for k, v in sorted(m.items())}
                          for w, m in sorted(self.overrides.items())},
        }

    def save(self, path: str) -> None:
        write_text(path, dump_yaml(self.to_json()))

    @classmethod
    def load(cls, path: str) -> "SimulatorModel":
        """The model in the YAML file at ``path``, or ParameterError naming it."""
        return load_yaml(path, cls.from_json)


_GAMMA = 0x9E3779B97F4A7C15  # splitmix64's stream increment
_GAMMA2 = 2 * _GAMMA
_MASK = 0xFFFFFFFFFFFFFFFF
_ULP = 2.0 ** -53
_TWO_PI = 2.0 * math.pi


def standard_normal(seed: int) -> float:
    """The N(0, 1) draw z of the noise contract (see ``SimulatorAdapter``),
    with the two splitmix64 rounds written out: ``a = splitmix64(seed)``
    starts from ``seed + GAMMA`` and ``b = splitmix64(seed + GAMMA)`` from
    ``seed + 2 GAMMA``, both mod 2^64."""
    z = (seed + _GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    u1 = (((z ^ (z >> 31)) >> 11) + 1) * _ULP
    z = (seed + _GAMMA2) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    u2 = ((z ^ (z >> 31)) >> 11) * _ULP
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(_TWO_PI * u2)


class SimulatorAdapter:
    """Harness adapter around a SimulatorModel.

    Noise contract: with ``sigma > 0`` the metric of run seed ``s`` is
    ``truth * exp(sigma * z)``, where z is one Box-Muller draw from the first
    two outputs of a splitmix64 stream started at ``s``:

        a = splitmix64(s), b = splitmix64(s + 0x9E3779B97F4A7C15)  (mod 2^64)
        u1 = ((a >> 11) + 1) / 2^53  in (0, 1]
        u2 = (b >> 11) / 2^53        in [0, 1)
        z  = sqrt(-2 ln u1) * cos(2 pi u2)

    The draw is pure Python and depends on the seed alone, so a fixed
    (config, workload, seed) gives a bit-identical metric on every call, in
    any order and at any parallelism. With ``sigma == 0`` no draw is made.

    The noise-free truth is a pure function of the cell (configuration,
    workload), so it is evaluated once per cell: the repetitions of a cell
    reuse it (``SimulatorModel.cell_truth``) and only the draw is per run.
    """

    def __init__(self, space: ParameterSpace, model: SimulatorModel):
        self.space = space
        self.model = model
        self.max_concurrency = 64

    def measure(self, config: Configuration, workload: WorkloadSpec, seed: int) -> float:
        model = self.model
        truth = model.cell_truth(self.space, config, workload.id)
        if model.sigma == 0.0:
            return truth
        return truth * math.exp(model.sigma * standard_normal(seed))

