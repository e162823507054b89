"""Tunable parameter spaces, configurations within them, and workload descriptors.

A :class:`ParameterSpace` declares what can be tuned; a :class:`Configuration`
is a sparse assignment over it (unassigned parameters are implicitly at their
defaults). Spaces and workloads load from a single human-editable YAML file
with a ``schema_version`` field, through ``jsonfile.load_fields``: exactly
the keys of each record, each value of its field's type and none converted.
A domain, the one tagged union, checks the keys of its ``type`` itself.

Every YAML file the package reads or writes (declarations and simulator
models) goes through one reader, :func:`load_yaml`, and one writer,
:func:`dump_yaml`. They use PyYAML's libyaml classes when PyYAML was built
with them and its pure-Python safe classes otherwise; both share the safe
resolver and constructor, so a file gives the same objects and a document the
same text either way.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _escape_json
from typing import Any, Callable, Iterator, TypedDict

import yaml

from .errors import ParameterError
from .jsonfile import Record, dump_fields, each, load_fields, record

SCHEMA_VERSION = 1
_PINNED = {"schema_version": SCHEMA_VERSION}

# The parser and emitter of every YAML read and write: libyaml's where PyYAML
# has it. The pure-Python ones take most of a command's set-up time on a
# large declaration.
if yaml.__with_libyaml__:
    YAML_LOADER, YAML_DUMPER = yaml.CSafeLoader, yaml.CSafeDumper
else:
    YAML_LOADER, YAML_DUMPER = yaml.SafeLoader, yaml.SafeDumper

DomainKind = str  # "continuous" | "integer" | "enum" | "boolean"


@dataclass(frozen=True)
class Domain:
    """Value domain of one parameter.

    * continuous(lo, hi): closed real interval, lo < hi
    * integer(lo, hi):    closed integer interval, lo < hi
    * enum(values):       ordered list of distinct values
    * boolean:            shorthand for enum([False, True])
    """

    kind: DomainKind
    lo: float | None = None
    hi: float | None = None
    values: tuple[Any, ...] = ()

    def __post_init__(self):
        if self.kind in ("continuous", "integer"):
            if self.lo is None or self.hi is None or not self.lo < self.hi:
                raise ParameterError(f"{self.kind} domain requires lo < hi, got ({self.lo}, {self.hi})")
            if self.kind == "integer" and not type(self.lo) is type(self.hi) is int:
                raise ParameterError(f"integer domain requires int bounds, got lo {self.lo!r}, "
                                     f"hi {self.hi!r}")
        elif self.kind == "enum":
            if isinstance(self.values, list):
                object.__setattr__(self, "values", tuple(self.values))
            if not self.values:
                raise ParameterError("enum domain requires a non-empty value list")
            if len(set(map(repr, self.values))) != len(self.values):
                raise ParameterError("enum domain values must be unique")
        elif self.kind == "boolean":
            object.__setattr__(self, "values", (False, True))
        else:
            raise ParameterError(f"unknown domain kind {self.kind!r}")

    @property
    def ordered_values(self) -> tuple[Any, ...]:
        """Ordinal value list for enum-like domains."""
        if self.kind not in ("enum", "boolean"):
            raise ParameterError(f"{self.kind} domain has no enumerated values")
        return self.values

    def contains(self, value: Any) -> bool:
        if self.kind == "continuous":
            return isinstance(value, (int, float)) and not isinstance(value, bool) \
                and self.lo <= float(value) <= self.hi
        if self.kind == "integer":
            return isinstance(value, int) and not isinstance(value, bool) \
                and self.lo <= value <= self.hi
        # a value of another type is none of the values: 0 is not False, 1.0 not 1
        return any(v == value and type(v) is type(value) for v in self.values)

    def ordinal(self, value: Any) -> int:
        """Declaration-position encoding for enum/boolean values: the position
        of the value equal to ``value`` and of its type, as ``contains``
        matches it; ValueError when there is none."""
        for i, v in enumerate(self.values):
            if v == value and type(v) is type(value):
                return i
        raise ValueError(f"{value!r} is not one of {list(self.values)}")

    def normalize(self, value: Any) -> float:
        """Position of value within the domain, mapped to [0, 1]."""
        if self.kind in ("continuous", "integer"):
            return (float(value) - self.lo) / (self.hi - self.lo)
        n = len(self.values)
        if n == 1:
            return 0.0
        return self.ordinal(value) / (n - 1)

    def describe(self) -> str:
        if self.kind in ("continuous", "integer"):
            return f"{self.kind}[{self.lo}, {self.hi}]"
        return f"{self.kind}{list(self.values)}"

    def to_json(self) -> dict:
        d: dict[str, Any] = {"type": self.kind}
        if self.kind in ("continuous", "integer"):
            d["lo"] = self.lo
            d["hi"] = self.hi
        elif self.kind == "enum":
            d["values"] = list(self.values)
        return d

    @classmethod
    def from_json(cls, d: dict, what: str) -> "Domain":
        """The domain ``d`` declares: the one tagged union, so the keys of the
        kind its ``type`` names are checked here, and the values by the table."""
        kind = d.get("type")
        keys = _DOMAIN_KEYS.get(kind) if type(kind) is str else None
        if d.keys() != keys:
            raise ParameterError(
                f"{what}: keys {sorted(d, key=str)}, but a domain of type {kind!r} holds "
                f"{sorted(keys) if keys else 'none; the types are ' + ', '.join(_DOMAIN_KEYS)}")
        values = dict(d)
        values["kind"] = values.pop("type")
        return load_fields(cls, values, what, optional=("lo", "hi", "values"),
                           error=ParameterError)


# The keys of each domain kind.
_DOMAIN_KEYS = {"continuous": {"type", "lo", "hi"}, "integer": {"type", "lo", "hi"},
                "enum": {"type", "values"}, "boolean": {"type"}}


@dataclass(frozen=True)
class ParameterSpec(Record):
    """One tunable parameter: its domain, default, and metadata."""

    name: str
    domain: Domain
    default: Any
    unit: str = ""
    restart_required: bool = False
    scale: str = "linear"  # "linear" | "log"; log spacing for knobs spanning magnitudes

    def __post_init__(self):
        if not self.name:
            raise ParameterError("parameter name must not be empty")
        if not self.domain.contains(self.default):
            raise ParameterError(
                f"default {self.default!r} of {self.name!r} lies outside {self.domain.describe()}")
        if self.scale not in ("linear", "log"):
            raise ParameterError(f"scale must be linear or log, got {self.scale!r}")
        if self.scale == "log":
            if self.domain.kind not in ("continuous", "integer") or self.domain.lo <= 0:
                raise ParameterError(f"log scale on {self.name!r} requires a numeric domain with lo > 0")

    @classmethod
    def from_json(cls, d: dict, what: str) -> "ParameterSpec":
        return load_fields(cls, d, what, optional=("unit", "restart_required", "scale"),
                           error=ParameterError,
                           domain=record(lambda v: Domain.from_json(v, f"{what}: domain")))


@dataclass(frozen=True)
class ParameterSpace:
    """Ordered collection of parameter specs with unique names."""

    parameters: tuple[ParameterSpec, ...]

    def __post_init__(self):
        if isinstance(self.parameters, list):
            object.__setattr__(self, "parameters", tuple(self.parameters))
        names = [p.name for p in self.parameters]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ParameterError(f"duplicate parameter names: {dupes}")
        object.__setattr__(self, "_by_name", {p.name: p for p in self.parameters})

    def __iter__(self) -> Iterator[ParameterSpec]:
        return iter(self.parameters)

    def __len__(self) -> int:
        return len(self.parameters)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def get(self, name: str) -> ParameterSpec:
        try:
            return self._by_name[name]
        except KeyError:
            raise ParameterError(f"unknown parameter {name!r}") from None

    def names(self) -> list[str]:
        return [p.name for p in self.parameters]

    def defaults(self) -> "Configuration":
        """The all-defaults configuration (empty assignment map)."""
        return Configuration({})

    def resolve(self, config: "Configuration") -> dict[str, Any]:
        """Full name -> value map with unassigned parameters at defaults."""
        out = {p.name: p.default for p in self.parameters}
        out.update(config.assignments)
        return out

    def effective(self, config: "Configuration") -> "Configuration":
        """The configuration the system runs: ``config`` without the members
        at their parameter's default. A value is compared with its default by
        canonical text, so ``0``, ``0.0`` and ``False`` stay distinct; a name
        outside the space is kept, for validation to refuse."""
        kept = {name: value for name, value in config.assignments.items()
                if name not in self._by_name
                or json_scalar(value) != json_scalar(self._by_name[name].default)}
        return config if len(kept) == len(config.assignments) else Configuration(kept)

    def space_hash(self) -> str:
        """Stable content hash used as a campaign fingerprint component."""
        blob = json.dumps([p.to_json() for p in self.parameters], sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def to_json(self) -> dict:
        return dump_fields(self, pinned=_PINNED)

    @classmethod
    def from_json(cls, d: dict) -> "ParameterSpace":
        """The ``parameters`` of a declaration, which may also hold ``workloads``."""
        return load_fields(
            cls, d, "declaration", written=("workloads",), optional=("workloads",),
            pinned=_PINNED, error=ParameterError, parameters=each(
                lambda i, p: ParameterSpec.from_json(p, f"declaration: parameters: {i}")))


def json_scalar(v: Any) -> str:
    """``json.dumps(v, sort_keys=True)``, without building an encoder for the
    exact str, int, bool, finite float and None values that configurations
    and journal records hold."""
    t = type(v)
    if t is str:
        return _escape_json(v)
    if t is int or (t is float and math.isfinite(v)):
        return repr(v)
    if v is None:
        return "null"
    if t is bool:
        return "true" if v else "false"
    return json.dumps(v, sort_keys=True)


@dataclass(frozen=True, slots=True)
class Configuration:
    """Sparse parameter assignment; unassigned parameters mean 'default'."""

    assignments: dict[str, Any] = field(default_factory=dict)
    _canonical: str | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "assignments", dict(self.assignments))

    def canonical(self) -> str:
        """The text of ``json.dumps(self.assignments, sort_keys=True)``: the
        configuration's one identity, for equality, the campaign store's keys
        and every run seed. Written once per object, from the scalar encoder
        when every key is a str."""
        if self._canonical is None:
            a = self.assignments
            if all(type(k) is str for k in a):
                text = "{" + ", ".join([f"{_escape_json(k)}: {json_scalar(a[k])}"
                                        for k in sorted(a)]) + "}"
            else:
                text = json.dumps(a, sort_keys=True)
            object.__setattr__(self, "_canonical", text)
        return self._canonical

    def is_default(self) -> bool:
        return not self.assignments

    def __eq__(self, other) -> bool:
        return isinstance(other, Configuration) and self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())


@dataclass(frozen=True)
class WorkloadSpec(Record):
    """One benchmark workload and the metric it optimizes."""

    id: str
    metric_name: str = "throughput"
    direction: str = "maximize"  # "maximize" | "minimize"

    def __post_init__(self):
        if not self.id:
            raise ParameterError("workload id must not be empty")
        if self.direction not in ("maximize", "minimize"):
            raise ParameterError(f"direction must be maximize or minimize, got {self.direction!r}")

    def better(self, a: float, b: float) -> bool:
        """True when metric a beats metric b under this workload's direction."""
        return a > b if self.direction == "maximize" else a < b


# The workloads section of a declaration, which may also hold ``parameters``.
_Workloads = TypedDict("_Workloads", {"workloads": list[WorkloadSpec]})


def validate_configuration(space: ParameterSpace, config: Configuration) -> list[str]:
    """The violations of ``config``: each assignment outside its parameter's
    domain, and each unknown name. The all-defaults configuration has none.
    """
    violations: list[str] = []
    for name in sorted(config.assignments):
        value = config.assignments[name]
        if name not in space:
            violations.append(f"unknown parameter {name}")
            continue
        spec = space.get(name)
        if not spec.domain.contains(value):
            violations.append(f"{name}={value!r} out of range {spec.domain.describe()}")
    return violations


def level_grid(spec: ParameterSpec, count: int) -> list[Any]:
    """Ordered probe values spread across a parameter's domain.

    Continuous/integer grids include both endpoints and space levels uniformly
    (geometrically for ``scale: log``); integer grids deduplicate after
    rounding and may shrink, but never below 2 values. Enum grids pick evenly
    spaced positions in declaration order.
    """
    if not 2 <= count <= 9:
        raise ParameterError(f"level count must be in [2, 9], got {count}")
    dom = spec.domain
    if dom.kind in ("enum", "boolean"):
        n = len(dom.ordered_values)
        if count > n:
            raise ParameterError(
                f"level count {count} exceeds cardinality {n} of {spec.name!r}")
        if count == n:
            return list(dom.ordered_values)
        idxs = sorted({round(k * (n - 1) / (count - 1)) for k in range(count)})
        return [dom.ordered_values[i] for i in idxs]

    lo, hi = float(dom.lo), float(dom.hi)
    if spec.scale == "log":
        ratio = hi / lo
        raw = [lo * ratio ** (k / (count - 1)) for k in range(count)]
    else:
        raw = [lo + k * (hi - lo) / (count - 1) for k in range(count)]
    raw[0], raw[-1] = lo, hi  # endpoints exactly, no float drift

    if dom.kind == "integer":
        ints: list[int] = []
        for v in raw:
            r = int(round(v))
            if r not in ints:
                ints.append(r)
        return ints
    return raw


def closest_index(spec: ParameterSpec, levels: list[Any], value: Any) -> int:
    """Index of the level closest to ``value``, the first on a tie.

    Distance is ordinal for enum and boolean domains (a value can fall
    between the levels of a coarsened grid) and numeric otherwise. A value
    that cannot be compared with the levels raises ParameterError.
    """
    dom = spec.domain
    try:
        if dom.kind in ("enum", "boolean"):
            target = dom.ordinal(value)
            dist = [abs(dom.ordinal(v) - target) for v in levels]
        else:
            dist = [abs(float(v) - float(value)) for v in levels]
    except (TypeError, ValueError):
        raise ParameterError(
            f"{spec.name}: value {value!r} is not comparable with levels {levels!r}") from None
    return dist.index(min(dist))


def snap_to_domain(spec: ParameterSpec, value: float) -> Any:
    """Clamp and round a raw numeric into a legal domain value."""
    dom = spec.domain
    if dom.kind == "integer":
        return int(min(dom.hi, max(dom.lo, round(value))))
    if dom.kind == "continuous":
        return float(min(dom.hi, max(dom.lo, value)))
    raise ParameterError(f"cannot snap into {dom.kind} domain")


def load_yaml(path: str, build: Callable[[Any], Any]) -> Any:
    """``build`` applied to the YAML document in the file at ``path``. A file
    that cannot be read or is not YAML, and the ParameterError of a document
    ``build`` refuses, raise ParameterError naming the file."""
    try:
        with open(path, "rb") as fh:  # bytes: a bad encoding is a YAMLError
            doc = yaml.load(fh, Loader=YAML_LOADER)
    except OSError as e:
        raise ParameterError(f"{path}: cannot read the file: {e.strerror}") from None
    except yaml.YAMLError as e:
        raise ParameterError(f"{path}: not a YAML file: {e}") from None
    try:
        return build(doc)
    except ParameterError as e:
        raise ParameterError(f"{path}: {e}") from None


def dump_yaml(doc: Any) -> str:
    """The YAML text of ``doc``, keys in insertion order."""
    return yaml.dump(doc, Dumper=YAML_DUMPER, sort_keys=False)


def _workloads(doc: Any) -> list[WorkloadSpec]:
    workloads = load_fields(
        _Workloads, doc, "declaration", written=("parameters",), optional=("parameters",),
        pinned=_PINNED, error=ParameterError, workloads=each(lambda i, w: load_fields(
            WorkloadSpec, w, f"declaration: workloads: {i}", optional=("metric_name", "direction"),
            error=ParameterError)))["workloads"]
    ids = [w.id for w in workloads]
    if len(set(ids)) != len(ids):
        raise ParameterError("declaration: duplicate workload ids")
    return workloads


def load_space(path: str) -> ParameterSpace:
    """Read the ``parameters`` section of a space/workload declaration file."""
    return load_yaml(path, ParameterSpace.from_json)


def load_workloads(path: str) -> list[WorkloadSpec]:
    """Read the ``workloads`` section of a declaration file."""
    return load_yaml(path, _workloads)


def load_declarations(space_path: str, workloads_path: str
                      ) -> tuple[ParameterSpace, list[WorkloadSpec]]:
    """``load_space(space_path)`` and ``load_workloads(workloads_path)``,
    parsing the file once when both paths name it."""
    if os.path.realpath(space_path) != os.path.realpath(workloads_path):
        return load_space(space_path), load_workloads(workloads_path)
    return load_yaml(space_path, lambda doc: (ParameterSpace.from_json(doc), _workloads(doc)))


def dump_space(space: ParameterSpace, workloads: list[WorkloadSpec] | None = None) -> str:
    """Serialize a space (and optionally workloads) back to YAML."""
    doc = space.to_json()
    if workloads is not None:
        doc["workloads"] = [w.to_json() for w in workloads]
    return dump_yaml(doc)
