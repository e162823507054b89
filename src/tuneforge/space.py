"""Tunable parameter spaces, configurations within them, and workload descriptors.

A :class:`ParameterSpace` declares what can be tuned; a :class:`Configuration`
is a sparse assignment over it (unassigned parameters are implicitly at their
defaults). Spaces and workloads load from a single human-editable YAML file
with a ``schema_version`` field.

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
from typing import Any, Callable, Iterator

import yaml

from .errors import ParameterError
from .jsonfile import Record

SCHEMA_VERSION = 1

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
        elif self.kind == "enum":
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
        return value in self.values

    def ordinal(self, value: Any) -> int:
        """Declaration-position encoding for enum/boolean values."""
        return self.values.index(value)

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
    def from_json(cls, d: dict) -> "Domain":
        kind = d.get("type")
        if kind not in _DOMAIN_KEYS:
            raise ParameterError(f"unknown domain kind {kind!r}")
        unread = sorted(set(d) - _DOMAIN_KEYS[kind])
        if unread:
            raise ParameterError(f"{kind} domain has unknown key {unread[0]!r}")
        if kind == "enum":
            return cls(kind="enum", values=tuple(d.get("values", ())))
        lo, hi = d.get("lo"), d.get("hi")
        if kind == "integer" and lo is not None and hi is not None:
            lo, hi = int(lo), int(hi)
        return cls(kind=kind, lo=lo, hi=hi)


# The keys each domain kind reads.
_DOMAIN_KEYS = {"continuous": {"type", "lo", "hi"}, "integer": {"type", "lo", "hi"},
                "enum": {"type", "values"}, "boolean": {"type"}}


@dataclass(frozen=True)
class ParameterSpec:
    """One tunable parameter: its domain, default, and metadata."""

    name: str
    domain: Domain
    default: Any
    unit: str = ""
    restart_required: bool = False
    scale: str = "linear"  # "linear" | "log"; log spacing for knobs spanning magnitudes

    def __post_init__(self):
        if not self.name or not isinstance(self.name, str):
            raise ParameterError("parameter name must be a non-empty string")
        if not isinstance(self.unit, str) or type(self.restart_required) is not bool:
            raise ParameterError(f"{self.name!r}: unit must be a string and "
                                 f"restart_required a boolean")
        if self.domain.kind == "integer" and isinstance(self.default, float):
            object.__setattr__(self, "default", int(self.default))
        if not self.domain.contains(self.default):
            raise ParameterError(
                f"default {self.default!r} of {self.name!r} lies outside {self.domain.describe()}")
        if self.scale not in ("linear", "log"):
            raise ParameterError(f"scale must be linear or log, got {self.scale!r}")
        if self.scale == "log":
            if self.domain.kind not in ("continuous", "integer") or self.domain.lo <= 0:
                raise ParameterError(f"log scale on {self.name!r} requires a numeric domain with lo > 0")

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "domain": self.domain.to_json(),
            "default": self.default,
            "unit": self.unit,
            "restart_required": self.restart_required,
            "scale": self.scale,
        }

    @classmethod
    def from_json(cls, d: dict) -> "ParameterSpec":
        return cls(**({**d, "domain": Domain.from_json(d["domain"])} if "domain" in d else d))


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
        return {"schema_version": SCHEMA_VERSION,
                "parameters": [p.to_json() for p in self.parameters]}

    @classmethod
    def from_json(cls, d: dict) -> "ParameterSpace":
        return cls(tuple(ParameterSpec.from_json(p) for p in d["parameters"]))


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


@dataclass(frozen=True)
class Configuration:
    """Sparse parameter assignment; unassigned parameters mean 'default'."""

    assignments: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "assignments", dict(self.assignments))
        object.__setattr__(self, "_canonical", None)

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
        if not isinstance(self.id, str) or not self.id:
            raise ParameterError("workload id must be a non-empty string")
        if self.direction not in ("maximize", "minimize"):
            raise ParameterError(f"direction must be maximize or minimize, got {self.direction!r}")

    def better(self, a: float, b: float) -> bool:
        """True when metric a beats metric b under this workload's direction."""
        return a > b if self.direction == "maximize" else a < b

    @classmethod
    def from_json(cls, d: dict) -> "WorkloadSpec":
        return cls(**d)


@dataclass
class ValidationResult:
    ok: bool
    violations: list[str]


def validate_configuration(space: ParameterSpace, config: Configuration) -> ValidationResult:
    """Check every assignment against its parameter's domain.

    Unknown names and out-of-domain values become violation entries rather
    than exceptions; the all-defaults configuration always validates.
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
    return ValidationResult(ok=not violations, violations=violations)


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
    that cannot be read or is not YAML, and a document ``build`` cannot use (a
    missing, unknown or malformed key), raise ParameterError naming the file."""
    try:
        with open(path, "rb") as fh:  # bytes: a bad encoding is a YAMLError
            doc = yaml.load(fh, Loader=YAML_LOADER)
    except OSError as e:
        raise ParameterError(f"{path}: cannot read the file: {e.strerror}") from None
    except yaml.YAMLError as e:
        raise ParameterError(f"{path}: not a YAML file: {e}") from None
    try:
        return build(doc)
    except KeyError as e:
        raise ParameterError(f"{path}: missing key {e}") from None
    except (AttributeError, TypeError, ValueError) as e:  # TypeError: a missing or unknown key
        raise ParameterError(f"{path}: {e}") from None


def dump_yaml(doc: Any) -> str:
    """The YAML text of ``doc``, keys in insertion order."""
    return yaml.dump(doc, Dumper=YAML_DUMPER, sort_keys=False)


def _section(path: str, doc: Any, section: str, build: Callable[[dict], Any]) -> Any:
    """``build`` applied to the declaration ``doc`` read from ``path``, which
    must hold ``section``."""
    if not isinstance(doc, dict) or section not in doc:
        raise ParameterError(f"{path}: no {section!r} section")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ParameterError(
            f"{path}: unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")
    return build(doc)


def _space(path: str, doc: Any) -> ParameterSpace:
    return _section(path, doc, "parameters", ParameterSpace.from_json)


def _workloads(path: str, doc: Any) -> list[WorkloadSpec]:
    workloads = _section(path, doc, "workloads",
                         lambda doc: [WorkloadSpec.from_json(w) for w in doc["workloads"]])
    ids = [w.id for w in workloads]
    if len(set(ids)) != len(ids):
        raise ParameterError(f"{path}: duplicate workload ids")
    return workloads


def load_space(path: str) -> ParameterSpace:
    """Read the ``parameters`` section of a space/workload declaration file."""
    return load_yaml(path, lambda doc: _space(path, doc))


def load_workloads(path: str) -> list[WorkloadSpec]:
    """Read the ``workloads`` section of a declaration file."""
    return load_yaml(path, lambda doc: _workloads(path, doc))


def load_declarations(space_path: str, workloads_path: str
                      ) -> tuple[ParameterSpace, list[WorkloadSpec]]:
    """``load_space(space_path)`` and ``load_workloads(workloads_path)``,
    parsing the file once when both paths name it."""
    if os.path.realpath(space_path) != os.path.realpath(workloads_path):
        return load_space(space_path), load_workloads(workloads_path)
    return load_yaml(space_path, lambda doc: (_space(space_path, doc),
                                              _workloads(workloads_path, doc)))


def dump_space(space: ParameterSpace, workloads: list[WorkloadSpec] | None = None) -> str:
    """Serialize a space (and optionally workloads) back to YAML."""
    doc = space.to_json()
    if workloads is not None:
        doc["workloads"] = [w.to_json() for w in workloads]
    return dump_yaml(doc)
