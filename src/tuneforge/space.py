"""Tunable parameter spaces, configurations within them, and workload descriptors.

A :class:`ParameterSpace` declares what can be tuned; a :class:`Configuration`
is a sparse assignment over it (unassigned parameters are implicitly at their
defaults). Spaces and workloads load from a single human-editable YAML file
with a ``schema_version`` field, through ``jsonfile.load_fields``: exactly
the keys of each record, each value of its field's type and none converted.
A domain, the one tagged union, checks and writes the keys of its ``type``
from one table (``_DOMAIN_KEYS``). One function, :func:`span_levels`, spaces
the levels of every grid, the sweep's across a domain and every later one
across a safe range, with both ends exact.

Every declaration and simulator model file goes through one reader,
:func:`load_yaml`. The package writes its own files as canonical JSON
(``jsonfile.canonical_json``, the writer of every other artifact), which is
also YAML. The reader hands a file's bytes to ``json.loads`` first and, when
they are not JSON, as a hand-written YAML file is not, to ``yaml.load`` with
libyaml's parser where PyYAML has it. A YAML file gives the objects and the
error classes of PyYAML's safe classes, and an error's message is that of the
parser that read it.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _escape_json
from typing import Any, Callable, Iterator, TypedDict

import yaml

from .errors import ParameterError
from .jsonfile import Record, canonical_json, load_fields, thaw

SCHEMA_VERSION = 1
_PINNED = {"schema_version": SCHEMA_VERSION}

# The loader of every file that is not JSON: libyaml's where PyYAML has it,
# which gives the pure-Python class's objects and takes a fraction of its
# parse time.
YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader

DomainKind = str  # "continuous" | "integer" | "enum" | "boolean"


def finite(value: float) -> bool:
    """Whether the number ``value`` is a finite float: not NaN, not infinite
    and not an int past float's range."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass(frozen=True)
class Domain(Record, defaulted=("lo", "hi", "values")):
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
            if self.kind == "continuous" and not (finite(self.lo) and finite(self.hi)):
                raise ParameterError(f"continuous domain requires finite bounds, got "
                                     f"({self.lo}, {self.hi})")
        elif self.kind == "enum":
            if isinstance(self.values, list):
                object.__setattr__(self, "values", tuple(self.values))
            if not self.values:
                raise ParameterError("enum domain requires a non-empty value list")
            if len(set(map(repr, self.values))) != len(self.values):
                raise ParameterError("enum domain values must be unique")
            if any(v != v for v in self.values):
                raise ParameterError("enum domain values must not be NaN")
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
        d = {"type": self.kind}
        for key in _DOMAIN_KEYS[self.kind][1:]:
            d[key] = thaw(getattr(self, key))
        return d

    @classmethod
    def from_json(cls, d: dict, what: str | None = None,
                  error: type[ParameterError] = ParameterError) -> "Domain":
        """The domain ``d`` declares: the one tagged union, so the keys of the
        kind its ``type`` names are checked here, and the values by the table."""
        kind = d.get("type")
        keys = _DOMAIN_KEYS.get(kind) if type(kind) is str else None
        if keys is None or d.keys() != set(keys):
            raise error(
                f"{what}: keys {sorted(d, key=str)}, but a domain of type {kind!r} holds "
                f"{sorted(keys) if keys else 'none; the types are ' + ', '.join(_DOMAIN_KEYS)}")
        values = dict(d)
        values["kind"] = values.pop("type")
        return load_fields(cls, values, what, error=error)


# The keys of each domain kind, in the order its file has them.
_DOMAIN_KEYS = {"continuous": ("type", "lo", "hi"), "integer": ("type", "lo", "hi"),
                "enum": ("type", "values"), "boolean": ("type",)}


@dataclass(frozen=True)
class ParameterSpec(Record, defaulted=("unit", "restart_required", "scale")):
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


@dataclass(frozen=True)
class ParameterSpace(Record, name="declaration", error=ParameterError, pinned=_PINNED,
                     written=("workloads",), optional=("workloads",)):
    """Ordered collection of parameter specs with unique names: the
    ``parameters`` of a declaration, which may also hold ``workloads``."""

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
class WorkloadSpec(Record, defaulted=("metric_name", "direction")):
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


def span_levels(spec: ParameterSpec, span: Any, count: int, interior: bool = False) -> list[Any]:
    """The levels of every grid: ``count`` positions across ``span``, the
    domain or a safe range inside it (anything with ``lo``, ``hi`` and
    ``values``), position k at k/(count-1), or at (2k+1)/(2*count) with
    ``interior``: over the span's values for an enum or boolean (the
    domain's when the span lists none), over the span's logarithm for
    ``scale: log``, and over the span itself otherwise. Without ``interior``
    the ends are the span's own, exactly; integer levels are rounded, and
    each value appears once, in order."""
    ks = [2 * k + 1 for k in range(count)] if interior else range(count)
    den = 2 * count if interior else count - 1
    dom = spec.domain
    if dom.kind in ("enum", "boolean"):
        vals = span.values or dom.values
        return [vals[i] for i in sorted({round(k * (len(vals) - 1) / den) for k in ks})]
    lo, hi = float(span.lo), float(span.hi)
    if spec.scale == "log":
        raw = [lo * (hi / lo) ** (k / den) for k in ks]
    else:
        raw = [lo + k * (hi - lo) / den for k in ks]
    if not interior:
        raw[0], raw[-1] = lo, hi  # endpoints exactly, no float drift
    if dom.kind == "integer":
        raw = [round(v) for v in raw]
    return list(dict.fromkeys(raw))


def level_grid(spec: ParameterSpec, count: int) -> list[Any]:
    """The sweep's ``count`` levels across a parameter's domain, by
    `span_levels`: at least 2, and for an enum no more than it has."""
    if not 2 <= count <= 9:
        raise ParameterError(f"level count must be in [2, 9], got {count}")
    dom = spec.domain
    if dom.kind in ("enum", "boolean") and count > len(dom.values):
        raise ParameterError(
            f"level count {count} exceeds cardinality {len(dom.values)} of {spec.name!r}")
    return span_levels(spec, dom, count)


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


def _read_yaml(fh: Any) -> Any:
    """The document in the binary stream ``fh``: ``json.loads`` of its bytes
    when they are JSON, as every file the package writes is, else ``yaml.load``
    of the same bytes with ``YAML_LOADER``, under the stream's name, so the
    objects and every error are PyYAML's and an error names the file. (A pipe
    cannot be rewound.)"""
    data = fh.read()
    try:
        return json.loads(data)
    except (ValueError, RecursionError):  # not JSON, or deeper than json's decoder goes
        pass
    stream = io.BytesIO(data)
    stream.name = fh.name
    return yaml.load(stream, Loader=YAML_LOADER)


def load_yaml(path: str, build: Callable[[Any], Any]) -> Any:
    """``build`` applied to the document in the file at ``path``: read by
    ``json.loads`` when the file is JSON, as the files ``dump_space`` and
    ``SimulatorModel.save`` write are, and otherwise by ``yaml.load(fh,
    Loader=YAML_LOADER)``, as a hand-written YAML file is. A file that cannot
    be read or is not YAML, a document that nests too deep, and the
    ParameterError of a document ``build`` refuses raise ParameterError naming
    the file."""
    try:
        try:
            with open(path, "rb") as fh:  # bytes: a bad encoding is a YAMLError
                doc = _read_yaml(fh)
        except OSError as e:
            raise ParameterError(f"{path}: cannot read the file: {e.strerror}") from None
        except yaml.YAMLError as e:
            raise ParameterError(f"{path}: not a YAML file: {e}") from None
        try:
            return build(doc)
        except ParameterError as e:
            raise ParameterError(f"{path}: {e}") from None
    except RecursionError:
        raise ParameterError(f"{path}: the document nests too deep") from None


def _workloads(doc: Any) -> list[WorkloadSpec]:
    workloads = load_fields(
        _Workloads, doc, "declaration", written=("parameters",), optional=("parameters",),
        pinned=_PINNED, error=ParameterError)["workloads"]
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
    """The declaration of a space (and optionally workloads) as canonical
    JSON, which is YAML too: ``load_space`` and ``load_workloads`` read it."""
    doc = space.to_json()
    if workloads is not None:
        doc["workloads"] = [w.to_json() for w in workloads]
    return canonical_json(doc)
