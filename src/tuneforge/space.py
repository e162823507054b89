"""Tunable parameter spaces, configurations within them, and workload descriptors.

A :class:`ParameterSpace` declares what can be tuned; a :class:`Configuration`
is a sparse assignment over it (unassigned parameters are implicitly at their
defaults). Spaces and workloads load from a single human-editable YAML file
with a ``schema_version`` field, through ``jsonfile.load_fields``: exactly
the keys of each record, each value of its field's type and none converted.
A domain, the one tagged union, checks and writes the keys of its ``type``
from one table (``_DOMAIN_KEYS``).

Every YAML file the package reads or writes (declarations and simulator
models) goes through one reader, :func:`load_yaml`, and one writer,
:func:`dump_yaml`. The writer builds a plain document's text itself and hands
any other to PyYAML; the reader has PyYAML compose the nodes and builds plain
ones itself, leaving any other document to PyYAML's constructor. PyYAML's
libyaml classes are used when PyYAML was built with them and its pure-Python
safe classes otherwise; either way a document gives the text, and a file the
objects or the error, that those classes give.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from dataclasses import dataclass, field
from itertools import repeat
from json.encoder import encode_basestring_ascii as _escape_json
from typing import Any, Callable, Iterator, TypedDict

import yaml

from .errors import ParameterError
from .jsonfile import Record, load_fields, thaw

SCHEMA_VERSION = 1
_PINNED = {"schema_version": SCHEMA_VERSION}

# The parser and emitter of every YAML read and write, and the classes of the
# documents the one-pass writer and the plain reader leave to PyYAML:
# libyaml's where PyYAML has it. The pure-Python ones take most of a
# command's set-up time on a large declaration.
if yaml.__with_libyaml__:
    YAML_LOADER, YAML_DUMPER = yaml.CSafeLoader, yaml.CSafeDumper
else:
    YAML_LOADER, YAML_DUMPER = yaml.SafeLoader, yaml.SafeDumper

DomainKind = str  # "continuous" | "integer" | "enum" | "boolean"


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


class _NotPlain(Exception):
    """A document the one-pass writer, or a node the plain reader, leaves to
    PyYAML's own classes."""


_STR, _MAP, _SEQ = (f"tag:yaml.org,2002:{kind}" for kind in ("str", "map", "seq"))
# The scalar tags the reader constructs through the loader; any other tag
# (a merge key, ``=``, ``!!binary``, an application tag) goes to PyYAML.
_CONSTRUCTED = frozenset(f"tag:yaml.org,2002:{kind}"
                         for kind in ("null", "bool", "int", "float", "timestamp"))
# The strings the writer writes itself: no indicator, space, quote, line
# break or non-ASCII character, so the emitter writes each plain unless the
# resolver reads it as another type.
_WORD = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_./-]*").fullmatch
_RESOLVERS = YAML_DUMPER.yaml_implicit_resolvers
# The longest key PyYAML's pure-Python emitter writes as a simple key (it
# counts the implicit ``!!str`` tag); libyaml's allows 128 characters.
_SIMPLE_KEY = 122


def _str_text(value: str) -> str:
    """SafeDumper's text of the string ``value``: plain when the resolver
    reads it back as a string, else single-quoted; _NotPlain for a string
    outside the writer's class."""
    if _WORD(value) is None:
        if value:
            raise _NotPlain
        return "''"
    for _, regexp in _RESOLVERS.get(value[0], ()):
        if regexp.match(value):
            return f"'{value}'"
    return value


def _key_text(key: Any) -> str:
    """SafeDumper's text of a simple mapping key, colon included."""
    if type(key) is not str or not key or len(key) > _SIMPLE_KEY:
        raise _NotPlain
    return _str_text(key) + ":"


def _block(obj: Any, first: str, following: str, append: Callable[[str], None],
           texts: dict[str, str], keys: dict[str, str], seen: set[int]) -> None:
    """Append the block text of the non-empty dict or list ``obj`` as
    SafeDumper writes it: ``first`` before its first entry, ``following``
    (a line break and the entries' indent) before each other. A mapping's
    list value is not indented; a list's mapping item starts on its ``- ``
    line. ``texts`` and ``keys`` keep each string's text, ``seen`` the id of
    each container; raise _NotPlain for what PyYAML writes otherwise, such as
    a container reached twice (an anchor) or a list in a list."""
    inner = following + "  "
    if type(obj) is dict:
        heads = []
        for key in obj:
            text = keys.get(key) if type(key) is str else None
            if text is None:
                text = keys[key] = _key_text(key)
            heads.append(text)
        values, mapping_first, list_first = obj.values(), inner, following
    else:
        heads, values, mapping_first, list_first = repeat("-"), obj, " ", None
    separator = first
    for head, value in zip(heads, values):
        append(separator + head)
        separator = following
        kind = type(value)
        if kind is str:
            text = texts.get(value)
            if text is None:
                text = texts[value] = _str_text(value)
            append(" " + text)
        elif kind is float:
            if value - value == 0.0:
                text = float.__repr__(value)
                append(" " + text if "." in text else " " + text.replace("e", ".0e", 1))
            else:
                append(" .nan" if value != value else " .inf" if value > 0 else " -.inf")
        elif kind is int:
            append(" " + int.__repr__(value))
        elif kind is bool:
            append(" true" if value else " false")
        elif value is None:
            append(" null")
        elif (kind is dict or kind is list) and id(value) not in seen:
            seen.add(id(value))
            if not value:
                append(" {}" if kind is dict else " []")
            elif kind is dict:
                _block(value, mapping_first, inner, append, texts, keys, seen)
            elif list_first is not None:
                _block(value, list_first, following, append, texts, keys, seen)
            else:
                raise _NotPlain
        else:
            raise _NotPlain


def dump_yaml(doc: Any) -> str:
    """The YAML text of ``doc``, keys in insertion order: the text of
    ``yaml.dump(doc, Dumper=YAML_DUMPER, sort_keys=False)``. A document of
    dicts, lists, short word-like strings, ints, floats, bools and None is
    written here in one pass; any other goes to that call."""
    chunks: list[str] = []
    try:
        if type(doc) not in (dict, list):
            raise _NotPlain
        if doc:
            _block(doc, "", "\n", chunks.append, {}, {}, {id(doc)})
        else:
            chunks.append("{}" if type(doc) is dict else "[]")
    except (_NotPlain, RecursionError):
        return yaml.dump(doc, Dumper=YAML_DUMPER, sort_keys=False)
    chunks.append("\n")
    return "".join(chunks)


def _build(node: yaml.Node, loader: Any, seen: set[yaml.Node]) -> Any:
    """The plain value of ``node``: a dict for a mapping whose keys are all
    strings, a list for a sequence, a string scalar's text, and any other
    standard scalar through ``loader.construct_object``; raise _NotPlain for
    anything else, such as a node reached twice (an alias)."""
    kind, tag = type(node), node.tag
    if kind is yaml.ScalarNode:
        if tag == _STR:
            return node.value
        if tag in _CONSTRUCTED:
            return loader.construct_object(node)
        raise _NotPlain
    if node in seen:
        raise _NotPlain
    seen.add(node)
    if kind is yaml.MappingNode and tag == _MAP:
        d = {}
        for key, value in node.value:
            if type(key) is not yaml.ScalarNode or key.tag != _STR:
                raise _NotPlain
            d[key.value] = _build(value, loader, seen)
        return d
    if kind is yaml.SequenceNode and tag == _SEQ:
        return [_build(item, loader, seen) for item in node.value]
    raise _NotPlain


def _read_yaml(fh: Any) -> Any:
    """The document in the binary stream ``fh``, as ``yaml.load(fh,
    Loader=YAML_LOADER)`` gives it: composed by the loader, then built here
    when it is plain, else by the loader's ``construct_document``, so the
    objects and every error are PyYAML's."""
    loader = YAML_LOADER(fh)
    try:
        node = loader.get_single_node()
        if node is None:
            return None
        try:
            return _build(node, loader, set())
        except Exception:  # _NotPlain, a RecursionError, or a scalar PyYAML refuses
            loader.constructed_objects, loader.recursive_objects = {}, {}
            return loader.construct_document(node)
    finally:
        loader.dispose()


def load_yaml(path: str, build: Callable[[Any], Any]) -> Any:
    """``build`` applied to the YAML document in the file at ``path``. A file
    that cannot be read or is not YAML, a document that nests too deep, and
    the ParameterError of a document ``build`` refuses raise ParameterError
    naming the file."""
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
    """Serialize a space (and optionally workloads) back to YAML."""
    doc = space.to_json()
    if workloads is not None:
        doc["workloads"] = [w.to_json() for w in workloads]
    return dump_yaml(doc)
