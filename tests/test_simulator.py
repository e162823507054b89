"""Planted-model semantics: shapes, couplings, crash regions, overrides."""

import dataclasses
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from helpers import one_workload, reference_true_metric, unit_space
from tuneforge.errors import CrashError, ParameterError
from tuneforge.simulator import (SHAPES, Coupling, CrashRegion, Response, SimulatorAdapter,
                                 SimulatorModel)
from tuneforge.space import Configuration, Domain, ParameterSpace, ParameterSpec


class TestResponses:
    def test_flat_is_identity(self):
        assert Response().multiplier(0.3) == 1.0

    def test_linear_shapes_span_one_to_one_plus_strength(self):
        up = Response(shape="linear-up", strength=0.4)
        down = Response(shape="linear-down", strength=0.4)
        assert up.multiplier(0.0) == 1.0 and up.multiplier(1.0) == pytest.approx(1.4)
        assert down.multiplier(0.0) == pytest.approx(1.4) and down.multiplier(1.0) == 1.0

    def test_quadratic_peak_maximum_at_peak(self):
        r = Response(shape="quadratic-peak", strength=0.3, peak=0.25)
        assert r.multiplier(0.25) == pytest.approx(1.3)
        assert r.multiplier(1.0) == pytest.approx(1.0)   # farthest edge returns to 1
        assert r.multiplier(0.5) > r.multiplier(1.0)

    def test_step_threshold(self):
        r = Response(shape="step", threshold=0.5, low_mult=1.0, high_mult=1.3)
        assert r.multiplier(0.49) == 1.0
        assert r.multiplier(0.5) == 1.3

    def test_unknown_shape_rejected(self):
        with pytest.raises(ParameterError):
            Response(shape="cubic")


class TestModel:
    def setup_method(self):
        self.space = unit_space(["a", "b"])
        self.w = one_workload()[0]

    def test_all_flat_returns_base_rate_exactly(self):
        model = SimulatorModel(base_rate=1234.5)
        assert model.true_metric(self.space, Configuration({"a": 0.7}), "w0") == 1234.5

    def test_multiplicative_composition(self):
        model = SimulatorModel(
            base_rate=1000.0,
            responses={"a": Response(shape="linear-up", strength=0.2),
                       "b": Response(shape="linear-up", strength=0.1)},
            couplings=[Coupling("a", "b", 0.5)])
        got = model.true_metric(self.space, Configuration({"a": 1.0, "b": 1.0}), "w0")
        assert got == pytest.approx(1000.0 * 1.2 * 1.1 * 1.5)

    def test_crash_region_half_open(self):
        model = SimulatorModel(base_rate=1.0, crashes={"a": CrashRegion(0.5, 0.8)})
        assert model.true_metric(self.space, Configuration({"a": 0.5}), "w0") == 1.0
        with pytest.raises(CrashError):
            model.true_metric(self.space, Configuration({"a": 0.8}), "w0")

    def test_workload_overrides_substitute_responses(self):
        model = SimulatorModel(
            base_rate=100.0,
            responses={"a": Response(shape="linear-up", strength=0.5)},
            overrides={"w1": {"a": Response(shape="flat")}})
        hi = Configuration({"a": 1.0})
        assert model.true_metric(self.space, hi, "w0") == pytest.approx(150.0)
        assert model.true_metric(self.space, hi, "w1") == pytest.approx(100.0)

    def test_yaml_round_trip(self, tmp_path):
        model = SimulatorModel(
            base_rate=500.0, sigma=0.01,
            responses={"a": Response(shape="quadratic-peak", strength=0.3, peak=0.4),
                       "b": Response(shape="step", threshold=0.6, low_mult=0.9,
                                     high_mult=1.2)},
            couplings=[Coupling("a", "b", -0.4)],
            crashes={"a": CrashRegion(0.9, 1.0)},
            overrides={"w1": {"b": Response(shape="flat")}})
        path = tmp_path / "model.yaml"
        model.save(str(path))
        assert SimulatorModel.load(str(path)).to_json() == model.to_json()

    def test_sigma_zero_is_deterministic_without_rng(self):
        adapter = SimulatorAdapter(self.space, SimulatorModel(base_rate=10.0))
        a = adapter.measure(Configuration({}), self.w, seed=1)
        b = adapter.measure(Configuration({}), self.w, seed=2)
        assert a == b == 10.0  # seed is irrelevant at sigma = 0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ParameterError):
            SimulatorModel(base_rate=0.0)
        with pytest.raises(ParameterError):
            SimulatorModel(base_rate=1.0, sigma=-0.1)
        with pytest.raises(ParameterError):
            Coupling("a", "b", -1.0)


# ---------------------------------------------------------------------------
# The compiled per-workload table against the uncompiled reference formula.
# ---------------------------------------------------------------------------

WORKLOAD_IDS = ("w0", "w1", "w2")
OUTSIDE = ("zz_out", "zz_gone")  # names a model may plant but the space lacks
ENUM_POOL = ("lz4", "zstd", "none", 0, 3, 2.5)


def random_spec(rng, name):
    """A parameter of a random kind whose default sits off any level grid."""
    kind = rng.choice(("continuous", "integer", "enum", "boolean"))
    if kind == "continuous":
        lo = rng.uniform(-5.0, 5.0)
        hi = lo + rng.uniform(0.5, 10.0)
        return ParameterSpec(name, Domain(kind, lo, hi), rng.uniform(lo, hi))
    if kind == "integer":
        lo = rng.randint(-5, 5)
        hi = lo + rng.randint(1, 20)
        return ParameterSpec(name, Domain(kind, lo, hi), rng.randint(lo, hi))
    if kind == "enum":
        values = tuple(rng.sample(ENUM_POOL, rng.randint(1, len(ENUM_POOL))))
        return ParameterSpec(name, Domain(kind, values=values), rng.choice(values))
    return ParameterSpec(name, Domain(kind), rng.choice((False, True)))


def random_space(rng, size=None):
    size = rng.randint(1, 9) if size is None else size
    return ParameterSpace(tuple(random_spec(rng, f"p{i}") for i in range(size)))


def random_response(rng):
    shape = rng.choice(SHAPES)
    if shape in ("linear-up", "linear-down"):
        return Response(shape=shape, strength=rng.uniform(-0.9, 2.0))
    if shape == "quadratic-peak":
        return Response(shape=shape, strength=rng.uniform(-0.9, 2.0), peak=rng.random())
    if shape == "step":
        return Response(shape=shape, threshold=rng.random(),
                        low_mult=rng.uniform(0.2, 3.0), high_mult=rng.uniform(0.2, 3.0))
    return Response()


def random_model(rng, space, max_couplings=5):
    """Every shape, overrides, and terms naming parameters outside the space."""
    names = space.names() + list(OUTSIDE)
    responses = {n: random_response(rng) for n in rng.sample(names, rng.randint(0, len(names)))}
    overrides = {w: {n: random_response(rng) for n in rng.sample(names, rng.randint(1, 3))}
                 for w in rng.sample(WORKLOAD_IDS, rng.randint(0, 2))}
    couplings = [Coupling(rng.choice(names), rng.choice(names), rng.uniform(-0.9, 2.0))
                 for _ in range(rng.randint(0, max_couplings))]
    crashes = {}
    numeric = [p for p in space if p.domain.kind in ("continuous", "integer")]
    if numeric and rng.random() < 0.5:
        spec = rng.choice(numeric)  # a region around the default: every default config crashes
        crashes[spec.name] = CrashRegion(spec.default - 0.5, spec.default + 0.5)
    for name in rng.sample(names, rng.randint(0, 2)):
        lo = rng.uniform(-5.0, 5.0)
        crashes[name] = CrashRegion(lo, lo + rng.uniform(0.1, 3.0))
    return SimulatorModel(base_rate=rng.uniform(1.0, 1000.0), responses=responses,
                          couplings=couplings, crashes=crashes, overrides=overrides)


def random_value(rng, spec):
    dom = spec.domain
    if dom.kind == "continuous":
        return rng.uniform(dom.lo - 1.0, dom.hi + 1.0)  # out-of-domain values normalize too
    if dom.kind == "integer":
        return rng.randint(dom.lo, dom.hi)
    return rng.choice(dom.values)


def random_config(rng, space):
    """Valid assignments, sometimes followed by one or two invalid ones.

    With two, an unknown name comes before a bad value of a known parameter,
    so the error raised shows which one is checked first.
    """
    specs = rng.sample(space.parameters, rng.randint(0, len(space)))
    assignments = {p.name: random_value(rng, p) for p in specs}
    invalid = rng.choice((0, 0, 0, 1, 2))
    if invalid == 2 or (invalid == 1 and rng.random() < 0.3):
        assignments["zz_unknown"] = 0.5
    if invalid == 2 or (invalid == 1 and "zz_unknown" not in assignments):
        bad = rng.choice(space.parameters)
        assignments.pop(bad.name, None)
        assignments[bad.name] = "fast" if bad.domain.kind in ("continuous", "integer") \
            else "not-a-level"
    return Configuration(assignments)


def outcome(fn, *args):
    """The metric as hex, or the exception type and message."""
    try:
        return fn(*args).hex()
    except Exception as e:  # any error: the test compares it with the reference
        return (type(e), str(e))


class TestCompiledTable:
    def test_matches_reference_on_random_models(self):
        rng = random.Random(12)
        evaluations = errors = 0
        for _ in range(200):
            space = random_space(rng)
            model = random_model(rng, space)
            for _ in range(12):
                config = random_config(rng, space)
                for w in WORKLOAD_IDS:
                    want = outcome(reference_true_metric, model, space, config, w)
                    got = outcome(model.true_metric, space, config, w)
                    assert got == want, (model, space, config, w)
                    evaluations += 1
                    errors += isinstance(want, tuple)
        assert evaluations == 7200
        assert 0 < errors < evaluations  # both paths are exercised

    def test_matches_reference_bits_on_large_spaces(self):
        # 100+ parameters and dozens of couplings, so each planted term and
        # coupling sits at its own offset of the compiled factor list
        rng = random.Random(116)
        spaces = [random_space(rng, size=rng.randint(100, 130)) for _ in range(8)]
        models = [random_model(rng, space, max_couplings=60) for space in spaces]
        assert sum(len(m.couplings) > 10 for m in models) > 4
        assert sum(bool(m.crashes) for m in models) > 2
        assert sum(bool(m.overrides) for m in models) > 2
        evaluations = errors = 0
        for space, model in zip(spaces, models):
            for _ in range(25):
                config = random_config(rng, space)
                for w in WORKLOAD_IDS:
                    want = outcome(reference_true_metric, model, space, config, w)
                    assert outcome(model.true_metric, space, config, w) == want
                    evaluations += 1
                    errors += isinstance(want, tuple)
        assert errors > 0 and evaluations - errors > 150  # metrics and errors both compared

    def test_one_assignment_normalizes_once_and_builds_no_response(self, monkeypatch):
        names = [f"p{i:02d}" for i in range(20)]
        space = unit_space(names, default=0.3)
        model = SimulatorModel(
            base_rate=100.0, responses={"p03": Response(shape="linear-up", strength=0.5)},
            couplings=[Coupling("p03", "p07", 0.2)],
            overrides={"w0": {"p07": Response(shape="linear-down", strength=0.1)}})
        config = Configuration({"p03": 0.8})
        model.true_metric(space, config, "w0")  # compiles the table
        calls = {"normalize": 0, "response": 0}
        normalize, post_init = Domain.normalize, Response.__post_init__

        def counting_normalize(self, value):
            calls["normalize"] += 1
            return normalize(self, value)

        def counting_post_init(self):
            calls["response"] += 1
            post_init(self)

        monkeypatch.setattr(Domain, "normalize", counting_normalize)
        monkeypatch.setattr(Response, "__post_init__", counting_post_init)
        got = model.true_metric(space, config, "w0")
        assert calls == {"normalize": 1, "response": 0}
        monkeypatch.undo()
        assert got.hex() == reference_true_metric(model, space, config, "w0").hex()

    def test_one_model_alternating_between_two_spaces(self):
        names = ["a", "b", "c"]
        low, high = unit_space(names, default=0.1), unit_space(names, default=0.9)
        model = SimulatorModel(
            base_rate=50.0,
            responses={"a": Response(shape="linear-up", strength=0.4),
                       "b": Response(shape="quadratic-peak", strength=0.3, peak=0.2)},
            couplings=[Coupling("a", "c", 0.7)])
        config = Configuration({"b": 0.5})
        values = {}
        for space in (low, high, low, high):
            got = model.true_metric(space, config, "w0")
            assert got.hex() == reference_true_metric(model, space, config, "w0").hex()
            values.setdefault(id(space), set()).add(got)
        assert len(values[id(low)]) == len(values[id(high)]) == 1
        assert values[id(low)] != values[id(high)]

    def test_threads_sharing_one_model_across_two_spaces(self):
        # more threads than cores, switching often, while the tables are cold
        rng = random.Random(7)
        spaces = (random_space(rng), random_space(rng))
        model = random_model(rng, spaces[0])
        cases = [(space, random_config(rng, space), rng.choice(WORKLOAD_IDS))
                 for space in spaces for _ in range(40)]
        want = [outcome(reference_true_metric, model, *case) for case in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(outcome, model.true_metric, *cases[i % len(cases)])
                           for i in range(8 * len(cases))]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == [want[i % len(cases)] for i in range(len(got))]


class TestImmutability:
    def model(self):
        return SimulatorModel(
            base_rate=10.0, responses={"a": Response(shape="linear-up", strength=1.0)},
            couplings=[Coupling("a", "b", 0.5)],
            crashes={"b": CrashRegion(0.8, 0.9)},
            overrides={"w1": {"a": Response()}})

    def test_fields_cannot_be_assigned(self):
        model = self.model()
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.base_rate = 20.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.responses = {}

    def test_mappings_are_read_only(self):
        model = self.model()
        with pytest.raises(TypeError):
            model.responses["b"] = Response(shape="linear-up", strength=1.0)
        with pytest.raises(TypeError):
            model.overrides["w0"] = {}
        with pytest.raises(TypeError):
            model.overrides["w1"]["b"] = Response()
        with pytest.raises(TypeError):
            model.crashes["a"] = CrashRegion(0.0, 1.0)
        assert isinstance(model.couplings, tuple)

    def test_model_copies_what_it_is_given(self):
        responses = {"a": Response(shape="linear-up", strength=1.0)}
        overrides = {"w1": {"a": Response(shape="linear-up", strength=3.0)}}
        model = SimulatorModel(base_rate=10.0, responses=responses, overrides=overrides)
        responses["a"] = Response()
        overrides["w1"]["a"] = Response()
        space = unit_space(["a"])
        config = Configuration({"a": 1.0})
        assert model.true_metric(space, config, "w0") == 20.0
        assert model.true_metric(space, config, "w1") == 40.0

    def test_replace_gives_new_values_and_a_fresh_table(self):
        model = self.model()
        space = unit_space(["a", "b"])
        config = Configuration({"a": 1.0})
        assert model.true_metric(space, config, "w0") == 20.0
        changed = dataclasses.replace(
            model, responses={"a": Response(shape="linear-up", strength=3.0)})
        assert changed.responses["a"].strength == 3.0
        assert changed.true_metric(space, config, "w0") == 40.0
        assert model.true_metric(space, config, "w0") == 20.0
        assert changed.couplings == model.couplings and changed.crashes == model.crashes
