"""Planted-model semantics: shapes, couplings, crash regions, overrides."""

import dataclasses
import math
import os
import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
import yaml

from helpers import (SMALL_NAMES, load_perfbench_workloads, one_workload, reference_true_metric,
                     shifted_small_model, small_model, unit_space)
from tuneforge.campaign import (DOCUMENT_FILE, INTERACTION_REPORT, OPTIMA_REPORT,
                                SENSITIVITY_REPORT, Campaign)
from tuneforge.errors import CrashError, ParameterError
from tuneforge.harness import mix_seed, run_experiment, run_plan, splitmix64
from tuneforge.simulator import (SHAPES, Coupling, CrashRegion, Response, SimulatorAdapter,
                                 SimulatorModel, standard_normal)
from tuneforge.space import (Configuration, Domain, ParameterSpace, ParameterSpec, WorkloadSpec,
                             dump_yaml)


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

    @pytest.mark.parametrize("fields, named", [
        ({"shape": "step", "low_mult": 0.0}, "step multipliers must be positive"),
        ({"shape": "step", "high_mult": -1.0}, "step multipliers must be positive"),
        ({"shape": "linear-up", "strength": -1.0}, "strength must keep multipliers positive"),
        ({"shape": "quadratic-peak", "strength": -2.0},
         "strength must keep multipliers positive")])
    def test_multipliers_that_are_not_positive_are_refused(self, fields, named):
        with pytest.raises(ParameterError, match=f"^{named}$"):
            Response(**fields)


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

    def test_a_long_parameter_name_is_saved_as_safedumpers_complex_key(self, tmp_path):
        # SafeDumper writes a key of more than 122 characters as a complex
        # key; libyaml's emitter writes one of up to 128 as a simple key
        name = "p" * 125
        model = SimulatorModel(base_rate=1.0, responses={name: Response("linear-up", 0.5)})
        path = tmp_path / "model.yaml"
        model.save(str(path))
        text = path.read_text(encoding="utf-8")
        assert text == yaml.dump(model.to_json(), Dumper=yaml.SafeDumper, sort_keys=False)
        assert f"\n  ? {name}\n  : shape: linear-up\n" in text
        assert SimulatorModel.load(str(path)) == model

    def test_a_configuration_in_two_crash_regions_crashes_alike_after_a_round_trip(
            self, tmp_path):
        # regions declared b then a: the saved file lists them sorted, and the
        # model checks them in that order whether it was built or loaded
        model = SimulatorModel(base_rate=1.0, crashes={"b": CrashRegion(0.0, 1.0),
                                                       "a": CrashRegion(0.0, 1.0)})
        path = tmp_path / "model.yaml"
        model.save(str(path))
        config = Configuration({"a": 0.5, "b": 0.5})
        diagnostics = []
        for m in (model, SimulatorModel.load(str(path))):
            with pytest.raises(CrashError) as e:
                m.true_metric(self.space, config, "w0")
            diagnostics.append(e.value.diagnostic)
        assert diagnostics == ["planted crash region hit: a=0.5"] * 2

    # Each level of the model file holds only the keys its constructor takes,
    # each holding a value of its field's type, which is not converted.
    @pytest.mark.parametrize("edit, named", [
        (lambda d: d.update(sigam=0.2), "'sigam'"),
        (lambda d: d["responses"]["a"].update(strenght=0.3), "'strenght'"),
        (lambda d: d["overrides"]["w1"]["b"].update(peek=0.5), "'peek'"),
        (lambda d: d["couplings"][0].update(strenght=0.1), "'strenght'"),
        (lambda d: d["crashes"]["a"].update(high=1.0), "'high'"),
        (lambda d: d.update(schema_version=2), "schema_version 2"),
        (lambda d: d.update(base_rate=True), "model: base_rate: True is not float"),
        (lambda d: d["responses"]["a"].update(strength="0.2"),
         "model: responses: a: strength: '0.2' is not float"),
        (lambda d: d["overrides"]["w1"]["b"].update(peak="0.5"),
         "model: overrides: w1: b: peak: '0.5' is not float"),
        (lambda d: d["couplings"][0].update(a=5), "model: couplings: 0: a: 5 is not str"),
        (lambda d: d["crashes"]["a"].update(lo="0.9"),
         "model: crashes: a: lo: '0.9' is not float"),
        (lambda d: d["responses"].update({1: {"shape": "flat"}}),
         "model: responses: keys ['a', 1] are not all str"),
    ], ids=["top-level", "response", "override", "coupling", "crash", "schema-version",
            "base-rate-true", "strength-string", "peak-string", "coupling-member-int",
            "crash-bound-string", "response-key-int"])
    def test_unknown_model_key_is_refused_naming_the_file(self, tmp_path, edit, named):
        d = SimulatorModel(base_rate=500.0, responses={"a": Response("linear-up", 0.3)},
                           couplings=[Coupling("a", "b", 0.2)],
                           crashes={"a": CrashRegion(0.9, 1.0)},
                           overrides={"w1": {"b": Response("quadratic-peak", 0.1)}}).to_json()
        edit(d)
        path = tmp_path / "model.yaml"
        path.write_text(dump_yaml(d))
        with pytest.raises(ParameterError) as e:
            SimulatorModel.load(str(path))
        assert str(e.value).startswith(f"{path}: ") and named in str(e.value)

    def test_missing_model_keys_take_their_documented_defaults(self, tmp_path):
        path = tmp_path / "model.yaml"
        path.write_text("base_rate: 10\nresponses: {a: {shape: step}}\n")
        assert SimulatorModel.load(str(path)) == SimulatorModel(
            base_rate=10.0, responses={"a": Response(shape="step")})

    def test_test_and_perfbench_models_load_to_equal_objects(self, tmp_path):
        bench = load_perfbench_workloads()
        models = [small_model(), shifted_small_model(), bench.planted_116().model,
                  bench.planted_116().shifted, bench.screen_k30().model]
        for i, model in enumerate(models):
            path = str(tmp_path / f"model{i}.yaml")
            model.save(path)
            loaded = SimulatorModel.load(path)
            assert loaded == model and loaded.to_json() == model.to_json()

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
# The noise contract: metric = truth * exp(sigma * z), z one Box-Muller draw
# from the first two outputs of a splitmix64 stream started at the run seed.
# ---------------------------------------------------------------------------

def reference_z(seed):
    """z written out from the contract, independently of the library."""
    mask = (1 << 64) - 1
    state, out = seed & mask, []
    for _ in range(2):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    u1 = ((out[0] >> 11) + 1) / 2.0 ** 53
    u2 = (out[1] >> 11) / 2.0 ** 53
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def moments(xs):
    n = len(xs)
    mean = sum(xs) / n
    m2 = sum((x - mean) ** 2 for x in xs) / n
    m3 = sum((x - mean) ** 3 for x in xs) / n
    m4 = sum((x - mean) ** 4 for x in xs) / n
    return mean, m2, m3 / m2 ** 1.5, m4 / m2 ** 2 - 3.0


class TestNoiseContract:
    CONFIGS = 25_000
    REPETITIONS = 4

    @pytest.fixture(scope="class")
    def draws(self):
        """z for 1e5 run seeds: 25k configurations, 4 repetitions each."""
        return [[standard_normal(mix_seed(1, Configuration({"a": i / self.CONFIGS}), "w0", r))
                 for r in range(self.REPETITIONS)] for i in range(self.CONFIGS)]

    def test_z_has_standard_normal_moments(self, draws):
        # Standard errors at n = 1e5: mean 0.0032, variance 0.0045, skew 0.0077,
        # excess kurtosis 0.0155. Each tolerance is more than six of them.
        mean, variance, skew, kurtosis = moments([z for row in draws for z in row])
        assert abs(mean) < 0.02
        assert abs(variance - 1.0) < 0.03
        assert abs(skew) < 0.05
        assert abs(kurtosis) < 0.1

    def test_z_is_uncorrelated_across_adjacent_repetitions(self, draws):
        # 75k adjacent pairs: the correlation's standard error is 0.0037.
        pairs = [(row[r], row[r + 1]) for row in draws for r in range(self.REPETITIONS - 1)]
        xs, ys = zip(*pairs)
        mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
        cov = sum((x - mx) * (y - my) for x, y in pairs)
        var_x = sum((x - mx) ** 2 for x in xs)
        var_y = sum((y - my) ** 2 for y in ys)
        assert abs(cov / math.sqrt(var_x * var_y)) < 0.02

    @staticmethod
    def docstring_z(s):
        """The SimulatorAdapter docstring's formula, line by line."""
        a, b = splitmix64(s), splitmix64((s + 0x9E3779B97F4A7C15) % 2**64)
        u1 = ((a >> 11) + 1) / 2**53
        u2 = (b >> 11) / 2**53
        return math.sqrt(-2 * math.log(u1)) * math.cos(2 * math.pi * u2)

    def test_draw_is_the_written_contract(self):
        gamma = 0x9E3779B97F4A7C15
        # (s + 2 gamma) mod 2^64 passes 0 between wrap - 1 and wrap, where the
        # second stream's start wraps; (s + gamma) does so at wrap_a.
        wrap, wrap_a = (-2 * gamma) % 2**64, (-gamma) % 2**64
        assert (wrap - 1 + 2 * gamma) % 2**64 == 2**64 - 1
        assert (wrap + 2 * gamma) % 2**64 == 0 == (wrap_a + gamma) % 2**64
        rng = random.Random(18)
        for seed in [0, 1, (1 << 64) - 2, (1 << 64) - 1, wrap - 2, wrap - 1, wrap, wrap + 1,
                     wrap_a - 1, wrap_a] + [rng.getrandbits(64) for _ in range(1000)]:
            assert standard_normal(seed).hex() == reference_z(seed).hex() == \
                self.docstring_z(seed).hex()

    def test_pinned_values(self):
        # Changing the draw changes every simulated artifact; these values say so.
        assert standard_normal(0).hex() == "-0x1.cf9fb99cfab8fp-2"
        space = unit_space(["a", "b"])
        adapter = SimulatorAdapter(space, SimulatorModel(
            base_rate=1000.0, sigma=0.05, responses={"a": Response(shape="linear-up",
                                                                   strength=0.2)}))
        config = Configuration({"a": 0.5})
        seed = mix_seed(7, config, "w0", 1)
        assert seed == 12662785167615766392
        got = adapter.measure(config, one_workload()[0], seed)
        assert got.hex() == "0x1.0f4c38dce9ff5p+10"
        assert got == 1100.0 * math.exp(0.05 * reference_z(seed))

    def test_same_run_gives_a_bit_identical_metric(self):
        space = unit_space(SMALL_NAMES)
        adapter = SimulatorAdapter(space, small_model(sigma=0.05))
        w = one_workload()[0]
        rng = random.Random(3)
        for _ in range(200):
            config = Configuration({n: rng.random() for n in rng.sample(SMALL_NAMES, 3)})
            seed = rng.getrandbits(64)
            first = adapter.measure(config, w, seed).hex()
            assert SimulatorAdapter(space, small_model(sigma=0.05)).measure(
                config, w, seed).hex() == first
            assert adapter.measure(config, w, seed).hex() == first

    def test_campaign_artifacts_equal_at_parallelism_1_and_8(self, tmp_path):
        space = unit_space(SMALL_NAMES)
        workloads = one_workload()
        artifacts = []
        for parallelism in (1, 8):
            adapter = SimulatorAdapter(space, small_model())
            campaign = Campaign(str(tmp_path / f"p{parallelism}"), space, workloads, seed=42)
            campaign.profile(adapter, levels_per_param=5, repetitions=3, tau_s=0.05,
                             parallelism=parallelism)
            campaign.screen(adapter, parallelism=parallelism)
            campaign.joint(adapter, repetitions=3, parallelism=parallelism)
            campaign.compile()
            contents = {}
            for name in (SENSITIVITY_REPORT, INTERACTION_REPORT, OPTIMA_REPORT, DOCUMENT_FILE):
                with open(campaign.path(name), "rb") as fh:
                    contents[name] = fh.read()
            artifacts.append(contents)
        assert artifacts[0] == artifacts[1]


class TestRuntimeDependencies:
    def test_importing_tuneforge_does_not_import_numpy(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", "import sys, tuneforge; print('numpy' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


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


def measured_outcomes(adapter, config):
    """``outcome`` of the adapter's measure on every workload, twice over with
    the workloads interleaved: each cell fresh, then as the model remembers it."""
    return [outcome(adapter.measure, config, WorkloadSpec(id=w), seed)
            for seed in range(2) for w in WORKLOAD_IDS]


class TestCompiledTable:
    def test_matches_reference_on_random_models(self):
        rng = random.Random(12)
        evaluations = errors = 0
        for _ in range(200):
            space = random_space(rng)
            model = random_model(rng, space)
            assert model.sigma == 0.0  # the adapter measures the truth itself
            adapter = SimulatorAdapter(space, model)
            for _ in range(12):
                config = random_config(rng, space)
                wants = []
                for w in WORKLOAD_IDS:
                    want = outcome(reference_true_metric, model, space, config, w)
                    got = outcome(model.true_metric, space, config, w)
                    assert got == want, (model, space, config, w)
                    wants.append(want)
                    evaluations += 1
                    errors += isinstance(want, tuple)
                assert measured_outcomes(adapter, config) == wants * 2, (model, space, config)
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
            adapter = SimulatorAdapter(space, model)
            for _ in range(25):
                config = random_config(rng, space)
                wants = []
                for w in WORKLOAD_IDS:
                    want = outcome(reference_true_metric, model, space, config, w)
                    assert outcome(model.true_metric, space, config, w) == want
                    wants.append(want)
                    evaluations += 1
                    errors += isinstance(want, tuple)
                assert measured_outcomes(adapter, config) == wants * 2
        assert errors > 0 and evaluations - errors > 150  # metrics and errors both compared

    def test_one_assignment_normalizes_once_and_builds_no_response(self, monkeypatch):
        names = [f"p{i:02d}" for i in range(20)]
        space = unit_space(names, default=0.3)
        model = SimulatorModel(
            base_rate=100.0, responses={"p03": Response(shape="linear-up", strength=0.5)},
            couplings=[Coupling("p03", "p07", 0.2)],
            overrides={"w0": {"p07": Response(shape="linear-down", strength=0.1)}})
        config = Configuration({"p03": 0.8})
        calls = {"normalize": 0, "response": 0}
        normalize, post_init = Domain.normalize, Response.__post_init__

        def counting_normalize(self, value):
            calls["normalize"] += 1
            return normalize(self, value)

        def counting_post_init(self):
            calls["response"] += 1
            post_init(self)

        # patched before the table is compiled, as the table keeps each
        # domain's normalize bound
        monkeypatch.setattr(Domain, "normalize", counting_normalize)
        monkeypatch.setattr(Response, "__post_init__", counting_post_init)
        model.true_metric(space, config, "w0")  # compiles the table
        assert calls["normalize"] == len(names) + 1  # every default, then p03
        calls.update(normalize=0, response=0)
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


# ---------------------------------------------------------------------------
# The noise-free truth is evaluated once per cell (configuration, workload).
# ---------------------------------------------------------------------------

def cell_model(**kwargs):
    return SimulatorModel(
        base_rate=100.0, sigma=0.05,
        responses={"a": Response(shape="linear-up", strength=0.5),
                   "b": Response(shape="quadratic-peak", strength=0.3, peak=0.4)},
        couplings=[Coupling("a", "b", 0.7)],
        crashes={"c": CrashRegion(0.5, 1.0)}, **kwargs)


def measured(adapter, config, workload, seed):
    """The metric as hex, or the crash diagnostic."""
    try:
        return adapter.measure(config, workload, seed).hex()
    except CrashError as e:
        return e.diagnostic


def strip(records):
    return [(m.config.canonical(), m.workload_id, m.repetition, m.metric_value, m.outcome,
             m.diagnostic) for m in records]


class TestTruthOncePerCell:
    def setup_method(self):
        self.space = unit_space(["a", "b", "c"])
        self.w = one_workload()[0]

    @staticmethod
    def count_truths(monkeypatch):
        calls = []
        original = SimulatorModel.true_metric

        def counting(model, space, config, workload_id):
            calls.append((config.canonical(), workload_id))
            return original(model, space, config, workload_id)

        monkeypatch.setattr(SimulatorModel, "true_metric", counting)
        return calls

    def test_a_plan_evaluates_each_cell_once(self, monkeypatch):
        workloads = [WorkloadSpec(id="w0"), WorkloadSpec(id="w1")]
        configs = [Configuration({"a": i / 4.0, "b": 1.0 - i / 4.0}) for i in range(5)]
        configs.append(Configuration({"c": 0.75}))  # a crash cell
        plan = [(c, w, rep) for c in configs for w in workloads for rep in range(3)]
        calls = self.count_truths(monkeypatch)
        records = run_plan(SimulatorAdapter(self.space, cell_model()), plan, seed=3)
        assert calls == [(c.canonical(), w.id) for c in configs for w in workloads]
        monkeypatch.undo()
        fresh = [run_experiment(SimulatorAdapter(self.space, cell_model()), c, w, rep, 3)
                 for c, w, rep in plan]
        assert strip(records) == strip(fresh)
        assert {m.outcome for m in records} == {"ok", "crash"}

    def test_interleaved_and_crash_cells_match_a_fresh_adapter(self):
        a, b = Configuration({"a": 0.2}), Configuration({"b": 0.9})
        crash = Configuration({"c": 0.75})
        sequence = [a, b, a, crash, crash, a, crash, b, b]
        adapter = SimulatorAdapter(self.space, cell_model())
        got = [measured(adapter, c, self.w, seed) for seed, c in enumerate(sequence)]
        assert got == [measured(SimulatorAdapter(self.space, cell_model()), c, self.w, seed)
                       for seed, c in enumerate(sequence)]
        assert got[3] == got[4] == got[6] == "planted crash region hit: c=0.75"
        assert len(set(got)) == len(got) - 2  # every ok run has its own draw

    def test_equal_configurations_built_separately_share_one_evaluation(self, monkeypatch):
        calls = self.count_truths(monkeypatch)
        adapter = SimulatorAdapter(self.space, cell_model())
        first = adapter.measure(Configuration({"a": 0.5, "b": 0.1}), self.w, 1)
        again = adapter.measure(Configuration({"b": 0.1, "a": 0.5}), self.w, 1)
        assert first == again and calls == [('{"a": 0.5, "b": 0.1}', "w0")]

    def test_rebinding_the_model_or_the_space_changes_the_result(self):
        adapter = SimulatorAdapter(self.space, cell_model())
        config = Configuration({"a": 0.5})
        before = adapter.measure(config, self.w, 4)
        adapter.model = dataclasses.replace(cell_model(), base_rate=200.0)
        doubled = adapter.measure(config, self.w, 4)
        assert doubled == SimulatorAdapter(self.space, adapter.model).measure(config, self.w, 4)
        assert doubled != before
        adapter.model = cell_model(overrides={"w0": {"a": Response()}})
        assert adapter.measure(config, self.w, 4) != before
        adapter.model = dataclasses.replace(cell_model(), crashes={"a": CrashRegion(0.4, 0.6)})
        assert measured(adapter, config, self.w, 4) == "planted crash region hit: a=0.5"
        adapter.model = cell_model()
        assert adapter.measure(config, self.w, 4) == before
        adapter.space = unit_space(["a", "b", "c"], default=0.3)  # b's default moves
        assert adapter.measure(config, self.w, 4) == \
            SimulatorAdapter(adapter.space, cell_model()).measure(config, self.w, 4) != before

    def test_a_parallel_plan_gives_the_serial_records(self):
        # cells alternate between consecutive entries, and threads switch often
        configs = [Configuration({"a": i / 11.0, "c": (i % 3) * 0.3}) for i in range(12)]
        workloads = [WorkloadSpec(id="w0"), WorkloadSpec(id="w1")]
        plan = [(c, w, rep) for c in configs for w in workloads for rep in range(3)]
        plan += [(c, w, rep) for rep in (3, 4) for c in configs for w in workloads]
        adapter = SimulatorAdapter(self.space, cell_model())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            parallel = run_plan(adapter, plan, parallelism=8, seed=12)
            again = run_plan(adapter, plan, parallelism=8, seed=12)
        finally:
            sys.setswitchinterval(interval)
        serial = run_plan(SimulatorAdapter(self.space, cell_model()), plan, seed=12)
        assert strip(parallel) == strip(again) == strip(serial)
        assert {m.outcome for m in serial} == {"ok", "crash"}
