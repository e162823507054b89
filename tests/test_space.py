"""Parameter space, configuration validation, and level grids."""

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from tuneforge.errors import ParameterError
from tuneforge.space import (Configuration, Domain, ParameterSpace, ParameterSpec,
                             WorkloadSpec, closest_index, dump_space, level_grid, load_space,
                             load_workloads, validate_configuration)


def spec_int(name="p", lo=1, hi=10, default=5):
    return ParameterSpec(name=name, domain=Domain("integer", lo, hi), default=default)


def spec_cont(name="p", lo=0.0, hi=1.0, default=0.5, scale="linear"):
    return ParameterSpec(name=name, domain=Domain("continuous", lo, hi),
                         default=default, scale=scale)


class TestDomains:
    def test_bounds_must_be_ordered(self):
        with pytest.raises(ParameterError):
            Domain("continuous", 2.0, 1.0)
        with pytest.raises(ParameterError):
            Domain("integer", 5, 5)

    def test_enum_needs_unique_values(self):
        with pytest.raises(ParameterError):
            Domain("enum", values=("a", "a"))
        with pytest.raises(ParameterError):
            Domain("enum", values=())

    def test_boolean_is_ordered_false_true(self):
        d = Domain("boolean")
        assert d.ordered_values == (False, True)
        assert d.ordinal(True) == 1

    def test_default_must_lie_in_domain(self):
        with pytest.raises(ParameterError):
            spec_int(default=11)
        with pytest.raises(ParameterError):
            ParameterSpec(name="m", domain=Domain("enum", values=("a", "b")), default="c")

    def test_normalize_spans_unit_interval(self):
        d = Domain("integer", 0, 4)
        assert d.normalize(0) == 0.0
        assert d.normalize(4) == 1.0
        assert d.normalize(2) == 0.5

    def test_log_scale_requires_positive_lo(self):
        with pytest.raises(ParameterError):
            spec_cont(lo=0.0, hi=8.0, default=1.0, scale="log")


class TestValidateConfiguration:
    def setup_method(self):
        self.space = ParameterSpace((spec_int(),))

    def test_in_range_ok(self):
        result = validate_configuration(self.space, Configuration({"p": 7}))
        assert result.ok and result.violations == []

    def test_out_of_range_names_parameter_and_bound(self):
        result = validate_configuration(self.space, Configuration({"p": 11}))
        assert not result.ok
        assert "p" in result.violations[0] and "[1, 10]" in result.violations[0]

    def test_unknown_parameter_is_a_violation_not_a_crash(self):
        result = validate_configuration(self.space, Configuration({"q": 3}))
        assert not result.ok
        assert result.violations == ["unknown parameter q"]

    def test_defaults_always_validate(self):
        assert validate_configuration(self.space, self.space.defaults()).ok


class TestLevelGrid:
    def test_continuous_uniform_three(self):
        assert level_grid(spec_cont(lo=0.0, hi=1.0, default=0.0), 3) == [0.0, 0.5, 1.0]

    def test_integer_dedups_to_cardinality(self):
        assert level_grid(spec_int(lo=1, hi=4, default=1), 9) == [1, 2, 3, 4]

    def test_continuous_uniform_five(self):
        # lo + k*(hi-lo)/(L-1) over [1, 9]
        assert level_grid(spec_cont(lo=1.0, hi=9.0, default=1.0), 5) == [1.0, 3.0, 5.0, 7.0, 9.0]

    def test_count_bounds_enforced(self):
        with pytest.raises(ParameterError):
            level_grid(spec_cont(), 1)
        with pytest.raises(ParameterError):
            level_grid(spec_cont(), 10)

    def test_enum_count_cannot_exceed_cardinality(self):
        spec = ParameterSpec(name="m", domain=Domain("enum", values=("a", "b", "c")), default="a")
        with pytest.raises(ParameterError):
            level_grid(spec, 4)
        assert level_grid(spec, 3) == ["a", "b", "c"]
        assert level_grid(spec, 2) == ["a", "c"]

    def test_log_scale_is_geometric(self):
        grid = level_grid(spec_cont(lo=1.0, hi=64.0, default=1.0, scale="log"), 4)
        assert grid == pytest.approx([1.0, 4.0, 16.0, 64.0])

    @given(count=st.integers(2, 9), lo=st.floats(-50, 50), width=st.floats(0.5, 100))
    @settings(max_examples=60)
    def test_grid_monotone_and_deterministic(self, count, lo, width):
        spec = spec_cont(lo=lo, hi=lo + width, default=lo)
        grid = level_grid(spec, count)
        assert grid == level_grid(spec, count)
        assert all(a < b for a, b in zip(grid, grid[1:]))
        assert grid[0] == lo and grid[-1] == lo + width

    @given(count=st.integers(2, 9), lo=st.integers(-100, 100), width=st.integers(1, 200))
    @settings(max_examples=60)
    def test_integer_grid_keeps_endpoints_and_at_least_two(self, count, lo, width):
        spec = spec_int(lo=lo, hi=lo + width, default=lo)
        grid = level_grid(spec, count)
        assert len(grid) >= 2
        assert grid[0] == lo and grid[-1] == lo + width
        assert all(a < b for a, b in zip(grid, grid[1:]))


class TestClosestIndex:
    def test_numeric_distance_first_minimum_wins(self):
        spec = spec_cont()
        assert closest_index(spec, [0.0, 0.5, 1.0], 0.5) == 1
        assert closest_index(spec, [0.0, 0.5, 1.0], 0.7) == 1
        assert closest_index(spec, [0.0, 0.5, 1.0], 0.25) == 0  # a tie

    def test_enum_distance_is_ordinal(self):
        spec = ParameterSpec(name="m", domain=Domain("enum", values=("a", "b", "c", "d")),
                             default="a")
        assert closest_index(spec, ["a", "d"], "c") == 1
        assert closest_index(spec, ["a", "c"], "b") == 0  # a tie

    @pytest.mark.parametrize("value", ["fast", None])
    def test_value_not_comparable_is_a_parameter_error(self, value):
        with pytest.raises(ParameterError, match="not comparable"):
            closest_index(spec_cont(), [0.0, 1.0], value)
        enum = ParameterSpec(name="m", domain=Domain("enum", values=("a", "b")), default="a")
        with pytest.raises(ParameterError, match="not comparable"):
            closest_index(enum, ["a", "b"], value)


class TestSerialization:
    def test_space_yaml_round_trip(self, tmp_path):
        space = ParameterSpace((
            spec_int("buf", 16, 8192, 128),
            spec_cont("ratio", 0.0, 1.0, 0.5),
            ParameterSpec(name="mode", domain=Domain("enum", values=("a", "b", "c")),
                          default="b", unit="", restart_required=True),
            ParameterSpec(name="flag", domain=Domain("boolean"), default=False),
        ))
        workloads = [WorkloadSpec(id="oltp", metric_name="tps", direction="maximize"),
                     WorkloadSpec(id="olap", metric_name="latency", direction="minimize")]
        path = tmp_path / "space.yaml"
        path.write_text(dump_space(space, workloads))
        loaded = load_space(str(path))
        assert loaded.to_json() == space.to_json()
        assert [w.to_json() for w in load_workloads(str(path))] == \
            [w.to_json() for w in workloads]

    def test_duplicate_names_rejected(self):
        with pytest.raises(ParameterError):
            ParameterSpace((spec_int("p"), spec_cont("p")))

    def test_schema_version_checked(self, tmp_path):
        path = tmp_path / "space.yaml"
        path.write_text("schema_version: 99\nparameters: []\n")
        with pytest.raises(ParameterError):
            load_space(str(path))


CONTINUOUS = {"type": "continuous", "lo": 1.0, "hi": 10.0}

# Declaration entries that once loaded with a wrong meaning or crashed with a
# traceback, each with the key or value a ParameterError must name.
DECLARATION_PROBES = {
    "workload-key-misspelled": ("workloads", {"id": "w0", "directon": "minimize"}, "directon"),
    "workload-without-id": ("workloads", {"metric_name": "latency"}, "id"),
    "parameter-key-misspelled": ("parameters", {"name": "p", "domain": CONTINUOUS, "default": 1.0,
                                                "scael": "log"}, "scael"),
    "parameter-without-name": ("parameters", {"domain": CONTINUOUS, "default": 1.0}, "name"),
    "domain-key-of-another-kind": ("parameters", {"name": "p", "default": 1.0,
                                                  "domain": {**CONTINUOUS, "values": [1.0]}},
                                   "values"),
    "integer-bound-not-a-number": ("parameters", {"name": "p", "default": 1, "domain": {
        "type": "integer", "lo": "abc", "hi": 10}}, "abc"),
}


class TestMalformedDeclaration:
    @pytest.mark.parametrize("section, entry, named", DECLARATION_PROBES.values(),
                             ids=DECLARATION_PROBES.keys())
    def test_malformed_declaration_is_a_parameter_error(self, tmp_path, section, entry, named):
        path = tmp_path / "space.yaml"
        path.write_text(yaml.safe_dump({"schema_version": 1, section: [entry]}))
        load = load_space if section == "parameters" else load_workloads
        with pytest.raises(ParameterError, match=f"'{named}'"):
            load(str(path))


class TestConfiguration:
    def test_canonical_is_order_free(self):
        a = Configuration({"x": 1, "y": 2})
        b = Configuration({"y": 2, "x": 1})
        assert a == b and a.config_hash() == b.config_hash()
