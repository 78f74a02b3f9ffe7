"""Tests for the knob registry and SparkConf."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sparksim.config import (
    KNOB_BY_NAME,
    KNOB_NAMES,
    KNOB_SPECS,
    NUM_KNOBS,
    KnobSpec,
    SparkConf,
    canonical_matrix,
)


class TestKnobRegistry:
    def test_sixteen_knobs(self):
        # Paper Table IV: 16 performance-aware knobs.
        assert NUM_KNOBS == 16

    def test_names_are_spark_properties(self):
        for name in KNOB_NAMES:
            assert name.startswith("spark.")

    def test_defaults_within_range(self):
        for spec in KNOB_SPECS:
            assert spec.validate(spec.default) == spec.default or spec.kind == "bool"

    def test_registry_lookup(self):
        spec = KNOB_BY_NAME["spark.executor.cores"]
        assert spec.kind == "int"
        assert spec.low >= 1


class TestKnobSpec:
    def test_validate_rejects_out_of_range(self):
        spec = KNOB_BY_NAME["spark.executor.memory"]
        with pytest.raises(ValueError):
            spec.validate(spec.high + 1)

    def test_validate_rounds_ints(self):
        spec = KNOB_BY_NAME["spark.executor.cores"]
        assert spec.validate(3.4) == 3

    def test_clip(self):
        spec = KNOB_BY_NAME["spark.executor.cores"]
        assert spec.clip(-100) == spec.low
        assert spec.clip(1e9) == spec.high

    def test_bool_roundtrip(self):
        spec = KNOB_BY_NAME["spark.shuffle.compress"]
        assert spec.validate(0) is False
        assert spec.validate(1) is True

    def test_unit_roundtrip(self):
        spec = KNOB_BY_NAME["spark.memory.fraction"]
        for v in (spec.low, spec.high, 0.5 * (spec.low + spec.high)):
            assert spec.from_unit(spec.to_unit(v)) == pytest.approx(v, abs=1e-9)


class TestSparkConf:
    def test_default_values(self):
        conf = SparkConf()
        assert conf["spark.executor.cores"] == 1
        assert conf["spark.shuffle.compress"] is True

    def test_unknown_knob_rejected(self):
        with pytest.raises(KeyError):
            SparkConf({"spark.nonsense": 1})

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            SparkConf({"spark.executor.cores": 99})

    def test_with_updates_does_not_mutate(self):
        base = SparkConf()
        other = base.with_updates({"spark.executor.cores": 4})
        assert base["spark.executor.cores"] == 1
        assert other["spark.executor.cores"] == 4

    def test_vector_roundtrip(self):
        conf = SparkConf({"spark.executor.cores": 7, "spark.memory.fraction": 0.7})
        again = SparkConf.from_vector(conf.to_vector())
        assert again == conf

    def test_hash_equality(self):
        a = SparkConf({"spark.executor.cores": 4})
        b = SparkConf({"spark.executor.cores": 4})
        assert a == b and hash(a) == hash(b)
        assert a != SparkConf()

    def test_vector_shape_checked(self):
        with pytest.raises(ValueError):
            SparkConf.from_vector(np.zeros(5))

    def test_from_vector_clips_bools_before_rounding(self):
        name = "spark.shuffle.compress"
        col = KNOB_NAMES.index(name)
        vec = SparkConf().to_vector()
        vec[col] = -0.7
        assert SparkConf.from_vector(vec)[name] is False
        vec[col] = 1.7
        assert SparkConf.from_vector(vec)[name] is True
        assert KNOB_BY_NAME[name].clip(-0.7) is False

    def test_nan_row_raises(self):
        vec = SparkConf().to_vector()
        vec[KNOB_NAMES.index("spark.memory.fraction")] = np.nan
        with pytest.raises(ValueError, match="spark.memory.fraction"):
            SparkConf.from_vector(vec)
        with pytest.raises(ValueError):
            SparkConf.from_matrix(np.stack([SparkConf().to_vector(), vec]))

    def test_from_matrix_shape_checked(self):
        with pytest.raises(ValueError):
            SparkConf.from_matrix(np.zeros(NUM_KNOBS))
        assert SparkConf.from_matrix(np.zeros((0, NUM_KNOBS))) == []

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.lists(st.floats(allow_nan=False), min_size=NUM_KNOBS, max_size=NUM_KNOBS),
        min_size=1, max_size=5,
    ))
    def test_canonical_matrix_is_idempotent_to_vector_of_from_matrix(self, rows):
        canonical = canonical_matrix(np.array(rows))
        np.testing.assert_array_equal(canonical_matrix(canonical), canonical)
        stacked = np.stack([c.to_vector() for c in SparkConf.from_matrix(np.array(rows))])
        assert [v.hex() for v in canonical.ravel().tolist()] == [
            v.hex() for v in stacked.ravel().tolist()]

    def test_canonical_matrix_rejects_nan(self):
        rows = np.stack([SparkConf().to_vector()] * 2)
        rows[1, KNOB_NAMES.index("spark.executor.cores")] = np.nan
        with pytest.raises(ValueError, match=r"spark.executor.cores=nan in row 1"):
            canonical_matrix(rows)
        with pytest.raises(ValueError):
            canonical_matrix(np.zeros(NUM_KNOBS))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(
        st.lists(st.floats(-1e4, 1e4), min_size=NUM_KNOBS, max_size=NUM_KNOBS),
        min_size=1, max_size=5,
    ))
    def test_from_matrix_matches_per_knob_clip(self, rows):
        """Each row equals a validated conf of per-knob clips, types included."""
        confs = SparkConf.from_matrix(np.array(rows))
        for row, conf in zip(rows, confs):
            expected = SparkConf({s.name: s.clip(v) for s, v in zip(KNOB_SPECS, row)})
            assert conf == expected
            assert [type(conf[n]) for n in KNOB_NAMES] == [
                type(expected[n]) for n in KNOB_NAMES]
            assert list(conf.as_dict()) == list(KNOB_NAMES)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(0, 1), min_size=NUM_KNOBS, max_size=NUM_KNOBS))
    def test_from_unit_vector_always_valid(self, unit):
        conf = SparkConf.from_unit_vector(np.array(unit))
        for spec in KNOB_SPECS:
            value = conf[spec.name]
            if spec.kind != "bool":
                assert spec.low <= value <= spec.high

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_random_conf_valid_and_deterministic(self, seed):
        rng1 = np.random.default_rng(seed)
        rng2 = np.random.default_rng(seed)
        assert SparkConf.random(rng1) == SparkConf.random(rng2)
