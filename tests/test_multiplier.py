"""Unit tests for the functional multiplier (repro.core.multiplier)."""

from __future__ import annotations

import dataclasses
import functools
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.approximation import (
    ApproxSpec,
    approximate_final_add,
    mask_multiplier,
)
from repro.core.config import APIMConfig
from repro.core.cost import Cost
from repro.core.multiplier import APIMMultiplier, popcount
from repro.core.timing import cost_multiply
from repro.core.wallace import reduce_partial_products_vectorised
from repro.errors import ConfigurationError
from repro.runtime.campaign import run_point
from repro.runtime.comparison import ComparisonHarness
from repro.workloads import workload_by_name

RUN_POINT_GOLDEN = os.path.join(
    os.path.dirname(__file__), "data", "run_point_golden.json"
)


@pytest.fixture
def mult32():
    return APIMMultiplier(APIMConfig(word_bits=32))


class TestPopcount:
    def test_known_values(self):
        values = np.array([0, 1, 3, 255, 2**32 - 1], dtype=np.uint64)
        assert popcount(values).tolist() == [0, 1, 2, 8, 32]


class TestExactMultiply:
    def test_matches_numpy_product(self, mult32, rng):
        a = rng.integers(0, 1 << 32, 5000, dtype=np.uint64)
        b = rng.integers(0, 1 << 32, 5000, dtype=np.uint64)
        result = mult32.multiply(a, b)
        assert np.array_equal(result.products, a * b)

    def test_full_range_corners(self, mult32):
        top = np.uint64(2**32 - 1)
        result = mult32.multiply(top, top)
        assert int(result.products) == (2**32 - 1) ** 2

    def test_zero_operands(self, mult32):
        assert int(mult32.multiply(0, 12345).products) == 0
        assert int(mult32.multiply(12345, 0).products) == 0

    def test_scalar_matches_vector(self, multiplier8):
        for a, b in [(3, 7), (255, 255), (128, 64), (0, 9)]:
            scalar, _ = multiplier8.multiply_scalar(a, b)
            vector = int(multiplier8.multiply(a, b).products)
            assert scalar == vector == a * b

    def test_exact_reference_helper(self, mult32, rng):
        a = rng.integers(0, 1 << 32, 100, dtype=np.uint64)
        b = rng.integers(0, 1 << 32, 100, dtype=np.uint64)
        assert np.array_equal(mult32.exact_reference(a, b), a * b)


class TestApproximateMultiply:
    def test_relax_error_monotone(self, mult32, rng):
        a = rng.integers(1, 1 << 32, 4000, dtype=np.uint64)
        b = rng.integers(1, 1 << 32, 4000, dtype=np.uint64)
        ref = (a * b).astype(np.float64)
        errors = []
        for m in (0, 8, 16, 24, 32, 48):
            out = mult32.multiply(a, b, ApproxSpec.last_stage(m)).products
            errors.append(
                float(np.mean(np.abs(out.astype(np.float64) - ref) / ref))
            )
        assert errors[0] == 0.0
        assert errors == sorted(errors)

    def test_relax_error_bounded_by_field(self, mult32, rng):
        a = rng.integers(0, 1 << 32, 2000, dtype=np.uint64)
        b = rng.integers(0, 1 << 32, 2000, dtype=np.uint64)
        for m in (8, 16, 32):
            out = mult32.multiply(a, b, ApproxSpec.last_stage(m)).products
            exact = a * b
            # Exact integer |difference| — float64 cannot represent 2^63-
            # scale products and would fabricate errors of ~2^11.
            diff = np.where(out >= exact, out - exact, exact - out)
            assert np.all(diff < np.uint64(1) << np.uint64(m))

    def test_masking_matches_masked_exact_product(self, mult32, rng):
        a = rng.integers(0, 1 << 32, 2000, dtype=np.uint64)
        b = rng.integers(0, 1 << 32, 2000, dtype=np.uint64)
        for f in (4, 16, 31):
            out = mult32.multiply(a, b, ApproxSpec.first_stage(f)).products
            mask = np.uint64((1 << 32) - (1 << f))
            assert np.array_equal(out, a * (b & mask))

    def test_trivial_popcount_bypasses_final_stage(self, multiplier8):
        # Multipliers with <= 1 set bit never enter the final stage, so the
        # relax approximation must not corrupt them.
        spec = ApproxSpec.last_stage(8)
        for b in (0, 1, 2, 64, 128):
            product, _ = multiplier8.multiply_scalar(200, b, spec)
            assert product == 200 * b
        a = np.full(5, 200, dtype=np.uint64)
        b = np.array([0, 1, 2, 64, 128], dtype=np.uint64)
        out = multiplier8.multiply(a, b, spec).products
        assert np.array_equal(out, a * b)

    def test_scalar_and_vector_error_statistics_agree(self, multiplier8, rng):
        # Zero-row grouping differs between the paths, so individual values
        # may differ; the error *distribution* must not (tolerance: 3 sigma).
        a = rng.integers(0, 256, 4000, dtype=np.uint64)
        b = rng.integers(0, 256, 4000, dtype=np.uint64)
        spec = ApproxSpec.last_stage(8)
        vec = multiplier8.multiply(a, b, spec).products
        scal = np.array(
            [
                multiplier8.multiply_scalar(int(x), int(y), spec)[0]
                for x, y in zip(a, b)
            ],
            dtype=np.uint64,
        )
        ref = (a * b).astype(np.float64)
        err_vec = np.abs(vec.astype(np.float64) - ref).mean()
        err_scal = np.abs(scal.astype(np.float64) - ref).mean()
        # Same order of magnitude: the grouping difference shifts which
        # carry patterns occur, but both stay within the 2**m error field.
        assert err_vec == pytest.approx(err_scal, rel=0.6)
        assert np.abs(vec.astype(np.float64) - ref).max() < 2.0**8
        assert np.abs(scal.astype(np.float64) - ref).max() < 2.0**8


class TestMultiplyCostAccounting:
    def test_array_cost_equals_sum_of_scalar_costs(self, multiplier8, rng):
        a = rng.integers(0, 256, 200, dtype=np.uint64)
        b = rng.integers(0, 256, 200, dtype=np.uint64)
        array_cost = multiplier8.multiply(a, b).cost
        total_cycles = sum(
            cost_multiply(8, bin(int(x)).count("1")).cycles for x in b
        )
        assert array_cost.cycles == total_cycles

    def test_cost_depends_on_multiplier_not_multiplicand(self, multiplier8):
        c1 = multiplier8.multiply(255, 15).cost
        c2 = multiplier8.multiply(1, 15).cost
        assert c1.cycles == c2.cycles

    def test_masking_reduces_cost(self, mult32, rng):
        a = rng.integers(0, 1 << 32, 500, dtype=np.uint64)
        b = rng.integers(0, 1 << 32, 500, dtype=np.uint64)
        exact = mult32.multiply(a, b).cost
        masked = mult32.multiply(a, b, ApproxSpec.first_stage(16)).cost
        assert masked.cycles < exact.cycles
        assert masked.nor_ops < exact.nor_ops

    def test_relax_reduces_cost(self, mult32, rng):
        a = rng.integers(0, 1 << 32, 500, dtype=np.uint64)
        b = rng.integers(1 << 16, 1 << 32, 500, dtype=np.uint64)
        exact = mult32.multiply(a, b).cost
        relaxed = mult32.multiply(a, b, ApproxSpec.last_stage(32)).cost
        assert relaxed.cycles < exact.cycles


class TestOperandValidation:
    def test_rejects_oversized_operand(self, multiplier8):
        with pytest.raises(ConfigurationError):
            multiplier8.multiply(np.uint64(256), np.uint64(1))

    def test_rejects_oversized_scalar(self, multiplier8):
        with pytest.raises(ConfigurationError):
            multiplier8.multiply_scalar(1, 300)

    def test_rejects_negative_scalar(self, multiplier8):
        with pytest.raises(ConfigurationError):
            multiplier8.multiply_scalar(-1, 3)

    def test_rejects_word_bits_above_32(self):
        with pytest.raises(ConfigurationError):
            APIMMultiplier(APIMConfig(word_bits=40))


_element_cost = functools.lru_cache(maxsize=None)(cost_multiply)


def full_tree_oracle(word_bits, a, b, spec):
    """The slow reference: all N rows through the full carry-save tree,
    the bit-level final stage, the popcount <= 1 override and the
    per-element cost summed with :class:`Cost` arithmetic."""
    av = np.asarray(a, dtype=np.uint64)
    b_eff = mask_multiplier(np.asarray(b, dtype=np.uint64), spec.masked_bits,
                            word_bits)
    x, y = reduce_partial_products_vectorised(av, b_eff, word_bits)
    products = approximate_final_add(x, y, 2 * word_bits, spec.relax_bits)
    if spec.relax_bits:
        trivial = popcount(b_eff) <= 1
        if np.any(trivial):
            products = np.where(trivial, av * b_eff, products)
    cost = Cost()
    for set_bits in np.asarray(popcount(b_eff)).ravel().tolist():
        cost += _element_cost(word_bits, set_bits, spec.relax_bits)
    return products, cost


@st.composite
def multiply_cases(draw):
    n = draw(st.integers(1, 32))
    top = (1 << n) - 1
    operand = st.one_of(
        st.integers(0, top),
        st.sampled_from([0, 1, top]),
        st.integers(0, n - 1).map(lambda i: 1 << i),
    )
    shape = draw(st.sampled_from([(), (5,), (2, 3)]))
    size = int(np.prod(shape))
    a = np.array(draw(st.lists(operand, min_size=size, max_size=size)),
                 dtype=np.uint64).reshape(shape)
    b = np.array(draw(st.lists(operand, min_size=size, max_size=size)),
                 dtype=np.uint64).reshape(shape)
    spec = ApproxSpec(
        masked_bits=draw(st.integers(0, n)),
        relax_bits=draw(st.integers(0, 2 * n)),
    )
    return n, a, b, spec


class TestFullTreeOracle:
    @settings(max_examples=400, deadline=None)
    @given(multiply_cases())
    def test_multiply_matches_full_tree(self, case):
        n, a, b, spec = case
        got = APIMMultiplier(APIMConfig(word_bits=n)).multiply(a, b, spec)
        products, cost = full_tree_oracle(n, a, b, spec)
        assert got.products.dtype == np.uint64
        assert np.shape(got.products) == np.shape(products)
        assert np.array_equal(got.products, products)
        # Every cost field is integral, so per-element addition is exact.
        assert got.cost == cost

    @pytest.mark.parametrize("word_bits", [3, 8, 13, 16, 23, 32])
    def test_every_relax_level_matches_full_tree(self, word_bits, rng):
        top = (1 << word_bits) - 1
        a = rng.integers(0, top, 256, dtype=np.uint64, endpoint=True)
        b = rng.integers(0, top, 256, dtype=np.uint64, endpoint=True)
        a[:4] = [0, top, top, top]
        b[:4] = [top, top, 1 << (word_bits - 1), 0]
        mult = APIMMultiplier(APIMConfig(word_bits=word_bits))
        for relax in range(2 * word_bits + 1):
            for masked in (0, 2):
                spec = ApproxSpec(masked_bits=masked, relax_bits=relax)
                got = mult.multiply(a, b, spec)
                products, cost = full_tree_oracle(word_bits, a, b, spec)
                assert np.array_equal(got.products, products), spec
                assert got.cost == cost, spec

    def test_broadcast_operands(self, mult32, rng):
        a = rng.integers(0, 1 << 32, (4, 1), dtype=np.uint64)
        b = rng.integers(0, 1 << 32, 6, dtype=np.uint64)
        for relax in (0, 5, 33, 64):
            spec = ApproxSpec.last_stage(relax)
            got = mult32.multiply(a, b, spec)
            products, _ = full_tree_oracle(32, a, b, spec)
            assert got.products.shape == (4, 6)
            assert np.array_equal(got.products, products)


class TestRunPointGolden:
    """Grid points recorded from the full-tree multiplier, priced again."""

    with open(RUN_POINT_GOLDEN) as _handle:
        GOLDEN = json.load(_handle)

    @pytest.mark.parametrize(
        "workload", ["NeuralNet", "QuantizedLayer", "Sobel", "FFT"]
    )
    def test_run_point_bit_identical(self, workload):
        meta = self.GOLDEN["meta"]
        harness = ComparisonHarness(
            tile_elements=meta["tile_elements"], rng_seed=meta["seed"]
        )
        for level in (0, 8, 16):
            point = run_point(
                workload_by_name(workload), level,
                float(meta["dataset_bytes"]), harness,
            )
            want = self.GOLDEN["points"][f"{workload}/{level}"]
            assert dataclasses.asdict(point) == want
