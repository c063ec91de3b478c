"""Unit tests for carry-save reduction (repro.core.wallace)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.wallace import (
    csa_step,
    partial_products,
    reduce_partial_products,
    reduce_partial_products_low,
    reduce_partial_products_vectorised,
    reduce_to_two,
)
from repro.errors import ConfigurationError


class TestCsaStep:
    def test_sum_preserved_scalars(self):
        s, c = csa_step(np.uint64(5), np.uint64(9), np.uint64(12))
        assert int(s) + int(c) == 26

    def test_sum_preserved_arrays(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 1 << 40, 500, dtype=np.uint64)
        b = rng.integers(0, 1 << 40, 500, dtype=np.uint64)
        c = rng.integers(0, 1 << 40, 500, dtype=np.uint64)
        s, cy = csa_step(a, b, c)
        assert np.array_equal(s + cy, a + b + c)

    def test_all_zero(self):
        s, c = csa_step(np.uint64(0), np.uint64(0), np.uint64(0))
        assert int(s) == 0 and int(c) == 0

    def test_carry_is_shifted_majority(self):
        s, c = csa_step(np.uint64(1), np.uint64(1), np.uint64(0))
        assert int(s) == 0
        assert int(c) == 2

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.tuples(*[st.integers(0, (1 << 64) - 1)] * 3),
        min_size=1, max_size=64,
    ))
    def test_bit_exact_against_textbook_formula(self, triples):
        """XOR sum and shifted three-term majority, computed apart."""
        a, b, c = (np.array(column, dtype=np.uint64)
                   for column in zip(*triples))
        inputs = [a.copy(), b.copy(), c.copy()]
        s, cy = csa_step(a, b, c)
        assert np.array_equal(s, a ^ b ^ c)
        assert np.array_equal(cy, ((a & b) | (b & c) | (c & a)) << np.uint64(1))
        # The operands are left untouched.
        assert all(np.array_equal(x, y) for x, y in zip(inputs, (a, b, c)))


class TestReduceToTwo:
    @pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 9, 17, 32])
    def test_two_survivors_sum_to_total(self, count):
        rng = np.random.default_rng(count)
        operands = [
            rng.integers(0, 1 << 50, 50, dtype=np.uint64) for _ in range(count)
        ]
        x, y = reduce_to_two(operands)
        total = sum(int(v) for op in operands for v in [op[0]])
        assert int(x[0]) + int(y[0]) == sum(int(op[0]) for op in operands)
        assert np.array_equal(x + y, sum(operands[1:], operands[0].copy()))

    def test_single_operand_returns_zero_partner(self):
        x, y = reduce_to_two([np.uint64(42)])
        assert int(x) == 42 and int(y) == 0

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            reduce_to_two([])

    def test_scalar_ints_accepted(self):
        x, y = reduce_to_two([1, 2, 3, 4, 5])
        assert int(x) + int(y) == 15


class TestPartialProducts:
    def test_count_equals_word_bits(self):
        rows = partial_products(3, 5, 8)
        assert len(rows) == 8

    def test_rows_sum_to_product(self):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 1 << 16, 100, dtype=np.uint64)
        b = rng.integers(0, 1 << 16, 100, dtype=np.uint64)
        rows = partial_products(a, b, 16)
        total = rows[0].copy()
        for row in rows[1:]:
            total = total + row
        assert np.array_equal(total, a * b)

    def test_zero_bit_rows_are_zero(self):
        rows = partial_products(0xFF, 0b101, 8)
        assert int(rows[1]) == 0
        assert int(rows[0]) == 0xFF
        assert int(rows[2]) == 0xFF << 2

    def test_rejects_wide_words(self):
        with pytest.raises(ConfigurationError):
            partial_products(1, 1, 33)


class TestReducePartialProducts:
    @pytest.mark.parametrize("word_bits", [4, 8, 12])
    def test_scalar_survivors_sum_to_product(self, word_bits):
        rng = np.random.default_rng(word_bits)
        for _ in range(50):
            a = int(rng.integers(0, 1 << word_bits))
            b = int(rng.integers(0, 1 << word_bits))
            x, y = reduce_partial_products(a, b, word_bits)
            assert x + y == a * b

    def test_vectorised_survivors_sum_to_product(self):
        rng = np.random.default_rng(9)
        a = rng.integers(0, 1 << 32, 300, dtype=np.uint64)
        b = rng.integers(0, 1 << 32, 300, dtype=np.uint64)
        x, y = reduce_partial_products_vectorised(a, b, 32)
        assert np.array_equal(x + y, a * b)

    def test_zero_multiplier(self):
        assert reduce_partial_products(123, 0, 8) == (0, 0)

    def test_single_set_bit(self):
        x, y = reduce_partial_products(11, 0b100, 8)
        assert (x, y) == (44, 0)

    def test_rejects_out_of_range_operand(self):
        with pytest.raises(ConfigurationError):
            reduce_partial_products(256, 1, 8)

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            reduce_partial_products(-1, 1, 8)

    def test_scalar_and_vector_sums_agree(self):
        # Bit patterns may differ (zero-row grouping) but sums never do.
        for a, b in [(17, 99), (255, 255), (128, 3)]:
            xs, ys = reduce_partial_products(a, b, 8)
            xv, yv = reduce_partial_products_vectorised(
                np.uint64(a), np.uint64(b), 8
            )
            assert xs + ys == int(xv) + int(yv) == a * b


class TestReducePartialProductsLow:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 32).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=6),
                st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=6),
                st.integers(1, 64),
            )
        )
    )
    def test_low_bits_match_full_tree(self, case):
        n, a_values, b_values, bits = case
        size = min(len(a_values), len(b_values))
        a = np.array(a_values[:size], dtype=np.uint64)
        b = np.array(b_values[:size], dtype=np.uint64)
        x, y = reduce_partial_products_low(a, b, n, bits)
        xf, yf = reduce_partial_products_vectorised(a, b, n)
        mask = np.uint64((1 << bits) - 1)
        assert x.dtype.itemsize * 8 >= bits
        assert x.dtype.itemsize * 8 < 2 * bits or x.dtype == np.uint8
        assert np.array_equal(x.astype(np.uint64) & mask, xf & mask)
        assert np.array_equal(y.astype(np.uint64) & mask, yf & mask)

    @pytest.mark.parametrize("bits", [3, 9, 17, 64])
    def test_sparse_multipliers_skip_zero_rows_exactly(self, rng, bits):
        # Multiplier bits unset in every element build no row; the
        # survivors still equal the full tree's, which groups zero rows.
        a = rng.integers(0, 1 << 32, (40, 7), dtype=np.uint64)
        weight = np.broadcast_to(np.uint64(0b1001101), a.shape)
        gapped = rng.integers(0, 1 << 32, a.shape, dtype=np.uint64)
        gapped &= np.uint64(0xF0F0_0F0F)
        mask = np.uint64((1 << bits) - 1) if bits < 64 else ~np.uint64(0)
        for b in (weight, gapped, np.zeros_like(a)):
            x, y = reduce_partial_products_low(a, b, 32, bits)
            xf, yf = reduce_partial_products_vectorised(a, b, 32)
            assert x.shape == y.shape == a.shape
            assert np.array_equal(x.astype(np.uint64) & mask, xf & mask)
            assert np.array_equal(y.astype(np.uint64) & mask, yf & mask)

    def test_scalar_operands(self):
        x, y = reduce_partial_products_low(np.uint64(0xAB), np.uint64(0xCD), 8, 5)
        xf, yf = reduce_partial_products_vectorised(
            np.uint64(0xAB), np.uint64(0xCD), 8
        )
        assert np.shape(x) == np.shape(y) == ()
        assert int(x) & 31 == int(xf) & 31
        assert int(y) & 31 == int(yf) & 31

    def test_single_row_word(self):
        ones = np.ones(3, np.uint64)
        x, y = reduce_partial_products_low(ones, ones, 1, 4)
        assert x.tolist() == [1, 1, 1] and y.tolist() == [0, 0, 0]

    @pytest.mark.parametrize("word_bits, bits", [(0, 4), (33, 4), (8, 0), (8, 65)])
    def test_rejects_bad_widths(self, word_bits, bits):
        with pytest.raises(ConfigurationError):
            reduce_partial_products_low(np.uint64(1), np.uint64(1), word_bits, bits)
