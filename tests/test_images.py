"""Unit tests for the synthetic image generator (repro.workloads.images)."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import WorkloadError
from repro.workloads.images import (
    image_shape_for,
    linear_percentiles,
    synthetic_image,
)


class TestImageShapeFor:
    def test_square_counts(self):
        assert image_shape_for(64 * 64) == (64, 64)

    def test_covers_requested_elements(self):
        for elements in (100, 1000, 12345):
            rows, cols = image_shape_for(elements)
            assert rows * cols >= elements

    def test_nearly_square(self):
        rows, cols = image_shape_for(10000)
        assert abs(rows - cols) <= 1

    def test_rejects_non_positive(self):
        with pytest.raises(WorkloadError):
            image_shape_for(0)


class TestSyntheticImage:
    @pytest.fixture(scope="class")
    def image(self):
        return synthetic_image((128, 128), np.random.default_rng(0))

    def test_dtype_and_range(self, image):
        assert image.dtype == np.uint8
        assert image.min() >= 0 and image.max() <= 255

    def test_uses_dynamic_range(self, image):
        # Percentile normalisation should stretch toward both rails.
        assert image.max() - image.min() > 200

    def test_not_constant(self, image):
        assert image.std() > 20

    def test_has_edges(self, image):
        # Natural-image statistics: strong gradients must exist (objects),
        # but the image must not be pure noise (local correlation).
        gx = np.abs(np.diff(image.astype(np.int64), axis=1))
        assert gx.max() > 50
        corr = np.corrcoef(
            image[:, :-1].ravel().astype(float),
            image[:, 1:].ravel().astype(float),
        )[0, 1]
        assert corr > 0.5

    def test_one_over_f_spectrum_slope(self, image):
        # Radially-averaged amplitude must fall with frequency.
        spectrum = np.abs(np.fft.rfft2(image.astype(float)))
        low = spectrum[1:8, 1:8].mean()
        high = spectrum[40:60, 40:60].mean()
        assert low > 5 * high

    def test_deterministic_per_seed(self):
        a = synthetic_image((32, 32), np.random.default_rng(7))
        b = synthetic_image((32, 32), np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = synthetic_image((32, 32), np.random.default_rng(1))
        b = synthetic_image((32, 32), np.random.default_rng(2))
        assert not np.array_equal(a, b)

    def test_rejects_tiny_shapes(self):
        with pytest.raises(WorkloadError):
            synthetic_image((4, 100), np.random.default_rng(0))


class TestLinearPercentiles:
    @given(
        values=arrays(
            np.float64,
            st.integers(1, 400),
            elements=st.floats(-1e6, 1e6, allow_nan=False, width=64),
        ),
        q=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=4),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_numpy_percentile_bit_for_bit(self, values, q):
        expected = np.percentile(values, q)
        got = linear_percentiles(values, q)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)

    def test_image_tile_does_not_import_numpy_ma(self):
        """``np.percentile`` (and ``np.unique``) import ``numpy.ma`` on
        first use; a cold shard's first image tile must not pay that."""
        probe = (
            "import sys, numpy as np; "
            "from repro.workloads import workload_by_name; "
            "workload_by_name('Sobel').generate(512, np.random.default_rng(1)); "
            "print('numpy.ma' in sys.modules)"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            sys.modules["repro"].__file__)))
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, check=True, timeout=60,
        )
        assert out.stdout.strip() == "False"
