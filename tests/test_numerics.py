import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gainops.numerics import (
    IntervalGrid,
    TriangularGrid,
    flatten_lower,
    lower_mask,
    row_weights,
    trapezoid_integral,
    trapezoid_weights,
    tri_quad_weights,
    unflatten_lower,
)


class TestTrapezoid:
    def test_constant_exact(self):
        x = np.linspace(0, 1, 11)
        assert trapezoid_integral(np.ones(11), 0.1) == pytest.approx(1.0, abs=1e-15)

    def test_linear_exact(self):
        x = np.linspace(0, 1, 11)
        assert trapezoid_integral(x, 0.1) == pytest.approx(0.5, abs=1e-15)

    def test_sine_against_antiderivative(self):
        x = np.linspace(0, 1, 1001)
        exact = 1.0 - np.cos(1.0)
        assert trapezoid_integral(np.sin(x), 1e-3) == pytest.approx(exact, abs=1e-6)

    def test_single_node_is_zero(self):
        assert trapezoid_integral(np.array([7.0]), 0.1) == 0.0

    def test_empty_segment_errors(self):
        with pytest.raises(ValueError):
            trapezoid_integral(np.array([]), 0.1)

    def test_two_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match="expects a 1-d array"):
            trapezoid_integral(np.ones((3, 1)), 0.1)

    def test_weights_of_empty_and_single_node_segments(self):
        with pytest.raises(ValueError, match="empty segment"):
            trapezoid_weights(0, 0.1)
        w = trapezoid_weights(1, 0.1)
        assert w.tobytes() == np.zeros(1).tobytes()
        assert w @ np.array([7.0]) == trapezoid_integral(np.array([7.0]), 0.1) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(-10, 10), min_size=2, max_size=30),
        st.floats(-3, 3),
        st.floats(-3, 3),
    )
    def test_linearity(self, vals, a, b):
        v = np.array(vals)
        h = 1.0 / (v.size - 1)
        lhs = trapezoid_integral(a * v + b, h)
        rhs = a * trapezoid_integral(v, h) + b * trapezoid_integral(np.ones_like(v), h)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 40), st.floats(-5, 5), st.floats(-5, 5))
    def test_affine_exactness(self, n, slope, intercept):
        x = np.arange(n + 1) / n
        v = slope * x + intercept
        exact = slope / 2 + intercept
        assert trapezoid_integral(v, 1.0 / n) == pytest.approx(exact, abs=1e-12)


class TestTriangleRule:
    @pytest.mark.parametrize("n", [2, 3, 50])
    def test_row_weights_rows_are_trapezoid_weights(self, n):
        h = 1.0 / n
        w = row_weights(n, h)
        assert w.shape == (n + 1, n + 1)
        assert np.all(w[0] == 0.0)
        for i in range(1, n + 1):
            assert np.array_equal(w[i, : i + 1], trapezoid_weights(i + 1, h))
            assert np.all(w[i, i + 1 :] == 0.0)


class TestGridsAndFlattening:
    def test_interval_grid_spacing(self):
        grid = IntervalGrid(10)
        assert grid.h == pytest.approx(0.1)
        assert grid.points[0] == 0.0 and grid.points[-1] == 1.0
        assert np.all(np.diff(grid.points) > 0)

    def test_small_grids_rejected(self):
        with pytest.raises(ValueError, match="^IntervalGrid needs n >= 2 cells, got 1$"):
            IntervalGrid(1)
        with pytest.raises(ValueError, match="^TriangularGrid needs n >= 2 cells, got 1$"):
            TriangularGrid(1)

    def test_grid_kinds_differ(self):
        # a triangular grid shares the interval grid's nodes and spacing but is not equal to it
        assert IntervalGrid(4) != TriangularGrid(4)
        assert TriangularGrid(4) == TriangularGrid(4) and IntervalGrid(4) == IntervalGrid(4)
        assert TriangularGrid(4).points.tobytes() == IntervalGrid(4).points.tobytes()
        assert TriangularGrid(4).h == IntervalGrid(4).h

    def test_node_count(self):
        assert TriangularGrid(10).node_count == 66

    def test_nodes_inside_triangle(self):
        x, xi = TriangularGrid(6).node_coordinates()
        assert np.all(xi <= x + 1e-15) and np.all(xi >= 0) and np.all(x <= 1)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 12), st.integers(0, 2**32 - 1))
    def test_flatten_roundtrip_bitexact(self, n, seed):
        rng = np.random.default_rng(seed)
        dense = np.tril(rng.normal(size=(n + 1, n + 1)))
        flat = flatten_lower(dense)
        assert np.array_equal(unflatten_lower(flat, n), dense)
        assert flat.size == (n + 1) * (n + 2) // 2

    @pytest.mark.parametrize("size", [65, 67])
    def test_unflatten_wrong_length_rejected(self, size):
        with pytest.raises(ValueError, match="flattened length does not match grid size"):
            unflatten_lower(np.zeros(size), 10)

    @pytest.mark.parametrize("n", [2, 7, 100])
    def test_node_indices_are_tril_indices(self, n):
        rows, cols = TriangularGrid(n).node_indices()
        expected = np.tril_indices(n + 1)
        assert rows.tobytes() == expected[0].tobytes() and cols.tobytes() == expected[1].tobytes()
        # they select in the order of lower_mask, which flattens
        rng = np.random.default_rng(n)
        dense = rng.normal(size=(n + 1, n + 1))
        assert dense[rows, cols].tobytes() == flatten_lower(dense).tobytes()
        flat = rng.normal(size=rows.size)
        assert flatten_lower(unflatten_lower(flat, n)).tobytes() == flat.tobytes()

    @pytest.mark.parametrize("n", [2, 7, 100])
    def test_lower_mask_built_once_and_read_only(self, n):
        mask = lower_mask(n + 1)
        assert lower_mask(n + 1) is mask
        assert mask.dtype == bool and mask.tobytes() == np.tri(n + 1, dtype=bool).tobytes()
        with pytest.raises(ValueError):
            mask[0, 1] = True
        # the mask selects in the canonical order of np.tril_indices
        dense = np.random.default_rng(n).normal(size=(n + 1, n + 1))
        lower = np.tril_indices(n + 1)
        assert flatten_lower(dense).tobytes() == dense[lower].tobytes()
        expected = np.zeros_like(dense)
        expected[lower] = dense[lower]
        assert unflatten_lower(flatten_lower(dense), n).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [2, 7, 100])
    def test_row_weights_built_once_and_read_only(self, n):
        w = row_weights(n, 1.0 / n)
        assert row_weights(n, 1.0 / n) is w
        with pytest.raises(ValueError):
            w[1, 0] = 1.0
        assert np.all(w[0] == 0.0) and w[n, n] == 0.5 / n

    def test_tri_quad_weights_integrate_area(self):
        w = tri_quad_weights(TriangularGrid(40))
        assert w.sum() == pytest.approx(0.5, abs=1e-12)

    def test_tri_quad_weights_linear_integrand(self):
        grid = TriangularGrid(200)
        x, xi = grid.node_coordinates()
        # int over T of x dxi dx = int_0^1 x^2 dx = 1/3
        assert tri_quad_weights(grid) @ x == pytest.approx(1 / 3, abs=1e-4)
