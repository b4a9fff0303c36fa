import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gainops.numerics import (
    IntervalGrid,
    TriangularGrid,
    compose,
    flatten_lower,
    interp_linear,
    row_weights,
    trapezoid_integral,
    trapezoid_weights,
    tri_interp,
    tri_quad_weights,
    unflatten_lower,
)
from gainops.kernel_solver import KernelField


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

    def test_compose_matches_per_node_rule(self):
        n = 30
        h = 1.0 / n
        rng = np.random.default_rng(7)
        a = np.tril(rng.normal(size=(n + 1, n + 1)))
        b = np.tril(rng.normal(size=(n + 1, n + 1)))
        out = compose(a, b, h)
        ref = np.zeros((n + 1, n + 1))
        for i in range(n + 1):
            for j in range(i):
                ref[i, j] = trapezoid_weights(i - j + 1, h) @ (a[i, j : i + 1] * b[j : i + 1, j])
        assert np.abs(out - ref).max() <= 1e-14
        assert np.all(np.diagonal(out) == 0.0)
        assert np.all(np.triu(out, 1) == 0.0)


class TestInterpLinear:
    def test_linear_function_exact(self):
        x = np.linspace(0, 1, 11)
        assert interp_linear(2 * x, 0.35) == pytest.approx(0.70, abs=1e-14)

    def test_node_exactness_bitwise(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=11)
        assert interp_linear(v, 3 / 10) == v[3]

    def test_quadratic_error_bound(self):
        x = np.linspace(0, 1, 101)
        assert interp_linear(x**2, 0.5) == pytest.approx(0.25, abs=1e-4)

    def test_out_of_range_errors(self):
        with pytest.raises(ValueError):
            interp_linear(np.zeros(5), 1.5)
        with pytest.raises(ValueError):
            interp_linear(np.zeros(5), -0.1)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(-10, 10), min_size=2, max_size=20),
        st.floats(0, 1),
    )
    def test_monotone_bounded(self, vals, x):
        v = np.array(vals)
        out = interp_linear(v, x)
        assert v.min() - 1e-12 <= out <= v.max() + 1e-12


class TestTriInterp:
    def field(self, n, fn):
        grid = TriangularGrid(n)
        x, xi = grid.node_coordinates()
        return KernelField(grid, fn(x, xi))

    def test_planar_exact(self):
        f = self.field(10, lambda x, xi: x + xi)
        assert tri_interp(f, 0.5, 0.25) == pytest.approx(0.75, abs=1e-14)

    def test_node_exact(self):
        rng = np.random.default_rng(5)
        grid = TriangularGrid(7)
        f = KernelField(grid, rng.normal(size=grid.node_count))
        assert tri_interp(f, 3 / 7, 2 / 7) == pytest.approx(f.values[grid.flat_index(3, 2)], abs=1e-15)

    def test_product_error_bound(self):
        f = self.field(200, lambda x, xi: x * xi)
        assert tri_interp(f, 0.7, 0.3) == pytest.approx(0.21, abs=1e-3)

    def test_diagonal_cell_planar(self):
        f = self.field(10, lambda x, xi: 2 * x - xi)
        # strictly inside a diagonal-cut cell
        assert tri_interp(f, 0.57, 0.55) == pytest.approx(2 * 0.57 - 0.55, abs=1e-14)

    def test_clamps_to_diagonal_within_tolerance(self):
        f = self.field(10, lambda x, xi: x + xi)
        assert tri_interp(f, 0.5, 0.5 + 5e-13) == pytest.approx(1.0, abs=1e-12)

    def test_outside_triangle_errors(self):
        f = self.field(10, lambda x, xi: x)
        with pytest.raises(ValueError):
            tri_interp(f, 0.3, 0.4)
        with pytest.raises(ValueError):
            tri_interp(f, 1.2, 0.1)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0, 1), st.floats(0, 1))
    def test_bounded_by_stencil(self, x, frac):
        rng = np.random.default_rng(11)
        grid = TriangularGrid(9)
        f = KernelField(grid, rng.normal(size=grid.node_count))
        xi = x * frac
        out = tri_interp(f, x, xi)
        assert f.values.min() - 1e-12 <= out <= f.values.max() + 1e-12


class TestGridsAndFlattening:
    def test_interval_grid_spacing(self):
        grid = IntervalGrid(10)
        assert grid.h == pytest.approx(0.1)
        assert grid.points[0] == 0.0 and grid.points[-1] == 1.0
        assert np.all(np.diff(grid.points) > 0)

    def test_small_grids_rejected(self):
        with pytest.raises(ValueError):
            IntervalGrid(1)
        with pytest.raises(ValueError):
            TriangularGrid(1)

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

    def test_tri_quad_weights_integrate_area(self):
        w = tri_quad_weights(TriangularGrid(40))
        assert w.sum() == pytest.approx(0.5, abs=1e-12)

    def test_tri_quad_weights_linear_integrand(self):
        grid = TriangularGrid(200)
        x, xi = grid.node_coordinates()
        # int over T of x dxi dx = int_0^1 x^2 dx = 1/3
        assert tri_quad_weights(grid) @ x == pytest.approx(1 / 3, abs=1e-4)
