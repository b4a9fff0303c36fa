import numpy as np
import pytest

import gainops as g
from gainops.controller import (
    GainVector,
    forward_transform,
    inverse_transform,
)
from gainops.kernel_solver import KernelField, KernelSet
from gainops.numerics import TriangularGrid, trapezoid_integral, trapezoid_weights

from conftest import control_value, random_smooth_state


def zero_kernels(n):
    grid = TriangularGrid(n)
    z = np.zeros(grid.node_count)
    return KernelSet(
        k1=KernelField(grid, z.copy()),
        k2=KernelField(grid, z.copy()),
    )


class TestControlValue:
    def test_zero_gains(self):
        grid = g.IntervalGrid(50)
        gains = GainVector(grid, np.zeros(51), np.zeros(51))
        state = g.PlantState(grid, np.ones(51), np.ones(51))
        assert control_value(gains, state) == 0.0

    def test_constant_gains_and_state(self):
        grid = g.IntervalGrid(40)
        gains = GainVector(grid, np.ones(41), np.ones(41))
        state = g.PlantState(grid, np.ones(41), np.ones(41))
        assert control_value(gains, state) == pytest.approx(2.0, abs=1e-14)

    def test_quadrature_refinement_oracle(self, gamma1, kernels_g1_n100):
        # same piecewise-linear gain functions and analytic state, integrated
        # on a 10x finer grid
        gains = g.gain_slice(kernels_g1_n100)
        grid = g.IntervalGrid(100)
        state = g.reference_initial_state(grid)
        u0 = control_value(gains, state)
        fine = np.arange(1001) / 1000
        g1f = np.interp(fine, gains.grid.points, gains.g1)
        g2f = np.interp(fine, gains.grid.points, gains.g2)
        w = trapezoid_weights(1001, 1e-3)
        ref = w @ (g1f * np.ones(1001)) + w @ (g2f * np.sin(fine))
        assert u0 == pytest.approx(ref, abs=1e-3)

    @pytest.mark.parametrize("n", [25, 37, 50, 400])
    def test_gain_resample_bitwise_equal_to_interp_linear(self, kernels_g1_n100, n):
        gains = g.gain_slice(kernels_g1_n100)
        grid = g.IntervalGrid(n)
        out = gains.resample(grid)
        # the reference is linear interpolation by np.interp on the source grid's nodes
        assert out.g1.tobytes() == np.interp(grid.points, gains.grid.points, gains.g1).tobytes()
        assert out.g2.tobytes() == np.interp(grid.points, gains.grid.points, gains.g2).tobytes()

    def test_resampling_to_state_grid(self, kernels_g1_n100):
        gains = g.gain_slice(kernels_g1_n100)
        grid = g.IntervalGrid(50)
        state = g.reference_initial_state(grid)
        coarse = control_value(gains, state)
        fine_state = g.reference_initial_state(g.IntervalGrid(100))
        fine = control_value(gains, fine_state)
        assert coarse == pytest.approx(fine, abs=5e-3)

    def test_linearity(self, kernels_g1_n100):
        gains = g.gain_slice(kernels_g1_n100)
        grid = g.IntervalGrid(100)
        rng = np.random.default_rng(7)
        s1 = random_smooth_state(grid, rng)
        s2 = random_smooth_state(grid, rng)
        a, b = 1.7, -0.4
        mix = g.PlantState(grid, a * s1.u + b * s2.u, a * s1.v + b * s2.v)
        assert control_value(gains, mix) == pytest.approx(
            a * control_value(gains, s1) + b * control_value(gains, s2), abs=1e-12
        )


class TestGainVector:
    @pytest.mark.parametrize("g1, g2", [(np.zeros(10), np.zeros(11)), (np.zeros((11, 1)), np.zeros(11))])
    def test_shape_mismatch_rejected(self, g1, g2):
        with pytest.raises(ValueError, match="gain arrays must match their grid"):
            GainVector(g.IntervalGrid(10), g1, g2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gains_rejected(self, bad):
        g2 = np.zeros(11)
        g2[4] = bad
        with pytest.raises(ValueError, match="gains must be finite"):
            GainVector(g.IntervalGrid(10), np.zeros(11), g2)


class TestForwardTransform:
    def test_zero_kernels_identity(self):
        grid = g.IntervalGrid(30)
        rng = np.random.default_rng(2)
        state = random_smooth_state(grid, rng)
        beta = forward_transform(state, zero_kernels(30))
        assert np.array_equal(beta, state.v)

    def test_zero_state(self, kernels_g1_n100):
        grid = g.IntervalGrid(100)
        state = g.PlantState(grid, np.zeros(101), np.zeros(101))
        assert np.all(forward_transform(state, kernels_g1_n100) == 0)

    def test_top_node_matches_control_residual(self, gamma1, kernels_g1_n100):
        # beta(1) is exactly v(1) minus the control quadrature
        gains = g.gain_slice(kernels_g1_n100)
        grid = g.IntervalGrid(100)
        rng = np.random.default_rng(3)
        state = random_smooth_state(grid, rng)
        beta = forward_transform(state, kernels_g1_n100)
        assert beta[-1] == pytest.approx(state.v[-1] - control_value(gains, state), abs=1e-13)


    def test_state_on_another_grid_rejected(self):
        state = g.PlantState(g.IntervalGrid(9), np.ones(10), np.ones(10))
        with pytest.raises(ValueError, match="state and kernels must share one grid"):
            forward_transform(state, zero_kernels(10))


class TestInverseTransform:
    def test_zero_kernels_identity(self):
        grid = g.IntervalGrid(30)
        rng = np.random.default_rng(4)
        state = random_smooth_state(grid, rng)
        v = inverse_transform(state.u, state.v, zero_kernels(30))
        assert np.array_equal(v, state.v)

    @pytest.mark.parametrize("u_size, beta_size", [(10, 11), (11, 12)])
    def test_arrays_off_the_kernel_grid_rejected(self, u_size, beta_size):
        with pytest.raises(ValueError, match="state arrays must match the kernel grid"):
            inverse_transform(np.ones(u_size), np.ones(beta_size), zero_kernels(10))

    def test_zero_inputs(self, kernels_g1_n100):
        z = np.zeros(101)
        assert np.all(inverse_transform(z, z, kernels_g1_n100) == 0)

    def test_composition_recovers_state(self, kernels_g1_n100):
        grid = g.IntervalGrid(100)
        rng = np.random.default_rng(42)
        for _ in range(20):
            state = random_smooth_state(grid, rng)
            beta = forward_transform(state, kernels_g1_n100)
            v = inverse_transform(state.u, beta, kernels_g1_n100)
            err = np.sqrt(trapezoid_integral((v - state.v) ** 2, grid.h))
            assert err <= 10 * grid.h

    def test_composition_error_improves_with_refinement(self, gamma1, kernels_g1_n100):
        # at least the first-order factor; in practice the composition
        # converges at second order since both sides share the quadrature
        ks200 = g.solve_inverse_kernels(g.solve_kernels(gamma1, TriangularGrid(200)))

        def worst(ks, n):
            grid = g.IntervalGrid(n)
            rng = np.random.default_rng(42)
            w = 0.0
            for _ in range(20):
                state = random_smooth_state(grid, rng)
                beta = forward_transform(state, ks)
                v = inverse_transform(state.u, beta, ks)
                w = max(w, np.sqrt(trapezoid_integral((v - state.v) ** 2, grid.h)))
            return w

        assert worst(ks200, 200) <= 0.7 * worst(kernels_g1_n100, 100)

    def test_linearity(self, kernels_g1_n100):
        grid = g.IntervalGrid(100)
        rng = np.random.default_rng(9)
        s1 = random_smooth_state(grid, rng)
        s2 = random_smooth_state(grid, rng)
        a, b = 0.3, 2.1
        lhs = inverse_transform(a * s1.u + b * s2.u, a * s1.v + b * s2.v, kernels_g1_n100)
        rhs = a * inverse_transform(s1.u, s1.v, kernels_g1_n100) + b * inverse_transform(
            s2.u, s2.v, kernels_g1_n100
        )
        assert np.allclose(lhs, rhs, atol=1e-12)
