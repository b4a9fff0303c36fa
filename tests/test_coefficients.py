import numpy as np
import pytest

from gainops.coefficients import (
    MASK64,
    CoefficientFamily,
    CoefficientSet,
    gamma_family,
    resample,
    sample_random,
    splitmix64,
)
from gainops.numerics import IntervalGrid

from conftest import mixed_plants, own_grid_plants


class TestGammaFamily:
    def test_values_at_endpoints(self):
        c = gamma_family(1.0)
        assert c.lam[0] == pytest.approx(1.0)
        assert c.mu[0] == pytest.approx(2.0)
        assert c.q == pytest.approx(0.5)
        assert c.omega[0] == pytest.approx(10.0)  # 5 (cosh 0 + 1)

    def test_values_gamma5(self):
        c = gamma_family(5.0)
        assert c.lam[-1] == pytest.approx(6.0)
        assert c.mu[-1] == pytest.approx(np.exp(5.0) + 1.0)

    def test_sigma_theta_shape(self):
        c = gamma_family(2.0)
        x = c.grid.points
        assert np.allclose(c.sigma, 2 * (x + 1))
        assert np.allclose(c.theta, 2 * (x + 1))

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(ValueError):
            gamma_family(0.0)
        with pytest.raises(ValueError):
            gamma_family(-1.0)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            gamma_family(1.0, m=1)
        with pytest.raises(ValueError, match="at least 3 coefficient nodes"):
            gamma_family(1.0, m=2)

    def test_derivatives_match_finite_differences(self):
        # centered differences agree with the stored analytic derivatives
        # within 2h * sup|second derivative|
        for gamma in (1.0, 5.0):
            c = gamma_family(gamma)
            h = c.grid.h
            for vals, dvals, ddsup in (
                (c.lam, c.dlam, 0.0),
                (c.mu, c.dmu, gamma**2 * np.exp(gamma)),
            ):
                fd = (vals[2:] - vals[:-2]) / (2 * h)
                assert np.abs(fd - dvals[1:-1]).max() <= 2 * h * ddsup + 1e-12


class TestSampling:
    def test_deterministic_bit_identical(self):
        fam = CoefficientFamily("random_smooth", (0.5, 5.0), 0.5)
        a = sample_random(fam, 1234)
        b = sample_random(fam, 1234)
        for name in ("lam", "dlam", "mu", "dmu", "sigma", "omega", "theta"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert a.q == b.q

    def test_different_seeds_differ(self):
        fam = CoefficientFamily("gamma", (0.5, 5.0))
        assert sample_random(fam, 1).q != sample_random(fam, 2).q

    def test_gamma_family_q_range(self):
        fam = CoefficientFamily("gamma", (0.5, 5.0))
        for seed in range(50):
            q = sample_random(fam, seed).q
            assert 0.25 <= q <= 2.5

    def test_random_smooth_positivity_1000_draws(self):
        fam = CoefficientFamily("random_smooth", (0.5, 5.0), 0.5)
        worst = min(
            min(sample_random(fam, seed).lam.min(), sample_random(fam, seed).mu.min())
            for seed in range(1000)
        )
        assert worst >= 0.1

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            CoefficientFamily("bogus")

    def test_bad_gamma_range_rejected(self):
        with pytest.raises(ValueError):
            CoefficientFamily("gamma", (-1.0, 2.0))

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError, match="amplitude must be nonnegative"):
            CoefficientFamily("random_smooth", amplitude=-1e-9)
        assert CoefficientFamily("random_smooth", amplitude=0.0).amplitude == 0.0

    @pytest.mark.parametrize("m", [2, 0, -1])
    def test_fewer_than_three_nodes_rejected(self, m):
        with pytest.raises(ValueError, match="at least 3 coefficient nodes"):
            CoefficientFamily("random_smooth", m=m)


def written_out_random_smooth(family, seed):
    """Reference: a random_smooth draw with the base formulas written out."""
    rng = np.random.default_rng(splitmix64(seed & MASK64))
    lo, hi = family.gamma_range
    gamma = lo + (hi - lo) * rng.uniform()
    m = family.m
    grid = IntervalGrid(m - 1)
    x = grid.points
    cap = min(family.amplitude, 0.8)

    def perturbation():
        a = 0.7 * cap * rng.uniform(-1.0, 1.0)
        b = 0.6 * cap * rng.uniform(-1.0, 1.0)
        f = rng.integers(1, 4)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        vals = a * np.cos(np.pi * f * x + phase) + b * (x - 0.5)
        deriv = -a * np.pi * f * np.sin(np.pi * f * x + phase) + b
        return vals, deriv

    p_lam, dp_lam = perturbation()
    p_mu, dp_mu = perturbation()
    p_sig, _ = perturbation()
    p_omg, _ = perturbation()
    p_tht, _ = perturbation()
    q = gamma / 2.0 + 0.5 * family.amplitude * rng.uniform(-1.0, 1.0)
    return CoefficientSet(
        grid=grid,
        lam=gamma * x + 1.0 + p_lam,
        dlam=np.full(m, gamma) + dp_lam,
        mu=np.exp(gamma * x) + 1.0 + p_mu,
        dmu=gamma * np.exp(gamma * x) + dp_mu,
        sigma=gamma * (x + 1.0) + 2.0 * p_sig,
        omega=5.0 * (np.cosh(x) + 1.0) + 2.0 * p_omg,
        theta=gamma * (x + 1.0) + 2.0 * p_tht,
        q=q,
    )


@pytest.mark.parametrize(
    "family",
    [CoefficientFamily("random_smooth"), CoefficientFamily("random_smooth", (0.2, 3.0), 1.5, 37)],
)
def test_random_smooth_is_the_gamma_family_plus_perturbations_bitwise(family):
    fields = ("lam", "dlam", "mu", "dmu", "sigma", "omega", "theta")
    for seed in range(20):
        got, want = sample_random(family, seed), written_out_random_smooth(family, seed)
        assert got.grid.points.tobytes() == want.grid.points.tobytes()
        for name in fields:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (seed, name)
        assert np.float64(got.q).tobytes() == np.float64(want.q).tobytes()


class TestResample:
    @pytest.mark.parametrize("n", [25, 37, 50, 100, 400])
    def test_bitwise_equal_to_interp_linear(self, n):
        # the reference is linear interpolation by np.interp on the source grid's nodes
        x = np.arange(n + 1) / n
        for c in mixed_plants(7):
            for name, arr in resample(c, n).items():
                assert arr.tobytes() == np.interp(x, c.grid.points, getattr(c, name)).tobytes()

    def test_own_grid_is_a_bitwise_copy(self):
        # np.interp returns a node's own value at a node, signed zeros included
        for c in own_grid_plants():
            x = np.arange(c.grid.n + 1) / c.grid.n
            for name, arr in resample(c, c.grid.n).items():
                assert arr.tobytes() == np.interp(x, c.grid.points, getattr(c, name)).tobytes(), name
                assert not np.shares_memory(arr, getattr(c, name))


class TestValidation:
    @pytest.mark.parametrize(
        "change, message",
        [
            ({"sigma": np.ones(4)}, "must all live on the shared grid"),
            ({"omega": np.full(5, np.inf)}, "must be finite"),
            ({"dmu": np.full(5, np.nan), "theta": np.ones(6)}, "must all live on the shared grid"),
            ({"dmu": np.ones(6), "theta": np.full(5, np.nan)}, "must all live on the shared grid"),
            ({"q": np.nan}, "q must be finite"),
            ({"mu": np.array([1.0, 1.0, -1.0, 1.0, 1.0])}, "transport speeds lam, mu must be positive"),
            ({"lam": np.array([1.0, 1.0, 1.0, 0.0, 1.0])}, "transport speeds lam, mu must be positive"),
            ({"mu": np.array([1.0, 0.0, 1.0, 1.0, 1.0])}, "transport speeds lam, mu must be positive"),
        ],
    )
    def test_messages(self, change, message):
        fields = dict(
            grid=IntervalGrid(4), lam=np.ones(5), dlam=np.zeros(5), mu=np.ones(5), dmu=np.zeros(5),
            sigma=np.zeros(5), omega=np.zeros(5), theta=np.zeros(5), q=0.0,
        )
        with pytest.raises(ValueError, match=message):
            CoefficientSet(**{**fields, **change})

    def test_nonpositive_speed_rejected(self):
        grid = IntervalGrid(4)
        m = 5
        with pytest.raises(ValueError):
            CoefficientSet(
                grid=grid,
                lam=np.zeros(m),
                dlam=np.zeros(m),
                mu=np.ones(m),
                dmu=np.zeros(m),
                sigma=np.zeros(m),
                omega=np.zeros(m),
                theta=np.zeros(m),
                q=0.0,
            )

    def test_shape_mismatch_rejected(self):
        grid = IntervalGrid(4)
        with pytest.raises(ValueError):
            CoefficientSet(
                grid=grid,
                lam=np.ones(3),
                dlam=np.zeros(3),
                mu=np.ones(3),
                dmu=np.zeros(3),
                sigma=np.zeros(3),
                omega=np.zeros(3),
                theta=np.zeros(3),
                q=0.0,
            )
