from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad

from polykin import (
    GridConfig,
    SchemeParams,
    blend_factors,
    build_grid,
    collision_frequency,
    derived_constants,
    normalizer_discrete,
)
from polykin.errors import OutOfRange


class TestCollisionFrequency:
    def test_nu_zero_collapses_to_one(self):
        assert collision_frequency(0.0, 0.7) == 1.0

    def test_theta_one_collapses_to_one(self):
        assert collision_frequency(0.5, 1.0) == pytest.approx(1.0, abs=3e-16)

    def test_hand_evaluated_value(self):
        # 1/(1 + 0.25 - 0.125) = 8/9
        assert collision_frequency(-0.25, 0.5) == pytest.approx(1.0 / 1.125, rel=1e-15)

    @pytest.mark.parametrize("nu,theta", [(-0.5, 0.5), (1.0, 0.5), (0.2, 0.0), (0.2, 1.5)])
    def test_out_of_range(self, nu, theta):
        with pytest.raises(OutOfRange):
            collision_frequency(nu, theta)

    def test_positive_and_one_only_at_degenerate_corners(self):
        for nu in (-0.4, -0.1, 0.3, 0.9):
            for theta in (0.1, 0.5, 0.9):
                a = collision_frequency(nu, theta)
                assert a > 0
                assert abs(a - 1.0) > 1e-3
        for theta in (0.1, 0.5, 1.0):
            assert collision_frequency(0.0, theta) == 1.0
        for nu in (-0.4, 0.3, 0.9):
            assert collision_frequency(nu, 1.0) == pytest.approx(1.0, abs=3e-16)


class TestBlendFactors:
    def test_dt_zero_reduces_to_identity(self):
        lam, nu_bar = blend_factors(0.3, 0.6, 0.7, 0.0)
        assert lam == 1.0
        assert nu_bar == 0.3

    def test_nu_zero_gives_unit_lambda(self):
        lam, nu_bar = blend_factors(0.0, 0.4, 0.2, 0.37)
        assert lam == 1.0
        assert nu_bar == 0.0

    def test_hand_evaluated_pair(self):
        # A = 4/3, lam = (0.1 + 0.1*4/3)/0.2, nu_bar = 0.1*0.5/0.2
        lam, nu_bar = blend_factors(0.5, 0.5, 0.1, 0.1)
        assert lam == pytest.approx(7.0 / 6.0, rel=1e-15)
        assert nu_bar == pytest.approx(0.25, rel=1e-15)

    @pytest.mark.parametrize("nu", [-0.3, 0.0, 0.45, 0.9])
    @pytest.mark.parametrize("theta", [0.25, 0.7, 1.0])
    def test_limits_and_monotonicity(self, nu, theta):
        kappa = 0.37
        a = collision_frequency(nu, theta)
        lam0, nb0 = blend_factors(nu, theta, kappa, 1e-14)
        assert lam0 == pytest.approx(1.0, abs=1e-12)
        assert nb0 == pytest.approx(nu, abs=1e-12)
        lam_inf, nb_inf = blend_factors(nu, theta, kappa, 1e12)
        assert lam_inf == pytest.approx(a, rel=1e-10)
        assert abs(nb_inf) < 1e-12
        dts = np.logspace(-6, 6, 40)
        lams, nbs = zip(*(blend_factors(nu, theta, kappa, dt) for dt in dts))
        dlam = np.diff(lams)
        assert np.all(dlam >= -1e-15) or np.all(dlam <= 1e-15)  # monotone toward A
        assert np.all(np.diff(np.abs(nbs)) <= 1e-15)

    @pytest.mark.parametrize("kappa, dt", [(0.0, 0.1), (1.0, -1.0)])
    def test_out_of_range(self, kappa, dt):
        with pytest.raises(OutOfRange):
            blend_factors(0.3, 0.6, kappa, dt)

    def test_bounds_invariants(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            nu = rng.uniform(-0.49, 0.99)
            theta = rng.uniform(0.01, 1.0)
            kappa = 10.0 ** rng.uniform(-6, 2)
            dt = 10.0 ** rng.uniform(-6, 1)
            lam, nu_bar = blend_factors(nu, theta, kappa, dt)
            assert lam >= min(1.0, kappa / (dt + kappa)) - 1e-15
            assert abs(nu_bar) <= abs(nu) + 1e-15
            assert nu_bar * nu >= 0.0


class TestNormalizer:
    def test_single_node_is_unit(self):
        grid = build_grid(GridConfig(n_x=2, n_v=3, v_max=1.0, n_i=1, i_max=1.0))
        assert normalizer_discrete(2.0, grid) == 1.0

    def test_nonpositive_delta_rejected(self):
        grid = build_grid(GridConfig(n_x=2, n_v=3, v_max=1.0, n_i=4, i_max=1.0))
        with pytest.raises(OutOfRange):
            normalizer_discrete(0.0, grid)

    def test_delta_two_matches_unit_integral(self):
        # integral of exp(-I) over the half line is exactly 1
        grid = build_grid(GridConfig(n_x=2, n_v=3, v_max=1.0, n_i=2048, i_max=40.0))
        assert normalizer_discrete(2.0, grid) == pytest.approx(1.0, abs=1e-6)

    def test_delta_one_matches_gamma(self):
        # integral of exp(-I^2) is sqrt(pi)/2 = Gamma(3/2)
        grid = build_grid(GridConfig(n_x=2, n_v=3, v_max=1.0, n_i=2048, i_max=12.0))
        inv = 1.0 / normalizer_discrete(1.0, grid)
        assert inv == pytest.approx(math.gamma(1.5), abs=1e-9)

    def test_converges_to_continuum(self):
        # oracle: adaptive quadrature of the continuum integral
        delta = 1.5
        exact, err = quad(lambda s: math.exp(-(s ** (2.0 / delta))), 0.0, np.inf)
        assert err < 1e-6  # oracle resolution, far below the coarsest grid error
        errors = []
        for n_i in (64, 128, 256):
            grid = build_grid(GridConfig(n_x=2, n_v=3, v_max=1.0, n_i=n_i, i_max=40.0))
            errors.append(abs(1.0 / normalizer_discrete(delta, grid) - exact))
        assert errors[1] < errors[0] / 1.5
        assert errors[2] < errors[1] / 1.5


class TestSchemeParams:
    def test_accepts_admissible(self, default_params):
        assert default_params.q == 8.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(nu=1.0, theta=0.5, delta=2.0, kappa=1.0, q=8.0),
            dict(nu=0.0, theta=0.0, delta=2.0, kappa=1.0, q=8.0),
            dict(nu=0.0, theta=0.5, delta=-1.0, kappa=1.0, q=8.0),
            dict(nu=0.0, theta=0.5, delta=2.0, kappa=0.0, q=8.0),
            dict(nu=0.0, theta=0.5, delta=2.0, kappa=1.0, q=7.0),
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(OutOfRange):
            SchemeParams(**kwargs)

    def test_large_delta_warns_but_runs(self):
        with pytest.warns(UserWarning):
            p = SchemeParams(nu=0.0, theta=1.0, delta=3.0, kappa=1.0, q=9.0)
        assert p.delta == 3.0

    def test_derived_constants_bundle(self, small_grid, default_params):
        d = derived_constants(default_params, small_grid, dt=0.1)
        assert d.collision_freq > 0
        assert d.lambda_delta > 0
        assert d.dt == 0.1
