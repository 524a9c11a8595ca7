from __future__ import annotations

import math

import numpy as np
import pytest

from polykin import (
    GridConfig,
    SchemeParams,
    build_grid,
    eval_gaussian,
    factor_spd,
    gaussian_field,
    normalizer_discrete,
    table_moments,
)
from polykin.errors import DegenerateTemperature, NonSPDTensor
from polykin.moments import MacroCell


def isotropic_cell(rho=1.0, u=(0.0, 0.0, 0.0), t=1.0, t_theta=None):
    return MacroCell(
        rho=rho, u=np.asarray(u, dtype=float), theta_tensor=t * np.eye(3),
        t_tr=t, t_int=t, t_delta=t, t_theta=t if t_theta is None else t_theta,
        t_blend=t * np.eye(3),
    )


class TestFactorSpd:
    def test_identity(self):
        assert (factor_spd(np.eye(3)) == np.eye(3)).all()

    def test_diagonal(self):
        assert (np.diag(factor_spd(np.diag([4.0, 9.0, 16.0]))) == [2.0, 3.0, 4.0]).all()

    def test_random_spd_reconstructs(self, rng):
        for _ in range(50):
            m = rng.normal(size=(3, 3))
            a = m @ m.T + np.eye(3)
            lower = factor_spd(a)
            assert np.allclose(lower @ lower.T, a, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("bad", [np.diag([1.0, 1.0, -1.0]), np.zeros((3, 3))])
    def test_non_spd_rejected(self, bad):
        with pytest.raises(NonSPDTensor):
            factor_spd(bad)


class TestEvalGaussian:
    def test_peak_value_formula(self, small_grid):
        lam = normalizer_discrete(2.0, small_grid)
        cell = isotropic_cell(rho=2.5)
        table = eval_gaussian(cell, small_grid, lam, delta=2.0)
        j0 = list(small_grid.v_axis).index(0.0)
        expected = 2.5 * lam / (2.0 * math.pi) ** 1.5
        assert table[j0, j0, j0, 0] == pytest.approx(expected, rel=1e-15)

    def test_matches_closed_form_isotropic(self):
        # independent evaluation without any factorization; exponents stay
        # small enough that 1e-14 relative agreement is meaningful
        grid = build_grid(GridConfig(n_x=2, n_v=9, v_max=2.5, n_i=6, i_max=4.0))
        lam = normalizer_discrete(2.0, grid)
        t = 1.0
        u = np.array([0.3, -0.2, 0.1])
        cell = isotropic_cell(rho=1.3, u=u, t=t)
        table = eval_gaussian(cell, grid, lam, delta=2.0)
        v = grid.v_axis
        dv1 = (v[:, None, None] - u[0]) ** 2
        dv2 = (v[None, :, None] - u[1]) ** 2
        dv3 = (v[None, None, :] - u[2]) ** 2
        vel = np.exp(-(dv1 + dv2 + dv3) / (2 * t)) / (2 * math.pi * t) ** 1.5
        eng = lam * np.exp(-grid.i_nodes / t) / t
        expected = 1.3 * vel[..., None] * eng
        assert np.allclose(table, expected, rtol=1e-14, atol=0)

    def test_positive_and_decaying_along_rays(self, small_grid):
        lam = normalizer_discrete(2.0, small_grid)
        table = eval_gaussian(isotropic_cell(), small_grid, lam, delta=2.0)
        assert (table > 0).all()
        j0 = list(small_grid.v_axis).index(0.0)
        axis = table[:, j0, j0, 0]
        assert (np.diff(axis[j0:]) < 0).all()     # decreasing away from u
        assert (np.diff(table[j0, j0, j0, :]) < 0).all()  # decreasing in I

    def test_reflection_symmetry_exact(self, small_grid):
        lam = normalizer_discrete(2.0, small_grid)
        table = eval_gaussian(isotropic_cell(), small_grid, lam, delta=2.0)
        flipped = table[::-1, ::-1, ::-1, :]
        assert (table == flipped).all()

    def test_linear_in_density(self, small_grid):
        lam = normalizer_discrete(2.0, small_grid)
        t1 = eval_gaussian(isotropic_cell(rho=1.0), small_grid, lam, delta=2.0)
        t7 = eval_gaussian(isotropic_cell(rho=7.0), small_grid, lam, delta=2.0)
        assert np.allclose(t7, 7.0 * t1, rtol=1e-15, atol=0)

    def test_degenerate_temperature_rejected(self, small_grid):
        lam = normalizer_discrete(2.0, small_grid)
        with pytest.raises(DegenerateTemperature):
            eval_gaussian(isotropic_cell(t_theta=0.0), small_grid, lam, delta=2.0)

    def test_non_spd_cell_rejected(self, small_grid):
        lam = normalizer_discrete(2.0, small_grid)
        cell = isotropic_cell()
        bad = MacroCell(**{**cell.__dict__, "t_blend": np.diag([1.0, -1.0, 1.0])})
        with pytest.raises(NonSPDTensor):
            eval_gaussian(bad, small_grid, lam, delta=2.0)


class TestMomentConsistency:
    def test_moment_recovery_improves_under_refinement(self):
        # the recovered density defect of an off-unit-temperature cell must
        # drop by at least the first-order factor when (dv, dI) halve
        params = SchemeParams(nu=0.0, theta=1.0, delta=2.0, kappa=1.0, q=8.0)
        cell = isotropic_cell(t=0.9, t_theta=0.8)
        errors = []
        for (n_v, n_i) in ((17, 48), (33, 96)):
            grid = build_grid(GridConfig(n_x=2, n_v=n_v, v_max=6.0, n_i=n_i, i_max=20.0))
            lam = normalizer_discrete(2.0, grid)
            table = eval_gaussian(cell, grid, lam, delta=2.0)
            rec = table_moments(table, grid, params, dt=0.0)
            errors.append(abs(rec.rho - 1.0))
        assert errors[1] < errors[0] / 1.5

    def test_gaussian_field_matches_per_cell(self, small_grid, rng):
        params = SchemeParams(nu=0.5, theta=0.8, delta=2.0, kappa=1.0, q=8.0)
        lam = normalizer_discrete(2.0, small_grid)
        from polykin import DistField, compute_moments
        from tests.conftest import random_field_values

        f = DistField(random_field_values(rng, small_grid) + 0.05, small_grid)
        macro = compute_moments(f, params, dt=0.1)
        field = gaussian_field(macro, small_grid, lam, delta=2.0)
        for i in range(small_grid.n_x):
            table = eval_gaussian(macro.cell(i), small_grid, lam, delta=2.0)
            assert (field.values[i] == table).all()
