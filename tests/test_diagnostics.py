from __future__ import annotations

import io
import warnings

import numpy as np
import pytest

from polykin import (
    DistField,
    Scenario,
    StabilityEnvelope,
    check_envelopes,
    conserved_quantities,
    entropy,
    equilibrium_distance,
    normalizer_discrete,
    observed_order,
    run,
    sample,
)
from polykin.errors import DegenerateTable, InvalidConfig, NegativeField
from tests.conftest import random_field_values
from tests.test_field import maxwellian


class TestConserved:
    def test_zero_field(self, small_grid):
        mass, mom, energy = conserved_quantities(
            DistField(np.zeros(small_grid.field_shape), small_grid), 2.0
        )
        assert (mass, energy) == (0.0, 0.0)
        assert (mom == 0.0).all()

    def test_point_mass_single_term(self, small_grid):
        jv, k = (4, 2, 1), 3  # node v = (2, 0, -1), I = 1.5
        vals = np.zeros(small_grid.field_shape)
        vals[1, jv[0], jv[1], jv[2], k] = 1.0 / (small_grid.dv**3 * small_grid.i_weights[k])
        mass, mom, energy = conserved_quantities(DistField(vals, small_grid), 2.0)
        v_star = np.array([2.0, 0.0, -1.0])
        eps_star = small_grid.i_nodes[k]  # delta = 2
        dx = small_grid.dx
        assert mass == pytest.approx(dx, rel=1e-14)
        assert np.allclose(mom, dx * v_star, rtol=1e-14, atol=1e-18)
        assert energy == pytest.approx(dx * (2.5 + eps_star), rel=1e-14)

    def test_sampled_equilibrium_totals(self):
        from polykin import GridConfig, build_grid

        grid = build_grid(GridConfig(n_x=2, n_v=33, v_max=8.0, n_i=160, i_max=30.0))
        lam = normalizer_discrete(2.0, grid)
        f = sample(maxwellian(1.0, 0.0, 1.0, lam), grid)
        mass, mom, energy = conserved_quantities(f, 2.0)
        # E = (3 + delta)/2 * rho * T = 2.5 for unit density and temperature
        assert mass == pytest.approx(1.0, abs=1e-6)
        assert np.all(np.abs(mom) < 1e-12)
        assert energy == pytest.approx(2.5, abs=1e-6)

    def test_linearity(self, small_grid, rng):
        a = random_field_values(rng, small_grid)
        b = random_field_values(rng, small_grid)
        ca = conserved_quantities(DistField(a, small_grid), 2.0)
        cb = conserved_quantities(DistField(b, small_grid), 2.0)
        cab = conserved_quantities(DistField(a + 2.0 * b, small_grid), 2.0)
        assert cab[0] == pytest.approx(ca[0] + 2 * cb[0], rel=1e-13)
        assert cab[2] == pytest.approx(ca[2] + 2 * cb[2], rel=1e-13)


class TestEntropy:
    def test_zero_field_is_zero(self, small_grid):
        assert entropy(DistField(np.zeros(small_grid.field_shape), small_grid)) == 0.0

    def test_unit_field_is_zero(self, small_grid):
        assert entropy(DistField(np.ones(small_grid.field_shape), small_grid)) == 0.0

    def test_negative_field_rejected(self, small_grid):
        vals = np.zeros(small_grid.field_shape)
        vals[0, 0, 0, 0, 0] = -1.0
        with pytest.raises(NegativeField):
            entropy(DistField(vals, small_grid))

    def test_invariant_under_advection_of_uniform_data(self, small_grid, rng):
        from polykin import advect

        uniform = np.broadcast_to(
            rng.random((1,) + small_grid.field_shape[1:]), small_grid.field_shape
        ).copy()
        f = DistField(uniform, small_grid)
        assert entropy(advect(f, 0.37)) == entropy(f)


class TestEnvelopes:
    def scenario(self, **over):
        base = dict(
            n_x=8, n_v=9, n_i=8, dt=0.01, t_final=0.2,
            nu=0.5, theta=0.8, delta=2.0, kappa=1.0,
            ic="smooth", alpha=0.2, v_max=4.0, i_max=8.0, envelope="auto",
        )
        base.update(over)
        return Scenario(**base)

    def test_certified_envelope_holds_at_start(self):
        from polykin import certified_envelope, make_initial

        scn = self.scenario()
        grid, _ = scn.validate()
        env = certified_envelope(scn, grid)
        f0 = sample(make_initial(scn, grid), grid, 0.0)
        tab = env.table(grid).reshape(grid.n_v, grid.n_v, grid.n_v, grid.n_i)
        assert (f0.values >= tab[None] * (1 - 1e-12)).all()

    def test_short_run_reports_no_violations(self):
        res = run(self.scenario())
        env = StabilityEnvelope(c01=1.0, c02=0.5, a_exp=2.0, b_exp=2.0)
        report = check_envelopes(res, env)
        assert report.ok
        assert report.first_violation is None
        assert 0.0 < report.decay_factor < 1.0
        assert report.growth_factor >= 1.0
        assert 0.5 < report.lattice_mass_ratio < 2.0

    def test_pure_transport_preserves_lower_envelope(self):
        res = run(self.scenario(transport_only=True))
        # with no relaxation the ratio never drops below its initial value
        ratios = [r.envelope_min_ratio for r in res.reports]
        assert all(r >= ratios[0] * (1 - 1e-12) for r in ratios)
        assert all(r >= 1.0 - 1e-12 for r in ratios)

    def test_transport_only_run_keeps_both_envelopes(self):
        # no Gaussian is built, so A*dt = 0 and neither bound may move
        from polykin import certified_envelope

        scn = Scenario(n_x=8, n_v=5, n_i=4, dt=0.05, t_final=0.5, v_max=2.0, i_max=2.0,
                       ic="smooth", envelope="auto", transport_only=True)
        grid, _ = scn.validate()
        report = check_envelopes(run(scn), certified_envelope(scn, grid))
        assert report.lower_violations == 0
        assert report.upper_violations == 0
        assert report.decay_factor == 1.0
        assert report.growth_factor == 1.0

    @pytest.mark.parametrize("v_max", [40.0, 8.0])
    def test_underflowing_envelope_is_certified_on_its_positive_nodes(self, v_max):
        # exp(-(|v|^2 + I^2)/2) underflows to 0 at the far nodes of both grids; at
        # v_max = 40 the samples do too, and 0/0 once made c01 NaN
        from polykin import certified_envelope

        scn = Scenario(ic="smooth", n_x=4, n_v=9, n_i=16, v_max=v_max, i_max=40.0, dt=0.1,
                       t_final=0.2, envelope="auto")
        grid, _ = scn.validate()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            env = certified_envelope(scn, grid)
            res = run(scn)
            report = check_envelopes(res, env)
        assert (env.table(grid) == 0).any()
        assert env.c01 == pytest.approx(0.04700315, rel=1e-6)
        ratios = [r.envelope_min_ratio for r in res.reports]
        assert all(np.isfinite(ratios)) and ratios[0] >= 1.0
        assert report.ok
        assert np.isfinite(report.worst_lower_slack) and np.isfinite(report.lattice_mass_ratio)

    @pytest.mark.parametrize("c01", [np.nan, np.inf])
    def test_non_finite_envelope_constant_rejected(self, c01):
        with pytest.raises(InvalidConfig):
            StabilityEnvelope(c01=c01, c02=0.5, a_exp=2.0, b_exp=2.0)

    def test_missing_monitor_data_is_an_error(self):
        res = run(self.scenario(envelope="off"))
        env = StabilityEnvelope(c01=1.0, c02=0.5, a_exp=2.0, b_exp=2.0)
        with pytest.raises(ValueError):
            check_envelopes(res, env)


class TestEquilibriumDistance:
    def test_gaussian_field_is_near_equilibrium(self, default_params):
        from polykin import GridConfig, build_grid

        grid = build_grid(GridConfig(n_x=2, n_v=25, v_max=8.0, n_i=96, i_max=25.0))
        lam = normalizer_discrete(2.0, grid)
        f = sample(maxwellian(1.0, 0.0, 1.0, lam), grid)
        # the q-weight amplifies tail differences, so the floor sits well
        # above the bare moment error at this resolution
        assert equilibrium_distance(f, default_params) < 5e-5

    def test_perturbed_field_is_farther(self, default_params, rng):
        from polykin import GridConfig, build_grid

        grid = build_grid(GridConfig(n_x=2, n_v=25, v_max=8.0, n_i=96, i_max=25.0))
        lam = normalizer_discrete(2.0, grid)
        f = sample(maxwellian(1.0, 0.0, 1.0, lam), grid)
        base = equilibrium_distance(f, default_params)
        f.values *= 1.0 + 0.2 * (f.grid.velocity_tables()[3] > 2.0).reshape(
            1, f.grid.n_v, f.grid.n_v, f.grid.n_v, 1
        )
        assert equilibrium_distance(f, default_params) > max(10 * base, 1e-4)


class TestObservedOrder:
    def test_exact_first_order_sequence(self):
        tab = observed_order([(0.4, 4.0), (0.2, 2.0), (0.1, 1.0)])
        assert tab.orders == pytest.approx([1.0, 1.0])

    def test_exact_second_order_sequence(self):
        tab = observed_order([(0.4, 16.0), (0.2, 4.0), (0.1, 1.0)])
        assert tab.orders == pytest.approx([2.0, 2.0])

    @pytest.mark.parametrize(
        "rows",
        [
            [(0.4, 4.0), (0.2, 2.0)],                       # too few levels
            [(0.4, 4.0), (0.2, 0.0), (0.1, 1.0)],           # zero error
            [(0.4, 1.0), (0.2, 2.0), (0.1, 0.5)],           # non-monotone
            [(0.2, 4.0), (0.4, 2.0), (0.1, 1.0)],           # h not decreasing
        ],
    )
    def test_degenerate_tables_rejected(self, rows):
        with pytest.raises(DegenerateTable):
            observed_order(rows)

    def test_emitters(self):
        tab = observed_order([(0.4, 4.0), (0.2, 2.0), (0.1, 1.0)])
        buf = io.StringIO()
        tab.to_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "level,h,error,observed_order"
        assert len(lines) == 4
        md = tab.to_markdown()
        assert md.count("|") > 10
        assert "1.000" in md
