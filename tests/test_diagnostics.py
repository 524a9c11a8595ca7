from __future__ import annotations

import dataclasses
import io
import warnings

import numpy as np
import pytest

from polykin import (
    DistField,
    GridConfig,
    Scenario,
    StabilityEnvelope,
    build_grid,
    check_envelopes,
    conserved_quantities,
    entropy,
    equilibrium_distance,
    normalizer_discrete,
    observed_order,
    run,
    sample,
)
from polykin.diagnostics import tile_flogf
from polykin.field import row_tiles
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

    @pytest.mark.parametrize("nan_first", [False, True])
    def test_negative_entry_in_any_tile_is_rejected(self, nan_first):
        # each row tile's sign is checked before its log; a whole-field min() read NaN
        # once any entry was NaN, so a negative entry after it went through
        grid = build_grid(GridConfig(n_x=2, n_v=9, v_max=3.0, n_i=128, i_max=8.0))
        assert len(row_tiles(grid.n_v**3, grid.n_i)) == 3
        vals = np.ones(grid.field_shape)
        vals[-1, -1, -1, -1, -1] = -1.0  # the last tile of the last cell
        if nan_first:
            vals[0, 0, 0, 0, 0] = np.nan
        with pytest.raises(NegativeField, match="entropy requires a nonnegative field"):
            entropy(DistField(vals, grid))

    def test_invariant_under_advection_of_uniform_data(self, small_grid, rng):
        from polykin import advect

        uniform = np.broadcast_to(
            rng.random((1,) + small_grid.field_shape[1:]), small_grid.field_shape
        ).copy()
        f = DistField(uniform, small_grid)
        assert entropy(advect(f, 0.37)) == entropy(f)

    def test_flogf_rows_equal_the_masked_log_formula(self, rng):
        # the formula tile_flogf used before it took a plain log: ln only where t != 0
        def oracle(t, wk):
            b = np.zeros(t.shape)
            np.log(t, out=b, where=t != 0)
            with np.errstate(over="ignore"):
                b *= t
            return b @ wk

        t = rng.random((40, 7)) * np.exp(rng.uniform(-700, 700, (40, 7)))
        t[::3, 1] = 0.0
        t[1::5, 2] = -0.0
        t[2, :] = 0.0  # a row of zeros
        t[5, 4], t[6, 0], t[7, 6] = np.nan, np.inf, 5e-324  # NaN, inf, a subnormal
        t[8, 3], t[9, 5] = 1.0, 1e308  # ln 1 = 0; f ln f overflows
        wk = rng.random(7) + 0.1
        rows = np.empty(40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tile_flogf(t, wk, rows, np.empty_like(t))
        assert rows.tobytes() == oracle(t, wk).tobytes()
        assert np.isnan(rows[5]) and rows[6] == np.inf and rows[2] == 0.0


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
        # v_max = 40 the samples do too, and 0/0 once made c01 NaN.  Neither grid
        # violates a bound, but at v_max = 40 (dv = 10) the envelope's lattice mass
        # is 47 times its integral, so the bounds are vacuous and the verdict is not ok
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
        assert report.lower_violations == 0 and report.upper_violations == 0
        assert np.isfinite(report.worst_lower_slack) and np.isfinite(report.lattice_mass_ratio)
        if v_max == 40.0:
            assert report.lattice_mass_ratio == pytest.approx(47.317, rel=1e-4)
            assert not report.ok
        else:
            assert 0.5 <= report.lattice_mass_ratio <= 2.0
            assert report.ok

    @pytest.mark.parametrize("scale, violations", [(0.5, 0), (2.0, 10)])
    def test_explicit_envelope_above_the_data_is_violated_from_step_0(self, scale,
                                                                      violations):
        # criterion 9's scenario for 10 steps; twice the certified c01 lies above f^0
        from polykin import certified_envelope

        auto = self.scenario(n_x=16, dt=5e-3, t_final=0.05)
        grid, _ = auto.validate()
        c01 = scale * certified_envelope(auto, grid).c01
        scn = dataclasses.replace(auto, envelope="explicit", c01=c01, c02=0.5)
        env = certified_envelope(scn, grid)
        assert (env.c01, env.c02) == (c01, 0.5)
        report = check_envelopes(run(scn, diagnostics="no_entropy"), env)
        assert report.lower_violations == violations
        assert report.upper_violations == 0
        assert report.first_violation == (0 if violations else None)
        assert report.ok == (violations == 0)

    @pytest.mark.parametrize("bound", ["lower", "upper"])
    def test_a_bound_that_underflows_or_overflows_bounds_nothing(self, bound):
        # kappa = 1e-6 and A*dt = 0.056 make the decay 1.8e-5, whose power underflows to 0
        # after 68 reports (ratio / 0 raised ZeroDivisionError); a Gaussian norm 1e10 times
        # the run's makes a growth whose power overflows after about 30 (OverflowError).
        # Such a bound adds no violation and no slack: the report on 80 reports equals the
        # one on their first 2, where the worst slacks lie
        from polykin import certified_envelope

        scn = self.scenario(kappa=1e-6, dt=0.05, t_final=0.1)
        grid, _ = scn.validate()
        env = certified_envelope(scn, grid)
        res = run(scn, diagnostics="no_entropy")
        reports = res.reports
        if bound == "upper":
            reports = [dataclasses.replace(r, gaussian_norm_q=1e10 * r.gaussian_norm_q)
                       for r in reports]
        long = check_envelopes(dataclasses.replace(res, reports=reports * 40), env)
        short = check_envelopes(dataclasses.replace(res, reports=reports), env)
        assert long.steps == 80
        if bound == "lower":
            assert long.decay_factor ** 79 == 0.0
        else:
            assert long.growth_factor > 1e9
        for name in ("lower_violations", "upper_violations", "first_violation",
                     "worst_lower_slack", "worst_upper_slack"):
            assert getattr(long, name) == getattr(short, name), name

    def test_min_ratio_skips_each_nan_quotient(self):
        # node by node, so a NaN cannot hide the minimum of the tile or group holding it;
        # where the table is 0 nothing is bounded, not even a negative value
        from polykin.diagnostics import masked_min_ratio

        table = np.ones((4, 2))
        table[3] = 0.0
        stack = np.full((3, 4, 2), 2.0)
        stack[1, 0, 0], stack[1, 2, 1], stack[2, 3, 0] = np.nan, 0.5, -7.0
        assert masked_min_ratio(stack, table) == 0.5
        assert masked_min_ratio(stack[:1], table) == 2.0

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
