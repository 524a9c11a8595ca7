from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from polykin import (
    DistField,
    Scenario,
    SchemeParams,
    advect,
    certified_envelope,
    compute_moments,
    conserved_quantities,
    entropy,
    error_sup_norm,
    gaussian_field,
    make_initial,
    normalizer_discrete,
    relax,
    run,
    sample,
    step,
    weighted_sup_norm,
)
from polykin.errors import NegativeInitialData, ValidationError
from polykin.field import row_tiles
from polykin import stepper
from polykin.stepper import _blend_into, _envelope_min_ratio
from tests.conftest import random_field_values


class TestBlendKernel:
    def test_equal_operands_blend_to_themselves_exactly(self, rng):
        x = rng.random((5, 7))
        for c_m in (0.1, 0.5, 0.9, 1.0 - 1e-15):
            ft = x.copy()
            _blend_into(ft, x.copy(), 1.0 - c_m, c_m)
            assert (ft == x).all()

    def test_stays_within_operand_span(self, rng):
        for _ in range(200):
            a = rng.random(64)
            b = rng.random(64)
            c_m = rng.random()
            out = a.copy()
            _blend_into(out, b.copy(), 1.0 - c_m, c_m)
            assert (out >= np.minimum(a, b)).all()
            assert (out <= np.maximum(a, b)).all()


class TestRelax:
    def test_equal_weight_blend(self, small_grid, default_params, rng):
        # kappa = 1 and A*dt = 1 average f~ with its Gaussian
        params = SchemeParams(nu=0.0, theta=1.0, delta=2.0, kappa=1.0, q=8.0)
        f = DistField(random_field_values(rng, small_grid) + 0.05, small_grid)
        macro = compute_moments(f, params, dt=1.0)
        out = relax(f, macro, params, dt=1.0)
        lam = normalizer_discrete(2.0, small_grid)
        gauss = gaussian_field(macro, small_grid, lam, 2.0)
        assert np.allclose(out.values, 0.5 * (f.values + gauss.values), rtol=1e-14)

    def test_vanishing_dt_returns_advected_field(self, small_grid, default_params, rng):
        f = DistField(random_field_values(rng, small_grid) + 0.05, small_grid)
        macro = compute_moments(f, default_params, dt=1e-14)
        out = relax(f, macro, default_params, dt=1e-14)
        assert np.allclose(out.values, f.values, rtol=1e-12)

    def test_free_streaming_limit(self, small_grid, rng):
        params = SchemeParams(nu=0.5, theta=0.8, delta=2.0, kappa=1e12, q=8.0)
        f = DistField(random_field_values(rng, small_grid) + 0.05, small_grid)
        out, _ = step(f, params, dt=0.1)
        pure = advect(f, 0.1)
        assert np.allclose(out.values, pure.values, rtol=1e-10)

    def test_positivity_random_fields(self, small_grid, rng):
        params = SchemeParams(nu=-0.25, theta=0.5, delta=2.0, kappa=1.0, q=8.0)
        for _ in range(25):
            f = DistField(random_field_values(rng, small_grid, sparsity=0.4) + 1e-12,
                          small_grid)
            out, report = step(f, params, dt=rng.uniform(1e-3, 0.2))
            assert (out.values >= 0.0).all()
            assert np.isfinite(report.norm_q)

    def test_equilibrium_relax_defect_is_tiny(self):
        # well-resolved equilibrium data moves by less than 1e-8 per step
        scn = Scenario(
            n_x=2, n_v=25, n_i=160, dt=0.01, t_final=0.01,
            nu=0.0, theta=1.0, delta=2.0, kappa=1.0,
            ic="maxwellian", v_max=8.0, i_max=30.0,
        )
        res = run(scn)
        from polykin import make_initial, sample

        grid, params = scn.validate()
        f0 = sample(make_initial(scn, grid), grid, 0.0)
        diff = np.max(np.abs(res.final.values - f0.values))
        assert diff < 1e-8 * f0.values.max()


class TestRun:
    @pytest.mark.parametrize("diagnostics", ["all", "off"])
    @pytest.mark.parametrize("ic", ["maxwellian", "smooth"])
    def test_zero_final_time_returns_initial(self, ic, diagnostics):
        scn = Scenario(n_x=4, n_v=5, n_i=4, dt=0.1, t_final=0.0,
                       v_max=2.0, i_max=2.0, ic=ic)
        res = run(scn, diagnostics=diagnostics)
        assert res.reports == []
        from polykin import make_initial, sample

        grid, _ = scn.validate()
        f0 = sample(make_initial(scn, grid), grid, 0.0)
        assert (res.final.values == f0.values).all()

    @pytest.mark.parametrize("ic, diagnostics, shifts", [
        ("smooth", "all", [0.0, 0.1]), ("smooth", "no_entropy", [0.0, 0.1]),
        ("smooth", "off", [0.1]),  # nothing reads the nodal f^0
        # x-uniform data: the nodes' values are the feet's
        ("maxwellian", "all", [0.0]), ("maxwellian", "no_entropy", [0.0]),
        ("maxwellian", "off", [0.0])])
    def test_run_samples_what_it_reads(self, monkeypatch, ic, diagnostics, shifts):
        calls, real = [], stepper.sample
        monkeypatch.setattr(stepper, "sample",
                            lambda *args: calls.append(args[2]) or real(*args))
        scn = Scenario(n_x=4, n_v=5, n_i=4, dt=0.1, t_final=0.2, v_max=2.0, i_max=2.0,
                       ic=ic, u0=(0.3, -0.1, 0.2))
        res = run(scn, diagnostics=diagnostics)
        assert calls == shifts
        monkeypatch.setattr(stepper, "sample", real)
        assert res.final.values.tobytes() == run(scn).final.values.tobytes()

    @pytest.mark.parametrize("ic, snapshot_times, copies", [
        ("maxwellian", (), 1), ("maxwellian", (0.1,), 2), ("maxwellian", (0.1, 0.3), 2),
        ("maxwellian", (0.3,), 1), ("smooth", (0.1,), 0)])
    def test_an_x_uniform_run_copies_cell_0_out_where_the_field_is_read(
            self, monkeypatch, ic, snapshot_times, copies):
        # before each snapshot and at the end, never twice when the last step wrote one;
        # in place, from cell 0 into the others, and never for x-dependent data
        calls, real = [], np.copyto
        monkeypatch.setattr(np, "copyto", lambda dst, src: calls.append(
            (dst.base is src.base, len(dst), len(src))) or real(dst, src))
        written = []
        scn = Scenario(n_x=4, n_v=5, n_i=4, dt=0.1, t_final=0.3, v_max=2.0, i_max=2.0, ic=ic,
                       snapshot_times=snapshot_times)
        res = run(scn, lambda t, f: written.append(f.values.copy()))
        assert calls == [(True, 3, 1)] * copies
        if ic == "maxwellian":
            assert all((w == w[:1]).all() for w in [*written, res.final.values])

    @pytest.mark.parametrize("ic", ["maxwellian", "smooth"])
    def test_an_off_run_names_non_finite_initial_data_as_the_others_do(self, ic):
        # (2*pi*T)^1.5 underflows, so every sample is +inf, at the nodes and at the feet
        scn = Scenario(n_x=4, n_v=5, n_i=4, dt=0.1, t_final=0.2, ic=ic, temperature=1e-300)
        for diagnostics in stepper.DIAGNOSTICS:
            with pytest.raises(NegativeInitialData) as exc:
                run(scn, diagnostics=diagnostics)
            assert str(exc.value) == f"initial data has non-finite sample inf (ic = {ic})"

    def test_step_count_enforced(self):
        scn = Scenario(n_x=4, n_v=5, n_i=4, dt=0.125, t_final=1.0,
                       v_max=2.0, i_max=2.0)
        assert scn.n_steps() == 8
        bad = Scenario(n_x=4, n_v=5, n_i=4, dt=0.3, t_final=1.0,
                       v_max=2.0, i_max=2.0)
        with pytest.raises(ValidationError):
            bad.n_steps()

    def test_homogeneous_run_conserves_and_dissipates(self):
        # uniform two-temperature data: conserved sums drift only at the
        # quadrature floor while entropy decreases monotonically
        scn = Scenario(
            n_x=2, n_v=21, n_i=96, dt=0.01, t_final=0.1,
            nu=0.0, theta=1.0, delta=2.0, kappa=1.0,
            ic="maxwellian", t_tr=1.1, t_int=0.85, v_max=8.0, i_max=30.0,
        )
        res = run(scn)
        m0, p0, e0 = res.initial_conserved
        for rep in res.reports:
            # drift floor is set by the energy-quadrature error at this dI
            assert abs(rep.mass - m0) / m0 < 1e-6
            assert abs(rep.energy - e0) / e0 < 1e-6
            assert np.linalg.norm(rep.momentum - p0) < 1e-10
        ent = [r.entropy for r in res.reports]
        assert all(ent[i + 1] <= ent[i] + 1e-10 for i in range(len(ent) - 1))
        # genuine dissipation, not just noise
        assert ent[-1] < ent[0] - 1e-6

    @pytest.mark.parametrize("ic, n_x, n_v, n_i", [("smooth", 8, 5, 4), ("riemann", 6, 3, 1),
                                                   ("maxwellian", 2, 17, 64)])
    def test_initial_norm_and_sums_are_those_of_the_sampled_field(self, ic, n_x, n_v, n_i):
        # run() takes both in one walk of f^0; (2, 17, 64) has cells of several row tiles
        scn = Scenario(n_x=n_x, n_v=n_v, n_i=n_i, dt=0.05, t_final=0.05, ic=ic, v_max=3.0,
                       i_max=4.0, t_tr=1.1, t_int=0.85)
        grid, params = scn.validate()
        f0 = sample(make_initial(scn, grid), grid)
        res = run(scn)
        norm = weighted_sup_norm(f0, params.q, params.delta)
        assert np.float64(res.initial_norm_q).tobytes() == np.float64(norm).tobytes()
        got, expected = res.initial_conserved, conserved_quantities(f0, params.delta)
        assert np.hstack(got).tobytes() == np.hstack(expected).tobytes()

    def test_free_streaming_matches_transport_only(self):
        base = dict(n_x=8, n_v=5, n_i=4, dt=0.05, t_final=0.25,
                    ic="smooth", alpha=0.2, v_max=2.0, i_max=2.0, q=8.0)
        stiff = run(Scenario(kappa=1e12, **base))
        pure = run(Scenario(kappa=1.0, transport_only=True, **base))
        rel = error_sup_norm(stiff.final, pure.final, 8.0, 2.0)
        scale = max(pure.final.values.max(), 1.0)
        assert rel < 1e-9 * scale

    def test_snapshot_writer_called_at_requested_times(self, tmp_path):
        times = []
        scn = Scenario(n_x=4, n_v=5, n_i=4, dt=0.1, t_final=0.5,
                       v_max=2.0, i_max=2.0, snapshot_times=(0.2, 0.5))
        run(scn, snapshot_writer=lambda t, f: times.append(t))
        assert times == [pytest.approx(0.2), pytest.approx(0.5)]

    def test_step_and_run_share_one_pipeline(self):
        # advection of x-uniform data is exact, so step() from the nodal samples
        # and run()'s first step from the exact feet see the same f~
        scn = Scenario(n_x=4, n_v=7, n_i=6, dt=0.1, t_final=0.1, v_max=3.0, i_max=4.0,
                       nu=0.3, theta=0.7, kappa=0.1, u0=(0.3, -0.1, 0.2))
        grid, params = scn.validate()
        out, rep = step(sample(make_initial(scn, grid), grid, 0.0), params, scn.dt)
        res = run(scn)
        assert (out.values == res.final.values).all()
        mine = dataclasses.asdict(rep)
        theirs = dataclasses.asdict(res.reports[0])
        assert np.isfinite(mine.pop("tilde_norm_q"))
        assert theirs.pop("tilde_norm_q") is None  # no envelope monitor
        assert np.array_equal(mine.pop("momentum"), theirs.pop("momentum"))
        assert mine == theirs

    def test_reports_carry_monitor_fields(self):
        scn = Scenario(n_x=4, n_v=5, n_i=4, dt=0.1, t_final=0.3,
                       v_max=2.0, i_max=2.0, envelope="auto")
        res = run(scn)
        for rep in res.reports:
            assert rep.envelope_min_ratio is not None
            assert rep.gaussian_norm_q is not None
            assert np.isfinite(rep.tilde_norm_q)


# 729 velocity rows of 128 energies: row tiles of 256, 256 and a partial 217 per cell
TILED = dict(n_x=3, n_v=9, n_i=128, v_max=3.0, i_max=8.0, dt=0.05, t_final=0.1,
             nu=0.3, theta=0.7, u0=(0.2, 0.0, -0.1), snapshot_times=(0.05, 0.1))
# TILED, on 50 cells of one tile each (groups of one cell), and on 40 cells of a 32-cell
# group and an 8-cell one, whose norms gather their weights beside the product
EXTENTS = [{}, dict(n_x=50, n_i=16), dict(n_x=40, n_v=5, n_i=4)]
EXTENT_IDS = ["tiled", "one_tile_cells", "several_cell_groups"]


def _assert_report_is_of(rep, out, params, diagnostics="all"):
    """The fused pass reports what the standalone diagnostics give on its output, bitwise."""
    mass, mom, energy = conserved_quantities(out, params.delta)
    assert (rep.mass, rep.energy) == (mass, energy)
    assert rep.momentum.tobytes() == mom.tobytes()
    assert rep.norm_q == weighted_sup_norm(out, params.q, params.delta)
    if diagnostics == "all":
        assert rep.entropy == entropy(out)
    else:
        assert math.isnan(rep.entropy)


class TestFusedPass:
    def test_grid_has_several_tiles_and_a_partial_one(self):
        tiles = row_tiles(TILED["n_v"] ** 3, TILED["n_i"])
        assert len(tiles) == 3 and tiles[-1].stop - tiles[-1].start < tiles[0].stop

    @pytest.mark.parametrize("extents", EXTENTS, ids=EXTENT_IDS)
    @pytest.mark.parametrize("envelope", ["off", "auto"])
    @pytest.mark.parametrize("diagnostics", ["all", "no_entropy", "off"])
    @pytest.mark.parametrize("kappa, transport_only", [(1.0, False), (1e-6, False), (1.0, True)],
                             ids=["1.0", "1e-06", "transport_only"])  # c_m <= 1/2, c_m > 1/2
    def test_run_reports_equal_standalone_diagnostics(self, kappa, transport_only,
                                                      diagnostics, envelope, extents):
        scn = Scenario(kappa=kappa, envelope=envelope, transport_only=transport_only,
                       **dict(TILED, **extents))
        outs = []
        res = run(scn, diagnostics=diagnostics,
                  snapshot_writer=lambda t, f: outs.append(DistField(f.values.copy(), f.grid)))
        assert len(outs) == len(res.reports) == 2
        if diagnostics == "off":
            # the same field, bit for bit, one report a step, and nothing taken beside it
            full = run(scn)
            assert res.final.values.tobytes() == full.final.values.tobytes()
            assert [r.time for r in res.reports] == [r.time for r in full.reports]
            for rep in res.reports:
                assert np.isnan(rep.csv_row()[1:]).all()  # all but the time
                assert rep.gaussian_norm_q is rep.tilde_norm_q is rep.envelope_min_ratio is None
            assert np.isnan(np.hstack([res.initial_norm_q, *res.initial_conserved])).all()
            return
        for rep, out in zip(res.reports, outs):
            _assert_report_is_of(rep, out, res.params, diagnostics)
        grid, params = res.grid, res.params
        tilde = sample(make_initial(scn, grid), grid, scn.dt)  # step 0's f~
        rep = res.reports[0]
        if transport_only:  # the output is f~ as it stands
            assert (outs[0].values == tilde.values).all()
        if envelope == "off" or transport_only:
            assert rep.gaussian_norm_q is None
        else:
            gauss = gaussian_field(compute_moments(tilde, params, scn.dt), grid,
                                   normalizer_discrete(params.delta, grid), params.delta)
            assert rep.gaussian_norm_q == weighted_sup_norm(gauss, params.q, params.delta)
        if envelope == "auto":
            # the f~ monitors are read before the relaxation overwrites f~
            assert rep.tilde_norm_q == weighted_sup_norm(tilde, params.q, params.delta)
            env_table = certified_envelope(scn, grid).table(grid)
            assert rep.envelope_min_ratio == _envelope_min_ratio(tilde.cells, env_table)
        else:
            assert rep.tilde_norm_q is None and rep.envelope_min_ratio is None

    @pytest.mark.parametrize("extents", EXTENTS, ids=EXTENT_IDS)
    @pytest.mark.parametrize("kappa, transport_only", [(1.0, False), (1.0, True)],
                             ids=["1.0", "transport_only"])
    def test_an_off_run_takes_no_diagnostic(self, monkeypatch, kappa, transport_only,
                                            extents):
        # "off" keeps the one pass and only branches: it blends each tile and gathers no
        # weights, takes no norm, contraction, conserved sum or f ln f, and reads no monitor
        def forbidden(*args, **kwargs):
            raise AssertionError("a diagnostic ran with diagnostics off")

        for name in ("weight_tile", "energy_contraction", "cell_conserved", "tile_flogf",
                     "conserved_totals", "weighted_sup_norm", "_sup_norm", "_envelope_min_ratio"):
            monkeypatch.setattr(stepper, name, forbidden)
        blends = []
        real_blend = stepper._blend_into
        monkeypatch.setattr(stepper, "_blend_into",
                            lambda *args: blends.append(1) or real_blend(*args))
        scn = Scenario(kappa=kappa, envelope="auto", transport_only=transport_only,
                       **dict(TILED, **extents))
        res = run(scn, diagnostics="off")
        assert len(res.reports) == 2
        assert bool(blends) != transport_only

    @pytest.mark.parametrize("kappa", [1.0, 1e-6])
    def test_step_report_equals_standalone_diagnostics(self, kappa, rng):
        # and on 50 cells of one tile each, which conserved_quantities contracts in blocks
        # of 44 cells and the relaxation one cell at a time, and on groups of several cells
        for extents in EXTENTS:
            grid, _ = Scenario(**dict(TILED, **extents)).validate()
            f = DistField(random_field_values(rng, grid, sparsity=0.2), grid)
            params = SchemeParams(nu=0.3, theta=0.7, delta=2.0, kappa=kappa, q=8.0)
            out, rep = step(f, params, 0.05)
            _assert_report_is_of(rep, out, params)
            assert rep.tilde_norm_q == weighted_sup_norm(advect(f, 0.05), 8.0, 2.0)
