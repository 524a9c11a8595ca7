from __future__ import annotations

import numpy as np
import pytest

from polykin import (
    DistField,
    GridConfig,
    SchemeParams,
    blend_factors,
    build_grid,
    compute_moments,
    normalizer_discrete,
    sample,
    table_moments,
    tensor_sandwich_check,
)
from polykin import field as field_module, moments, stepper
from polykin.field import cell_tiles
from polykin.errors import (BoundViolated, NegativeField, NonFiniteField, PolykinError,
                            ZeroDensity)
from polykin.stepper import _relax_into
from tests.conftest import random_field_values
from tests.test_field import maxwellian


def fine_grid():
    # resolves a unit-temperature Gaussian to ~1e-7 in every moment
    return build_grid(GridConfig(n_x=2, n_v=33, v_max=8.0, n_i=160, i_max=30.0))


class TestComputeMoments:
    def test_point_mass_single_term_sums(self, small_grid, default_params):
        jv = (3, 1, 2)  # node (1, -1, 0)
        k = 2           # I = 1.0
        vals = np.zeros(small_grid.field_shape)
        vals[:, jv[0], jv[1], jv[2], k] = 1.0 / (small_grid.dv**3 * small_grid.i_weights[k])
        macro = compute_moments(DistField(vals, small_grid), default_params, dt=0.0)
        v_star = np.array([1.0, -1.0, 0.0])
        eps_star = small_grid.i_nodes[k] ** (2.0 / default_params.delta)
        assert macro.rho == pytest.approx(1.0, rel=1e-14)
        assert np.allclose(macro.u, v_star, atol=1e-14)
        assert np.all(np.abs(macro.theta_tensor) < 1e-20)
        assert abs(macro.t_tr[0]) < 1e-20
        assert macro.t_int[0] == pytest.approx(
            (2.0 / default_params.delta) * eps_star, rel=1e-13
        )

    def test_sampled_equilibrium_recovers_unit_moments(self):
        grid = fine_grid()
        params = SchemeParams(nu=0.5, theta=0.8, delta=2.0, kappa=1.0, q=8.0)
        lam = normalizer_discrete(2.0, grid)
        f = sample(maxwellian(1.0, 0.0, 1.0, lam), grid)
        macro = compute_moments(f, params, dt=0.0)
        # analytic targets: rho = 1, t_tr = t_int = 1
        assert np.allclose(macro.rho, 1.0, atol=1e-6)
        assert np.allclose(macro.t_tr, 1.0, atol=1e-6)
        assert np.allclose(macro.t_int, 1.0, atol=1e-6)
        assert np.all(np.abs(macro.u) < 1e-12)

    def test_blend_collapses_for_bgk_corner(self, small_grid, rng):
        # nu = 0, theta = 1: the tensor is exactly lam * t_delta * Id with lam = 1
        params = SchemeParams(nu=0.0, theta=1.0, delta=2.0, kappa=0.7, q=8.0)
        f = DistField(random_field_values(rng, small_grid) + 0.01, small_grid)
        macro = compute_moments(f, params, dt=0.3)
        for i in range(small_grid.n_x):
            expected = np.diag(np.full(3, macro.t_delta[i]))
            assert (macro.t_blend[i] == expected).all()

    def test_velocity_node_shift_is_galilean(self, rng):
        # shifting the whole distribution by one velocity node moves u and
        # leaves the centered moments unchanged (support stays interior)
        grid = build_grid(GridConfig(n_x=2, n_v=17, v_max=8.0, n_i=8, i_max=8.0))
        params = SchemeParams(nu=0.3, theta=0.6, delta=2.0, kappa=1.0, q=8.0)
        lam = normalizer_discrete(2.0, grid)
        f = sample(maxwellian(1.0, 0.5, 0.5, lam), grid)
        shifted = DistField(np.roll(f.values, 1, axis=1), grid)
        m0 = compute_moments(f, params, dt=0.0)
        m1 = compute_moments(shifted, params, dt=0.0)
        assert np.allclose(m1.u[:, 0] - m0.u[:, 0], grid.dv, rtol=1e-10)
        assert np.allclose(m1.theta_tensor, m0.theta_tensor, rtol=1e-9, atol=1e-12)
        assert np.allclose(m1.t_tr, m0.t_tr, rtol=1e-9)

    def test_trace_identity(self, small_grid, default_params, rng):
        f = DistField(random_field_values(rng, small_grid) + 1e-3, small_grid)
        macro = compute_moments(f, default_params, dt=0.1)
        trace = macro.theta_tensor[:, 0, 0] + macro.theta_tensor[:, 1, 1] + macro.theta_tensor[:, 2, 2]
        assert np.allclose(trace, 3.0 * macro.t_tr, rtol=1e-14)

    def test_relaxation_temperature_bounds(self, small_grid, rng):
        for params in (
            SchemeParams(nu=-0.25, theta=0.25, delta=2.0, kappa=1.0, q=8.0),
            SchemeParams(nu=0.5, theta=0.8, delta=1.0, kappa=1.0, q=8.0),
            SchemeParams(nu=0.9, theta=1.0, delta=2.0, kappa=1.0, q=8.0),
        ):
            f = DistField(random_field_values(rng, small_grid) + 1e-6, small_grid)
            macro = compute_moments(f, params, dt=0.05)
            lo = params.theta * macro.t_delta
            hi = (params.delta + 3.0 * (1.0 - params.theta)) / params.delta * macro.t_delta
            assert np.all(macro.t_theta >= lo * (1 - 1e-12))
            assert np.all(macro.t_theta <= hi * (1 + 1e-12))

    def test_blend_eigenvalues_respect_lower_bound(self, small_grid, rng):
        params = SchemeParams(nu=-0.25, theta=0.4, delta=2.0, kappa=0.5, q=8.0)
        lam, _ = blend_factors(params.nu, params.theta, params.kappa, 0.07)
        f = DistField(random_field_values(rng, small_grid) + 1e-6, small_grid)
        macro = compute_moments(f, params, dt=0.07)
        for i in range(small_grid.n_x):
            eigs = np.linalg.eigvalsh(macro.t_blend[i])
            assert eigs.min() >= lam * params.theta * macro.t_delta[i] * (1 - 1e-12)

    def test_zero_density_rejected(self, small_grid, default_params):
        f = DistField(np.zeros(small_grid.field_shape), small_grid)
        with pytest.raises(ZeroDensity) as exc:
            compute_moments(f, default_params, dt=0.0)
        assert exc.value.cell == 0

    def test_negative_field_rejected(self, small_grid, default_params, rng):
        vals = random_field_values(rng, small_grid)
        vals[1, 2, 2, 2, 1] = -1e-9
        with pytest.raises(NegativeField):
            compute_moments(DistField(vals, small_grid), default_params, dt=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_names_the_cell(self, small_grid, default_params, rng, bad):
        # NaN passes the sign check; both must stop before the Gaussian is built
        vals = random_field_values(rng, small_grid)
        vals[2, 1, 3, 0, 2] = bad
        with pytest.raises(NonFiniteField) as exc, np.errstate(invalid="ignore"):
            compute_moments(DistField(vals, small_grid), default_params, dt=0.1)
        assert exc.value.cell == 2
        assert "cell 2" in str(exc.value)

    def test_each_cell_is_contracted_once(self, default_params, rng, monkeypatch):
        # the moments take every block in one pass, with no second contraction of the stack
        # however many blocks it has, one call a tile of the block's field.cell_tiles: 75
        # blocks of up to 1,213 cells in groups of 606 make 223 calls; a cell of 39 row
        # tiles is contracted tile by tile, each tile once
        contract, rows = moments.energy_contraction, []

        def counted(values, *args, **kwargs):
            rows.append(values[..., 0].size)
            return contract(values, *args, **kwargs)

        monkeypatch.setattr(moments, "energy_contraction", counted)
        for n_x, n_v, n_i in [(90000, 3, 1), (3, 17, 256)]:
            grid = build_grid(GridConfig(n_x=n_x, n_v=n_v, v_max=3.0, n_i=n_i, i_max=8.0))
            f = DistField(random_field_values(rng, grid) + 0.05, grid)
            rows.clear()
            compute_moments(f, default_params, dt=0.1)
            assert sum(rows) / n_v**3 == n_x, sum(rows) / n_v**3  # cells contracted
            block, _ = moments.moments_tiling(n_x, n_v)
            calls = 0
            for start in range(0, n_x, block):
                cells, tiles = cell_tiles(min(block, n_x - start), n_v**3, n_i)
                calls += len(cells) * len(tiles)
            assert len(rows) == calls, (len(rows), calls)

    def test_relax_contracts_a_group_of_cells_at_a_time(self, default_params, rng,
                                                         monkeypatch):
        # 40 cells of 125 rows fit in groups of 32 (half a 8,192-row tile at n_i = 4): two
        # calls, one a group, where a call a cell made 40; a cell of 39 row tiles is still
        # contracted tile by tile, each tile once
        contract, rows = stepper.energy_contraction, []

        def counted(values, *args, **kwargs):
            rows.append(values[..., 0].size)
            return contract(values, *args, **kwargs)

        monkeypatch.setattr(stepper, "energy_contraction", counted)
        for n_x, n_v, n_i, calls in [(40, 5, 4, 2), (3, 17, 256, 3 * 39)]:
            grid = build_grid(GridConfig(n_x=n_x, n_v=n_v, v_max=3.0, n_i=n_i, i_max=8.0))
            f = DistField(random_field_values(rng, grid) + 0.05, grid)
            macro = compute_moments(f, default_params, dt=0.1)
            rows.clear()
            _relax_into(f, macro, default_params, 0.1)
            assert sum(rows) / n_v**3 == n_x, sum(rows) / n_v**3  # cells contracted
            assert len(rows) == calls, len(rows)

    @pytest.mark.parametrize("bad", [None, "negative", "nan", "inf", "zero_density"])
    @pytest.mark.parametrize("n_v, n_i, tile_bytes", [(5, 4, 256 * 1024), (9, 16, 800)],
                             ids=["one_tile", "row_tiles"])
    def test_carried_contraction_gives_the_moments_of_the_field(
            self, default_params, rng, monkeypatch, bad, n_v, n_i, tile_bytes):
        # the contraction and the minimum that a pass over cell 0 carries give what reading
        # the cell gives, bit for bit, or raise the same error with the same message; the
        # field is not read.  A pass that leaves f~ as it is (macro None) carries f~'s own,
        # a relaxing one its output's
        monkeypatch.setattr(field_module, "TILE_BYTES", tile_bytes)
        grid = build_grid(GridConfig(n_x=3, n_v=n_v, v_max=3.0, n_i=n_i, i_max=8.0))
        vals = random_field_values(rng, grid) + 0.05
        vals[:] = vals[:1]  # x-uniform
        cell = vals[0].reshape(n_v**3, n_i)
        if bad == "zero_density":
            cell[:] = 0.0
        elif bad is not None:
            cell[n_v**3 // 2, n_i - 1] = {"negative": -1e-9, "nan": np.nan, "inf": np.inf}[bad]
        f = DistField(vals, grid)

        def outcome(carried):
            try:
                macro = compute_moments(f, default_params, 0.1, n_cells=1, carried=carried)
            except PolykinError as exc:
                return type(exc), str(exc)
            return [getattr(macro, name).tobytes() for name in vars(macro)]

        def unread(carried):  # with moments._contract_cells, which reads the field, gone
            with monkeypatch.context() as m:
                m.setattr(moments, "_contract_cells", None)
                return outcome(carried)

        with np.errstate(invalid="ignore", over="ignore"):
            *_, carried = _relax_into(f, None, default_params, 0.1, "no_entropy", uniform=True,
                                      carry=True)
            read = outcome(None)
            assert unread(carried) == read
        assert (bad is None) == isinstance(read, list), read
        if bad is not None:
            assert read[0] is {"negative": NegativeField,
                               "zero_density": ZeroDensity}.get(bad, NonFiniteField), read
            return
        for diagnostics in ("all", "no_entropy", "off"):
            macro = compute_moments(f, default_params, 0.1, n_cells=1)
            *_, carried = _relax_into(f, macro, default_params, 0.1, diagnostics, uniform=True,
                                      carry=True)
            assert unread(carried) == outcome(None)

    @pytest.mark.parametrize("n_x", [2, 3, 4, 7])
    def test_table_moments_matches_field_path(self, default_params, rng, n_x):
        grid = build_grid(GridConfig(n_x=n_x, n_v=5, v_max=2.0, n_i=4, i_max=2.0))
        vals = random_field_values(rng, grid) + 1e-3
        macro = compute_moments(DistField(vals, grid), default_params, dt=0.2)
        for i in range(n_x):
            cell = table_moments(vals[i], grid, default_params, dt=0.2)
            assert cell.rho == macro.rho[i]
            assert (cell.u == macro.u[i]).all(), i
            assert (cell.theta_tensor == macro.theta_tensor[i]).all(), i
            assert (cell.t_blend == macro.t_blend[i]).all(), i


class TestSandwich:
    def test_isotropic_cell_has_positive_margins(self, small_grid):
        params = SchemeParams(nu=0.5, theta=0.8, delta=2.0, kappa=1.0, q=8.0)
        lam = normalizer_discrete(2.0, small_grid)
        f = sample(maxwellian(1.0, 0.0, 1.0, lam), small_grid)
        macro = compute_moments(f, params, dt=0.1)
        report = tensor_sandwich_check(macro.cell(0), params, dt=0.1, trials=200)
        assert report.worst_lower_margin > 0
        assert report.worst_upper_margin > 0

    def test_bgk_corner_degenerates_to_equality(self, small_grid, rng):
        # nu = 0, theta = 1: both bounds coincide with the quadratic form
        params = SchemeParams(nu=0.0, theta=1.0, delta=2.0, kappa=1.0, q=8.0)
        f = DistField(random_field_values(rng, small_grid) + 0.01, small_grid)
        macro = compute_moments(f, params, dt=0.1)
        report = tensor_sandwich_check(macro.cell(2), params, dt=0.1, trials=100)
        assert abs(report.worst_lower_margin) <= 1e-12
        assert abs(report.worst_upper_margin) <= 1e-12

    def test_randomized_cells_never_violate(self, small_grid, rng):
        for params in (
            SchemeParams(nu=-0.25, theta=0.25, delta=2.0, kappa=1.0, q=8.0),
            SchemeParams(nu=0.9, theta=0.5, delta=1.5, kappa=0.01, q=8.0),
        ):
            for _ in range(25):
                f = DistField(random_field_values(rng, small_grid) + 1e-9, small_grid)
                macro = compute_moments(f, params, dt=0.02)
                for i in range(small_grid.n_x):
                    tensor_sandwich_check(macro.cell(i), params, dt=0.02, trials=20, rng=rng)

    def test_violation_raises(self, small_grid, default_params):
        from polykin.moments import MacroCell

        bad = MacroCell(
            rho=1.0, u=np.zeros(3), theta_tensor=np.eye(3),
            t_tr=1.0, t_int=1.0, t_delta=1.0, t_theta=1.0,
            t_blend=np.diag([10.0, 1.0, 1.0]),  # exceeds the upper bound
        )
        with pytest.raises(BoundViolated):
            tensor_sandwich_check(bad, default_params, dt=0.1, trials=200)

    def test_relaxation_temperature_violation_raises(self, default_params):
        from polykin.moments import MacroCell

        bad = MacroCell(
            rho=1.0, u=np.zeros(3), theta_tensor=np.eye(3),
            t_tr=1.0, t_int=1.0, t_delta=1.0, t_theta=0.5,  # below theta * t_delta = 0.8
            t_blend=np.eye(3),  # inside the tensor's bounds
        )
        with pytest.raises(BoundViolated, match="relaxation temperature outside its bounds"):
            tensor_sandwich_check(bad, default_params, dt=0.1, trials=200)
