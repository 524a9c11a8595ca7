from __future__ import annotations

import math

import numpy as np
import pytest

from polykin import (
    DistField,
    GridConfig,
    build_grid,
    error_sup_norm,
    normalizer_discrete,
    read_snapshot,
    sample,
    weighted_sup_norm,
    write_snapshot,
)
from polykin.errors import GridMismatch, NegativeInitialData
from tests.conftest import random_field_values


def maxwellian(rho, u1, temperature, lam_delta, delta=2.0):
    def ic(x, v1, v2, v3, i_nodes):
        vel = np.exp(-((v1 - u1) ** 2 + v2**2 + v3**2) / (2.0 * temperature))
        vel /= (2.0 * math.pi * temperature) ** 1.5
        eng = lam_delta * np.exp(-(i_nodes ** (2.0 / delta)) / temperature)
        eng /= temperature ** (delta / 2.0)
        return rho * vel * eng + 0.0 * x

    return ic


class TestSample:
    def test_constant_function(self, small_grid):
        f = sample(lambda x, v1, v2, v3, i: 3.5 + 0.0 * (x + v1 + v2 + v3 + i), small_grid)
        assert (f.values == 3.5).all()

    def test_unshifted_sampling_hits_nodes(self, small_grid):
        vmax = small_grid.v_max
        f = sample(
            lambda x, v1, v2, v3, i: x + 10 * (v1 + vmax) + 0 * (v2 + v3 + i), small_grid
        )
        for ix in range(small_grid.n_x):
            for j in range(small_grid.n_v):
                expected = small_grid.x_nodes[ix] + 10 * (small_grid.v_axis[j] + vmax)
                assert f.values[ix, j, 0, 0, 0] == expected

    def test_shifted_sampling_wraps_periodically(self, small_grid):
        f = sample(lambda x, v1, v2, v3, i: x + 0 * (v1 + v2 + v3 + i), small_grid, shift_dt=0.1)
        # node x=0, velocity v1=1: foot at -0.1 wraps to 0.9
        j_plus = list(small_grid.v_axis).index(1.0)
        assert f.values[0, j_plus, 0, 0, 0] == pytest.approx(0.9, rel=1e-14)

    def test_maxwellian_origin_value(self, small_grid):
        lam = normalizer_discrete(2.0, small_grid)
        f = sample(maxwellian(1.0, 0.0, 1.0, lam), small_grid)
        j0 = list(small_grid.v_axis).index(0.0)
        expected = lam / (2.0 * math.pi) ** 1.5
        assert f.values[0, j0, j0, j0, 0] == pytest.approx(expected, rel=1e-15)

    def test_negative_data_rejected(self, small_grid):
        with pytest.raises(NegativeInitialData):
            sample(lambda x, v1, v2, v3, i: v1 + 0.0 * (x + v2 + v3 + i), small_grid)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_data_rejected(self, small_grid, bad):
        with pytest.raises(NegativeInitialData, match=f"non-finite sample {bad!r}$"):
            sample(lambda x, v1, v2, v3, i: bad + 0.0 * (x + v1 + v2 + v3 + i), small_grid)

    def test_x_independent_data_is_sampled_in_c_order(self, small_grid):
        # the samples broadcast along x, yet must come out spatial index outermost
        f = sample(lambda x, v1, v2, v3, i: np.exp(-(v1**2 + v2**2 + v3**2) - i), small_grid)
        assert f.values.flags.c_contiguous
        assert np.shares_memory(f.cells, f.values)
        assert f.cells.shape == (small_grid.n_x, small_grid.n_v**3, small_grid.n_i)


class TestWeightedSupNorm:
    def test_zero_field(self, small_grid):
        f = DistField(np.zeros(small_grid.field_shape), small_grid)
        assert weighted_sup_norm(f, 8.0, 2.0) == 0.0

    def test_single_entry_at_origin_has_unit_weight(self, small_grid):
        vals = np.zeros(small_grid.field_shape)
        j0 = list(small_grid.v_axis).index(0.0)
        vals[1, j0, j0, j0, 0] = 2.25
        f = DistField(vals, small_grid)
        assert weighted_sup_norm(f, 8.0, 2.0) == 2.25

    def test_single_entry_with_speed_three(self):
        # |v|^2 = 3 at node (1,1,1), I = 0, q = 2: weight (1+3)^1, norm 2*4 = 8
        g = build_grid(GridConfig(n_x=2, n_v=3, v_max=1.0, n_i=2, i_max=1.0))
        vals = np.zeros(g.field_shape)
        vals[0, 2, 2, 2, 0] = 2.0
        assert weighted_sup_norm(DistField(vals, g), 2.0, 2.0) == 8.0

    def test_absolute_homogeneity(self, small_grid, rng):
        f = DistField(random_field_values(rng, small_grid), small_grid)
        n1 = weighted_sup_norm(f, 8.0, 2.0)
        f3 = DistField(3.0 * f.values, small_grid)
        assert weighted_sup_norm(f3, 8.0, 2.0) == pytest.approx(3.0 * n1, rel=1e-14)

    def test_triangle_inequality(self, small_grid, rng):
        a = DistField(random_field_values(rng, small_grid), small_grid)
        b = DistField(random_field_values(rng, small_grid), small_grid)
        c = DistField(a.values + b.values, small_grid)
        lhs = weighted_sup_norm(c, 8.0, 2.0)
        rhs = weighted_sup_norm(a, 8.0, 2.0) + weighted_sup_norm(b, 8.0, 2.0)
        assert lhs <= rhs * (1.0 + 1e-12)

    def test_monotone_under_domination(self, small_grid, rng):
        f = random_field_values(rng, small_grid)
        g = f + random_field_values(rng, small_grid)
        nf = weighted_sup_norm(DistField(f, small_grid), 8.0, 2.0)
        ng = weighted_sup_norm(DistField(g, small_grid), 8.0, 2.0)
        assert nf <= ng


class TestErrorSupNorm:
    def test_identical_fields(self, small_grid, rng):
        f = DistField(random_field_values(rng, small_grid), small_grid)
        assert error_sup_norm(f, f, 8.0, 2.0) == 0.0

    def test_against_zero_equals_norm(self, small_grid, rng):
        f = DistField(random_field_values(rng, small_grid), small_grid)
        z = DistField(np.zeros(small_grid.field_shape), small_grid)
        assert error_sup_norm(f, z, 8.0, 2.0) == weighted_sup_norm(f, 8.0, 2.0)

    def test_single_cell_difference(self, small_grid):
        a = np.zeros(small_grid.field_shape)
        b = np.zeros(small_grid.field_shape)
        j0 = list(small_grid.v_axis).index(0.0)
        b[2, j0, j0, j0, 0] = 0.625
        d = error_sup_norm(DistField(a, small_grid), DistField(b, small_grid), 8.0, 2.0)
        assert d == 0.625

    def test_grid_mismatch_rejected(self, small_grid):
        other = build_grid(GridConfig(n_x=8, n_v=5, v_max=2.0, n_i=4, i_max=2.0))
        with pytest.raises(GridMismatch):
            error_sup_norm(
                DistField(np.zeros(small_grid.field_shape), small_grid),
                DistField(np.zeros(other.field_shape), other),
                8.0,
                2.0,
            )

    def test_strided_cell_stack_reads_as_its_copy(self, small_grid, rng):
        # every other cell of a field twice as fine, read where it lies
        fine = build_grid(GridConfig(n_x=8, n_v=5, v_max=2.0, n_i=4, i_max=2.0))
        ref = DistField(random_field_values(rng, fine), fine)
        f = DistField(random_field_values(rng, small_grid), small_grid)
        view = ref.cells[::2]
        copy = DistField(view.reshape(small_grid.field_shape).copy(), small_grid)
        assert not view.flags.c_contiguous
        assert error_sup_norm(f, view, 8.0, 2.0) == error_sup_norm(f, copy, 8.0, 2.0)
        with pytest.raises(GridMismatch):
            error_sup_norm(f, ref.cells, 8.0, 2.0)


def test_snapshot_roundtrip(tmp_path, small_grid, rng):
    f = DistField(random_field_values(rng, small_grid), small_grid)
    path = tmp_path / "field.bin"
    write_snapshot(path, f, delta=2.0, q=8.0)
    g, delta, q = read_snapshot(path)
    assert (g.values == f.values).all()
    assert (delta, q) == (2.0, 8.0)
    assert g.grid.n_x == small_grid.n_x
    assert g.grid.v_max == small_grid.v_max
    assert g.grid.n_i == small_grid.n_i
