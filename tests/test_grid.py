from __future__ import annotations

import numpy as np
import pytest

from polykin import GridConfig, build_grid, energy_weights
from polykin.errors import InvalidConfig


def test_spatial_nodes_partition_unit_interval():
    g = build_grid(GridConfig(n_x=4, n_v=3, v_max=1.0, n_i=2, i_max=1.0))
    assert np.array_equal(g.x_nodes, [0.0, 0.25, 0.5, 0.75])
    assert g.dx == 0.25


@pytest.mark.parametrize("n_x", [2, 3, 7, 16, 100])
def test_dx_times_nx_is_one_up_to_rounding(n_x):
    g = build_grid(GridConfig(n_x=n_x, n_v=3, v_max=1.0, n_i=2, i_max=1.0))
    assert abs(g.dx * n_x - 1.0) <= np.finfo(float).eps


def test_velocity_axis_symmetric_three_point():
    g = build_grid(GridConfig(n_x=2, n_v=3, v_max=1.0, n_i=2, i_max=1.0))
    assert np.array_equal(g.v_axis, [-1.0, 0.0, 1.0])
    assert g.dv == 1.0


@pytest.mark.parametrize("n_v", [2, 3, 4, 5, 9, 16, 33])
def test_velocity_axis_reflection_symmetric(n_v):
    g = build_grid(GridConfig(n_x=2, n_v=n_v, v_max=3.0, n_i=2, i_max=1.0))
    assert np.array_equal(g.v_axis, -g.v_axis[::-1])
    assert (0.0 in g.v_axis) == (n_v % 2 == 1)


def test_energy_nodes_start_at_zero_exclude_max():
    g = build_grid(GridConfig(n_x=2, n_v=3, v_max=1.0, n_i=4, i_max=2.0))
    assert np.array_equal(g.i_nodes, [0.0, 0.5, 1.0, 1.5])
    assert g.di == 0.5


@pytest.mark.parametrize("n_i", [1, 2, 3, 4, 5, 6, 9, 13, 256])
def test_energy_weights_positive_and_integrate_constants(n_i):
    di = 0.25
    w = energy_weights(n_i, di)
    assert w.shape == (n_i,)
    assert (w > 0).all()
    if n_i > 1:
        # any closed Newton-Cotes composite integrates constants exactly
        assert w.sum() == pytest.approx((n_i - 1) * di, rel=1e-14)


@pytest.mark.parametrize("n_i, di", [(0, 1.0), (4, 0.0)])
def test_energy_weights_reject_bad_input(n_i, di):
    with pytest.raises(InvalidConfig):
        energy_weights(n_i, di)


def test_norm_weight_keeps_one_table_per_grid():
    # one row per |v|^2 shell: 0, 1, 2 and 3 at n_v = 3, not one per velocity node
    g = build_grid(GridConfig(n_x=2, n_v=3, v_max=1.0, n_i=2, i_max=1.0))
    w8 = g.norm_weight(8.0, 2.0)
    assert g.norm_weight(8.0, 2.0) is w8
    assert w8[0].shape == (4, 2) and w8[1].shape == (27,)
    w10 = g.norm_weight(10.0, 2.0)
    assert g.norm_weight(10.0, 2.0) is w10
    again = g.norm_weight(8.0, 2.0)  # the second q evicted the first table
    assert again is not w8 and np.array_equal(again[0], w8[0])
    assert again[1] is w8[1] is w10[1]  # the shell index is the grid's, whatever q is
    assert sum(isinstance(k, tuple) and k[0] == "nw" for k in g._cache) == 1


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n_x=1, n_v=3, v_max=1.0, n_i=2, i_max=1.0),
        dict(n_x=4, n_v=0, v_max=1.0, n_i=2, i_max=1.0),
        dict(n_x=4, n_v=3, v_max=0.0, n_i=2, i_max=1.0),
        dict(n_x=4, n_v=3, v_max=1.0, n_i=0, i_max=1.0),
        dict(n_x=4, n_v=3, v_max=1.0, n_i=2, i_max=-1.0),
    ],
)
def test_invalid_config_rejected(kwargs):
    with pytest.raises(InvalidConfig):
        build_grid(GridConfig(**kwargs))


class TestFoot:
    def test_zero_velocity_stays_at_node(self, small_grid):
        for i in range(small_grid.n_x):
            fw = small_grid.foot(i, 0.0, 0.3)
            assert (fw.s, fw.a) == (i, 1.0)

    def test_zero_dt_stays_at_node(self, small_grid):
        for i in range(small_grid.n_x):
            fw = small_grid.foot(i, 1.7, 0.0)
            assert (fw.s, fw.a) == (i, 1.0)

    def test_integer_cell_shift_is_exact(self, small_grid):
        # v*dt = dx exactly: foot coincides with the previous node
        for i in range(small_grid.n_x):
            fw = small_grid.foot(i, 1.0, 0.25)
            assert (fw.s, fw.a) == ((i - 1) % small_grid.n_x, 1.0)

    def test_hand_evaluated_wrap(self, small_grid):
        # y = 0 - 0.1 = -0.1 -> 0.9; s = 3; a = (1.0 - 0.9)/0.25 = 0.4
        fw = small_grid.foot(0, 1.0, 0.1)
        assert fw.s == 3
        assert fw.a == pytest.approx(0.4, rel=1e-14)

    def test_weight_always_in_unit_interval(self, small_grid, rng):
        for _ in range(500):
            v = rng.uniform(-10, 10)
            dt = rng.uniform(0, 2)
            i = int(rng.integers(0, small_grid.n_x))
            fw = small_grid.foot(i, v, dt)
            assert 0.0 < fw.a <= 1.0
            assert 0 <= fw.s < small_grid.n_x

    def test_index_shift_covariance(self, small_grid, rng):
        # advancing the node advances the foot by exactly one cell; comparing
        # reconstructed foot positions tolerates 1-ulp floor flips where
        # (s, a) legitimately wraps to (s+1, ~0) at a node tie
        n = small_grid.n_x
        for _ in range(200):
            v = rng.uniform(-8, 8)
            dt = rng.uniform(0, 1)
            feet = [small_grid.foot(i, v, dt) for i in range(n)]
            pos = [fw.s + (1.0 - fw.a) for fw in feet]
            for i in range(n):
                step = (pos[(i + 1) % n] - pos[i]) % n
                assert step == pytest.approx(1.0, abs=1e-9)
