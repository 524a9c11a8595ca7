from __future__ import annotations

import numpy as np

from polykin import Advector, DistField, GridConfig, advect, build_grid, weighted_sup_norm
from tests.conftest import random_field_values


def test_zero_dt_is_identity(small_grid, rng):
    f = DistField(random_field_values(rng, small_grid), small_grid)
    out = advect(f, 0.0)
    assert (out.values == f.values).all()


def test_uniform_field_is_fixed_point(small_grid):
    vals = np.broadcast_to(
        np.arange(small_grid.n_v**3 * small_grid.n_i, dtype=float).reshape(
            1, small_grid.n_v, small_grid.n_v, small_grid.n_v, small_grid.n_i
        ),
        small_grid.field_shape,
    ).copy()
    out = advect(DistField(vals, small_grid), 0.37)
    assert (out.values == vals).all()


def test_integer_shift_is_exact_roll(rng):
    # v*dt = m*dx: advection must reduce to circular index shifts
    g = build_grid(GridConfig(n_x=4, n_v=3, v_max=1.0, n_i=2, i_max=1.0))
    f = random_field_values(rng, g)
    out = advect(DistField(f, g), 0.25)
    for j, v in enumerate(g.v_axis):
        m = int(round(v * 0.25 / g.dx))
        assert (out.values[:, j] == np.roll(f[:, j], m, axis=0)).all()


def test_positivity_preserved_exactly(small_grid, rng):
    for _ in range(20):
        f = DistField(random_field_values(rng, small_grid, sparsity=0.5), small_grid)
        out = advect(f, rng.uniform(0, 0.7))
        assert (out.values >= 0.0).all()


def test_weighted_norm_never_expands(small_grid, rng):
    for _ in range(40):
        f = DistField(random_field_values(rng, small_grid, sparsity=0.3), small_grid)
        dt = rng.uniform(0, 0.9)
        out = advect(f, dt)
        assert weighted_sup_norm(out, 8.0, 2.0) <= weighted_sup_norm(f, 8.0, 2.0)


def test_mass_conserved_per_velocity_slice(small_grid, rng):
    f = random_field_values(rng, small_grid)
    out = advect(DistField(f, small_grid), 0.123)
    before = f.sum(axis=0)
    after = out.values.sum(axis=0)
    assert np.allclose(after, before, rtol=1e-13, atol=0)


def test_pointwise_min_never_decreases(small_grid, rng):
    for _ in range(20):
        f = random_field_values(rng, small_grid)
        out = advect(DistField(f, small_grid), rng.uniform(0, 0.9))
        assert (out.values.min(axis=0) >= f.min(axis=0)).all()
        assert (out.values.max(axis=0) <= f.max(axis=0)).all()


def test_advector_matches_foot_table(small_grid, rng):
    # the cached per-j stencil must agree with the scalar foot computation
    dt = 0.173
    adv = Advector(small_grid, dt)
    f = random_field_values(rng, small_grid)
    out = DistField(f.copy(), small_grid)
    adv.apply(out)
    for i in range(small_grid.n_x):
        for j, v in enumerate(small_grid.v_axis):
            fw = small_grid.foot(i, v, dt)
            expected = fw.a * f[fw.s, j] + (1 - fw.a) * f[(fw.s + 1) % small_grid.n_x, j]
            assert np.allclose(out.values[i, j], expected, rtol=1e-14, atol=0)


def test_identity_slabs_come_back_byte_identical(rng):
    # the v = 0 node of an odd n_v, and every node at dt = 0, keep their feet on their own
    # nodes: those slabs are never written, so bytes that arithmetic would change survive
    # (-0.0, a NaN payload, inf); (2, 3, 4096) takes the direct path, (16, 3, 256) the chunk
    odd = np.array([-0.0, np.inf, 5e-324, np.uint64(0x7FF8DEADBEEF0001).view(np.float64)])
    for n_x, n_i in [(2, 4096), (16, 256)]:
        g = build_grid(GridConfig(n_x=n_x, n_v=3, v_max=1.0, n_i=n_i, i_max=1.0))
        f = random_field_values(rng, g)
        f[:, 1] = rng.choice(odd, size=f[:, 1].shape)
        for dt, slabs in [(0.3, [1]), (0.0, [0, 1, 2])]:
            out = DistField(f.copy(), g)
            Advector(g, dt).apply(out)
            for j in slabs:
                assert out.values[:, j].tobytes() == f[:, j].tobytes()


def test_a_foot_within_rounding_below_a_node_takes_that_node():
    # v*dt*n_x of 1.4e-291 at v > 0: b = 1 - (1 - v*dt*n_x) rounds to 1, where the blend
    # lo + (hi - lo) rounded 1 + (6.2e-288 - 1) to 0, below both nodes.  Every foot is its
    # own node within rounding, so the field comes back as it was
    grid = build_grid(GridConfig(n_x=2, n_v=4, v_max=1.0, n_i=1, i_max=1.0))
    vals = np.ones(grid.field_shape)
    vals[0, 2, 0, 0, 0] = 6.17034804e-288
    f = DistField(vals, grid)
    assert advect(f, 2.136650486388644e-291).values.tobytes() == vals.tobytes()
