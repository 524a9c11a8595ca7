"""Property-based checks of what the scheme guarantees step by step.

Grids stay at n_x <= 6, n_v <= 5, n_i <= 6, apart from the advection
properties, which draw up to 64 cells and velocity slabs of several chunk
blocks, so that both of transport.direct_path's sides are taken, the moments
properties, which need several groups of cells or a grid that resolves a run,
and the grouped-pass property, whose groups of cells must split, and example
counts are bounded, so the module runs in a few seconds;
derandomize makes every run draw the same examples.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from polykin import (
    Advector,
    DistField,
    GridConfig,
    MacroFields,
    Scenario,
    SchemeParams,
    StabilityEnvelope,
    advect,
    build_grid,
    relax,
    compute_moments,
    conserved_quantities,
    entropy,
    equilibrium_distance,
    error_sup_norm,
    gaussian_field,
    normalizer_discrete,
    read_snapshot,
    run,
    step,
    table_moments,
    tensor_sandwich_check,
    weighted_sup_norm,
    write_snapshot,
)
from polykin import cli, field, moments, stepper, transport
from polykin.errors import (DegenerateTemperature, NegativeField, NonFiniteField,
                            NonFiniteGaussian, PolykinError, ZeroDensity)
from polykin.diagnostics import conserved_totals, masked_min_ratio, tile_flogf
from polykin.field import TILE_BYTES, max_nan, row_tiles, tile_rows, tile_sup, weight_tile
from polykin.gaussian import _gaussian_flat, factor_spd, gaussian_table
from polykin.moments import _moments_of_stack, energy_contraction, moments_tiling
from polykin.params import blend_factors, collision_frequency
from polykin.stepper import _blend_into, _envelope_min_ratio, _relax_into

PROPERTY = settings(derandomize=True, max_examples=100, deadline=None)
NONNEG = st.floats(min_value=0.0, max_value=1e6)


@st.composite
def fields(draw, elements=NONNEG):
    """A field that repeats a block of 1..n_x cells along x; one cell gives x-uniform
    data, where the max principle of advection is tight."""
    grid = build_grid(GridConfig(
        n_x=draw(st.integers(2, 6)), n_v=draw(st.integers(1, 5)),
        v_max=draw(st.floats(0.5, 8.0)), n_i=draw(st.integers(1, 6)),
        i_max=draw(st.floats(0.5, 30.0)),
    ))
    period = draw(st.integers(1, grid.n_x))
    block = draw(arrays(np.float64, (period,) + grid.field_shape[1:], elements=elements))
    return DistField(block[np.arange(grid.n_x) % period], grid)


@PROPERTY
@given(data=st.data(), c_m=st.floats(0.0, 1.0))
def test_blend_stays_nonnegative_and_inside_operand_span(data, c_m):
    shape = data.draw(st.tuples(st.integers(1, 8), st.integers(1, 6)))
    ft = data.draw(arrays(np.float64, shape, elements=NONNEG, fill=st.nothing()))
    m = data.draw(arrays(np.float64, shape, elements=NONNEG, fill=st.nothing()))
    c_f = 1.0 - c_m
    out = ft.copy()  # the relaxation blends into f~ and takes the Gaussian as scratch
    _blend_into(out, m.copy(), c_f, c_m)
    assert (out >= 0).all()
    assert (out >= np.minimum(ft, m)).all() and (out <= np.maximum(ft, m)).all()
    # the weight <= 1/2 multiplies the difference
    formula = ft + c_m * (m - ft) if c_m <= 0.5 else m + c_f * (ft - m)
    assert out.tobytes() == formula.tobytes()
    out = ft.copy()
    _blend_into(out, ft.copy(), c_f, c_m)
    assert out.tobytes() == ft.tobytes()


@PROPERTY
@given(data=st.data(), f=fields(), dt=st.floats(0.0, 10.0),
       tile_bytes=st.sampled_from([8, 96, 800, TILE_BYTES]))
def test_advection_keeps_sign_and_never_raises_the_weighted_norm(data, f, dt, tile_bytes):
    # small tiles cut a slab into several chunk blocks, so its 2-6 cells take the direct path
    with mock.patch.object(field, "TILE_BYTES", tile_bytes):
        out = advect(f, dt)
    assert (out.values >= 0).all()
    assert weighted_sup_norm(out, 8.0, 2.0) <= weighted_sup_norm(f, 8.0, 2.0)
    # Jensen on the convex blend: the entropy never rises.  Rounding an output node moves its
    # f ln f by at most a few ulps of |f ln f| + f (the slope is ln f + 1), so the slack is
    # 1e-12 of that sum, weighted as the entropy is
    g = f.grid
    with np.errstate(divide="ignore", invalid="ignore"):
        flogf = np.where(f.cells > 0, f.cells * np.log(f.cells), 0.0)
    scale = g.dx * g.dv**3 * float(((np.abs(flogf) + f.cells) @ g.i_weights).sum())
    assert entropy(out) <= entropy(f) + 1e-12 * scale
    # each output node lies in the span of two nodes of its own (v, I) column, where the
    # envelope is the same: the ratio's minimum never falls, exactly
    env = data.draw(arrays(np.float64, f.cells.shape[1:], elements=st.floats(0.0, 1e3)))
    assert masked_min_ratio(out.cells, env) >= masked_min_ratio(f.cells, env)


def _advection_grid(n_x: int, n_v: int, v_max: float, n_i: int):
    grid = build_grid(GridConfig(n_x=max(n_x, 2), n_v=n_v, v_max=v_max, n_i=n_i, i_max=1.0))
    if n_x == 1:  # build_grid asks for two cells; the stencil is defined for one
        grid = dataclasses.replace(grid, n_x=1, dx=1.0, x_nodes=np.zeros(1), _cache={})
    return grid


@st.composite
def _feet(draw, n_x: int, n_v: int, still: bool = True):
    """(v_max, dt): any feet, or with n_x a power of two > 1, feet an exact whole or half
    number of cells away (v integer or half-integer, dt = m/n_x), so slabs with b = 0 and
    lo != 0 come up, besides the v = 0 node of an odd n_v and, if still, dt = 0 (b = 0,
    lo = 0)."""
    if n_x > 1 and n_x & (n_x - 1) == 0 and draw(st.booleans()):
        return max((n_v - 1) / 2.0, 0.5), draw(st.integers(0 if still else 1, 4 * n_x)) / n_x
    # the fastest foot moves up to one cell (lo is 0 or n_x - 1), or up to 80 periods
    v_max, cells = draw(st.floats(0.5, 8.0)), draw(st.sampled_from([1.0, 80.0 * n_x]))
    moving = st.floats(0.0, cells / (v_max * n_x), exclude_min=True)
    return v_max, draw(st.one_of(st.just(0.0), moving) if still else moving)


# nonnegative, with both signs of zero: a slab blended, rotated or left alone must keep
# each sign the oracle gives it
SIGNED_ZEROS = st.one_of(st.sampled_from([0.0, -0.0]), NONNEG)


def _assert_advection_equals_the_oracle(f: np.ndarray, grid, dt: float, direct: bool) -> None:
    """Advector(grid, dt) gives the oracle's bytes, takes the direct path iff direct (the
    side of transport.direct_path the grid is meant to take), and runs transport._blend on
    the field's own rows iff direct, on the chunk's otherwise, once a foot moves off its
    node."""
    out = DistField(f.copy(), grid)
    advector = Advector(grid, dt)
    assert advector._direct == direct
    with mock.patch.object(transport, "_blend", wraps=transport._blend) as spy:
        assert advector.apply(out) is None
    blended = any(grid.foot(0, v, dt).a != 1.0 for v in grid.v_axis)
    on_field = {np.shares_memory(call.args[0], out.values) for call in spy.call_args_list}
    assert on_field == ({direct} if blended else set())
    assert out.values.tobytes() == _foot_oracle(f, grid, dt).tobytes()
    for j, v in enumerate(grid.v_axis):
        fw = grid.foot(0, v, dt)
        if fw.s == 0 and fw.a == 1.0:  # every foot on its own node: left as it stands
            assert out.values[:, j].tobytes() == f[:, j].tobytes()


@PROPERTY
@given(data=st.data(), n_x=st.sampled_from([1, 2, 3, 4, 5, 8, 9, 10, 16, 17, 32]),
       n_v=st.integers(1, 5), tile_bytes=st.sampled_from([8, 96, 800, TILE_BYTES]))
@example(data=None, n_x=1, n_v=3, tile_bytes=8)
def test_advector_equals_the_foot_oracle(data, n_x, n_v, tile_bytes):
    # feet move less than a cell, or wrap many periods.  Small tiles cut a slab
    # into several chunk blocks: up to 9 cells it is blended straight from the field
    # (transport.direct_path), from 10 through the chunk, as is a slab of one block
    if data is None:  # the example: one cell, the direct path, -0.0 everywhere
        grid = _advection_grid(1, n_v, 1.0, 4)
        f, dt = np.full(grid.field_shape, -0.0), 0.5
    else:
        v_max, dt = data.draw(_feet(n_x, n_v))
        grid = _advection_grid(n_x, n_v, v_max, data.draw(st.integers(1, 3)))
        f = data.draw(arrays(np.float64, grid.field_shape, elements=SIGNED_ZEROS))
    with mock.patch.object(field, "TILE_BYTES", tile_bytes):
        n_blocks = len(row_tiles(n_v**2 * grid.n_i, n_x + 1))
        _assert_advection_equals_the_oracle(f, grid, dt, direct=n_x <= 9 and n_blocks > 1)


def _foot_oracle(f: np.ndarray, grid, dt: float) -> np.ndarray:
    """Advection of f node by node from PhaseGrid.foot; a foot on a node (a = 1) takes the
    node's value as it stands, -0.0 included, where lo + 0*(hi - lo) would give +0.0."""
    expected = np.empty_like(f)
    for j, v in enumerate(grid.v_axis):
        fw = grid.foot(0, v, dt)  # the foot of node i is node 0's, moved by i cells
        for i in range(grid.n_x):
            lo, hi = f[(i + fw.s) % grid.n_x, j], f[(i + fw.s + 1) % grid.n_x, j]
            expected[i, j] = lo if fw.a == 1.0 else lo + (1.0 - fw.a) * (hi - lo)
    return expected


def _check_advection_across_shipped_blocks(data, n_x: int, n_v: int, seed: int) -> None:
    # each velocity slab is cut into several chunk blocks of the shipped tile size, the last
    # one mostly short: up to 9 cells take the direct path, 40 and more the chunk
    cols = tile_rows(n_x + 1)  # of one block
    n_i = data.draw(st.integers(cols // n_v**2 + 1, max(cols // n_v**2 * 3 // 2, 48)))
    v_max, dt = data.draw(_feet(n_x, n_v, still=False))
    grid = _advection_grid(n_x, n_v, v_max, n_i)
    assert len(row_tiles(n_v**2 * n_i, n_x + 1)) > 1
    rng = np.random.default_rng(seed)
    f = rng.random(grid.field_shape)
    f[f < 0.3] = 0.0
    f[f > 0.9] = -0.0
    _assert_advection_equals_the_oracle(f, grid, dt, direct=n_x <= 9)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data(), n_x=st.integers(40, 64), n_v=st.integers(5, 7),
       seed=st.integers(0, 2**32 - 1))
def test_advection_in_place_across_chunk_blocks_equals_the_foot_oracle(data, n_x, n_v, seed):
    _check_advection_across_shipped_blocks(data, n_x, n_v, seed)


@settings(derandomize=True, max_examples=15, deadline=None)
@given(data=st.data(), n_x=st.sampled_from([1, 2, 3, 8, 9]), n_v=st.integers(5, 7),
       seed=st.integers(0, 2**32 - 1))
def test_direct_advection_across_chunk_blocks_equals_the_foot_oracle(data, n_x, n_v, seed):
    _check_advection_across_shipped_blocks(data, n_x, n_v, seed)


@PROPERTY
@given(n_v=st.integers(1, 12), v_max=st.floats(0.5, 9.0), n_i=st.integers(1, 9),
       i_max=st.floats(0.5, 30.0), delta=st.floats(0.5, 6.0),
       q=st.sampled_from([1.0, 4.0, 8.0, None]),
       tile_bytes=st.sampled_from([8, 800, TILE_BYTES]), seed=st.integers(0, 2**32 - 1))
@example(n_v=33, v_max=7.3, n_i=2, i_max=8.0, delta=2.0, q=None, tile_bytes=TILE_BYTES, seed=0)
@example(n_v=16, v_max=3.0, n_i=1, i_max=8.0, delta=2.0, q=4.0, tile_bytes=800, seed=1)
def test_shell_weights_and_sup_norms_equal_the_whole_table(n_v, v_max, n_i, i_max, delta, q,
                                                            tile_bytes, seed):
    # q = 1 and q = 4 take numpy's sqrt and square paths, 8 and 6 + delta its pow; a row of
    # the shell table is gathered to nodes other than the one it was computed at, and small
    # tiles put many tiles in a cell
    grid = build_grid(GridConfig(n_x=2, n_v=n_v, v_max=v_max, n_i=n_i, i_max=i_max))
    q = 6.0 + delta if q is None else q
    vsq, eps = grid.velocity_tables()[3], grid.energy_eps(delta)
    whole = (1.0 + vsq[:, None] + eps[None, :]) ** (q / 2.0)
    table, rows = grid.norm_weight(q, delta)
    shells = np.unique(vsq, return_inverse=True)
    assert all(x.tobytes() == y.tobytes() for x, y in zip(grid.velocity_shells(), shells))
    assert table.shape[0] <= math.ceil(n_v / 2) ** 3
    assert table[rows].tobytes() == whole.tobytes()
    rng = np.random.default_rng(seed)
    a, b = (DistField(rng.uniform(-1e3, 1e3, grid.field_shape), grid) for _ in range(2))
    with mock.patch.object(field, "TILE_BYTES", tile_bytes):
        norm, error = weighted_sup_norm(a, q, delta), error_sup_norm(a, b, q, delta)
    assert norm == float((np.abs(a.cells) * whole).max())
    assert error == float((np.abs(a.cells - b.cells) * whole).max())


@PROPERTY
@given(f=fields(), dt=st.floats(0.0, 10.0))
def test_periodic_advection_conserves_mass_momentum_and_energy(f, dt):
    mass, mom, energy = conserved_quantities(f, 2.0)
    mass_out, mom_out, energy_out = conserved_quantities(advect(f, dt), 2.0)
    assert abs(mass_out - mass) <= 1e-12 * mass
    assert abs(energy_out - energy) <= 1e-12 * energy
    assert np.linalg.norm(mom_out - mom) <= 1e-12 * mass * f.grid.v_max


@PROPERTY
@given(data=st.data(), f=fields(), bump=st.floats(1e-3, 1e6),
       nu=st.floats(-0.5, 1.0, exclude_min=True, exclude_max=True),
       theta=st.floats(0.0, 1.0, exclude_min=True), delta=st.floats(0.5, 2.0),
       dt=st.floats(0.0, 1e6))
def test_tensor_sandwich_holds_for_nonnegative_tables(data, f, bump, nu, theta, delta, dt):
    # one cell of a nonnegative field, with one entry raised so the density is positive;
    # the blend factors depend on dt/kappa alone, so kappa = 1 loses no case
    table = f.values[0].reshape(-1, f.grid.n_i).copy()
    table.flat[data.draw(st.integers(0, table.size - 1))] += bump
    params = SchemeParams(nu=nu, theta=theta, delta=delta, kappa=1.0, q=8.0)
    tensor_sandwich_check(table_moments(table, f.grid, params, dt), params, dt, trials=50)


@PROPERTY
@given(f=fields(), kappa_exp=st.floats(-8.0, 2.0), dt=st.floats(1e-3, 1.0),
       nu=st.floats(-0.5, 1.0, exclude_min=True, exclude_max=True),
       theta=st.floats(0.0, 1.0, exclude_min=True))
def test_one_step_is_stable_for_any_knudsen_number(f, kappa_exp, dt, nu, theta):
    # the step is a convex blend of f~ and its Gaussian G(f~) at every kappa, so it
    # keeps the sign and cannot raise the weighted norm above both operands
    # (Russo, Santagati, Yun, SIAM J. Numer. Anal. 2012)
    params = SchemeParams(nu=nu, theta=theta, delta=2.0, kappa=10.0**kappa_exp, q=8.0)
    try:
        out, report = step(f, params, dt)
    except PolykinError as exc:
        assert "cell " in str(exc)
        return
    tilde = advect(f, dt)
    gauss = gaussian_field(compute_moments(tilde, params, dt), f.grid,
                           normalizer_discrete(2.0, f.grid), 2.0)
    assert np.isfinite(out.values).all() and (out.values >= 0).all()
    assert report.norm_q <= max(weighted_sup_norm(tilde, 8.0, 2.0),
                                weighted_sup_norm(gauss, 8.0, 2.0))


@PROPERTY
@given(f=fields(), kappa_exp=st.floats(-8.0, 2.0), dt=st.floats(1e-3, 1.0))
def test_relax_and_step_leave_their_inputs_unchanged(f, kappa_exp, dt):
    # advection and the relaxation overwrite the field they are given: advect() and
    # step() advect a copy of f, relax() relaxes a copy of f~
    params = SchemeParams(nu=0.5, theta=0.8, delta=2.0, kappa=10.0**kappa_exp, q=8.0)
    before = f.values.tobytes()
    advect(f, dt)
    assert f.values.tobytes() == before
    with contextlib.suppress(PolykinError):  # a degenerate cell raises, typed
        relax(f, compute_moments(f, params, dt), params, dt)
    assert f.values.tobytes() == before
    with contextlib.suppress(PolykinError):
        step(f, params, dt)
    assert f.values.tobytes() == before


@PROPERTY
@given(f=fields(elements=st.floats(allow_nan=True, allow_infinity=True)),
       delta=st.floats(0.1, 4.0), q=st.floats(5.5, 20.0))
def test_snapshot_round_trip_is_bitwise(f, delta, q):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.bin"
        write_snapshot(path, f, delta, q)
        back, delta_back, q_back = read_snapshot(path)
    assert back.values.tobytes() == f.values.tobytes()
    assert (delta_back, q_back) == (delta, q)
    assert back.grid.field_shape == f.grid.field_shape


def _oracle_table(rho, u, t_blend, t_theta, grid, lambda_delta, delta):
    """One cell's Gaussian table as the per-cell evaluator wrote it before cells came
    in blocks: the reference the block evaluator must match bit for bit."""
    if t_theta <= 0.0:
        raise DegenerateTemperature(f"relaxation temperature {t_theta!r} <= 0")
    lw = factor_spd(t_blend)
    v1, v2, v3, _ = grid.velocity_tables()
    with np.errstate(all="ignore"):
        z1 = (v1 - u[0]) / lw[0, 0]
        z2 = ((v2 - u[1]) - lw[1, 0] * z1) / lw[1, 1]
        z3 = ((v3 - u[2]) - lw[2, 0] * z1 - lw[2, 1] * z2) / lw[2, 2]
        quad = z1 * z1 + z2 * z2 + z3 * z3
        ev = np.exp(-0.5 * quad)
        ei = np.exp(-grid.energy_eps(delta) / t_theta)
        pref = rho * lambda_delta / (
            (2.0 * math.pi) ** 1.5 * lw[0, 0] * lw[1, 1] * lw[2, 2] * t_theta ** (delta / 2.0)
        )
    if not 0.0 < pref < math.inf:
        raise NonFiniteGaussian(f"Gaussian prefactor {float(pref)!r} is not positive and finite")
    return pref * ev[:, None] * ei[None, :]


def _oracle_tables(macro, grid, lambda_delta, delta):
    """The per-cell loop: yields every cell's table in order, or raises the first
    failing cell's error named as the stepper names it."""
    for i in range(len(macro)):
        try:
            yield _oracle_table(float(macro.rho[i]), macro.u[i], macro.t_blend[i],
                                float(macro.t_theta[i]), grid, lambda_delta, delta)
        except PolykinError as exc:
            exc.args = (f"cell {i}: {exc}",)
            raise


def _random_macro(rng, n_x, v_max):
    """Moments of n_x cells: SPD tensors (with a small antisymmetric part, which the
    evaluator symmetrises away), drifts up to 1.5 v_max, densities and temperatures."""
    a = rng.uniform(-2.0, 2.0, (n_x, 3, 3))
    t_blend = a @ a.transpose(0, 2, 1) + rng.uniform(1e-3, 4.0, (n_x, 1, 1)) * np.eye(3)
    t_blend += 1e-3 * (a - a.transpose(0, 2, 1))
    nan = np.full(n_x, np.nan)  # read by nothing here
    return MacroFields(
        rho=10.0 ** rng.uniform(-3.0, 3.0, n_x), u=rng.uniform(-1.5, 1.5, (n_x, 3)) * v_max,
        theta_tensor=t_blend.copy(), t_tr=nan, t_int=nan, t_delta=nan,
        t_theta=rng.uniform(0.05, 20.0, n_x), t_blend=t_blend,
    )


def _block_size(n_v: int) -> int:
    return max(1, TILE_BYTES // (8 * n_v**3))


@st.composite
def block_grids(draw):
    """A grid of two or three Gaussian blocks, of 2 to 9 cells, whose last block is short."""
    n_v = draw(st.sampled_from([15, 17, 19, 21, 25]))
    b = _block_size(n_v)
    n_x = draw(st.integers(1, 2)) * b + draw(st.integers(1, b - 1))
    return build_grid(GridConfig(
        n_x=n_x, n_v=n_v, v_max=draw(st.floats(1.0, 8.0)), n_i=draw(st.integers(1, 64)),
        i_max=draw(st.floats(1.0, 30.0)),
    ))


@PROPERTY
@given(grid=block_grids(), delta=st.sampled_from([1.0, 1.5, 2.0]),
       seed=st.integers(0, 2**32 - 1))
def test_block_gaussians_equal_the_per_cell_oracle(grid, delta, seed):
    blocks = row_tiles(grid.n_x, grid.n_v**3)
    assert len(blocks) >= 2 and blocks[-1].stop - blocks[-1].start < blocks[0].stop
    assert blocks[0] == slice(0, _block_size(grid.n_v))
    macro = _random_macro(np.random.default_rng(seed), grid.n_x, grid.v_max)
    lam = normalizer_discrete(delta, grid)
    field = gaussian_field(macro, grid, lam, delta)
    for cell, expected in zip(field.cells, _oracle_tables(macro, grid, lam, delta)):
        assert cell.tobytes() == expected.tobytes()


ERROR_GRID = build_grid(GridConfig(n_x=14, n_v=17, v_max=4.0, n_i=4, i_max=8.0))  # 6, 6, 2


def _non_spd(macro, i):
    macro.t_blend[i] = np.diag([1.0, -1.0, 1.0])


def _zero_t_theta(macro, i):
    macro.t_theta[i] = 0.0


def _overflowing_prefactor(macro, i):
    macro.rho[i], macro.t_blend[i] = 1e308, 1e-12 * np.eye(3)


@pytest.mark.parametrize("faults", [
    [_non_spd],
    [_zero_t_theta],
    [_overflowing_prefactor],
    # a stacked factor that fails must not pre-empt an earlier cell's error
    [_overflowing_prefactor, _non_spd],
    [_non_spd, _zero_t_theta],
])
def test_block_gaussian_errors_name_the_cell_the_per_cell_loop_names(faults):
    grid = ERROR_GRID
    blocks = row_tiles(grid.n_x, grid.n_v**3)
    assert [b.stop - b.start for b in blocks] == [6, 6, 2]
    macro = _random_macro(np.random.default_rng(3), grid.n_x, grid.v_max)
    for i, fault in enumerate(faults, start=blocks[1].start + 1):  # second block, second cell
        fault(macro, i)
    lam = normalizer_discrete(2.0, grid)
    with pytest.raises(PolykinError) as expected:
        list(_oracle_tables(macro, grid, lam, 2.0))
    assert str(expected.value).startswith(f"cell {blocks[1].start + 1}: ")
    params = SchemeParams(nu=0.0, theta=1.0, delta=2.0, kappa=1.0, q=8.0)
    tilde = DistField(np.zeros(grid.field_shape), grid)
    for evaluate in (lambda: gaussian_field(macro, grid, lam, 2.0),
                     lambda: relax(tilde, macro, params, 0.1)):
        with pytest.raises(PolykinError) as got:
            evaluate()
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value)


def _whole_stack_moments(values, grid, params, dt):
    """The moments as one pass over the whole (n_x, n_v^3, n_i) stack takes them, each cell
    contracted by its row tiles."""
    mn = values.min()
    if mn < 0:
        raise NegativeField(f"distribution has negative entry {mn!r}")
    nv, dv3, v = grid.n_v, grid.dv**3, grid.v_axis
    w, tiles = grid.energy_moment_weights(params.delta), row_tiles(nv**3, grid.n_i)
    contracted = np.stack([np.concatenate([cell[s] @ w for s in tiles]) for cell in values])
    g = contracted[..., 0]
    eps_tot = contracted[..., 1].sum(axis=1)
    rho = dv3 * g.sum(axis=1)
    bad = np.nonzero(~np.isfinite(rho))[0]
    if bad.size:
        raise NonFiniteField(int(bad[0]), float(rho[bad[0]]))
    bad = np.nonzero(rho <= 1e-300)[0]
    if bad.size:
        raise ZeroDensity(int(bad[0]), float(rho[bad[0]]))
    g3 = g.reshape(len(rho), nv, nv, nv)
    pair12, pair13, pair23 = g3.sum(axis=3), g3.sum(axis=2), g3.sum(axis=1)
    m1, m2, m3 = pair12.sum(axis=2), pair12.sum(axis=1), pair13.sum(axis=1)
    u = np.stack([dv3 * np.einsum("ij,j->i", m, v) for m in (m1, m2, m3)],
                 axis=1) / rho[:, None]
    d1, d2, d3 = (v[None, :] - u[:, a, None] for a in range(3))
    p = np.empty((len(rho), 3, 3))
    p[:, 0, 0] = np.einsum("ij,ij->i", m1, d1 * d1)
    p[:, 1, 1] = np.einsum("ij,ij->i", m2, d2 * d2)
    p[:, 2, 2] = np.einsum("ij,ij->i", m3, d3 * d3)
    p[:, 0, 1] = p[:, 1, 0] = np.einsum("ijk,ij,ik->i", pair12, d1, d2)
    p[:, 0, 2] = p[:, 2, 0] = np.einsum("ijk,ij,ik->i", pair13, d1, d3)
    p[:, 1, 2] = p[:, 2, 1] = np.einsum("ijk,ij,ik->i", pair23, d2, d3)
    theta_tensor = dv3 * p / rho[:, None, None]
    t_tr = (theta_tensor[:, 0, 0] + theta_tensor[:, 1, 1] + theta_tensor[:, 2, 2]) / 3.0
    t_int = (2.0 / params.delta) * dv3 * eps_tot / rho
    t_delta = (3.0 * t_tr + params.delta * t_int) / (3.0 + params.delta)
    t_theta = params.theta * t_delta + (1.0 - params.theta) * t_int
    lam, nu_bar = blend_factors(params.nu, params.theta, params.kappa, dt)
    iso = lam * params.theta * t_delta + lam * (1.0 - params.theta) * (1.0 - params.nu) * t_tr
    t_blend = (1.0 - params.theta) * nu_bar * theta_tensor
    for a in range(3):
        t_blend[:, a, a] += iso
    return MacroFields(rho=rho, u=u, theta_tensor=theta_tensor, t_tr=t_tr, t_int=t_int,
                       t_delta=t_delta, t_theta=t_theta, t_blend=t_blend)


def _negative_entry(values, i, node):
    values[i, node % values.shape[1], 0] = -0.5


def _nan_entry(values, i, node):
    values[i, node % values.shape[1], -1] = np.nan


def _vacuum_cell(values, i, node):
    values[i] = 0.0


@PROPERTY
@given(data=st.data(), n_v=st.sampled_from([3, 5, 9, 17]), n_i=st.sampled_from([1, 2, 3, 16]),
       nu_theta=st.sampled_from([(0.5, 0.8), (-0.25, 0.25), (0.9, 1.0)]),
       delta=st.sampled_from([1.0, 2.0]), dt=st.sampled_from([0.0, 0.1]),
       tile_bytes=st.sampled_from([64, 800, TILE_BYTES]), seed=st.integers(0, 2**32 - 1))
def test_tiled_moments_equal_the_whole_stack_pass(data, n_v, n_i, nu_theta, delta, dt,
                                                  tile_bytes, seed):
    # blocks of tile_rows(n_v^3) cells (1,213 at n_v = 3, 6 at n_v = 17) in groups whose
    # pair sums fill about a tile (132 cells at n_v = 9, 36 at n_v = 17): two or more
    # groups, the last short or full.  Smaller tiles cut a cell into row tiles (149 of 33
    # rows at n_v = 17, n_i = 3 and 800 bytes), each checked and contracted on its own; at
    # n_i = 16 BLAS rounds a 6-row tile's sums unlike a whole cell's.  Faults go into any
    # block, so a later block's error can pre-empt an earlier one's
    with mock.patch.object(field, "TILE_BYTES", tile_bytes):
        _, group = moments_tiling(10**9, n_v)
        n_x = data.draw(st.integers(1, 2)) * group + data.draw(st.integers(1, group))
        grid = build_grid(GridConfig(n_x=n_x, n_v=n_v, v_max=3.0, n_i=n_i, i_max=8.0))
        params = SchemeParams(nu=nu_theta[0], theta=nu_theta[1], delta=delta, kappa=0.1,
                              q=8.0)
        values = np.random.default_rng(seed).random((n_x, n_v**3, n_i)) + 0.05
        faults = data.draw(st.lists(
            st.sampled_from([_negative_entry, _nan_entry, _vacuum_cell]), max_size=2))
        for fault in faults:
            fault(values, data.draw(st.integers(0, n_x - 1)), data.draw(st.integers(0, 10**6)))
        try:
            expected = _whole_stack_moments(values, grid, params, dt)
        except PolykinError as exc:
            with pytest.raises(PolykinError) as got:
                _moments_of_stack(values, grid, params, dt)
            assert type(got.value) is type(exc)
            assert str(got.value) == str(exc)
            return
        got = _moments_of_stack(values, grid, params, dt)
    for name in vars(expected):
        assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name


def _per_cell_conserved(a, grid, sums):
    """cell_conserved of one cell's (n_v^3, 2) contraction, folded into a list of 5 sums."""
    m = grid.velocity_tables() @ a
    cs = a[:, 0].sum(), m[0, 0], m[1, 0], m[2, 0], 0.5 * m[3, 0] + a[:, 1].sum()
    return [s + c for s, c in zip(sums, cs)]


def _per_cell_relax(f, macro, params, dt, gauss_norm):
    """_relax_into one cell at a time, each by its row tiles, with the tile's weights
    gathered for each use: the per-cell loop that the grouped pass replaced."""
    grid = f.grid
    lam = normalizer_discrete(params.delta, grid)
    a = collision_frequency(params.nu, params.theta)
    c_f = params.kappa / (params.kappa + a * dt)
    c_m = a * dt / (params.kappa + a * dt)
    weights = grid.norm_weight(params.q, params.delta)
    tiles = row_tiles(grid.n_v**3, grid.n_i)
    bufs = np.empty((2, tiles[0].stop, grid.n_i))
    flogf_rows, contracted = np.empty(grid.n_v**3), np.empty((grid.n_v**3, 2))
    sums, total = [0.0] * 5, 0.0
    norm, g_norm = 0.0, (0.0 if gauss_norm and macro is not None else None)
    for cells in row_tiles(grid.n_x, grid.n_v**3):
        if macro is not None:
            pev, ei = _gaussian_flat(macro, cells, grid, lam, params.delta)
        for i, cell in enumerate(f.cells[cells]):
            for s in tiles:
                t, m = cell[s], bufs[0, : s.stop - s.start]
                if macro is not None:
                    gaussian_table(pev[i][s], ei[i], m)
                    if g_norm is not None:
                        g = weight_tile(weights, s, bufs[1])
                        with np.errstate(over="ignore"):  # an overflow is an infinite norm
                            g *= m
                        g_norm = max_nan(g_norm, float(g.max()))
                    _blend_into(t, m, c_f, c_m)
                w = weight_tile(weights, s, m)
                w *= t
                norm = max_nan(norm, float(w.max()))
                tile_flogf(t, grid.i_weights, flogf_rows[s], m)
                energy_contraction(t, grid, params.delta, contracted[s])
            with np.errstate(over="ignore"):  # an infinite sum is a non-finite entropy
                total += float(flogf_rows.sum())
            sums = _per_cell_conserved(contracted, grid, sums)
    return (*conserved_totals(np.array(sums), grid), grid.dx * grid.dv**3 * total, norm,
            g_norm)


def _per_cell_sup_norm(a, b, grid, q, delta):
    """_sup_norm one cell at a time, tile by tile."""
    weights = grid.norm_weight(q, delta)
    tiles = row_tiles(grid.n_v**3, grid.n_i)
    w, t = np.empty((2, tiles[0].stop, grid.n_i))
    out = 0.0
    for s in tiles:
        ws, ts = weight_tile(weights, s, w), t[: s.stop - s.start]
        for i, cell in enumerate(a):
            out = max_nan(out, tile_sup(cell[s], None if b is None else b[i][s], ws, ts))
    return out


def _per_cell_conserved_quantities(f, delta):
    grid, sums = f.grid, [0.0] * 5
    contracted = np.empty((grid.n_v**3, 2))
    for cell in f.cells:
        for s in row_tiles(grid.n_v**3, grid.n_i):
            energy_contraction(cell[s], grid, delta, contracted[s])
        sums = _per_cell_conserved(contracted, grid, sums)
    return conserved_totals(np.array(sums), grid)


def _per_cell_entropy(f):
    """entropy one cell at a time, each by its row tiles, summing the cell's rows."""
    grid, total = f.grid, 0.0
    tiles = row_tiles(grid.n_v**3, grid.n_i)
    rows, buf = np.empty(grid.n_v**3), np.empty((tiles[0].stop, grid.n_i))
    for cell in f.cells:
        for s in tiles:
            tile_flogf(cell[s], grid.i_weights, rows[s], buf[: s.stop - s.start])
        total += float(rows.sum())
    return grid.dx * grid.dv**3 * total


def _per_cell_min_ratio(f, table):
    """_envelope_min_ratio one cell at a time, each by its row tiles, in a new tile each."""
    worst = math.inf
    for cell in f.cells:
        for s in row_tiles(*table.shape):
            env = table[s]
            with np.errstate(over="ignore"):
                q = np.divide(cell[s], env, out=np.full(env.shape, math.inf), where=env > 0)
            worst = min(worst, float(q.min()))
    return worst


FLOGF_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, 5e-324, 2.2250738585072014e-308]),
    st.floats(0.0, 1e308))


@PROPERTY
@given(t=arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 6), st.integers(1, 5)),
                elements=FLOGF_ENTRIES))
@example(t=np.full((2, 3, 4), 5e-324))  # subnormals alone: a positive minimum
@example(t=np.array([[[1e-310, 2.0], [3.0, 1e300]]]))
@example(t=np.array([[[-0.0, 2.0], [3.0, 1e300]]]))  # a -0.0 minimum scans
@example(t=np.array([[[math.nan, 2.0], [0.0, 1.0]]]))  # a NaN minimum scans
@example(t=np.array([[[math.inf, 2.0], [0.5, 1.0]]]))
def test_tile_flogf_given_the_minimum_writes_the_rows_of_the_scan(t):
    # a positive minimum leaves no exact zero to find, so skipping the t == 0 scan writes
    # the same rows; a zero, -0.0 or NaN minimum takes the scan
    wk = np.linspace(0.5, 1.5, t.shape[-1])
    before = t.tobytes()
    rows = np.empty((2,) + t.shape[:2])
    tile_flogf(t, wk, rows[0], np.empty_like(t), t.min())
    tile_flogf(t, wk, rows[1], np.empty_like(t))
    assert rows[0].tobytes() == rows[1].tobytes()
    assert t.tobytes() == before


def _same_bits(got, expected):
    for x, y in zip(got, expected, strict=True):
        assert (x is None) == (y is None)
        assert np.asarray(x, dtype=float).tobytes() == np.asarray(y, dtype=float).tobytes()


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n_x=st.integers(2, 50), n_v=st.integers(3, 9), n_i=st.integers(1, 16),
       nu_theta=st.sampled_from([(0.0, 1.0), (0.5, 0.8), (-0.3, 0.6)]),
       kappa=st.sampled_from([1.0, 1e-3]), tile_bytes=st.sampled_from([64, 800, TILE_BYTES]),
       seed=st.integers(0, 2**32 - 1), extreme=st.none())
@example(n_x=50, n_v=5, n_i=4, nu_theta=(0.5, 0.8), kappa=1.0, tile_bytes=TILE_BYTES, seed=0,
         extreme=None)
@example(n_x=50, n_v=3, n_i=1, nu_theta=(0.0, 1.0), kappa=1e-3, tile_bytes=800, seed=1,
         extreme=None)
@example(n_x=7, n_v=5, n_i=4, nu_theta=(0.5, 0.8), kappa=1.0, tile_bytes=800, seed=2,
         extreme="overflow")
@example(n_x=9, n_v=9, n_i=16, nu_theta=(-0.3, 0.6), kappa=1e-3, tile_bytes=64, seed=3,
         extreme="subnormal")
@example(n_x=12, n_v=5, n_i=4, nu_theta=(0.0, 1.0), kappa=1.0, tile_bytes=TILE_BYTES, seed=4,
         extreme="ties")
def test_grouped_passes_equal_the_per_cell_loops(n_x, n_v, n_i, nu_theta, kappa, tile_bytes,
                                                 seed, extreme):
    # groups of whole cells that fill half a tile (32 cells at (n_v, n_i) = (5, 4), 22 at
    # (9, 1)), the last often short, inside Gaussian blocks of tile_rows(n_v^3) cells (a
    # tile holds 3 cells of 27 rows at 800 bytes); at 64 bytes every cell spans row tiles.
    # The fields hold exact zeros, which f ln f takes on its own path.  The envelope
    # underflows to 0 at the far nodes, where it bounds nothing, and is subnormal (its
    # quotients overflow to inf) in between.  The relaxation takes the Gaussian's norm from
    # each |v|^2 shell's largest velocity factor: the extremes scale the density past what
    # compute_moments admits, so that weighted Gaussian values overflow to inf or are
    # subnormal, or make each cell uniform in velocity, so that u = 0, the temperature
    # tensor is diagonal and a shell's mirror nodes tie
    with mock.patch.object(field, "TILE_BYTES", tile_bytes):
        grid = build_grid(GridConfig(n_x=n_x, n_v=n_v, v_max=3.0, n_i=n_i, i_max=8.0))
        rng = np.random.default_rng(seed)
        values = rng.random(grid.field_shape) * (rng.random(grid.field_shape) > 0.3)
        if extreme == "ties":
            values = values[:, :1, :1, :1] + 0.1 + np.zeros(grid.field_shape)
        ref = rng.random((2 * n_x,) + grid.field_shape[1:]).reshape(2 * n_x, n_v**3, n_i)
        params = SchemeParams(nu=nu_theta[0], theta=nu_theta[1], delta=1.5, kappa=kappa,
                              q=7.0)
        f = DistField(values, grid)
        _same_bits(conserved_quantities(f, 1.5), _per_cell_conserved_quantities(f, 1.5))
        _same_bits([entropy(f)], [_per_cell_entropy(f)])
        env = StabilityEnvelope(c01=1e-300, c02=10.0, a_exp=2.0, b_exp=2.0).table(grid)
        assert (env == 0).any() and (env > 0).any()
        for g in (f, DistField(values + 0.5 * rng.random(grid.field_shape), grid)):
            _same_bits([_envelope_min_ratio(g.cells, env)], [_per_cell_min_ratio(g, env)])
        for b in (None, ref[::2]):  # a strided view of a reference's cells
            expected = _per_cell_sup_norm(f.cells, b, grid, 7.0, 1.5)
            got = (weighted_sup_norm(f, 7.0, 1.5) if b is None
                   else error_sup_norm(f, b, 7.0, 1.5))
            assert np.float64(got).tobytes() == np.float64(expected).tobytes()
        macro = compute_moments(f, params, dt=0.1)
        if extreme in ("overflow", "subnormal"):
            macro.rho *= 1e305 if extreme == "overflow" else 1e-310
            table, rows = grid.norm_weight(7.0, 1.5)
            pev, ei = _gaussian_flat(macro, slice(0, n_x), grid,
                                     normalizer_discrete(1.5, grid), 1.5)
            with np.errstate(over="ignore"):
                weighted = pev[:, :, None] * ei[:, None] * table[rows]
            assert (np.isinf(weighted).any() if extreme == "overflow"
                    else (weighted < np.finfo(float).tiny).any() and weighted.max() > 0)
        for mac, gauss_norm in [(macro, True), (macro, False), (None, True)]:
            got, expected = (DistField(values.copy(), grid) for _ in range(2))
            (mass, mom, energy), *rest, carried = _relax_into(got, mac, params, 0.1, "all",
                                                              gauss_norm)
            assert carried is None
            _same_bits([mass, mom, energy, *rest],
                       _per_cell_relax(expected, mac, params, 0.1, gauss_norm))
            assert got.values.tobytes() == expected.values.tobytes()
            off = DistField(values.copy(), grid)  # the same blend, with no diagnostic
            _relax_into(off, mac, params, 0.1, "off", gauss_norm)
            assert off.values.tobytes() == expected.values.tobytes()


def _oracle_distance(f, params, dt):
    """The equilibrium distance through the whole Gaussian field."""
    lam = normalizer_discrete(params.delta, f.grid)
    gauss = gaussian_field(compute_moments(f, params, dt), f.grid, lam, params.delta)
    return error_sup_norm(f, gauss, params.q, params.delta)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n_x=st.integers(2, 50), n_v=st.integers(3, 9), n_i=st.integers(1, 16),
       nu_theta=st.sampled_from([(0.0, 1.0), (0.5, 0.8), (-0.3, 0.6)]),
       kappa=st.sampled_from([1.0, 1e-6]), dt=st.sampled_from([0.0, 0.1]),
       tile_bytes=st.sampled_from([64, 800, TILE_BYTES]), seed=st.integers(0, 2**32 - 1))
# a cell of two row tiles; two factor blocks of one-tile cells at n_i = 1, in groups of
# 131; three blocks of one-tile cells, one to a group
@example(n_x=2, n_v=9, n_i=64, nu_theta=(0.5, 0.8), kappa=1.0, dt=0.1, tile_bytes=TILE_BYTES,
         seed=0)
@example(n_x=300, n_v=5, n_i=1, nu_theta=(0.0, 1.0), kappa=1e-6, dt=0.0, tile_bytes=TILE_BYTES,
         seed=1)
@example(n_x=14, n_v=17, n_i=4, nu_theta=(-0.3, 0.6), kappa=1e-6, dt=0.1,
         tile_bytes=TILE_BYTES, seed=2)
def test_tiled_equilibrium_distance_equals_the_gaussian_field_oracle(
        n_x, n_v, n_i, nu_theta, kappa, dt, tile_bytes, seed):
    # at 800 bytes a factor block holds 3 cells of 27 rows, and at 64 every cell spans
    # row tiles; the fields hold exact zeros
    with mock.patch.object(field, "TILE_BYTES", tile_bytes):
        grid = build_grid(GridConfig(n_x=n_x, n_v=n_v, v_max=3.0, n_i=n_i, i_max=8.0))
        rng = np.random.default_rng(seed)
        f = DistField(rng.random(grid.field_shape) * (rng.random(grid.field_shape) > 0.3), grid)
        params = SchemeParams(nu=nu_theta[0], theta=nu_theta[1], delta=1.5, kappa=kappa, q=7.0)
        got = equilibrium_distance(f, params, dt)
        assert np.float64(got).tobytes() == np.float64(_oracle_distance(f, params, dt)).tobytes()


def test_equilibrium_distance_errors_name_the_cell_the_oracle_names(rng):
    # a cell at rest at zero temperature (all its mass on the node v = 0, I = 0) has a
    # relaxation temperature of 0: the second and fourth cells of the second factor block
    grid = ERROR_GRID
    blocks = row_tiles(grid.n_x, grid.n_v**3)
    f = DistField(rng.random(grid.field_shape) + 0.05, grid)
    for i in (blocks[1].start + 1, blocks[1].start + 3):
        f.cells[i] = 0.0
        f.cells[i, grid.n_v**3 // 2, 0] = 1.0
    params = SchemeParams(nu=0.5, theta=0.8, delta=2.0, kappa=1.0, q=8.0)
    for dt in (0.0, 0.1):
        with pytest.raises(PolykinError) as expected:
            _oracle_distance(f, params, dt)
        assert str(expected.value).startswith(f"cell {blocks[1].start + 1}: ")
        with pytest.raises(PolykinError) as got:
            equilibrium_distance(f, params, dt)
        assert type(got.value) is type(expected.value) is DegenerateTemperature
        assert str(got.value) == str(expected.value)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(n_x=st.integers(2, 12), n_v=st.integers(7, 10), n_i=st.integers(2, 4),
       drift=st.tuples(*[st.floats(-1.0, 1.0)] * 3), seed=st.integers(0, 2**32 - 1))
@example(n_x=6, n_v=9, n_i=4, drift=(0.3, -0.2, 0.1), seed=0)
@example(n_x=7, n_v=9, n_i=4, drift=(0.3, -0.2, 0.1), seed=0)
def test_a_cells_moments_depend_only_on_its_table(n_x, n_v, n_i, drift, seed):
    # every moment is reduced inside its cell: each cell of a random stack has the
    # moments table_moments gives it alone, and a uniform drifting Maxwellian stays bitwise
    # uniform through run(), which therefore never advects it
    grid = build_grid(GridConfig(n_x=n_x, n_v=n_v, v_max=3.0, n_i=n_i, i_max=8.0))
    params = SchemeParams(nu=0.5, theta=0.8, delta=2.0, kappa=1.0, q=8.0)
    values = np.random.default_rng(seed).random(grid.field_shape) + 0.05
    macro = compute_moments(DistField(values, grid), params, 0.1)
    for i in range(n_x):
        cell = table_moments(values[i], grid, params, 0.1)
        for name in vars(cell):
            assert (np.asarray(getattr(cell, name)).tobytes()
                    == getattr(macro, name)[i].tobytes()), (i, name)
    scn = Scenario(n_x=n_x, n_v=n_v, v_max=5.0, n_i=n_i, i_max=12.0, dt=0.05, t_final=0.5,
                   ic="maxwellian", u0=drift, nu=0.5, theta=0.8)
    final = run(scn, diagnostics="no_entropy").final.values
    assert (final == final[:1]).all()


def _outcome(scn: Scenario, diagnostics: str, tile_bytes: int = TILE_BYTES) -> tuple:
    """run()'s final field, the field each snapshot_writer call saw, and every field of its
    reports and initial sums, as bytes, or the type and message of the error it raised; with
    the calls to sample and Advector.apply, the numbers of cells that compute_moments
    returned and that the relaxation's walk was handed (a block of cells at a time), and,
    for each compute_moments call, the blocks of cells it contracted from the field."""
    samples, applies, cells, walks = [], [], (set(), set()), []
    real_sample, real_apply = stepper.sample, Advector.apply
    real_moments, real_tiles = stepper.compute_moments, stepper.cell_tiles
    real_contract = moments._contract_cells

    def spy_moments(*args, **kwargs):
        walks.append(0)
        macro = real_moments(*args, **kwargs)
        cells[0].add(len(macro))
        return macro

    def contract(*args):
        walks[-1] += 1
        return real_contract(*args)

    snapshots = []
    with mock.patch.object(field, "TILE_BYTES", tile_bytes), \
            mock.patch.object(stepper, "sample",
                              lambda *a, **k: samples.append(1) or real_sample(*a, **k)), \
            mock.patch.object(Advector, "apply",
                              lambda *a, **k: applies.append(1) or real_apply(*a, **k)), \
            mock.patch.object(stepper, "compute_moments", spy_moments), \
            mock.patch.object(moments, "_contract_cells", contract), \
            mock.patch.object(stepper, "cell_tiles",
                              lambda n, *a: cells[1].add(n) or real_tiles(n, *a)):
        try:
            res = run(scn, lambda t, f: snapshots.append((t, f.values.tobytes())), diagnostics)
        except PolykinError as exc:
            return (type(exc), str(exc)), len(samples), len(applies), cells, walks

    def as_bytes(x):
        return None if x is None else np.asarray(x, dtype=np.float64).tobytes()

    reports = [tuple(as_bytes(getattr(r, f.name)) for f in dataclasses.fields(r))
               for r in res.reports]
    got = (res.final.values.tobytes(), snapshots, reports, as_bytes(res.initial_norm_q),
           [as_bytes(x) for x in res.initial_conserved])
    return got, len(samples), len(applies), cells, walks


# the walk of cell_tiles: at 256 KB every draw's cells are one group; at 8 KB groups of 1, 2,
# 4 or all cells, the last often short (4 and 2 of 6 at n_v = 3, n_i = 4); at 800 bytes
# groups of one cell of 1-5 row tiles; at 64 bytes every cell spans 4-63 row tiles
@settings(derandomize=True, max_examples=100, deadline=None)
@given(n_x=st.integers(2, 6), n_v=st.integers(3, 5), n_i=st.integers(1, 4),
       u0=st.tuples(*[st.floats(-0.5, 0.5)] * 3),
       nu=st.floats(-0.5, 1.0, exclude_min=True, exclude_max=True), theta=st.floats(0.1, 1.0),
       kappa_exp=st.floats(-6.0, 2.0), dt=st.floats(0.01, 0.3), n_steps=st.integers(1, 3),
       snapshots=st.integers(0, 7), envelope=st.sampled_from(["off", "auto"]),
       transport_only=st.booleans(), diagnostics=st.sampled_from(["all", "no_entropy", "off"]),
       tile_bytes=st.sampled_from([64, 800, 8192, TILE_BYTES]))
@example(n_x=6, n_v=3, n_i=4, u0=(0.1, 0.0, -0.2), nu=0.3, theta=0.7, kappa_exp=0.0, dt=0.05,
         n_steps=3, snapshots=5, envelope="auto", transport_only=False, diagnostics="all",
         tile_bytes=8192)
@example(n_x=3, n_v=5, n_i=4, u0=(0.1, 0.0, -0.2), nu=0.3, theta=0.7, kappa_exp=-6.0,
         dt=0.05, n_steps=2, snapshots=3, envelope="auto", transport_only=False,
         diagnostics="no_entropy", tile_bytes=64)
def test_an_x_uniform_run_skips_the_advection_and_the_foot_sample(
        n_x, n_v, n_i, u0, nu, theta, kappa_exp, dt, n_steps, snapshots, envelope,
        transport_only, diagnostics, tile_bytes):
    # x-uniform data take the nodes' values at the feet and advect to themselves: run()
    # samples once and never advects.  Its cells stay equal, so the moments and the
    # relaxation are handed cell 0 alone, and the other cells are copied from it before
    # each snapshot and at the end; the final field, every snapshot and every number are
    # what the advecting, all-cell path gives, bit for bit.  kappa spans both sides of
    # A*dt, so both of the blend's forms are taken.  With x_uniform patched, make_initial
    # takes the smooth profile, which alpha = 0 makes rho0 * (1 + 0*sin) = rho0 in every
    # cell: the same data, bit for bit.  Nor do the steps' moments read the field: each
    # pass hands the next step the contraction and the minimum of the cell it wrote, so only
    # step 0 under "off", which has no f^0 pass, contracts the field in compute_moments
    times = tuple(k * dt for k in range(1, n_steps + 1) if snapshots >> (k - 1) & 1)
    scn = Scenario(n_x=n_x, n_v=n_v, n_i=n_i, v_max=3.0, i_max=6.0, dt=dt,
                   t_final=n_steps * dt, ic="maxwellian", u0=u0, t_tr=1.1, t_int=0.85, nu=nu,
                   theta=theta, kappa=10.0**kappa_exp, envelope=envelope,
                   transport_only=transport_only, alpha=0.0, snapshot_times=times)
    assert scn.x_uniform
    got, samples, applies, cells, walks = _outcome(scn, diagnostics, tile_bytes)
    assert (samples, applies) == (1, 0)
    assert walks == ([] if transport_only
                     else [int(n == 0 and diagnostics == "off") for n in range(n_steps)])
    # the f^0 pass walks f unless "off", and so does each step but an "off" transport-only one
    assert cells == (set() if transport_only else {1},
                     set() if diagnostics == "off" and transport_only else {1})
    assert len(got[1]) == len(times)
    with mock.patch.object(Scenario, "x_uniform", False):
        expected, samples, applies, cells, walks = _outcome(scn, diagnostics, tile_bytes)
    assert (samples, applies) == (1 if diagnostics == "off" else 2, n_steps - 1)
    assert len(walks) == (0 if transport_only else n_steps) and all(walks)
    assert cells[0] == (set() if transport_only else {n_x})
    assert got == expected


@pytest.mark.parametrize("diagnostics", ["all", "no_entropy", "off"])
@pytest.mark.parametrize("tile_bytes", [64, TILE_BYTES])
@pytest.mark.parametrize("rho0, temperatures, error", [
    (1e-300, (10.0, 10.0), "step 0: cell 0 has non-positive density 1.05885659320126"),
    (1e303, (0.5, 0.5), "step 0: cell 0: Gaussian prefactor inf is not positive"),
    (1e305, (1.1, 0.85), "step 1: cell 0: Gaussian prefactor inf is not positive")],
    ids=["zero_density", "gaussian_step_0", "gaussian_step_1"])
def test_an_x_uniform_run_fails_as_the_all_cell_path_does(rho0, temperatures, error,
                                                           tile_bytes, diagnostics):
    # the one-cell step raises the error of the whole field, with the same step and cell
    scn = Scenario(n_x=3, n_v=3, n_i=2, v_max=3.0, i_max=6.0, dt=0.1, t_final=0.3,
                   ic="maxwellian", t_tr=temperatures[0], t_int=temperatures[1], rho0=rho0,
                   alpha=0.0, snapshot_times=(0.1,))
    got = _outcome(scn, diagnostics, tile_bytes)[0]
    with mock.patch.object(Scenario, "x_uniform", False):
        expected = _outcome(scn, diagnostics, tile_bytes)[0]
    assert got == expected
    assert got[0] in (ZeroDensity, NonFiniteGaussian) and got[1].startswith(error), got


FINITE_EXTREME = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
TINY_SCENARIO = "n_x = 4\nn_v = 5\nn_i = 4\nt_final = 0.2\nic = smooth\n"
SCENARIO_KEYS = {f.name for f in dataclasses.fields(Scenario)} | {"u0x", "u0y", "u0z"}


def _all_finite(csv_path: Path) -> bool:
    rows = csv_path.read_text(encoding="utf-8").splitlines()[1:]
    return all(math.isfinite(float(tok)) for row in rows for tok in row.split(","))


@PROPERTY
@given(extra=st.fixed_dictionaries(
    {"dt": st.one_of(st.just(0.1), FINITE_EXTREME)},
    optional={
        "rho0": FINITE_EXTREME, "temperature": FINITE_EXTREME, "kappa": FINITE_EXTREME,
        "v_max": FINITE_EXTREME, "i_max": FINITE_EXTREME, "q": FINITE_EXTREME,
        "u0x": FINITE_EXTREME.map(lambda x: -x), "alpha": st.floats(0.0, 0.999),
        "delta": st.floats(-6.0, 0.5).map(lambda e: 10.0**e),
    }))
# counterexamples the search found: an initial-data error that named no key, and an exit 0
# with an infinite entropy in steps.csv
@example(extra={"dt": 0.1, "temperature": 1e-89})
@example(extra={"dt": 0.1, "v_max": 1e-26, "i_max": 1e-290, "temperature": 1e17, "u0x": -1.0,
                "q": 10.0, "delta": 1.0, "alpha": 0.0})
def test_finite_extreme_scenarios_exit_typed_and_never_write_non_finite_output(extra):
    # no finite input escapes as a traceback (exit 1), an unnamed error or a NaN in a CSV
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scn.txt"
        path.write_text(TINY_SCENARIO + "".join(f"{k} = {v!r}\n" for k, v in extra.items()),
                        encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["simulate", str(path), "--out", str(Path(tmp) / "o")])
        err = err.getvalue()
        assert code in (0, 2, 3), err
        if code == 0:
            assert _all_finite(Path(tmp) / "o" / "steps.csv")
            assert _all_finite(Path(tmp) / "o" / "macro.csv")
        else:
            named = set(re.findall(r"[a-z_0-9]+", err)) & SCENARIO_KEYS
            assert named or re.search(r"\b(cell|step) \d", err), err
