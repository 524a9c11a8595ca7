"""Property-based checks of what the scheme guarantees step by step.

Grids stay at n_x <= 6, n_v <= 5, n_i <= 6 and example counts are bounded, so
the module runs in a few seconds; derandomize makes every run draw the same
examples.
"""

from __future__ import annotations

import dataclasses
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from polykin import (
    Advector,
    DistField,
    GridConfig,
    SchemeParams,
    advect,
    build_grid,
    compute_moments,
    conserved_quantities,
    gaussian_field,
    normalizer_discrete,
    read_snapshot,
    step,
    table_moments,
    tensor_sandwich_check,
    weighted_sup_norm,
    write_snapshot,
)
from polykin.errors import PolykinError
from polykin.stepper import _blend_into

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
    out = np.empty(shape)
    _blend_into(ft, m, 1.0 - c_m, c_m, out)
    assert (out >= 0).all()
    assert (out >= np.minimum(ft, m)).all() and (out <= np.maximum(ft, m)).all()
    in_place = m.copy()  # the relaxation blends into the table holding the Gaussian
    _blend_into(ft, in_place, 1.0 - c_m, c_m, in_place)
    assert in_place.tobytes() == out.tobytes()
    _blend_into(ft, ft, 1.0 - c_m, c_m, out)
    assert out.tobytes() == ft.tobytes()


@PROPERTY
@given(f=fields(), dt=st.floats(0.0, 10.0))
def test_advection_keeps_sign_and_never_raises_the_weighted_norm(f, dt):
    out = advect(f, dt)
    assert (out.values >= 0).all()
    assert weighted_sup_norm(out, 8.0, 2.0) <= weighted_sup_norm(f, 8.0, 2.0)


@PROPERTY
@given(data=st.data(), n_x=st.integers(1, 8), n_v=st.integers(1, 5),
       dt=st.one_of(st.just(0.0), st.floats(0.0, 10.0)))
def test_advector_equals_the_foot_oracle(data, n_x, n_v, dt):
    # v_max*dt*n_x reaches 80*n_x cells, so feet wrap many periods; the v = 0 node of an
    # odd n_v, and dt = 0, give b = 0 nodes
    grid = build_grid(GridConfig(n_x=max(n_x, 2), n_v=n_v, v_max=data.draw(st.floats(0.5, 8.0)),
                                 n_i=data.draw(st.integers(1, 3)), i_max=1.0))
    if n_x == 1:  # build_grid asks for two cells; the stencil is defined for one
        grid = dataclasses.replace(grid, n_x=1, dx=1.0, x_nodes=np.zeros(1), _cache={})
    f = data.draw(arrays(np.float64, grid.field_shape, elements=NONNEG))
    out = Advector(grid, dt).apply(DistField(f, grid)).values
    expected = np.empty_like(f)
    for j, v in enumerate(grid.v_axis):
        fw = grid.foot(0, v, dt)  # the foot of node i is node 0's, moved by i cells
        for i in range(grid.n_x):
            lo, hi = f[(i + fw.s) % grid.n_x, j], f[(i + fw.s + 1) % grid.n_x, j]
            expected[i, j] = lo + (1.0 - fw.a) * (hi - lo)
    assert out.tobytes() == expected.tobytes()


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
