"""Property-based checks of what the scheme guarantees step by step.

Grids stay at n_x <= 6, n_v <= 5, n_i <= 6 and example counts are bounded, so
the module runs in a few seconds; derandomize makes every run draw the same
examples.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from polykin import (
    DistField,
    GridConfig,
    SchemeParams,
    advect,
    build_grid,
    conserved_quantities,
    read_snapshot,
    table_moments,
    tensor_sandwich_check,
    weighted_sup_norm,
    write_snapshot,
)
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
    _blend_into(ft, ft, 1.0 - c_m, c_m, out)
    assert out.tobytes() == ft.tobytes()


@PROPERTY
@given(f=fields(), dt=st.floats(0.0, 10.0))
def test_advection_keeps_sign_and_never_raises_the_weighted_norm(f, dt):
    out = advect(f, dt)
    assert (out.values >= 0).all()
    assert weighted_sup_norm(out, 8.0, 2.0) <= weighted_sup_norm(f, 8.0, 2.0)


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
