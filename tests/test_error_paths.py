from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from polykin import (
    Advector,
    DistField,
    GridConfig,
    advect,
    build_grid,
    compute_moments,
    normalizer_discrete,
    read_snapshot,
    relax,
    sample,
    step,
    weighted_sup_norm,
)
from polykin.errors import DegenerateGrid, GridMismatch, InvalidConfig, NonFiniteField
from tests.conftest import random_field_values


def test_normalizer_degenerate_sum_rejected():
    class DeadGrid:
        i_nodes = np.array([800.0, 900.0])  # exp underflows to zero at both
        i_weights = np.array([0.5, 0.5])

    with pytest.raises(DegenerateGrid):
        normalizer_discrete(2.0, DeadGrid())


def test_snapshot_rejects_foreign_file(tmp_path):
    from polykin import read_snapshot

    path = tmp_path / "junk.bin"
    path.write_bytes(b"\x00" * 128)
    with pytest.raises(InvalidConfig):
        read_snapshot(path)


def _snapshot_bytes(tmp_path, small_grid):
    from polykin import write_snapshot

    path = tmp_path / "f.bin"
    write_snapshot(path, DistField(np.ones(small_grid.field_shape), small_grid), 2.0, 8.0)
    return path, path.read_bytes()


def test_snapshot_rejects_short_header(tmp_path, small_grid):
    from polykin import read_snapshot

    path, data = _snapshot_bytes(tmp_path, small_grid)
    path.write_bytes(data[:40])
    with pytest.raises(InvalidConfig, match="header needs 72 bytes, got 40"):
        read_snapshot(path)


def test_snapshot_rejects_truncated_payload(tmp_path, small_grid):
    from polykin import read_snapshot

    path, data = _snapshot_bytes(tmp_path, small_grid)
    path.write_bytes(data[:-8])
    expected = 8 * 4 * 5**3 * 4
    with pytest.raises(InvalidConfig, match=f"needs {expected} bytes, got {expected - 8}"):
        read_snapshot(path)


@pytest.mark.parametrize("key, value", [("v_max", math.nan), ("q", math.nan),
                                        ("i_max", -1.0), ("delta", math.inf), ("n_x", 10**12)])
def test_snapshot_header_is_checked_before_allocating(tmp_path, rng, key, value):
    from polykin import write_snapshot
    from polykin.field import _SNAP_HEAD

    grid = build_grid(GridConfig(n_x=4, n_v=9, v_max=3.0, n_i=32, i_max=8.0))  # 746 KB
    path = tmp_path / "f.bin"
    write_snapshot(path, DistField(rng.random(grid.field_shape), grid), 2.0, 8.0)
    data = path.read_bytes()
    head = dict(zip(["magic", "n_x", "n_v", "n_i", "v_max", "i_max", "pad", "delta", "q"],
                    _SNAP_HEAD.unpack(data[: _SNAP_HEAD.size])))
    head[key] = value
    path.write_bytes(_SNAP_HEAD.pack(*head.values()) + data[_SNAP_HEAD.size :])
    match = ("payload needs 186624000000000000 bytes, got 746496" if key == "n_x"
             else f"header {key} = ")
    tracemalloc.start()
    try:
        with pytest.raises(InvalidConfig, match=match) as exc:
            read_snapshot(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(path) in str(exc.value)
    assert peak < 64 * 1024, peak  # no grid tables, no payload


def test_field_shape_must_match_grid(small_grid):
    with pytest.raises(GridMismatch):
        DistField(np.zeros((1, 2, 3)), small_grid)


def test_field_values_must_be_c_ordered(small_grid):
    with pytest.raises(GridMismatch, match="C-contiguous"):
        DistField(np.asfortranarray(np.ones(small_grid.field_shape)), small_grid)


@pytest.mark.parametrize("call, match", [
    (lambda f, p: step(f, p, 0.0), "step requires dt > 0"),
    (lambda f, p: step(f, p, math.nan), "step requires dt > 0 and finite, got nan"),
    (lambda f, p: step(f, p, math.inf), "step requires dt > 0 and finite, got inf"),
    # finite, but its foot offsets |v|*dt*n_x overflow
    (lambda f, p: step(f, p, 1e308), "dt must be >= 0 with finite foot offsets"),
    (lambda f, p: Advector(f.grid, -1.0), "dt must be >= 0"),
    (lambda f, p: Advector(f.grid, math.nan), "dt must be >= 0 .*, got nan"),
    (lambda f, p: advect(f, math.inf), "dt must be >= 0 .*, got inf"),
    (lambda f, p: sample(lambda x, v1, v2, v3, i: x, f.grid, -0.1), "shift_dt must be >= 0"),
    (lambda f, p: weighted_sup_norm(f, 0.0, 2.0), "q must be > 0"),
], ids=["step", "step_nan", "step_inf", "step_overflowing_foot", "Advector", "Advector_nan",
        "advect_inf", "sample", "weighted_sup_norm"])
@pytest.mark.filterwarnings("error")  # the typed error comes with no numpy warning
def test_bad_argument_raises_invalid_config(small_grid, default_params, call, match):
    f = DistField(np.ones(small_grid.field_shape), small_grid)
    with pytest.raises(InvalidConfig, match=match):
        call(f, default_params)


def test_foot_rejects_negative_dt(small_grid):
    with pytest.raises(InvalidConfig):
        small_grid.foot(0, 1.0, -0.1)


@pytest.mark.parametrize("dt", [0.0, math.nan, math.inf])
@pytest.mark.filterwarnings("error")
def test_relax_rejects_nonpositive_or_non_finite_dt(small_grid, default_params, rng, dt):
    # dt <= 0 alone let NaN through, into an all-NaN field
    f = DistField(random_field_values(rng, small_grid) + 0.1, small_grid)
    macro = compute_moments(f, default_params, dt=0.1)
    with pytest.raises(InvalidConfig, match=f"relax requires dt > 0 and finite, got {dt!r}"):
        relax(f, macro, default_params, dt=dt)


def test_run_error_names_the_step():
    # degenerate near-vacuum data eventually underflows the relaxation
    # temperature; the abort must carry the step index
    import warnings

    from polykin import Scenario, run
    from polykin.errors import PolykinError

    scn = Scenario(n_x=4, n_v=3, n_i=2, dt=0.1, t_final=0.5,
                   v_max=1.0, i_max=1.0, rho0=1e-280, temperature=0.02)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # defect scales degenerate too
        with pytest.raises(PolykinError) as exc:
            run(scn)
    assert "step " in str(exc.value)
    assert "cell " in str(exc.value)


def test_step_error_names_step_0(small_grid, default_params, rng):
    # the node v1 = 0 does not move under advection, so its NaN stays in cell 1
    f = DistField(random_field_values(rng, small_grid) + 0.1, small_grid)
    f.values[1, 2, 0, 0, 0] = math.nan
    with pytest.raises(NonFiniteField) as exc:
        step(f, default_params, 0.1)
    assert str(exc.value) == "step 0: cell 1 has non-finite density nan"
