"""Per-cell passes hold about one cell table beyond their output, not two, and a run
holds two fields.

The relaxation overwrites f~ with its output: each tile's Gaussian goes into
one reused tile buffer and f~'s tile is blended with it there.  relax() copies
f~ into its output first; gaussian_field writes straight into its field, and
entropy reuses one cell buffer.  tracemalloc sees numpy's data buffers, so a
pass that builds a second full table per cell shows up as a peak of two tables
or more.

The blend, the weighted sup norms, the entropy and the envelope ratio walk
each cell in row tiles of field.TILE_BYTES, so on cells much larger than a tile
they hold a small fraction of a cell table: those tests pin them under a
quarter.  The Gaussian factors of a relaxation come in blocks of cells of about
one tile, so its peak does not grow with the number of cells.  run() keeps f^n
and f~ and no third field, so its peak stays under two and a half fields.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from polykin import (
    DistField,
    GridConfig,
    Scenario,
    SchemeParams,
    build_grid,
    compute_moments,
    entropy,
    error_sup_norm,
    gaussian_field,
    normalizer_discrete,
    relax,
    run,
    weighted_sup_norm,
)
from polykin.diagnostics import StabilityEnvelope
from polykin.stepper import _envelope_min_ratio, _relax_into

GRID = build_grid(GridConfig(n_x=4, n_v=9, v_max=3.0, n_i=64, i_max=8.0))
# 5 MB cells, about twenty row tiles each
LARGE = build_grid(GridConfig(n_x=2, n_v=17, v_max=3.0, n_i=128, i_max=8.0))


def _tables_beyond_output(fn, grid=GRID) -> float:
    """Peak traced memory of fn() beyond the field it returns, in cell tables of grid."""
    fn()  # fills the grid's cached node tables outside the measurement
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out_bytes = result.values.nbytes if isinstance(result, DistField) else 0
    return (peak - base - out_bytes) / (grid.n_v**3 * grid.n_i * 8)


@pytest.fixture
def field(rng):
    return DistField(rng.random(GRID.field_shape) + 0.05, GRID)


@pytest.mark.parametrize("kappa, limit", [(1.0, 1.0), (1e-3, 1.5)])  # c_m <= 1/2, c_m > 1/2
def test_relax_holds_no_second_table(field, kappa, limit):
    params = SchemeParams(nu=0.0, theta=1.0, delta=2.0, kappa=kappa, q=8.0)
    macro = compute_moments(field, params, dt=0.1)
    assert _tables_beyond_output(lambda: relax(field, macro, params, 0.1)) < limit


def test_gaussian_field_writes_into_its_field(field):
    params = SchemeParams(nu=0.0, theta=1.0, delta=2.0, kappa=1.0, q=8.0)
    macro = compute_moments(field, params, dt=0.0)
    lam = normalizer_discrete(2.0, GRID)
    assert _tables_beyond_output(lambda: gaussian_field(macro, GRID, lam, 2.0)) < 1.0


def test_entropy_reuses_one_cell_buffer(field):
    assert _tables_beyond_output(lambda: entropy(field)) < 1.5


@pytest.fixture
def large_fields(rng):
    return [DistField(rng.random(LARGE.field_shape) + 0.05, LARGE) for _ in range(2)]


@pytest.mark.parametrize("kappa, transport_only", [(1.0, False), (1e-3, False), (1.0, True)],
                         ids=["1.0", "0.001", "transport_only"])  # c_m <= 1/2, c_m > 1/2
def test_fused_relax_pass_holds_under_a_quarter_table(large_fields, kappa, transport_only):
    f = large_fields[0]
    params = SchemeParams(nu=0.0, theta=1.0, delta=2.0, kappa=kappa, q=8.0)
    macro = None if transport_only else compute_moments(f, params, dt=0.1)

    def fused():  # blend (none without macro), norms, entropy and conserved sums, in place
        _relax_into(f, macro, params, 0.1, track_entropy=True, gauss_norm=True)

    assert _tables_beyond_output(fused, LARGE) < 0.25


@pytest.mark.parametrize("name", ["weighted_sup_norm", "error_sup_norm", "entropy",
                                  "envelope_min_ratio"])
def test_tiled_reductions_hold_under_a_quarter_table(large_fields, name):
    a, b = large_fields
    env_table = StabilityEnvelope(0.01, 0.5, 2.0, 2.0).table(LARGE)
    reduce = {
        "weighted_sup_norm": lambda: weighted_sup_norm(a, 8.0, 2.0),
        "error_sup_norm": lambda: error_sup_norm(a, b, 8.0, 2.0),
        "entropy": lambda: entropy(a),
        "envelope_min_ratio": lambda: _envelope_min_ratio(a, env_table),
    }[name]
    assert _tables_beyond_output(reduce, LARGE) < 0.25


def test_relax_pass_peak_does_not_grow_with_the_cell_count(rng):
    # Gaussian factors come in blocks of about one tile, whatever n_x is
    params = SchemeParams(nu=0.0, theta=1.0, delta=2.0, kappa=1.0, q=8.0)
    peaks = []
    for n_x in (16, 64):
        grid = build_grid(GridConfig(n_x=n_x, n_v=17, v_max=3.0, n_i=16, i_max=8.0))
        f = DistField(rng.random(grid.field_shape) + 0.05, grid)
        macro = compute_moments(f, params, dt=0.1)
        peaks.append(_tables_beyond_output(
            lambda: _relax_into(f, macro, params, 0.1, gauss_norm=True), grid))
    assert peaks[1] - peaks[0] < 0.25, peaks


def test_run_holds_two_fields_while_stepping():
    # f^n and f~, which the relaxation overwrites with f^(n+1); x-uniform initial
    # data are sampled through a temporary of one cell, 1/16 of a field here
    scn = Scenario(n_x=16, n_v=9, v_max=4.0, n_i=32, i_max=8.0, ic="maxwellian",
                   dt=0.05, t_final=0.1)
    grid, _ = scn.validate()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run(scn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    fields = (peak - base) / (8 * np.prod(grid.field_shape))
    assert fields < 2.5, fields
