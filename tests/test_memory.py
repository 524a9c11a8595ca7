"""Per-cell passes hold about one cell table beyond their output, not two, and a run
holds one field.

The relaxation overwrites f~ with its output: each tile's Gaussian goes into
one reused tile buffer and f~'s tile is blended with it there.  relax() copies
f~ into its output first; gaussian_field writes straight into its field, and
entropy reuses one cell buffer.  tracemalloc sees numpy's data buffers, so a
pass that builds a second full table per cell shows up as a peak of two tables
or more.

The blend, the weighted sup norms, the entropy and the envelope ratio walk
each cell in row tiles of field.TILE_BYTES, so on cells much larger than a tile
they hold a small fraction of a cell table: those tests pin them under a
quarter.  The norms gather each tile's weights from a table of one row per
|v|^2 shell, so the grid caches nothing cell-sized.  The Gaussian factors of a
relaxation come in blocks of cells of about one tile, so its peak does not grow
with the number of cells.  run() keeps one
field: it samples f^0, then the exact foot values into the same array, and
each step advects it in place through the Advector's chunk (about two tiles)
and relaxes it in place.  compute_moments contracts one block of cells at a
time into one buffer, so beside the moments it holds one block's contraction
whatever n_i is, and the relaxation drops each block's Gaussian factors before
it builds the next.  Scenario.validate() counts these terms, and run()'s traced
peak stays under the guard's run_peak_bytes.  sample() fills its field one
velocity slab at a time, beside a few slabs of the initial function's
temporaries, and read_snapshot() reads the payload straight into its
field, so neither holds a second field.  A convergence study holds its runs'
final fields: it compares each level with the reference's cells where they lie,
and samples one exact field at a time.  The equilibrium distance takes its Gaussian
a tile at a time, as the relaxation does, and a sweep frees each kappa's field before
the next kappa runs, so a sweep peaks where one run does.  tracemalloc does not see
the buffers BLAS takes for its threads, so one test reads ru_maxrss in a subprocess
at two BLAS threads: the energy contractions, taken a tile at a time, take none.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import polykin
from polykin import (
    DistField,
    GridConfig,
    Scenario,
    SchemeParams,
    build_grid,
    compute_moments,
    entropy,
    equilibrium_distance,
    error_sup_norm,
    gaussian_field,
    normalizer_discrete,
    read_snapshot,
    relax,
    run,
    sample,
    step,
    weighted_sup_norm,
    write_snapshot,
)
from polykin import cli, stepper
from polykin.diagnostics import StabilityEnvelope
from polykin.field import tile_rows
from polykin.moments import moments_peak_doubles, moments_tiling
from polykin.scenario import make_initial, run_peak_bytes
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
        _relax_into(f, macro, params, 0.1, "all", gauss_norm=True)

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


def _run_peak(scn: Scenario) -> int:
    """Traced peak of run(scn) in bytes."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run(scn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - base


def _run_fields(ic: str) -> float:
    """Traced peak of run() on the n_x = 16 pin, in fields."""
    scn = Scenario(n_x=16, n_v=9, v_max=4.0, n_i=32, i_max=8.0, ic=ic, dt=0.05, t_final=0.1)
    grid, _ = scn.validate()
    return _run_peak(scn) / (8 * np.prod(grid.field_shape))


def test_run_holds_two_fields_while_stepping():
    # f^n and f~, which the relaxation overwrites with f^(n+1); x-uniform initial
    # data are sampled through a temporary of one cell, 1/16 of a field here
    fields = _run_fields("maxwellian")
    assert fields < 2.5, fields


@pytest.mark.parametrize("ic", ["smooth", "riemann"])
def test_run_on_x_dependent_data_holds_two_fields(ic):
    # the exact foot values are sampled slab by slab next to f^n, so the
    # second sample adds one velocity slab (1/9 of a field here), not a field
    fields = _run_fields(ic)
    assert fields < 2.5, fields


@pytest.mark.parametrize("ic", ["maxwellian", "smooth", "riemann"])
def test_run_holds_one_field(ic):
    # the field, the advection chunk (0.17 of a field here) and one pass's
    # temporaries; a second field would read 2 or more
    fields = _run_fields(ic)
    assert fields < 1.5, fields


def _guard_scenario(n_i: int) -> Scenario:
    return Scenario(n_x=64, n_v=17, v_max=4.0, n_i=n_i, i_max=8.0, ic="smooth", dt=0.05,
                    t_final=0.1)


@pytest.mark.parametrize("n_i", [1, 2, 32])
def test_moments_hold_one_block_of_their_energy_contraction(rng, n_i):
    # compute_moments contracts a block of tile_rows(n_v^3) = 6 cells at a time into one
    # buffer, so beside the moments it holds one block's (6, n_v^3, 2) contraction and a
    # group of 36 cells' pair sums, 1.92 blocks' worth at any n_i; a whole-stack
    # contraction was 2/n_i of a field, 10.7 blocks
    grid, params = _guard_scenario(n_i).validate()
    f = DistField(rng.random(grid.field_shape) + 0.05, grid)
    block = 8 * moments_tiling(grid.n_x, 17)[0] * 17**3 * 2
    peak = _fields_beyond_output(lambda: compute_moments(f, params, 0.05), grid) * f.values.nbytes
    assert peak < 2.5 * block, peak / block


@pytest.mark.parametrize("n_x, n_v", [(64, 17), (4096, 3), (2000, 5)])
def test_moments_peak_under_their_guard_term(rng, n_x, n_v):
    # 2, 4 and 8 groups at n_i = 1, each centred before the next is contracted: under
    # the moments_peak_doubles that run_peak_bytes counts
    grid = build_grid(GridConfig(n_x=n_x, n_v=n_v, v_max=3.0, n_i=1, i_max=8.0))
    params = SchemeParams(nu=0.5, theta=0.8, delta=2.0, kappa=1.0, q=8.0)
    f = DistField(rng.random(grid.field_shape) + 0.05, grid)
    peak = _fields_beyond_output(lambda: compute_moments(f, params, 0.05), grid) * f.values.nbytes
    limit = 8 * moments_peak_doubles(n_x, n_v)
    assert peak < limit, peak / limit


def test_relax_frees_each_blocks_gaussian_factors(rng):
    # a block's factors are dropped before the next block's are built, so two blocks of
    # cells peak where one does: 4.97 blocks of factor rows at (n_v, n_i) = (3, 1), where
    # the previous block's factors held beside the next read 6.01
    params = SchemeParams(nu=0.0, theta=1.0, delta=2.0, kappa=1.0, q=8.0)
    rows = tile_rows(3**3)
    peaks = []
    for n_x in (rows, 2 * rows):
        grid = build_grid(GridConfig(n_x=n_x, n_v=3, v_max=3.0, n_i=1, i_max=8.0))
        f = DistField(rng.random(grid.field_shape) + 0.05, grid)
        macro = compute_moments(f, params, dt=0.1)
        tables = _tables_beyond_output(
            lambda: _relax_into(f, macro, params, 0.1, gauss_norm=True), grid)
        peaks.append(tables / rows)  # a cell table is a factor row at n_i = 1
    assert peaks[1] - peaks[0] < 0.5, peaks


STUDY = ("n_x = 8\nn_v = 17\nn_i = 2\nv_max = 4.0\ni_max = 8.0\ndt = 0.05\nt_final = 0.25\n"
         "ic = smooth\nalpha = 0.2\n")


@pytest.mark.parametrize("transport_only, limit", [(False, 2.0), (True, 1.25 * 16)],
                         ids=["coupled", "transport_only"])
def test_convergence_errors_hold_little_beside_the_runs_fields(tmp_path, monkeypatch,
                                                                transport_only, limit):
    # once its last run is done, the study takes each level's error.  Coupled, it reads the
    # reference's cells where they lie: about one cell table beyond the runs' fields, where
    # copies of the restricted reference held 24.  Transport-only, it holds one exact field
    # at a time, 16 cells at n_x = 16 plus the sample's slabs, and not the previous beside it
    real_run, after_runs = stepper.run, []

    def traced_run(*args, **kwargs):
        result = real_run(*args, **kwargs)
        after_runs.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return result

    monkeypatch.setattr(stepper, "run", traced_run)
    path = tmp_path / "study.txt"
    path.write_text(STUDY, encoding="utf-8")
    argv = ["convergence", str(path), "--levels", "4,8,16", "--reference", "32",
            "--out", str(tmp_path / "o")] + (["--transport-only"] if transport_only else [])
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cells = (peak - after_runs[-1]) / (8 * 17**3 * 2)
    assert cells < limit, cells


SWEEP = ("n_x = 16\nn_v = 17\nn_i = 16\nv_max = 4.0\ni_max = 8.0\ndt = 0.05\nt_final = 0.1\n"
         "ic = smooth\nalpha = 0.2\n")


def test_sweep_holds_one_run_at_a_time(tmp_path):
    # each kappa's final field is freed before the next kappa runs, and its equilibrium
    # distance holds a tile of its Gaussian, not a field: the sweep peaks where one run
    # does, 12.2 MB against a guard of 17.2 MB and a 10.1 MB field.  Keeping the previous
    # kappa's result through the next run, and a whole Gaussian field, read 22.4 MB
    path = tmp_path / "sweep.txt"
    path.write_text(SWEEP, encoding="utf-8")
    argv = ["sweep", str(path), "--kappa", "1,1e-6", "--out", str(tmp_path / "o")]
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < run_peak_bytes(16, 17, 16), peak / run_peak_bytes(16, 17, 16)


@pytest.mark.parametrize("n_x, n_v, n_i", [(16, 17, 16), (2, 33, 32), (256, 5, 4), (1024, 3, 1)])
def test_equilibrium_distance_peaks_under_the_memory_guard(rng, n_x, n_v, n_i):
    # the Gaussian is taken a tile at a time, never as a field: its input and the moments,
    # a block's factors and a tile beside it stay under what a run may hold: 0.67 of the
    # guard at (16, 17, 16), where a whole Gaussian field read 1.24
    grid = build_grid(GridConfig(n_x=n_x, n_v=n_v, v_max=4.0, n_i=n_i, i_max=8.0))
    params = SchemeParams(nu=0.5, theta=0.8, delta=2.0, kappa=1e-6, q=8.0)
    f = DistField(rng.random(grid.field_shape) + 0.05, grid)
    peak = _fields_beyond_output(lambda: equilibrium_distance(f, params, 0.05), grid)
    held = (1 + peak) * f.values.nbytes
    assert held < run_peak_bytes(n_x, n_v, n_i), held / run_peak_bytes(n_x, n_v, n_i)


@pytest.mark.parametrize("n_x, n_v, n_i, over", [
    (64, 17, 1, {}), (64, 17, 2, {}), (64, 17, 32, {}),
    (128, 9, 32, {"ic": "riemann"}), (512, 5, 32, {"ic": "riemann"}),
    (4, 33, 32, {"envelope": "auto"}),
    (1024, 3, 1, {}), (256, 5, 1, {}), (4096, 3, 1, {}), (512, 5, 1, {}),
    (2, 33, 32, {}), (512, 33, 1, {"ic": "riemann"}),
], ids=["1", "2", "32", "riemann_128_9", "riemann_512_5", "auto_4_33",
        "1024_3_1", "256_5_1", "4096_3_1", "512_5_1", "2_33_32", "riemann_512_33_1"])
def test_run_peaks_under_the_memory_guard(n_x, n_v, n_i, over):
    # 1.62, 1.36 and 1.07 fields at (64, 17), where a whole-stack contraction read 3.45,
    # 2.28 and 1.09. On small cells (n_v = 3 or 5, n_i = 1) the moments' per-cell sums and
    # tensors, a block's contraction and the relaxation's block of Gaussian factors add up
    # to more than a field.  Two big cells hold 1.20 fields, mostly the Gaussian factors
    # of both cells at 6 n_v^3 doubles a cell, where a cell-sized norm-weight table and
    # its temporary read 2.06.  At (512, 33, 1) Riemann data, where sample holds 1.10
    # slabs of temporaries, the run peaks at 0.94 of the guard.
    # Two-state data scale their slab's shape in place, and the envelope table is
    # built in one cell-sized array, so neither holds a second slab or table
    scn = dataclasses.replace(_guard_scenario(n_i), n_x=n_x, n_v=n_v, **over)
    run(scn)  # fills the module-level caches outside the measurement
    peak = _run_peak(scn)
    assert peak < run_peak_bytes(n_x, n_v, n_i), peak / run_peak_bytes(n_x, n_v, n_i)


def test_run_on_two_big_cells_holds_little_beside_its_field():
    # run() builds its grid, so the first build of every table counts: a cell-sized
    # norm-weight table and its temporary read 2.02 fields here, the 116-shell table 1.12
    scn = Scenario(n_x=2, n_v=17, v_max=3.0, n_i=128, i_max=8.0, dt=0.05, t_final=0.1,
                   t_tr=1.1, t_int=0.85)
    fields = _run_peak(scn) / (8 * np.prod(LARGE.field_shape))
    assert fields < 1.2, fields


def _cached_arrays(grid):
    for value in grid._cache.values():
        yield from value if isinstance(value, tuple) else (value,)


_BLAS_RSS = """
import resource
import numpy as np
from polykin import DistField, GridConfig, SchemeParams, build_grid, compute_moments
from polykin import conserved_quantities
from polykin.stepper import _relax_into
grid = build_grid(GridConfig(n_x=2, n_v=33, v_max=8.0, n_i=256, i_max=40.0))
params = SchemeParams(nu=0.5, theta=0.8, delta=2.0, kappa=1.0, q=8.0)
f = DistField(np.empty(grid.field_shape), grid)
np.random.default_rng(0).random(out=f.values)
f.values += 0.05
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
macro = compute_moments(f, params, 0.1)
conserved_quantities(f, params.delta)
_relax_into(f, macro, params, 0.1)
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024)
"""


def test_contractions_take_no_threaded_blas_memory():
    # with two BLAS threads OpenBLAS threads a gemm over a whole 35,937-row cell, and its
    # buffers grew ru_maxrss by 52 MB beyond the field, outside what tracemalloc sees; a
    # tile's gemm runs on the calling thread.  The passes' own arrays and the grid's
    # tables take 5.7 MB on the criterion-4 grid
    src = str(Path(polykin.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", _BLAS_RSS], env=env, capture_output=True,
                         text=True, check=True, timeout=300)
    grown_mb = float(out.stdout)
    assert grown_mb < 8.0, grown_mb


def test_grid_caches_hold_no_cell_sized_table(large_fields):
    # the norm weights are one row per |v|^2 shell (116 of 4,913 velocity nodes here)
    result = run(Scenario(n_x=2, n_v=17, v_max=3.0, n_i=128, i_max=8.0, ic="smooth",
                          envelope="auto", dt=0.05, t_final=0.1))
    f = large_fields[0]
    params = SchemeParams(nu=0.5, theta=0.8, delta=2.0, kappa=1.0, q=8.0)
    out, _ = step(f, params, 0.05)
    weighted_sup_norm(out, 10.0, 2.0)
    for grid in (result.grid, LARGE):
        biggest = max(a.size for a in _cached_arrays(grid))
        assert biggest < 17**3 * 128 / 4, biggest


def _fields_beyond_output(fn, grid) -> float:
    """Peak traced memory of fn() beyond the field it returns, in fields of grid."""
    return _tables_beyond_output(fn, grid) / grid.n_x


SLABS = Scenario(n_x=16, n_v=9, v_max=4.0, n_i=32, i_max=8.0, ic="smooth", dt=0.05,
                 t_final=0.1)


@pytest.mark.parametrize("scn, limit", [
    (SLABS, 2.25),  # a quarter of the field: 1.45 slabs
    # every temporary is under numpy's 256 KiB threshold for computing in place: 4.5 slabs
    (dataclasses.replace(SLABS, n_x=256, n_v=3, n_i=1, ic="riemann"), 5.0),
    # the slab-sized shape is divided, exponentiated and scaled in place: 1.10 slabs
    (dataclasses.replace(SLABS, n_x=512, n_v=33, n_i=1, ic="riemann"), 1.5),
], ids=["smooth_16_9_32", "riemann_256_3_1", "riemann_512_33_1"])
def test_sample_holds_a_few_slabs_beyond_its_output(scn, limit):
    # the initial function's broadcast temporaries for the slab it fills
    grid, _ = scn.validate()
    ic = make_initial(scn, grid)
    slabs = _fields_beyond_output(lambda: sample(ic, grid, 0.05), grid) * grid.n_v
    assert slabs < limit, slabs


def test_read_snapshot_reads_into_its_output(tmp_path, rng):
    grid, _ = SLABS.validate()
    path = tmp_path / "f.bin"
    write_snapshot(path, DistField(rng.random(grid.field_shape), grid), 2.0, 8.0)
    fields = _fields_beyond_output(lambda: read_snapshot(path)[0], grid)
    assert fields < 0.25, fields


def _whole_grid_sample(initial_function, grid, shift_dt):
    """The whole-grid evaluation that sample() did before it went slab by slab."""
    x_eff = np.mod(grid.x_nodes[:, None] - grid.v_axis[None, :] * shift_dt, 1.0)
    v = grid.v_axis
    values = initial_function(
        x_eff[:, :, None, None, None],
        v[None, :, None, None, None],
        v[None, None, :, None, None],
        v[None, None, None, :, None],
        grid.i_nodes[None, None, None, None, :],
    )
    return np.broadcast_to(values, grid.field_shape).astype(float, order="C")


@pytest.mark.parametrize("shift_dt", [0.0, 0.05, 0.37])
@pytest.mark.parametrize("ic", ["maxwellian", "smooth", "riemann"])
def test_slab_sample_equals_the_whole_grid_evaluation(ic, shift_dt):
    scn = Scenario(n_x=7, n_v=9, v_max=4.5, n_i=5, i_max=8.0, ic=ic, delta=1.5, dt=0.05,
                   t_final=0.1, t_tr=1.1, t_int=0.85, u0=(0.3, -0.2, 0.1), u_left=0.4)
    grid, _ = scn.validate()
    f0 = make_initial(scn, grid)
    got = sample(f0, grid, shift_dt).values
    assert got.tobytes() == _whole_grid_sample(f0, grid, shift_dt).tobytes()
