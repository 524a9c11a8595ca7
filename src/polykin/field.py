"""Discrete distribution storage, sampling, and weighted sup norms.

The distribution lives on a dense array indexed (i, j1, j2, j3, k) with the
spatial index outermost and the energy index innermost, so per-cell
relaxation work streams contiguous (j, k) blocks.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, InvalidConfig, NegativeInitialData
from .grid import GridConfig, PhaseGrid, build_grid

_SNAP_MAGIC = b"PKSNAP01"
# magic, n_x, n_v, n_i, v_max, i_max, pad, delta, q
_SNAP_HEAD = struct.Struct("<8sqqqddddd")


@dataclass
class DistField:
    values: np.ndarray
    grid: PhaseGrid

    def __post_init__(self):
        if tuple(self.values.shape) != self.grid.field_shape:
            raise GridMismatch(
                f"array shape {self.values.shape} does not match grid {self.grid.field_shape}"
            )
        if not self.values.flags.c_contiguous:
            raise GridMismatch("field values must be C-contiguous, spatial index outermost")

    @property
    def cells(self) -> np.ndarray:
        """The (n_x, n_v**3, n_i) view: one (velocity-cube, energy) table per spatial cell."""
        g = self.grid
        return self.values.reshape(g.n_x, g.n_v**3, g.n_i)


def sample(initial_function, grid: PhaseGrid, shift_dt: float = 0.0,
           out: DistField | None = None) -> DistField:
    """Sample f0 at ((x_i - v_j1*shift_dt) mod 1, v_j, I_k) into out (a new field if None).

    shift_dt = 0 gives the plain nodal sampling; shift_dt = dt gives the
    exactly-sampled foot values used for the first advection step, so no
    interpolation error enters through the initial data.

    The field is filled one velocity slab values[:, j1] at a time: f0 gets
    the slab's feet as a contiguous (n_x, 1, 1, 1, 1) column and v_j1 as a
    scalar, so sampling holds the output plus one slab's temporaries.  out must
    live on grid.
    """
    if shift_dt < 0:
        raise InvalidConfig("shift_dt must be >= 0")
    v = grid.v_axis
    # (n_v, n_x): one contiguous row of feet per slab
    x_eff = np.mod(grid.x_nodes[None, :] - v[:, None] * shift_dt, 1.0)
    if out is None:
        out = DistField(np.empty(grid.field_shape), grid)
    values = out.values
    lo, hi = math.inf, -math.inf
    for j1 in range(grid.n_v):
        slab = initial_function(
            x_eff[j1][:, None, None, None, None],
            v[j1],
            v[None, None, :, None, None],
            v[None, None, None, :, None],
            grid.i_nodes[None, None, None, None, :],
        )
        values[:, j1 : j1 + 1] = slab
        lo = np.minimum(lo, np.min(slab))  # NaN once any sample is
        hi = np.maximum(hi, np.max(slab))
        del slab  # before the next slab is built
    lo, hi = float(lo), float(hi)
    for s in (lo, hi):
        if not math.isfinite(s):
            raise NegativeInitialData(f"initial data has non-finite sample {s!r}")
    if lo < 0:
        raise NegativeInitialData(f"initial data has negative sample {lo!r}")
    return out


# Row tiles of about 256 KB: a tile written by one pass is still in cache when
# the next pass over the same cell reads it.  This is the one block rule: cell
# tables, blocks of Gaussian factor rows and advection chunks are all row tiles.
TILE_BYTES = 256 * 1024


def tile_rows(n_cols: int) -> int:
    """Rows of an n_cols-wide float table that fill TILE_BYTES; at least one."""
    return max(1, TILE_BYTES // (8 * n_cols))


def row_tiles(n_rows: int, n_cols: int) -> list[slice]:
    """Row slices of an (n_rows, n_cols) table of tile_rows(n_cols) each; the last may be short."""
    rows = tile_rows(n_cols)
    return [slice(r, min(r + rows, n_rows)) for r in range(0, n_rows, rows)]


def cell_tiles(n_cells: int, n_rows: int, n_cols: int) -> tuple[list[slice], list[slice]]:
    """(cells, tiles), the walk of every per-cell pass: stack[c, s] for each c in cells and,
    within it, each s in tiles covers a (n_cells, n_rows, n_cols) stack in order, one
    (k, rows, n_cols) tile at a time.  Each c is a group of as many whole cells as fill half
    a row tile, at least one (the last may hold fewer), so the group's scratch tile and one
    cell's weights fit in a tile; tiles are row_tiles(n_rows, n_cols), several only if k is 1."""
    k = max(1, tile_rows(n_cols) // (2 * n_rows))
    return [slice(c, min(c + k, n_cells)) for c in range(0, n_cells, k)], row_tiles(n_rows, n_cols)


def weight_tile(weights: tuple[np.ndarray, np.ndarray], s: slice, out: np.ndarray) -> np.ndarray:
    """Row tile s of the weight table that PhaseGrid.norm_weight's (table, rows) stand for,
    gathered into the first rows of out."""
    table, rows = weights
    # with the default mode="raise" numpy gathers into a buffer of its own and copies it to
    # out; rows index the table, so clipping never acts.  The method skips np.take's wrapper
    return table.take(rows[s], axis=0, out=out[: s.stop - s.start], mode="clip")


def tile_sup(a: np.ndarray, b: np.ndarray | None, w: np.ndarray, t: np.ndarray) -> float:
    """max of |a - b| (|a| without b) times w over one tile of cell_tiles, taken in t; w is
    the tile's weights, the same in each of its cells."""
    if b is None:
        t = np.abs(a, out=t)
    else:
        t = np.subtract(a, b, out=t)
        np.abs(t, out=t)
    t *= w
    return float(t.max())


def max_nan(acc: float, x: float) -> float:
    """max(acc, x) that keeps a NaN once it has been seen."""
    return x if x != x else max(acc, x)


def _sup_norm(a: np.ndarray, b: np.ndarray | None, grid: PhaseGrid, q: float,
              delta: float) -> float:
    """sup over nodes of |a - b| (|a| without b) times the weight of order q, tile by tile.

    a and b are stacks of (n_v**3, n_i) cell tables on grid, such as DistField.cells or a
    strided view of it: each tile of cell_tiles is read as it stands, so no stack is
    copied.  A row tile's weights are the same in every cell, so each is gathered once.
    """
    weights = grid.norm_weight(q, delta)
    cells, tiles = cell_tiles(len(a), grid.n_v**3, grid.n_i)
    w = np.empty((tiles[0].stop, grid.n_i))
    t = np.empty(a[cells[0], tiles[0]].shape)
    out = 0.0
    for s in tiles:
        ws, ts = weight_tile(weights, s, w), t[:, : s.stop - s.start]
        for c in cells:
            x = a[c, s]
            out = max_nan(out, tile_sup(x, None if b is None else b[c, s], ws, ts[: len(x)]))
    return out


def weighted_sup_norm(field: DistField, q: float, delta: float) -> float:
    """sup over nodes of |f| * (1 + |v|^2 + I^(2/delta))^(q/2)."""
    if q <= 0:
        raise InvalidConfig("q must be > 0")
    return _sup_norm(field.cells, None, field.grid, q, delta)


def error_sup_norm(a: DistField, b: DistField | np.ndarray, q: float, delta: float) -> float:
    """Weighted sup norm of the pointwise difference of two same-grid fields.

    b may also be a stack of cell tables of a's shape that no field owns, such as the
    strided view fields[reference].cells[::stride]: its cells are read where they lie.
    """
    if isinstance(b, DistField):
        if a.grid is not b.grid and a.grid != b.grid:
            raise GridMismatch("fields live on different grids")
        b = b.cells
    elif b.shape != a.cells.shape:
        raise GridMismatch(f"cell stack shape {b.shape} does not match {a.cells.shape}")
    return _sup_norm(a.cells, b, a.grid, q, delta)


def write_snapshot(path, field: DistField, delta: float, q: float) -> None:
    """Binary snapshot: header (grid extents, delta, q) + little-endian f64 payload."""
    g = field.grid
    header = _SNAP_HEAD.pack(_SNAP_MAGIC, g.n_x, g.n_v, g.n_i, g.v_max, g.n_i * g.di, 0.0,
                             delta, q)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(field.values.astype("<f8", copy=False).data)


def read_snapshot(path) -> tuple[DistField, float, float]:
    """Read a write_snapshot file into a new field, checking the header before allocating."""
    with open(path, "rb") as fh:
        head = fh.read(_SNAP_HEAD.size)
        if len(head) < _SNAP_HEAD.size:
            raise InvalidConfig(
                f"{path}: snapshot header needs {_SNAP_HEAD.size} bytes, got {len(head)}"
            )
        magic, n_x, n_v, n_i, v_max, i_max, _pad, delta, q = _SNAP_HEAD.unpack(head)
        if magic != _SNAP_MAGIC:
            raise InvalidConfig(f"{path} is not a field snapshot")
        for key, x in (("v_max", v_max), ("i_max", i_max), ("delta", delta), ("q", q)):
            if not 0 < x < math.inf:
                raise InvalidConfig(f"{path}: snapshot header {key} = {x!r} is not finite and > 0")
        expected = 8 * n_x * n_v**3 * n_i
        got = os.fstat(fh.fileno()).st_size - _SNAP_HEAD.size
        if got != expected:
            raise InvalidConfig(f"{path}: snapshot payload needs {expected} bytes, got {got}")
        grid = build_grid(GridConfig(n_x=n_x, n_v=n_v, v_max=v_max, n_i=n_i, i_max=i_max))
        values = np.empty(grid.field_shape, dtype="<f8")
        got = fh.readinto(values.reshape(-1).view(np.uint8))
    if got != expected:
        raise InvalidConfig(f"{path}: snapshot payload needs {expected} bytes, got {got}")
    return DistField(values, grid), delta, q
