"""Discrete distribution storage, sampling, and weighted sup norms.

The distribution lives on a dense array indexed (i, j1, j2, j3, k) with the
spatial index outermost and the energy index innermost, so per-cell
relaxation work streams contiguous (j, k) blocks.
"""

from __future__ import annotations

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


def sample(initial_function, grid: PhaseGrid, shift_dt: float = 0.0) -> DistField:
    """Sample f0 at ((x_i - v_j1*shift_dt) mod 1, v_j, I_k).

    shift_dt = 0 gives the plain nodal sampling; shift_dt = dt gives the
    exactly-sampled foot values used for the first advection step, so no
    interpolation error enters through the initial data.
    """
    if shift_dt < 0:
        raise InvalidConfig("shift_dt must be >= 0")
    x_eff = np.mod(grid.x_nodes[:, None] - grid.v_axis[None, :] * shift_dt, 1.0)
    v = grid.v_axis
    values = initial_function(
        x_eff[:, :, None, None, None],
        v[None, :, None, None, None],
        v[None, None, :, None, None],
        v[None, None, None, :, None],
        grid.i_nodes[None, None, None, None, :],
    )
    values = np.broadcast_to(values, grid.field_shape).astype(float, copy=True)
    m = values.min()
    if m < 0:
        raise NegativeInitialData(f"initial data has negative sample {m!r}")
    return DistField(values, grid)


def _sup_norm(a: DistField, b: DistField | None, q: float, delta: float) -> float:
    """sup over nodes of |a - b| (|a| without b) times the weight of order q, cell by cell."""
    g = a.grid
    w = g.norm_weight(q, delta)
    fa = a.values.reshape(g.n_x, -1, g.n_i)
    fb = None if b is None else b.values.reshape(g.n_x, -1, g.n_i)
    out = 0.0
    for i in range(g.n_x):
        d = fa[i] if fb is None else fa[i] - fb[i]
        out = max(out, float(np.max(np.abs(d) * w)))
    return out


def weighted_sup_norm(field: DistField, q: float, delta: float) -> float:
    """sup over nodes of |f| * (1 + |v|^2 + I^(2/delta))^(q/2)."""
    if q <= 0:
        raise InvalidConfig("q must be > 0")
    return _sup_norm(field, None, q, delta)


def error_sup_norm(a: DistField, b: DistField, q: float, delta: float) -> float:
    """Weighted sup norm of the pointwise difference of two same-grid fields."""
    if a.grid is not b.grid and a.grid != b.grid:
        raise GridMismatch("fields live on different grids")
    return _sup_norm(a, b, q, delta)


def write_snapshot(path, field: DistField, delta: float, q: float) -> None:
    """Binary snapshot: header (grid extents, delta, q) + little-endian f64 payload."""
    g = field.grid
    header = _SNAP_HEAD.pack(_SNAP_MAGIC, g.n_x, g.n_v, g.n_i, g.v_max, g.n_i * g.di, 0.0,
                             delta, q)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(field.values.astype("<f8", copy=False).tobytes())


def read_snapshot(path) -> tuple[DistField, float, float]:
    with open(path, "rb") as fh:
        head = fh.read(_SNAP_HEAD.size)
        if len(head) < _SNAP_HEAD.size:
            raise InvalidConfig(
                f"{path}: snapshot header needs {_SNAP_HEAD.size} bytes, got {len(head)}"
            )
        magic, n_x, n_v, n_i, v_max, i_max, _pad, delta, q = _SNAP_HEAD.unpack(head)
        if magic != _SNAP_MAGIC:
            raise InvalidConfig(f"{path} is not a field snapshot")
        grid = build_grid(GridConfig(n_x=n_x, n_v=n_v, v_max=v_max, n_i=n_i, i_max=i_max))
        payload = fh.read()
    expected = 8 * n_x * n_v**3 * n_i
    if len(payload) != expected:
        raise InvalidConfig(f"{path}: snapshot payload needs {expected} bytes, got {len(payload)}")
    values = np.frombuffer(payload, dtype="<f8").reshape(grid.field_shape)
    return DistField(values.astype(float), grid), delta, q
