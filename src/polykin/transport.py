"""Semi-Lagrangian advection by periodic linear interpolation.

Each velocity node v_j transports information from the foot x_i - v_j^1*dt.
On the uniform periodic grid the foot's cell offset and interpolation weight
depend only on j, so advection reduces to two rotations of each velocity
slab f[:, j] blended with fixed weights, one block of the slab's columns (a
row tile, field.row_tiles, of n_x + 1 values a column) at a time, each read
whole before it is written: the field is advected in place.  A slab whose
feet all sit on their own nodes (the v = 0 node, or dt = 0) is left as it
stands.  _blend, the one blend, takes every other block: where it lies in
the field on a grid of few cells whose slabs span several blocks
(direct_path), else in the chunk, into which the block is copied already
rotated (two plain slices, never an index array) and from which it is copied
back.  A rotation (no blend) is that copy alone on both paths.  The stencil,
the chunk and the path are fixed when the Advector is built.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidConfig
from .field import DistField, row_tiles, tile_rows
from .grid import PhaseGrid


def direct_path(n_x: int, n_blocks: int) -> bool:
    """Whether slabs of n_x rows in n_blocks chunk blocks are blended straight from the field.

    The direct blend saves the chunk's copies in and out but reads the field's rows where
    they lie; which is faster was measured, not derived.  Timed per apply in separate
    processes on a 2-CPU x86-64 box, numpy 2.4, the direct blend took 0.70-0.87 of the
    chunk's time at n_x = 2, 3 and 4 ((2, 33, 256), (2, 33, 128), (3, 33, 128), (4, 33, 64),
    dt 0.01 to 0.3) and 1.1-1.3 at n_x = 12, 16 and 64 ((12, 25, 64), (12, 17, 128),
    (16, 17, 16), (16, 25, 64), (64, 17, 16)).  Near the crossover, on (n_x, 25, 64),
    (n_x, 17, 128) and (n_x, 33, 32) at dt 0.01 and 0.3 (medians of 3 processes a side),
    it took 0.72-1.10 of the chunk's time at n_x = 8, 0.68-0.99 at 9, 0.87-1.23 at 10 and
    1.00-1.32 at 11: 9 is the last n_x where it never lost by more than this machine's
    noise.  On a slab of one block ((4, 5, 4)) it was slower, 25.6 against 16.6 us, as the
    per-call overhead of its extra ufuncs is what counts there."""
    return n_x <= 9 and n_blocks > 1


def chunk_doubles(n_x: int, n_cols: int) -> int:
    """Doubles in the Advector's chunk for slabs of n_x rows and n_cols columns: the rotated
    copy and the blend of one column block (row_tiles(n_cols, n_x + 1)), n_x rows each."""
    return 2 * n_x * min(n_cols, tile_rows(n_x + 1))


def _blend(x: np.ndarray, lo: int, b: float, blend: np.ndarray) -> None:
    """x[i] = x[i+lo] + b*(x[i+lo+1] - x[i+lo]), indices mod len(x), in place, with blend
    (x's shape, contiguous) as scratch.  With b < 1, lo + b*(hi - lo) never rounds outside
    the span of its two nodes, nor below zero for nonnegative nodes."""
    n = len(x)
    k = n - lo - 1  # rows i < k read both nodes unwrapped, row k wraps the upper one
    if k:
        np.subtract(x[lo + 1 :], x[lo:-1], out=blend[:k])
    np.subtract(x[0], x[-1], out=blend[k])
    if lo:
        np.subtract(x[1 : lo + 1], x[:lo], out=blend[k + 1 :])
    blend *= b
    if lo == 0:
        x += blend
    else:
        blend[: n - lo] += x[lo:]
        blend[n - lo :] += x[:lo]
        x[...] = blend


class Advector:
    """Advection by dt on one grid; apply(f) advects f in place and returns None."""

    def __init__(self, grid: PhaseGrid, dt: float):
        # the largest foot offset, in Python floats: an overflow prints no numpy warning
        if not (dt >= 0 and math.isfinite(float(grid.v_axis[-1]) * float(dt) * grid.n_x)):
            raise InvalidConfig(f"dt must be >= 0 with finite foot offsets v*dt*n_x, got {dt!r}")
        self.grid = grid
        n = grid.n_x
        # Per j: b = 1 - a and the lower node's offset lo = s of node 0's foot: out[i]
        # blends the nodes (i + lo) mod n_x and (i + lo + 1) mod n_x.
        self._stencil = [(1.0 - fw.a, fw.s) for fw in (grid.foot(0, v, dt) for v in grid.v_axis)]
        # per block of a slab's columns, its rotated copy and its blend (n_x rows each),
        # both contiguous in one chunk, so the ufuncs on them run unbuffered
        cols = grid.n_v**2 * grid.n_i  # a slab is (n_x, n_v**2 * n_i)
        blocks = row_tiles(cols, n + 1)
        chunk = np.empty(chunk_doubles(n, cols))
        self._views = []
        for c in blocks:
            block = chunk[: 2 * n * (c.stop - c.start)].reshape(2 * n, -1)
            self._views.append((c, block[:n], block[n:]))
        self._direct = direct_path(n, len(blocks))

    def apply(self, field: DistField) -> None:
        g = self.grid
        n = g.n_x
        f = field.values.reshape(n, g.n_v, -1)
        for j, (b, lo) in enumerate(self._stencil):
            if b == 0.0 and lo == 0:  # every foot on its own node
                continue
            for cols, rot, blend in self._views:
                x = f[:, j, cols]
                if self._direct and b != 0.0:  # a rotation (b = 0) takes the chunk
                    _blend(x, lo, b, blend)
                    continue
                # row i of rot is node (i + lo) mod n_x
                rot[: n - lo] = x[lo:]
                rot[n - lo :] = x[:lo]
                if b != 0.0:
                    _blend(rot, 0, b, blend)
                x[...] = rot


def advect(field: DistField, dt: float) -> DistField:
    """One advection pass into a new field: out[i,j,k] = a*f[s,j,k] + (1-a)*f[s+1,j,k]."""
    out = DistField(field.values.copy(), field.grid)
    Advector(field.grid, dt).apply(out)
    return out
