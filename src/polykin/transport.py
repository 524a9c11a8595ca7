"""Semi-Lagrangian advection by periodic linear interpolation.

Each velocity node v_j transports information from the foot x_i - v_j^1*dt.
On the uniform periodic grid the foot's cell offset and interpolation weight
depend only on j, so advection reduces to two rotations of each velocity
slab f[:, j] blended with fixed weights.  A slab goes through one scratch
chunk, a block of its columns at a time: the block's cells are copied into
the chunk already rotated (two plain slices, never an index array), blended
there, and the blend is copied back: a block is read whole before it is
written, so the field is advected in place.
The blocks are the row tiles (field.row_tiles) of a slab's columns, each
n_x + 1 values long.  The shift/weight table and the chunk are made when the
Advector is built and reused for every step.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidConfig
from .field import DistField, row_tiles
from .grid import PhaseGrid


class Advector:
    """Advection by dt on one grid; apply(f) advects f in place and returns None."""

    def __init__(self, grid: PhaseGrid, dt: float):
        if dt < 0:
            raise InvalidConfig("dt must be >= 0")
        self.grid = grid
        n = grid.n_x
        # Per j: b = 1 - a and the lower node's offset lo: out[i] blends the nodes
        # (i + lo) mod n_x and (i + lo + 1) mod n_x, the rotations of the cells by s0
        # and s0 + 1.
        self._stencil = []
        for v in grid.v_axis:
            t0 = 0.0 - grid.foot_offset(v, dt)
            s0 = math.floor(t0)
            self._stencil.append((1.0 - ((s0 + 1) - t0), s0 % n))
        # per block of a slab's columns, its rotated copy (n_x + 1 rows) and its blend
        # (n_x rows), both contiguous in one chunk, so the ufuncs on them run unbuffered
        blocks = row_tiles(grid.n_v**2 * grid.n_i, n + 1)  # a slab is (n_x, n_v**2 * n_i)
        chunk = np.empty((2 * n + 1) * blocks[0].stop)
        self._views = []
        for cols in blocks:
            block = chunk[: (2 * n + 1) * (cols.stop - cols.start)].reshape(2 * n + 1, -1)
            self._views.append((cols, block[: n + 1], block[n + 1 :]))

    def apply(self, field: DistField) -> None:
        g = self.grid
        n = g.n_x
        f = field.values.reshape(n, g.n_v, -1)
        for j, (b, lo) in enumerate(self._stencil):
            for cols, rot, blend in self._views:
                # row i of rot is node (i + lo) mod n_x, row i + 1 its upper neighbour
                rot[: n - lo] = f[lo:, j, cols]
                rot[n - lo :] = f[: lo + 1, j, cols]
                if b == 0.0:
                    f[:, j, cols] = rot[:n]
                    continue
                # f_lo + b*(f_hi - f_lo): never rounds outside [slice min, slice max]
                # and never below zero for nonnegative inputs
                np.subtract(rot[1:], rot[:n], out=blend)
                blend *= b
                blend += rot[:n]
                f[:, j, cols] = blend


def advect(field: DistField, dt: float) -> DistField:
    """One advection pass into a new field: out[i,j,k] = a*f[s,j,k] + (1-a)*f[s+1,j,k]."""
    out = DistField(field.values.copy(), field.grid)
    Advector(field.grid, dt).apply(out)
    return out
