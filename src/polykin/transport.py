"""Semi-Lagrangian advection by periodic linear interpolation.

Each velocity node v_j transports information from the foot x_i - v_j^1*dt.
On the uniform periodic grid the foot's cell offset and interpolation weight
depend only on j, so advection reduces to two rotations of each velocity
slab f[:, j] blended with fixed weights, a block of the slab's columns at a
time.  The blocks are the row tiles (field.row_tiles) of a slab's columns,
each n_x + 1 values long, and a block is read whole before it is written, so
the field is advected in place.  A slab whose feet all sit on their own nodes
(the v = 0 node, or dt = 0) is left as it stands.  Otherwise a block goes
through one scratch chunk: its cells are copied into the chunk already
rotated (two plain slices, never an index array), blended there, and the
blend is copied back.  On a grid of few cells whose slabs span several
blocks (direct_path), a block is blended straight from the field instead:
the differences of its rotations go into the chunk, and are scaled and added
to the lower rotation, in the field itself when that is the block unrotated.
Both take the same IEEE operations, so the output is the same bit for bit.
The shift/weight table, the chunk and the choice of path are made when the
Advector is built and reused for every step.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidConfig
from .field import DistField, row_tiles
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


def _blend_direct(x: np.ndarray, lo: int, b: float, blend: np.ndarray) -> None:
    """x[i] = x[i+lo] + b*(x[i+lo+1] - x[i+lo]), indices mod len(x), with blend (x's shape,
    contiguous) as scratch: the chunk's three ufuncs on the same operands."""
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
        self._direct = direct_path(n, len(blocks))

    def apply(self, field: DistField) -> None:
        g = self.grid
        n = g.n_x
        f = field.values.reshape(n, g.n_v, -1)
        for j, (b, lo) in enumerate(self._stencil):
            if b == 0.0 and lo == 0:  # every foot on its own node
                continue
            direct = self._direct and b != 0.0  # a rotation (b = 0) takes the chunk
            for cols, rot, blend in self._views:
                if direct:
                    _blend_direct(f[:, j, cols], lo, b, blend)
                    continue
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
