"""Semi-Lagrangian advection by periodic linear interpolation.

Each velocity node v_j transports information from the foot x_i - v_j^1*dt.
On the uniform periodic grid the foot's cell offset and interpolation weight
depend only on j, so advection reduces to two rotated copies of each (j, k)
slice blended with fixed weights.  A rotation is read as two or three plain
slices, never through an index array; the shift/weight table is precomputed
once per (grid, dt) and reused for every step.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidConfig
from .field import DistField
from .grid import PhaseGrid


class Advector:
    def __init__(self, grid: PhaseGrid, dt: float):
        if dt < 0:
            raise InvalidConfig("dt must be >= 0")
        self.grid = grid
        n = grid.n_x
        # Per j: b = 1 - a and the runs (i0, i1, lo0, hi0) on which out[i] reads the
        # lower node lo0 + (i - i0) and the upper node hi0 + (i - i0) without wrapping.
        # Both are rotations of the cells, by s0 and s0 + 1 mod n_x, so two or three
        # runs cover every i.
        self._stencil = []
        for v in grid.v_axis:
            t0 = 0.0 - grid.foot_offset(v, dt)
            s0 = math.floor(t0)
            a = (s0 + 1) - t0
            lo, hi = s0 % n, (s0 + 1) % n
            cuts = sorted({0, (n - lo) % n, (n - hi) % n}) + [n]
            runs = [(i0, i1, (i0 + lo) % n, (i0 + hi) % n) for i0, i1 in zip(cuts, cuts[1:])]
            self._stencil.append((1.0 - a, runs))

    def apply(self, field: DistField, out: DistField | None = None) -> DistField:
        g = self.grid
        if out is None:
            out = DistField(np.empty(g.field_shape), g)
        src = field.values
        dst = out.values
        if np.may_share_memory(src, dst):  # the rotated slices would read what they wrote
            raise InvalidConfig("advection cannot write into its own input")
        for j, (b, runs) in enumerate(self._stencil):
            for i0, i1, lo0, hi0 in runs:
                lo = src[lo0 : lo0 + i1 - i0, j]
                d = dst[i0:i1, j]
                if b == 0.0:
                    d[...] = lo
                else:
                    # f_lo + b*(f_hi - f_lo): never rounds outside [slice min, slice max]
                    # and never below zero for nonnegative inputs
                    np.subtract(src[hi0 : hi0 + i1 - i0, j], lo, out=d)
                    d *= b
                    d += lo
        return out


def advect(field: DistField, dt: float) -> DistField:
    """One advection pass: out[i,j,k] = a*f[s,j,k] + (1-a)*f[s+1,j,k]."""
    return Advector(field.grid, dt).apply(field)
