"""Semi-Lagrangian advection by periodic linear interpolation.

Each velocity node v_j transports information from the foot x_i - v_j^1*dt.
On the uniform periodic grid the foot's cell offset and interpolation weight
depend only on j, so advection reduces to two index-shifted copies of each
(j, k) slice blended with fixed weights; the shift/weight table is
precomputed once per (grid, dt) and reused for every step.
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
        base = np.arange(grid.n_x)
        self._stencil = []  # per j: (lower idx, upper idx, b = 1 - a)
        for v in grid.v_axis:
            t0 = 0.0 - grid.foot_offset(v, dt)
            s0 = math.floor(t0)
            a = (s0 + 1) - t0
            idx = (base + s0) % grid.n_x
            self._stencil.append((idx, (idx + 1) % grid.n_x, 1.0 - a))

    def apply(self, field: DistField, out: DistField | None = None) -> DistField:
        g = self.grid
        if out is None:
            out = DistField(np.empty(g.field_shape), g)
        src = field.values
        dst = out.values
        for j, (idx_lo, idx_hi, b) in enumerate(self._stencil):
            lo = src[idx_lo, j]
            if b == 0.0:
                dst[:, j] = lo
            else:
                # f_lo + b*(f_hi - f_lo): never rounds outside [slice min, slice max]
                # and never below zero for nonnegative inputs
                np.subtract(src[idx_hi, j], lo, out=dst[:, j])
                dst[:, j] *= b
                dst[:, j] += lo
        return out


def advect(field: DistField, dt: float) -> DistField:
    """One advection pass: out[i,j,k] = a*f[s,j,k] + (1-a)*f[s+1,j,k]."""
    return Advector(field.grid, dt).apply(field)
