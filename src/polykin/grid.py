"""Phase-space discretization.

Periodic unit interval in space, a symmetric node-centered cube truncating
velocity space, and a uniform half-line grid for the internal-energy
variable.  The grid is immutable after construction; all queries are
read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfig

# Composite Boole panels: 4 intervals per panel, weights (2h/45)*(7,32,12,32,7).
_BOOLE = np.array([7.0, 32.0, 12.0, 32.0, 7.0]) * (2.0 / 45.0)
_SIMPSON = np.array([1.0, 4.0, 1.0]) / 3.0
_SIMPSON38 = np.array([1.0, 3.0, 3.0, 1.0]) * (3.0 / 8.0)
_TRAP = np.array([0.5, 0.5])


def energy_weights(n_i: int, di: float) -> np.ndarray:
    """Positive quadrature weights for the uniform energy nodes I_k = k*di.

    Composite Boole panels over the node range, with a lower-order remainder
    panel (trapezoid / Simpson / Simpson-3/8) placed at the high-I end where
    the integrands of interest have decayed.  Plain first-order weights would
    bias every energy moment by O(di)/2, which is far too coarse for the
    conservation and moment-consistency targets of the solver; the composite
    rule keeps the same uniform nodes and strictly positive weights, which the
    positivity, norm, and entropy monitors rely on.

    A single node degenerates to the bare cell width di.
    """
    if n_i < 1:
        raise InvalidConfig(f"n_i must be >= 1, got {n_i}")
    if di <= 0:
        raise InvalidConfig(f"di must be > 0, got {di}")
    if n_i == 1:
        return np.array([di])
    w = np.zeros(n_i)
    intervals = n_i - 1
    panels, rem = divmod(intervals, 4)
    for p in range(panels):
        w[4 * p : 4 * p + 5] += _BOOLE
    start = 4 * panels
    if rem == 1:
        w[start : start + 2] += _TRAP
    elif rem == 2:
        w[start : start + 3] += _SIMPSON
    elif rem == 3:
        w[start : start + 4] += _SIMPSON38
    return w * di


@dataclass(frozen=True)
class GridConfig:
    n_x: int
    n_v: int
    v_max: float
    n_i: int
    i_max: float


@dataclass(frozen=True)
class FootWeight:
    """Lower cell index and interpolation weight of a backward-characteristic foot."""

    s: int
    a: float


@dataclass(frozen=True, eq=False)
class PhaseGrid:
    n_x: int
    dx: float
    n_v: int
    v_max: float
    dv: float
    n_i: int
    di: float
    x_nodes: np.ndarray
    v_axis: np.ndarray
    i_nodes: np.ndarray
    i_weights: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PhaseGrid):
            return NotImplemented
        return (self.n_x, self.n_v, self.v_max, self.n_i, self.di) == (
            other.n_x, other.n_v, other.v_max, other.n_i, other.di
        )

    def __hash__(self):
        return hash((self.n_x, self.n_v, self.v_max, self.n_i, self.di))

    @property
    def field_shape(self) -> tuple[int, int, int, int, int]:
        return (self.n_x, self.n_v, self.n_v, self.n_v, self.n_i)

    def velocity_tables(self) -> np.ndarray:
        """Flattened node coordinates v1, v2, v3 and |v|^2 over the cube: the rows of one
        (4, n_v^3) array, so v1, v2, v3, vsq = grid.velocity_tables() unpacks them."""
        key = "vtab"
        if key not in self._cache:
            v, n = self.v_axis, self.n_v
            t = np.empty((4, n, n, n))
            t[0], t[1], t[2] = v[:, None, None], v[:, None], v
            np.multiply(t[0], t[0], out=t[3])
            t[3] += t[1] * t[1]
            t[3] += t[2] * t[2]
            self._cache[key] = t.reshape(4, n**3)
        return self._cache[key]

    def energy_eps(self, delta: float) -> np.ndarray:
        """Internal energies eps(I_k) = I_k^(2/delta)."""
        key = ("eps", float(delta))
        if key not in self._cache:
            self._cache[key] = self.i_nodes ** (2.0 / delta)
        return self._cache[key]

    def energy_moment_weights(self, delta: float) -> np.ndarray:
        """(n_i, 2) columns [w, w*eps] of the energy quadrature."""
        key = ("ew", float(delta))
        if key not in self._cache:
            w = self.i_weights
            self._cache[key] = np.column_stack((w, w * self.energy_eps(delta)))
        return self._cache[key]

    def velocity_shells(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct |v|^2 values, ascending, and the index of each velocity node's value.

        Mirror symmetry of the axis leaves at most ceil(n_v/2)^3 of them (464 at n_v = 33).
        The result is np.unique(vsq, return_inverse=True)'s, at about two thirds of its cost
        on a 125-node grid (14 us against 22 us), which a step on a new grid pays once."""
        if "shells" not in self._cache:
            vsq = self.velocity_tables()[3]
            order = vsq.argsort()
            ranked = vsq[order]
            shell = np.empty(vsq.size, np.intp)  # of each ranked node
            shell[0] = 0
            np.cumsum(ranked[1:] != ranked[:-1], out=shell[1:])
            values, rows = np.empty(shell[-1] + 1), np.empty_like(shell)
            values[shell] = ranked
            rows[order] = shell
            self._cache["shells"] = values, rows
        return self._cache["shells"]

    def norm_weight(self, q: float, delta: float) -> tuple[np.ndarray, np.ndarray]:
        """(table, rows): (1 + |v|^2 + eps)^(q/2) per |v|^2 shell and energy node, and the
        shell of each velocity node, so table[rows] is the (velocity-cube, energy) table.

        A weight depends on a velocity node only through |v|^2: each row is the same float
        expression of the same |v|^2 and eps as that node's row of the whole table."""
        key = ("nw", float(q), float(delta))
        if key not in self._cache:
            vsq, rows = self.velocity_shells()
            eps = self.energy_eps(delta)
            # keep one table per grid
            for k in [k for k in self._cache if isinstance(k, tuple) and k[0] == "nw"]:
                del self._cache[k]
            self._cache[key] = ((1.0 + vsq[:, None] + eps[None, :]) ** (q / 2.0), rows)
        return self._cache[key]

    def foot_offset(self, vj1: float, dt: float) -> float:
        """Backward displacement x_i - vj1*dt measured in cells: foot index = i - offset."""
        return vj1 * dt * self.n_x

    def foot(self, i: int, vj1: float, dt: float) -> FootWeight:
        """Foot of the characteristic through node i for axis velocity vj1.

        Returns the wrapped lower cell s and the weight a in (0, 1] such that
        the foot lies in [x_s, x_{s+1}) and linear interpolation uses
        a*f[s] + (1-a)*f[s+1].  A foot landing exactly on a node gets a = 1.
        """
        if dt < 0:
            raise InvalidConfig("dt must be >= 0")
        t = i - self.foot_offset(vj1, dt)
        s = math.floor(t)
        a = (s + 1) - t
        return FootWeight(s % self.n_x, a)


def build_grid(config: GridConfig) -> PhaseGrid:
    """Construct the phase grid; raises InvalidConfig on nonpositive sizes.

    Space: x_i = i/n_x on the periodic unit interval.  Velocity: n_v
    node-centered symmetric points per axis spanning [-v_max, v_max]
    (dv = 2*v_max/(n_v-1); an odd count places a node at v = 0).  Energy:
    I_k = k*di with di = i_max/n_i, so I = 0 is a node and i_max is excluded.
    """
    if config.n_x < 2:
        raise InvalidConfig(f"n_x must be >= 2, got {config.n_x}")
    if config.n_v < 1 or config.n_i < 1:
        raise InvalidConfig("n_v and n_i must be >= 1")
    if config.v_max <= 0 or config.i_max <= 0:
        raise InvalidConfig("v_max and i_max must be > 0")

    dx = 1.0 / config.n_x
    x_nodes = np.arange(config.n_x) * dx

    if config.n_v == 1:
        dv = 2.0 * config.v_max  # degenerate single-node axis covers the slab
        v_axis = np.zeros(1)
    else:
        dv = 2.0 * config.v_max / (config.n_v - 1)
        v_axis = (np.arange(config.n_v) - (config.n_v - 1) / 2.0) * dv

    di = config.i_max / config.n_i
    i_nodes = np.arange(config.n_i) * di

    return PhaseGrid(
        n_x=config.n_x,
        dx=dx,
        n_v=config.n_v,
        v_max=config.v_max,
        dv=dv,
        n_i=config.n_i,
        di=di,
        x_nodes=x_nodes,
        v_axis=v_axis,
        i_nodes=i_nodes,
        i_weights=energy_weights(config.n_i, di),
    )
