"""Discrete ellipsoidal Gaussian evaluation.

The local attractor of the relaxation is an anisotropic normal density in
velocity (covariance = the blended temperature tensor) times an exponential
density in the internal energy (rate = the relaxation temperature), scaled
by the cell density and the discrete energy normalizer.  The quadratic form
is evaluated through a Cholesky factor and two triangular solves, never an
explicit inverse, which stays accurate near the SPD boundary (small theta,
coarse grids).  The Gaussian is rank one over (velocity, energy): its factors
are evaluated for a block of cells at once (a row tile of the (n_x, n_v**3)
stack of velocity factors, field.row_tiles), and each cell's table is written
from them.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateTemperature, NonFiniteGaussian, NonSPDTensor, PolykinError
from .field import DistField, row_tiles
from .grid import PhaseGrid
from .moments import MacroCell, MacroFields

_TWO_PI_CUBED_SQRT = (2.0 * math.pi) ** 1.5


def factor_spd(t_blend: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor L, with A = L L', of a symmetric 3x3 tensor A.

    Raises NonSPDTensor when the tensor is not positive definite, which for
    moment-produced tensors signals a degenerate or under-resolved cell
    rather than a programming error.
    """
    a = np.asarray(t_blend, dtype=float)
    a = 0.5 * (a + a.T)
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NonSPDTensor(f"tensor is not SPD: {a.tolist()}") from exc
    if not np.all(np.diag(lower) > 0):
        raise NonSPDTensor(f"tensor is not SPD: {a.tolist()}")
    return lower


def _gaussian_flat(macro: MacroFields, cells: slice, grid: PhaseGrid, lambda_delta: float,
                   delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Rank-one factors (pev, ei) of the Gaussians of the block of cells macro[cells].

    Row c of pev (over velocity nodes, prefactor included) and row c of ei (over energy
    nodes) give the table of cell cells.start + c through gaussian_table.  The cells are
    checked in order, each for its relaxation temperature, then SPD, then its prefactor;
    the first that fails raises, named "cell {cells.start + c}".
    """
    rho, u, t_theta = macro.rho[cells], macro.u[cells], macro.t_theta[cells]
    t_blend = macro.t_blend[cells]
    a = 0.5 * (t_blend + np.swapaxes(t_blend, 1, 2))
    try:
        lower = np.linalg.cholesky(a)  # the same LAPACK call per matrix as factor_spd's
        spd = bool((np.diagonal(lower, axis1=1, axis2=2) > 0).all())
    except np.linalg.LinAlgError:
        lower, spd = np.empty_like(a), False
    pref = np.empty(len(a))
    v1, v2, v3, _ = grid.velocity_tables()

    # the check below names a prefactor that over- or underflows, and an overflow in
    # the factors only drives exp to 0, so numpy's warnings would add nothing
    with np.errstate(all="ignore"):
        for c in range(len(a)):
            try:
                tt = float(t_theta[c])
                if tt <= 0.0:
                    raise DegenerateTemperature(f"relaxation temperature {tt!r} <= 0")
                if not spd:  # the stacked factor failed: factor cells alone until one raises
                    lower[c] = factor_spd(t_blend[c])
                lc = lower[c]
                # a scalar power per cell: an array power may take numpy's sqrt fast path
                p = float(rho[c]) * lambda_delta / (
                    _TWO_PI_CUBED_SQRT * lc[0, 0] * lc[1, 1] * lc[2, 2] * tt ** (delta / 2.0)
                )
                if not 0.0 < p < math.inf:  # ev, ei <= 1, so a finite pref bounds the table
                    raise NonFiniteGaussian(
                        f"Gaussian prefactor {float(p)!r} is not positive and finite")
                pref[c] = p
            except PolykinError as exc:
                exc.args = (f"cell {cells.start + c}: {exc}",)
                raise

        # forward substitution of L z = (v - u), vectorized over cells and nodes;
        # lw[:, r, k] is entry (r, k) of each cell's factor as a column
        lw = lower[:, :, :, None]
        z1 = v1 - u[:, 0, None]
        z1 /= lw[:, 0, 0]
        z2 = v2 - u[:, 1, None]
        z2 -= lw[:, 1, 0] * z1
        z2 /= lw[:, 1, 1]
        z3 = v3 - u[:, 2, None]
        z3 -= lw[:, 2, 0] * z1
        z3 -= lw[:, 2, 1] * z2
        z3 /= lw[:, 2, 2]
        # pev = pref * exp(-0.5 * (z1*z1 + z2*z2 + z3*z3)), in the buffers of z
        pev = np.multiply(z1, z1, out=z1)
        pev += np.multiply(z2, z2, out=z2)
        pev += np.multiply(z3, z3, out=z3)
        pev *= -0.5
        np.exp(pev, out=pev)
        pev *= pref[:, None]
        ei = np.exp(-grid.energy_eps(delta) / t_theta[:, None])
    return pev, ei


def gaussian_table(pev: np.ndarray, ei: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write a cell's table, or a row tile of it, from factor rows: out[j, k] = pev[j] * ei[k];
    with a leading cell axis on all three, the tables of a group of cells in one call.

    Every entry is the one product a broadcast multiply gives, bit for bit;
    einsum writes a (4913, 16) table in about 100 us against 150-170 us.
    """
    return np.einsum("...i,...j->...ij", pev, ei, out=out)


def eval_gaussian(cell: MacroCell, grid: PhaseGrid, lambda_delta: float,
                  delta: float) -> np.ndarray:
    """Gaussian value table of one cell, shaped (n_v, n_v, n_v, n_i); errors name it cell 0."""
    row = MacroFields(**{k: np.array([v], dtype=float) for k, v in vars(cell).items()})
    pev, ei = _gaussian_flat(row, slice(0, 1), grid, lambda_delta, delta)
    table = gaussian_table(pev[0], ei[0], np.empty((grid.n_v**3, grid.n_i)))
    return table.reshape(grid.n_v, grid.n_v, grid.n_v, grid.n_i)


def gaussian_field(macro: MacroFields, grid: PhaseGrid, lambda_delta: float,
                   delta: float) -> DistField:
    """Evaluate the per-cell Gaussians of a whole MacroFields into a field."""
    out = DistField(np.empty(grid.field_shape), grid)
    dst = out.cells
    for cells in row_tiles(grid.n_x, grid.n_v**3):
        pev, ei = _gaussian_flat(macro, cells, grid, lambda_delta, delta)
        for i, pev_i, ei_i in zip(range(cells.start, cells.stop), pev, ei):
            gaussian_table(pev_i, ei_i, dst[i])
    return out
