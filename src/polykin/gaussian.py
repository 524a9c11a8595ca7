"""Discrete ellipsoidal Gaussian evaluation.

The local attractor of the relaxation is an anisotropic normal density in
velocity (covariance = the blended temperature tensor) times an exponential
density in the internal energy (rate = the relaxation temperature), scaled
by the cell density and the discrete energy normalizer.  The quadratic form
is evaluated through a Cholesky factor and two triangular solves, never an
explicit inverse, which stays accurate near the SPD boundary (small theta,
coarse grids).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTemperature, NonFiniteGaussian, NonSPDTensor, PolykinError
from .field import DistField
from .grid import PhaseGrid
from .moments import MacroCell, MacroFields

_TWO_PI_CUBED_SQRT = (2.0 * math.pi) ** 1.5


@dataclass(frozen=True)
class SpdFactor:
    """Lower-triangular factor L with A = L L' and log det A."""

    lower: np.ndarray
    log_det: float


def factor_spd(t_blend: np.ndarray) -> SpdFactor:
    """Cholesky factorization of a symmetric 3x3 tensor.

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
    diag = np.diag(lower)
    if not np.all(diag > 0):
        raise NonSPDTensor(f"tensor is not SPD: {a.tolist()}")
    return SpdFactor(lower=lower, log_det=float(2.0 * np.log(diag).sum()))


def _gaussian_flat(rho: float, u: np.ndarray, t_blend: np.ndarray, t_theta: float,
                   grid: PhaseGrid, lambda_delta: float, delta: float,
                   out: np.ndarray) -> np.ndarray:
    """Gaussian values over (velocity-cube, energy) nodes, written into the 2D table out."""
    if t_theta <= 0.0:
        raise DegenerateTemperature(f"relaxation temperature {t_theta!r} <= 0")
    fac = factor_spd(t_blend)
    lw = fac.lower
    v1, v2, v3, _ = grid.velocity_tables()

    # an overflow here leaves a zero or inf that the prefactor check below names,
    # so numpy's warnings would only repeat it
    with np.errstate(all="ignore"):
        # forward substitution of L z = (v - u), vectorized over nodes
        z1 = (v1 - u[0]) / lw[0, 0]
        z2 = ((v2 - u[1]) - lw[1, 0] * z1) / lw[1, 1]
        z3 = ((v3 - u[2]) - lw[2, 0] * z1 - lw[2, 1] * z2) / lw[2, 2]
        quad = z1 * z1 + z2 * z2 + z3 * z3

        ev = np.exp(-0.5 * quad)
        ei = np.exp(-grid.energy_eps(delta) / t_theta)
        pref = rho * lambda_delta / (
            _TWO_PI_CUBED_SQRT * lw[0, 0] * lw[1, 1] * lw[2, 2] * t_theta ** (delta / 2.0)
        )
    if not 0.0 < pref < math.inf:  # ev, ei <= 1, so a finite pref bounds the table
        raise NonFiniteGaussian(f"Gaussian prefactor {float(pref)!r} is not positive and finite")
    return np.multiply(pref * ev[:, None], ei[None, :], out=out)


def eval_gaussian(cell: MacroCell, grid: PhaseGrid, lambda_delta: float,
                  delta: float) -> np.ndarray:
    """Gaussian value table of one cell, shaped (n_v, n_v, n_v, n_i)."""
    flat = _gaussian_flat(cell.rho, cell.u, cell.t_blend, cell.t_theta,
                          grid, lambda_delta, delta, np.empty((grid.n_v**3, grid.n_i)))
    return flat.reshape(grid.n_v, grid.n_v, grid.n_v, grid.n_i)


def gaussian_field(macro: MacroFields, grid: PhaseGrid, lambda_delta: float,
                   delta: float) -> DistField:
    """Evaluate the per-cell Gaussians of a whole MacroFields into a field."""
    out = DistField(np.empty(grid.field_shape), grid)
    for i, cell in enumerate(out.cells):
        try:
            _gaussian_flat(float(macro.rho[i]), macro.u[i], macro.t_blend[i],
                           float(macro.t_theta[i]), grid, lambda_delta, delta, cell)
        except PolykinError as exc:
            exc.args = (f"cell {i}: {exc}",)
            raise
    return out
