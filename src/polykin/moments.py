"""Discrete macroscopic moments and the blended temperature tensor.

All moments of a spatial cell are quadrature sums over the (velocity-cube,
energy) nodes.  Centered second moments use a two-pass algorithm (bulk
velocity first, then differences against it) rather than raw-moment
subtraction, which would cancel catastrophically for drifting flows; the
reductions themselves are numpy pairwise/BLAS sums, keeping per-cell error
floors far below the levels resolved by the convergence study.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundViolated, NegativeField, NonFiniteField, ZeroDensity
from .field import DistField
from .grid import PhaseGrid
from .params import SchemeParams, blend_factors

_ZERO_DENSITY_FLOOR = 1e-300
_SANDWICH_SLACK = 1e-12  # relative tolerance of tensor_sandwich_check


@dataclass(frozen=True)
class MacroCell:
    """Moments of one spatial cell."""

    rho: float
    u: np.ndarray             # bulk velocity, shape (3,)
    theta_tensor: np.ndarray  # centered stress tensor, shape (3, 3)
    t_tr: float               # translational temperature
    t_int: float              # internal temperature
    t_delta: float            # combined temperature, convex in (t_tr, t_int)
    t_theta: float            # relaxation temperature
    t_blend: np.ndarray       # blended temperature tensor, shape (3, 3)


@dataclass
class MacroFields:
    """Per-spatial-cell moments, stored as struct-of-arrays."""

    rho: np.ndarray
    u: np.ndarray
    theta_tensor: np.ndarray
    t_tr: np.ndarray
    t_int: np.ndarray
    t_delta: np.ndarray
    t_theta: np.ndarray
    t_blend: np.ndarray

    def __len__(self) -> int:
        return self.rho.shape[0]

    def cell(self, i: int) -> MacroCell:
        return MacroCell(
            rho=float(self.rho[i]),
            u=self.u[i].copy(),
            theta_tensor=self.theta_tensor[i].copy(),
            t_tr=float(self.t_tr[i]),
            t_int=float(self.t_int[i]),
            t_delta=float(self.t_delta[i]),
            t_theta=float(self.t_theta[i]),
            t_blend=self.t_blend[i].copy(),
        )


def energy_contraction(values: np.ndarray, grid: PhaseGrid, delta: float) -> np.ndarray:
    """values @ [w, w*eps] over (..., n_v^3, n_i) tables: energy integrals of f and eps*f."""
    return values @ grid.energy_moment_weights(delta)


def _moments_of_stack(values: np.ndarray, grid: PhaseGrid, params: SchemeParams,
                      dt: float) -> MacroFields:
    """Moments of a (n_cells, n_v^3, n_i) stack of distribution tables."""
    n_cells = values.shape[0]
    mn = values.min()
    if mn < 0:
        raise NegativeField(f"distribution has negative entry {mn!r}")

    nv = grid.n_v
    dv3 = grid.dv**3
    contracted = energy_contraction(values, grid, params.delta)  # (n_cells, nvol, 2)
    g = contracted[..., 0]
    eps_tot = contracted[..., 1].sum(axis=1)

    rho = dv3 * g.sum(axis=1)
    bad = np.nonzero(~np.isfinite(rho))[0]  # NaN slips past the sign check above
    if bad.size:
        raise NonFiniteField(int(bad[0]), float(rho[bad[0]]))
    bad = np.nonzero(rho <= _ZERO_DENSITY_FLOOR)[0]
    if bad.size:
        raise ZeroDensity(int(bad[0]), float(rho[bad[0]]))

    g3 = g.reshape(n_cells, nv, nv, nv)
    pair12 = g3.sum(axis=3)
    pair13 = g3.sum(axis=2)
    pair23 = g3.sum(axis=1)
    m1 = pair12.sum(axis=2)
    m2 = pair12.sum(axis=1)
    m3 = pair13.sum(axis=1)

    v = grid.v_axis
    u = np.stack([dv3 * (m1 @ v), dv3 * (m2 @ v), dv3 * (m3 @ v)], axis=1) / rho[:, None]

    # second pass: centered second moments against the per-cell bulk velocity
    d1 = v[None, :] - u[:, 0, None]
    d2 = v[None, :] - u[:, 1, None]
    d3 = v[None, :] - u[:, 2, None]
    p = np.empty((n_cells, 3, 3))
    p[:, 0, 0] = np.einsum("ij,ij->i", m1, d1 * d1)
    p[:, 1, 1] = np.einsum("ij,ij->i", m2, d2 * d2)
    p[:, 2, 2] = np.einsum("ij,ij->i", m3, d3 * d3)
    p[:, 0, 1] = p[:, 1, 0] = np.einsum("ijk,ij,ik->i", pair12, d1, d2)
    p[:, 0, 2] = p[:, 2, 0] = np.einsum("ijk,ij,ik->i", pair13, d1, d3)
    p[:, 1, 2] = p[:, 2, 1] = np.einsum("ijk,ij,ik->i", pair23, d2, d3)
    theta_tensor = dv3 * p / rho[:, None, None]

    t_tr = (theta_tensor[:, 0, 0] + theta_tensor[:, 1, 1] + theta_tensor[:, 2, 2]) / 3.0
    t_int = (2.0 / params.delta) * dv3 * eps_tot / rho
    t_delta = (3.0 * t_tr + params.delta * t_int) / (3.0 + params.delta)
    t_theta = params.theta * t_delta + (1.0 - params.theta) * t_int

    lam, nu_bar = blend_factors(params.nu, params.theta, params.kappa, dt)
    iso = lam * params.theta * t_delta + lam * (1.0 - params.theta) * (1.0 - params.nu) * t_tr
    t_blend = (1.0 - params.theta) * nu_bar * theta_tensor
    t_blend[:, 0, 0] += iso
    t_blend[:, 1, 1] += iso
    t_blend[:, 2, 2] += iso

    return MacroFields(
        rho=rho, u=u, theta_tensor=theta_tensor,
        t_tr=t_tr, t_int=t_int, t_delta=t_delta, t_theta=t_theta, t_blend=t_blend,
    )


def compute_moments(field: DistField, params: SchemeParams, dt: float) -> MacroFields:
    """Moments of every spatial cell of a distribution field.

    dt enters only through the blend factors baked into the temperature
    tensor; pass dt = 0 to obtain the unblended (continuous-form) tensor for
    diagnostics.
    """
    return _moments_of_stack(field.cells, field.grid, params, dt)


def table_moments(table: np.ndarray, grid: PhaseGrid, params: SchemeParams,
                  dt: float) -> MacroCell:
    """Moments of a single (velocity-cube, energy) table; avoids building a field."""
    stack = table.reshape(1, grid.n_v**3, grid.n_i)
    return _moments_of_stack(stack, grid, params, dt).cell(0)


@dataclass(frozen=True)
class SandwichReport:
    trials: int
    worst_lower_margin: float
    worst_upper_margin: float
    t_theta_lower_margin: float
    t_theta_upper_margin: float


def tensor_sandwich_check(cell: MacroCell, params: SchemeParams, dt: float,
                          trials: int, rng: np.random.Generator | None = None) -> SandwichReport:
    """Verify the quadratic-form bounds of the blended tensor on random directions.

    For unit vectors k the blended tensor satisfies

        lam*theta*t_delta  <=  k' T k  <=  (lam/3)*max(1-nu, 1+2nu)*(3 + delta*(1-theta))*t_delta

    and the relaxation temperature satisfies

        theta*t_delta  <=  t_theta  <=  (delta + 3*(1-theta))/delta * t_delta.

    Margins are reported in units of the bound scale; a violation beyond
    _SANDWICH_SLACK raises BoundViolated with the offending direction.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    lam, _ = blend_factors(params.nu, params.theta, params.kappa, dt)
    lower = lam * params.theta * cell.t_delta
    c_nu = max(1.0 - params.nu, 1.0 + 2.0 * params.nu)
    upper = (lam / 3.0) * c_nu * (3.0 + params.delta * (1.0 - params.theta)) * cell.t_delta
    scale = max(abs(lower), abs(upper), 1e-300)

    worst_lo = np.inf
    worst_hi = np.inf
    for _ in range(trials):
        k = rng.normal(size=3)
        k /= np.linalg.norm(k)
        qf = float(k @ cell.t_blend @ k)
        lo_margin = (qf - lower) / scale
        hi_margin = (upper - qf) / scale
        if lo_margin < -_SANDWICH_SLACK or hi_margin < -_SANDWICH_SLACK:
            raise BoundViolated(
                f"sandwich failed for k={k}: form={qf!r}, bounds=({lower!r}, {upper!r})"
            )
        worst_lo = min(worst_lo, lo_margin)
        worst_hi = min(worst_hi, hi_margin)

    t_scale = max(abs(cell.t_delta), 1e-300)
    tt_lo = (cell.t_theta - params.theta * cell.t_delta) / t_scale
    tt_hi = ((params.delta + 3.0 * (1.0 - params.theta)) / params.delta * cell.t_delta
             - cell.t_theta) / t_scale
    if tt_lo < -_SANDWICH_SLACK or tt_hi < -_SANDWICH_SLACK:
        raise BoundViolated(
            f"relaxation temperature outside its bounds: t_theta={cell.t_theta!r}, "
            f"t_delta={cell.t_delta!r}"
        )
    return SandwichReport(trials, float(worst_lo), float(worst_hi), float(tt_lo), float(tt_hi))


def write_macro_csv(fh, time: float, grid: PhaseGrid, macro: MacroFields) -> None:
    """Append one row per spatial node: time, x, rho, u, and the temperatures."""
    for i in range(len(macro)):
        fh.write(
            "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n"
            % (
                time, grid.x_nodes[i], macro.rho[i],
                macro.u[i, 0], macro.u[i, 1], macro.u[i, 2],
                macro.t_tr[i], macro.t_int[i], macro.t_delta[i], macro.t_theta[i],
            )
        )


MACRO_CSV_HEADER = "time,x,rho,u1,u2,u3,t_tr,t_int,t_delta,t_theta\n"
