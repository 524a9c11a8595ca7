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
from .field import DistField, cell_tiles, tile_rows
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


def energy_contraction(values: np.ndarray, grid: PhaseGrid, delta: float,
                       out: np.ndarray) -> np.ndarray:
    """values @ [w, w*eps] into out: the energy integrals of f and eps*f over a tile of
    field.cell_tiles, a group of cells of one row tile each or one row tile of a larger
    cell.  Every pass contracts a tile while it is in cache, and no call spans a cell
    larger than a tile: OpenBLAS threads such a gemm, and its buffers then take tens of MB
    that no Python allocation shows."""
    return np.matmul(values, grid.energy_moment_weights(delta), out=out)


def moments_tiling(n_cells: int, n_v: int) -> tuple[int, int]:
    """(block, span): compute_moments contracts block cells at a time (field.tile_rows of a
    cell's n_v^3 contraction rows) and takes the small per-cell arrays once per group of
    span cells, whose pair sums fill about one tile, since each numpy call on those arrays
    costs microseconds whatever its size.  span is a whole number of blocks or n_cells."""
    block = min(n_cells, tile_rows(n_v**3))
    return block, min(n_cells, block * max(1, tile_rows(3 * n_v**2) // block))


def moments_peak_doubles(n_x: int, n_v: int) -> int:
    """Doubles compute_moments holds beside its field at peak (traced with tracemalloc):
    under 40 a cell (the moments and tensors), 2 n_v^3 + n_v^2 a cell of one block (its
    energy contraction) and 5 n_v^2 + 11 n_v + 16 a cell of one group (the pair and axis
    sums and the small per-cell arrays)."""
    block, span = moments_tiling(n_x, n_v)
    return (n_x * 40 + block * (2 * n_v**3 + n_v**2)
            + span * (5 * n_v**2 + 11 * n_v + 16))


def _check_density(rho: np.ndarray) -> None:
    """Raise on the first cell of non-finite density, then on the first of zero density."""
    bad = np.nonzero(~np.isfinite(rho))[0]  # NaN slips past the sign check
    if bad.size:
        raise NonFiniteField(int(bad[0]), float(rho[bad[0]]))
    bad = np.nonzero(rho <= _ZERO_DENSITY_FLOOR)[0]
    if bad.size:
        raise ZeroDensity(int(bad[0]), float(rho[bad[0]]))


def _moments_of_stack(values: np.ndarray, grid: PhaseGrid, params: SchemeParams,
                      dt: float) -> MacroFields:
    """Moments of a (n_cells, n_v^3, n_i) stack of distribution tables.

    The stack is contracted one block of cells at a time (moments_tiling) into one buffer,
    each tile of the block's field.cell_tiles checked for its minimum and contracted in one
    visit.  The axis and pair sums are kept for one group of blocks, whose cells are centred
    before the next group is contracted, so beside the moments it holds about two tiles.
    The blocks stay on their own rule: a cell of several row tiles takes its pair sums with
    the rest of its block, since alone it took them 30% slower at (256, 17, 16).
    Every moment is reduced inside its cell, so a cell's moments do not depend on its
    place in the stack or on the stack's size.  A group holding a cell of bad density is
    left uncentred, and the errors keep the whole-stack order: a negative entry (naming
    the stack's minimum), then the first cell of non-finite density, then the first of
    zero density.
    """
    n_cells, nv = values.shape[0], grid.n_v
    dv3, v = grid.dv**3, grid.v_axis
    block, span = moments_tiling(n_cells, nv)
    rho, eps_tot = np.empty(n_cells), np.empty(n_cells)
    u, p = np.empty((n_cells, 3)), np.empty((n_cells, 3, 3))
    buf = np.empty((block, nv**3, 2))  # each block's contraction, in turn
    pairs = np.empty((3, span, nv, nv))  # the group's (12, 13, 23) pair sums
    axes = np.empty((3, span, nv))  # the group's axis sums
    mn = np.float64(np.inf)
    for start in range(0, n_cells, span):
        group = slice(start, min(start + span, n_cells))
        for s in range(start, group.stop, block):
            cells = slice(s, min(s + block, group.stop))
            contracted, stack = buf[: cells.stop - s], values[cells]
            parts, tiles = cell_tiles(len(stack), nv**3, grid.n_i)
            for c in parts:
                for r in tiles:
                    t = stack[c, r]
                    mn = np.minimum(mn, t.min())  # NaN once any entry is
                    energy_contraction(t, grid, params.delta, contracted[c, r])
            g = contracted[..., 0]
            np.multiply(dv3, g.sum(axis=1), out=rho[cells])
            contracted[..., 1].sum(axis=1, out=eps_tot[cells])
            g3 = g.reshape(cells.stop - s, nv, nv, nv)
            at = slice(s - start, cells.stop - start)
            g3.sum(axis=3, out=pairs[0, at])
            g3.sum(axis=2, out=pairs[1, at])
            g3.sum(axis=1, out=pairs[2, at])
        pair12, pair13, pair23 = pairs[:, : group.stop - start]
        m = axes[:, : group.stop - start]
        pair12.sum(axis=2, out=m[0])
        pair12.sum(axis=1, out=m[1])
        pair13.sum(axis=1, out=m[2])
        rg = rho[group]
        if not (_ZERO_DENSITY_FLOOR < rg.min() and rg.max() < np.inf):
            continue  # _check_density raises on this group
        np.divide((dv3 * np.einsum("aij,j->ai", m, v)).T, rg[:, None], out=u[group])
        d = v - u[group].T[:, :, None]  # d[a, i] = v - u_a of cell i
        pg = p[group]
        pg[:, 0, 0], pg[:, 1, 1], pg[:, 2, 2] = np.einsum("aij,aij->ai", m, d * d)
        pg[:, 0, 1] = pg[:, 1, 0] = np.einsum("ijk,ij,ik->i", pair12, d[0], d[1])
        pg[:, 0, 2] = pg[:, 2, 0] = np.einsum("ijk,ij,ik->i", pair13, d[0], d[2])
        pg[:, 1, 2] = pg[:, 2, 1] = np.einsum("ijk,ij,ik->i", pair23, d[1], d[2])
    if mn < 0:
        raise NegativeField(f"distribution has negative entry {mn!r}")
    _check_density(rho)
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
