"""Full scheme execution: advect, take moments, relax toward the Gaussian.

One step maps f^n to

    f~      = interpolate f^n at the feet of the backward characteristics
    out     = (kappa*f~ + A*dt*G(f~)) / (kappa + A*dt)

where G(f~) is the discrete ellipsoidal Gaussian built from the moments of
f~ (not of the unknown output — that substitution is what makes the implicit
relaxation explicitly solvable, with no fixed-point iteration).  The blend is
convex, so nonnegativity and the weighted max principle survive every step.

The first step of a run samples the foot values of the initial function
exactly instead of interpolating, so no error enters through the initial
data.  Conservation defects are reported, never corrected: the discrete
moments of the Gaussian match those of f~ only up to quadrature, and a
correction would change the scheme being studied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import (cell_conserved, conserved_quantities, conserved_totals, masked_min_ratio,
                          tile_flogf)
# unused here, but benchmarks/spans.py wraps stepper.entropy and stepper.equilibrium_distance
from .diagnostics import entropy, equilibrium_distance  # noqa: F401
from .errors import InvalidConfig, NegativeInitialData, PolykinError
from .field import DistField, max_nan, row_tiles, sample, tile_sup, weighted_sup_norm
from .gaussian import _gaussian_flat, cell_blocks, gaussian_table
from .grid import PhaseGrid
from .moments import MacroFields, compute_moments
from .params import SchemeParams, collision_frequency, normalizer_discrete
from .scenario import Scenario, certified_envelope, make_initial
from .transport import Advector


@dataclass
class StepReport:
    step: int
    time: float
    mass: float
    momentum: np.ndarray
    energy: float
    mass_defect: float
    momentum_defect: float
    energy_defect: float
    entropy: float
    norm_q: float
    tilde_norm_q: float | None = None  # set by step(), and by run() with an envelope
    gaussian_norm_q: float | None = None
    envelope_min_ratio: float | None = None

    def csv_row(self) -> tuple:
        """The numbers of this report's steps.csv row, in STEP_CSV_HEADER's order."""
        return (self.time, self.mass, *self.momentum, self.energy, self.mass_defect,
                self.momentum_defect, self.energy_defect, self.entropy, self.norm_q)


@dataclass
class RunResult:
    grid: PhaseGrid
    params: SchemeParams
    dt: float
    reports: list[StepReport]
    final: DistField
    initial_norm_q: float
    initial_conserved: tuple[float, np.ndarray, float]

    @property
    def kappa(self) -> float:
        return self.params.kappa


def _blend_into(ft: np.ndarray, m: np.ndarray, c_f: float, c_m: float) -> None:
    """ft = c_f*ft + c_m*m in place, written around whichever weight is <= 1/2; m is scratch.

    With the smaller weight multiplying the difference, the result can never
    round below zero or outside the span of its operands, and equal operands
    blend to themselves bit-exactly.
    """
    if c_m <= 0.5:  # ft + c_m*(m - ft)
        m -= ft
        m *= c_m
        ft += m
    else:  # m + c_f*(ft - m)
        ft -= m
        ft *= c_f
        ft += m


def _relax_into(f_tilde: DistField, macro: MacroFields | None, params: SchemeParams, dt: float,
                track_entropy: bool = True, gauss_norm: bool = False):
    """Overwrite f~ with its blend with its Gaussian, cell by cell, in one pass per cell.

    The Gaussian factors are evaluated for a block of cells at once
    (gaussian.cell_blocks).  Each cell is walked in row tiles: the tile's
    Gaussian is written into one reused tile buffer, f~'s tile is blended with
    it in place while both are in cache, and the tile's weighted sup and f ln f
    rows are taken.  Returns the output's conserved sums, entropy (NaN unless
    track_entropy), weighted norm, and the Gaussian's weighted norm (None unless
    gauss_norm): what conserved_quantities, entropy and weighted_sup_norm give
    on the output, bit for bit.  With macro None (transport only) f~ is kept as
    it stands and the Gaussian norm is None.
    """
    grid = f_tilde.grid
    lambda_delta = normalizer_discrete(params.delta, grid)
    a = collision_frequency(params.nu, params.theta)
    c_f = params.kappa / (params.kappa + a * dt)
    c_m = a * dt / (params.kappa + a * dt)
    w = grid.norm_weight(params.q, params.delta)
    tiles = row_tiles(grid.n_v**3, grid.n_i)
    flogf_rows = np.empty(grid.n_v**3)
    buf = None

    cell_sums = []
    total_flogf = 0.0
    norm, g_norm = 0.0, (0.0 if gauss_norm and macro is not None else None)
    for cells in cell_blocks(grid):
        if macro is not None:
            pev, ei = _gaussian_flat(macro.rho[cells], macro.u[cells], macro.t_blend[cells],
                                     macro.t_theta[cells], grid, lambda_delta, params.delta,
                                     cells.start)
        if buf is None:  # taken once the factor pass's temporaries are freed
            buf = np.empty((tiles[0].stop, grid.n_i))
        for i, cell in enumerate(f_tilde.cells[cells]):
            for s in tiles:
                t, m = cell[s], buf[: s.stop - s.start]
                if macro is not None:
                    gaussian_table(pev[i][s], ei[i], m)
                    if g_norm is not None:
                        g_norm = max_nan(g_norm, tile_sup(m, None, w[s]))
                    _blend_into(t, m, c_f, c_m)
                norm = max_nan(norm, tile_sup(t, None, w[s], m))  # m is scratch by now
                if track_entropy:
                    tile_flogf(t, grid.i_weights, flogf_rows[s])
            if track_entropy:
                total_flogf += float(flogf_rows.sum())
            cell_sums.append(cell_conserved(cell, grid, params.delta))
    ent = grid.dx * grid.dv**3 * total_flogf if track_entropy else math.nan
    return conserved_totals(cell_sums, grid), ent, norm, g_norm


def relax(f_tilde: DistField, macro: MacroFields, params: SchemeParams,
          dt: float) -> DistField:
    """Implicit relaxation solved in closed form: convex blend of f~ and G(f~), in a new field."""
    if dt <= 0:
        raise InvalidConfig("relax requires dt > 0")
    out = DistField(f_tilde.values.copy(), f_tilde.grid)
    _relax_into(out, macro, params, dt, track_entropy=False)
    return out


def step(f: DistField, params: SchemeParams, dt: float) -> tuple[DistField, StepReport]:
    """One full scheme step; the report is populated from the output field."""
    if dt <= 0:
        raise InvalidConfig("step requires dt > 0")
    out = Advector(f.grid, dt).apply(f)  # f~, which the relaxation overwrites
    macro = compute_moments(out, params, dt)
    tilde_norm = weighted_sup_norm(out, params.q, params.delta)  # of f~, so before that
    sums = _relax_into(out, macro, params, dt)[:3]
    prev = conserved_quantities(f, params.delta)
    report = _step_report(0, dt, sums, prev, _defect_scales(prev, params.delta),
                          tilde_norm_q=tilde_norm)
    return out, report


def _step_report(n: int, time: float, sums, prev, scales, **monitors) -> StepReport:
    """Report of step n from the output's (conserved sums, entropy, weighted norm), the
    conserved sums before it and the defect scales; monitors fills the optional fields."""
    (mass, mom, energy), ent, norm = sums
    return StepReport(
        step=n,
        time=time,
        mass=mass,
        momentum=mom,
        energy=energy,
        mass_defect=(mass - prev[0]) / scales[0],
        momentum_defect=_norm(mom - prev[1]) / scales[1],
        energy_defect=(energy - prev[2]) / scales[2],
        entropy=ent,
        norm_q=norm,
        **monitors,
    )


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a momentum, by math.hypot where sqrt(v.v) overflows (|v| > 1e154)."""
    with np.errstate(over="ignore"):
        n = float(np.linalg.norm(v))
    return math.hypot(*v) if n == math.inf else n


def _defect_scales(cons0, delta: float) -> tuple[float, float, float]:
    """Normalizers for relative conservation defects.

    Momentum can start at zero, so its defect is measured against the thermal
    momentum scale mass * sqrt(T) built from the initial energy.
    """
    mass0, mom0, e0 = cons0
    mass_scale = max(abs(mass0), 1e-300)
    t_scale = max(2.0 * e0 / ((3.0 + delta) * mass_scale), 1e-300)
    mom_scale = max(_norm(mom0), mass_scale * math.sqrt(t_scale), 1e-300)
    energy_scale = max(abs(e0), 1e-300)
    return mass_scale, mom_scale, energy_scale


def _envelope_min_ratio(f_tilde: DistField, env_table: np.ndarray) -> float:
    """min of f~ / envelope over the nodes where the envelope is > 0."""
    return min(masked_min_ratio(cell, env_table) for cell in f_tilde.cells)


def _sample_initial(scn: Scenario, ic, grid: PhaseGrid, shift_dt: float) -> DistField:
    """sample(ic, grid, shift_dt), whose errors also name the scenario's initial condition."""
    try:
        return sample(ic, grid, shift_dt)
    except NegativeInitialData as exc:
        exc.args = (f"{exc} (ic = {scn.ic})",)
        raise


def run(scn: Scenario, snapshot_writer=None, track_entropy: bool = True) -> RunResult:
    """Execute a scenario: N_t scheme steps from exactly sampled initial data.

    snapshot_writer, when given, is called as writer(time, field) after each step
    that Scenario.snapshot_steps names.  Reports carry conserved quantities,
    relative per-step defects, entropy, the weighted norm of the output, and
    (when the scenario certifies an envelope) the norms of f~ and of the
    Gaussian and the envelope margin that the stability monitors read.
    """
    grid, params = scn.validate()
    n_steps = scn.n_steps()
    ic = make_initial(scn, grid)
    envelope = certified_envelope(scn, grid)

    cur = _sample_initial(scn, ic, grid, 0.0)
    initial_norm = weighted_sup_norm(cur, params.q, params.delta)
    initial_cons = conserved_quantities(cur, params.delta)
    if n_steps == 0:
        return RunResult(grid, params, scn.dt, [], cur, initial_norm, initial_cons)

    advector = Advector(grid, scn.dt)
    tilde = _sample_initial(scn, ic, grid, scn.dt)  # exact foot values: no initial error
    env_table = envelope.table(grid) if envelope is not None else None

    scales = _defect_scales(initial_cons, params.delta)
    prev_cons = initial_cons
    snapshot_steps = scn.snapshot_steps()
    reports: list[StepReport] = []

    for n in range(n_steps):
        if n > 0:
            advector.apply(cur, out=tilde)

        monitors = {}  # of f~, read before the relaxation overwrites it
        if envelope is not None:
            monitors = dict(tilde_norm_q=weighted_sup_norm(tilde, params.q, params.delta),
                            envelope_min_ratio=_envelope_min_ratio(tilde, env_table))

        try:
            macro = None if scn.transport_only else compute_moments(tilde, params, scn.dt)
            *sums, gauss_norm = _relax_into(tilde, macro, params, scn.dt, track_entropy,
                                            gauss_norm=envelope is not None)
        except PolykinError as exc:
            exc.args = (f"step {n}: {exc}",)
            raise

        t_now = (n + 1) * scn.dt
        report = _step_report(n, t_now, sums, prev_cons, scales,
                              gaussian_norm_q=gauss_norm, **monitors)
        reports.append(report)
        prev_cons = (report.mass, report.momentum, report.energy)

        if snapshot_writer is not None and n + 1 in snapshot_steps:
            snapshot_writer(t_now, tilde)

        cur, tilde = tilde, cur

    return RunResult(grid, params, scn.dt, reports, cur, initial_norm, initial_cons)


STEP_CSV_HEADER = (
    "time,mass,momentum1,momentum2,momentum3,energy,"
    "mass_defect,momentum_defect,energy_defect,entropy,norm_q\n"
)


def write_step_csv(fh, reports: list[StepReport]) -> None:
    fh.write(STEP_CSV_HEADER)
    for r in reports:
        fh.write(",".join("%.17g" % x for x in r.csv_row()) + "\n")
