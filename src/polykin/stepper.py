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
from .field import (DistField, _sup_norm, cell_tiles, max_nan, row_tiles, sample, weight_tile,
                    weighted_sup_norm)
from .gaussian import _gaussian_flat, gaussian_table
from .grid import PhaseGrid
from .moments import MacroFields, compute_moments, energy_contraction
from .params import SchemeParams, collision_frequency, normalizer_discrete
from .scenario import Scenario, certified_envelope, make_initial
from .transport import Advector, advect


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


def _untracked() -> tuple:
    """What _relax_into returns with diagnostics "off": every number NaN, no Gaussian norm."""
    return (math.nan, np.full(3, math.nan), math.nan), math.nan, math.nan, None


def _relax_into(f_tilde: DistField, macro: MacroFields | None, params: SchemeParams, dt: float,
                diagnostics: str = "all", gauss_norm: bool = False, uniform: bool = False):
    """Overwrite f~ with its blend with its Gaussian, a tile at a time, in one pass per tile.

    The Gaussian factors come a block of cells at a time (a row tile of the (n_x, n_v**3)
    factor rows), and the block is walked by field.cell_tiles.  Each tile's Gaussian is
    written into one tile buffer, f~'s tile is blended with it in place while both are in
    cache and, unless diagnostics is "off", the tile's weighted sup, f ln f rows ("all"
    only) and energy contraction are taken with the buffer as scratch; a group's conserved
    sums and entropy are folded in cell order.  The sup's weights are gathered once a group
    and tile, into a slot of one cell's weights where the group has several cells (numpy
    would copy weights that the product overwrites), else into the buffer.  The Gaussian's
    weighted norm comes from its factors: each |v|^2 shell's largest velocity factor, times
    the energy factor, times the shell's weights.  Rounding is monotone and the factors are
    finite and >= 0, so this is the max over the Gaussian's nodes, bit for bit; each tile
    takes the shell rows among its rows, in its buffer.  The buffers are taken once the
    first block's factor temporaries are freed; one-tile cells' are freed with each block's
    factors and taken anew, a larger cell's kept for the call.  Returns the output's
    conserved sums, entropy (NaN unless "all"), weighted norm and the Gaussian's weighted
    norm (None unless gauss_norm), as conserved_quantities, entropy and weighted_sup_norm
    give them on the output, bit for bit; with diagnostics "off", _untracked().  With macro
    None (transport only, or run()'s f^0) f~ stays as it is and the Gaussian norm is None.
    With uniform, f~'s cells are equal and macro holds cell 0's moments alone: only cell 0
    is read and written, and its conserved sums and f ln f row sum are each added n_x times,
    in the adds the pass makes over n_x equal cells, so every number is the same, bit for bit.
    """
    if macro is None and diagnostics == "off":
        return _untracked()
    track, track_entropy = diagnostics != "off", diagnostics == "all"
    grid = f_tilde.grid
    n_rows = grid.n_v**3
    lambda_delta = normalizer_discrete(params.delta, grid)
    a = collision_frequency(params.nu, params.theta)
    c_f = params.kappa / (params.kappa + a * dt)
    c_m = a * dt / (params.kappa + a * dt)
    weights = table, _ = grid.norm_weight(params.q, params.delta)
    _, _, order, starts = grid.velocity_shells()
    buf = None
    sums = np.zeros(5)
    total_flogf = 0.0
    norm, g_norm = 0.0, (0.0 if gauss_norm and macro is not None and track else None)
    n_cells, reps = (1, grid.n_x) if uniform else (grid.n_x, 1)
    for block in row_tiles(n_cells, n_rows):
        if macro is not None:
            pev, ei = _gaussian_flat(macro, block, grid, lambda_delta, params.delta)
            if g_norm is not None:  # each cell's largest velocity factor on each shell
                peak = np.maximum.reduceat(pev[:, order], starts, axis=1)
        stack = f_tilde.cells[block]
        cells, tiles = cell_tiles(len(stack), n_rows, grid.n_i)
        if buf is None:  # taken once the factor pass's temporaries are freed
            buf = np.empty(stack[cells[0], tiles[0]].shape)  # the Gaussian, then scratch
            if track:
                contracted = np.empty((cells[0].stop, n_rows, 2))  # a group's, tile by tile
                flogf_rows = np.empty(contracted.shape[:2]) if track_entropy else None
                slot = np.empty(stack[0].shape) if cells[0].stop > 1 else None  # one-tile cells
        for c in cells:
            o = slice(0, c.stop - c.start)  # c in the buffer
            for s in tiles:
                t = stack[c, s]
                m = buf[o, : s.stop - s.start]
                if macro is not None:
                    if g_norm is not None and s.start < len(table):
                        r = slice(s.start, min(s.stop, len(table)))  # the shells in s's rows
                        with np.errstate(over="ignore"):  # an overflow is an infinite norm
                            g = np.multiply(peak[c, r, None], ei[c, None],
                                            m[:, : r.stop - r.start])
                            g *= table[r]
                        g_norm = max_nan(g_norm, float(g.max()))
                    gaussian_table(pev[c, s], ei[c], m)
                    _blend_into(t, m, c_f, c_m)
                if not track:
                    continue
                # f~ is nonnegative (sampled so, advected by convex interpolation, checked by
                # compute_moments), and so are the Gaussian and the blend: |t| is t, and a
                # -0.0 cannot change the max.  m is scratch by now
                ws = weight_tile(weights, s, m[0] if slot is None else slot)
                w = np.multiply(t, ws[None], m)
                norm = max_nan(norm, float(w.max()))
                if track_entropy:
                    tile_flogf(t, grid.i_weights, flogf_rows[o, s], m)
                energy_contraction(t, grid, params.delta, contracted[o, s])
            if track_entropy:
                with np.errstate(over="ignore"):  # an infinite sum is a non-finite entropy
                    row_sums = flogf_rows[o].sum(axis=1).tolist()
                for x in row_sums:
                    for _ in range(reps):
                        total_flogf += x
            if track and uniform:
                # cell 0's sums, taken onto zeros: that turns at most a -0.0 into +0.0, which
                # adds the same to a running sum that starts at +0.0 and so is never -0.0
                part = cell_conserved(contracted[o], grid, np.zeros(5))
                for _ in range(reps):
                    sums = sums + part
            elif track:
                sums = cell_conserved(contracted[o], grid, sums)
        pev = ei = peak = None  # freed before the next block's factors are built
        if len(tiles) == 1:  # and so are one-tile cells' buffers, with the views into them
            buf = contracted = flogf_rows = slot = m = w = ws = g = None
    if not track:
        return _untracked()
    ent = grid.dx * grid.dv**3 * total_flogf if track_entropy else math.nan
    return conserved_totals(sums, grid), ent, norm, g_norm


def relax(f_tilde: DistField, macro: MacroFields, params: SchemeParams,
          dt: float) -> DistField:
    """Implicit relaxation solved in closed form: convex blend of f~ and G(f~), in a new field."""
    if not 0 < dt < math.inf:  # NaN too
        raise InvalidConfig(f"relax requires dt > 0 and finite, got {dt!r}")
    out = DistField(f_tilde.values.copy(), f_tilde.grid)
    _relax_into(out, macro, params, dt, "no_entropy")
    return out


def step(f: DistField, params: SchemeParams, dt: float) -> tuple[DistField, StepReport]:
    """One full scheme step; the report is populated from the output field."""
    if not 0 < dt < math.inf:  # NaN too
        raise InvalidConfig(f"step requires dt > 0 and finite, got {dt!r}")
    out = advect(f, dt)  # f~, which the relaxation overwrites
    prev = conserved_quantities(f, params.delta)
    report = _relax_step(out, 0, params, dt, prev, _defect_scales(prev, params.delta),
                         tilde_norm_q=weighted_sup_norm(out, params.q, params.delta))
    return out, report


def _relax_step(f_tilde: DistField, n: int, params: SchemeParams, dt: float, prev, scales,
                transport_only: bool = False, diagnostics: str = "all",
                gauss_norm: bool = False, uniform: bool = False, **monitors) -> StepReport:
    """The step body of step() and run(): relax f~ in place as step n, its errors named
    "step {n}: ", and report it against the conserved sums before it and the defect
    scales; monitors (read off f~ by the caller) fill the optional fields.  With uniform
    (f~'s cells are equal) only cell 0 is relaxed, as _relax_into says."""
    try:
        macro = (None if transport_only
                 else compute_moments(f_tilde, params, dt, n_cells=1 if uniform else None))
        (mass, mom, energy), ent, norm, g_norm = _relax_into(f_tilde, macro, params, dt,
                                                             diagnostics, gauss_norm, uniform)
    except PolykinError as exc:
        exc.args = (f"step {n}: {exc}",)
        raise
    return StepReport(
        step=n,
        time=(n + 1) * dt,
        mass=mass,
        momentum=mom,
        energy=energy,
        mass_defect=(mass - prev[0]) / scales[0],
        momentum_defect=_norm(mom - prev[1]) / scales[1],
        energy_defect=(energy - prev[2]) / scales[2],
        entropy=ent,
        norm_q=norm,
        gaussian_norm_q=g_norm,
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


def _envelope_min_ratio(cells: np.ndarray, env_table: np.ndarray) -> float:
    """min of f~ / envelope over a stack of f~'s cells, at the nodes where the envelope is > 0."""
    return masked_min_ratio(cells, env_table)


def _sample_initial(scn: Scenario, ic, grid: PhaseGrid, shift_dt: float,
                    out: DistField | None = None) -> DistField:
    """sample(ic, grid, shift_dt, out), whose errors also name the scenario's initial condition."""
    try:
        return sample(ic, grid, shift_dt, out)
    except NegativeInitialData as exc:
        exc.args = (f"{exc} (ic = {scn.ic})",)
        raise


DIAGNOSTICS = ("all", "no_entropy", "off")


def run(scn: Scenario, snapshot_writer=None, diagnostics: str = "all") -> RunResult:
    """Execute a scenario: N_t scheme steps from exactly sampled initial data.

    snapshot_writer, when given, is called as writer(time, field) after each step
    that Scenario.snapshot_steps names.  With diagnostics "all", reports carry
    conserved quantities, relative per-step defects, entropy, the weighted norm of
    the output, and (when the scenario certifies an envelope) the norms of f~ and of
    the Gaussian and the envelope margin that the stability monitors read.  With
    "no_entropy" the entropy is NaN.  With "off" nothing is taken beside the field:
    each report keeps its step and time, its numbers are NaN and its monitors None,
    and so are the initial norm and sums.  The field is the same in every mode.

    The first step's f~ is the initial function sampled at the feet, and each later
    step advects f^n in place.  With "off" and at least one step the nodal f^0 is read
    by nothing, so only the feet are sampled.  When Scenario.x_uniform holds, the feet
    take the nodes' values and every step's field is x-uniform, which advects to
    itself bit for bit: f^0 is sampled once and no step advects.  Every cell then
    steps as cell 0 does, so f^0's sums and each step's moments, relaxation, sums and
    monitors are taken on cell 0 alone, with every number as the whole field gives it;
    cell 0 is copied into the others before each snapshot_writer call and at the end.
    """
    if diagnostics not in DIAGNOSTICS:
        raise InvalidConfig(f"diagnostics must be one of {DIAGNOSTICS}, got {diagnostics!r}")
    grid, params = scn.validate()
    n_steps = scn.n_steps()
    ic = make_initial(scn, grid)
    envelope = certified_envelope(scn, grid)  # checked in every mode, read unless "off"
    if diagnostics == "off":
        envelope = None

    # one field: f^0's sums are taken, then it holds the exact foot values (no initial
    # error), and each later step advects and relaxes it in place.  An "off" run of some
    # steps reads no nodal f^0 and samples the feet at once, before the stepping starts
    x_uniform = scn.x_uniform
    feet_only = diagnostics == "off" and n_steps > 0 and not x_uniform
    f = _sample_initial(scn, ic, grid, scn.dt if feet_only else 0.0)
    # f^0 is nonnegative (sample checks it), so the transport-only pass takes its
    # weighted_sup_norm and conserved_quantities, bit for bit, in one walk
    initial_cons, _, initial_norm, _ = _relax_into(
        f, None, params, scn.dt, "off" if diagnostics == "off" else "no_entropy",
        uniform=x_uniform)
    if n_steps == 0:
        return RunResult(grid, params, scn.dt, [], f, initial_norm, initial_cons)

    advector = Advector(grid, scn.dt)  # built by every run of some steps: it checks dt
    if not (feet_only or x_uniform):
        _sample_initial(scn, ic, grid, scn.dt, out=f)
    env_table = envelope.table(grid) if envelope is not None else None

    scales = _defect_scales(initial_cons, params.delta)
    prev_cons = initial_cons
    snapshot_steps = scn.snapshot_steps()
    reports: list[StepReport] = []

    # x-uniform f^n advects to itself: every node blends two equal values, and the
    # sampled and relaxed values are finite and >= 0, with no -0.0.  Its cells stay
    # equal, so only cell 0 is stepped, and the others are copied from it where read
    stepped = f.cells[:1] if x_uniform else f.cells
    for n in range(n_steps):
        if n > 0 and not x_uniform:
            advector.apply(f)

        monitors = {}  # of f~, read before the relaxation overwrites it
        if envelope is not None:
            monitors = dict(tilde_norm_q=_sup_norm(stepped, None, grid, params.q, params.delta),
                            envelope_min_ratio=_envelope_min_ratio(stepped, env_table))
        report = _relax_step(f, n, params, scn.dt, prev_cons, scales, scn.transport_only,
                             diagnostics, gauss_norm=envelope is not None, uniform=x_uniform,
                             **monitors)
        reports.append(report)
        prev_cons = (report.mass, report.momentum, report.energy)

        written = snapshot_writer is not None and n + 1 in snapshot_steps
        if x_uniform and (written or n + 1 == n_steps):
            np.copyto(f.cells[1:], stepped)
        if written:
            snapshot_writer(report.time, f)

    return RunResult(grid, params, scn.dt, reports, f, initial_norm, initial_cons)


STEP_CSV_HEADER = (
    "time,mass,momentum1,momentum2,momentum3,energy,"
    "mass_defect,momentum_defect,energy_defect,entropy,norm_q\n"
)


def write_step_csv(fh, reports: list[StepReport]) -> None:
    fh.write(STEP_CSV_HEADER)
    for r in reports:
        fh.write(",".join("%.17g" % x for x in r.csv_row()) + "\n")
