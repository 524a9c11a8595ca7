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

# unused here, but benchmarks/spans.py wraps stepper.equilibrium_distance
from .diagnostics import conserved_quantities, entropy, equilibrium_distance  # noqa: F401
from .errors import InvalidConfig, PolykinError
from .field import DistField, sample, weighted_sup_norm
from .gaussian import _gaussian_flat
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

    @property
    def collision_freq(self) -> float:
        return collision_frequency(self.params.nu, self.params.theta)


def _blend_into(ft: np.ndarray, m: np.ndarray, c_f: float, c_m: float,
                out: np.ndarray) -> None:
    """out = c_f*ft + c_m*m, written around whichever weight is <= 1/2.

    With the smaller weight multiplying the difference, the result can never
    round below zero or outside the span of its operands, and equal operands
    blend to themselves bit-exactly.
    """
    if c_m <= 0.5:
        np.subtract(m, ft, out=out)
        out *= c_m
        out += ft
    else:
        np.subtract(ft, m, out=out)
        out *= c_f
        out += m


def _relax_into(f_tilde: DistField, macro: MacroFields, params: SchemeParams,
                dt: float, out: DistField, norm_weight: np.ndarray | None = None) -> float | None:
    """Blend f~ with its Gaussian cell by cell; optionally track the Gaussian norm."""
    grid = f_tilde.grid
    lambda_delta = normalizer_discrete(params.delta, grid)
    a = collision_frequency(params.nu, params.theta)
    c_f = params.kappa / (params.kappa + a * dt)
    c_m = a * dt / (params.kappa + a * dt)

    src = f_tilde.values.reshape(grid.n_x, grid.n_v**3, grid.n_i)
    dst = out.values.reshape(grid.n_x, grid.n_v**3, grid.n_i)
    gauss_norm = 0.0
    for i in range(grid.n_x):
        try:
            m = _gaussian_flat(float(macro.rho[i]), macro.u[i], macro.t_blend[i],
                               float(macro.t_theta[i]), grid, lambda_delta, params.delta)
        except PolykinError as exc:
            exc.args = (f"cell {i}: {exc}",)
            raise
        if norm_weight is not None:
            gauss_norm = max(gauss_norm, float(np.max(m * norm_weight)))
        _blend_into(src[i], m, c_f, c_m, dst[i])
    return gauss_norm if norm_weight is not None else None


def relax(f_tilde: DistField, macro: MacroFields, params: SchemeParams,
          dt: float) -> DistField:
    """Implicit relaxation solved in closed form: convex blend of f~ and G(f~)."""
    if dt <= 0:
        raise InvalidConfig("relax requires dt > 0")
    out = DistField(np.empty(f_tilde.grid.field_shape), f_tilde.grid)
    _relax_into(f_tilde, macro, params, dt, out)
    return out


def step(f: DistField, params: SchemeParams, dt: float) -> tuple[DistField, StepReport]:
    """One full scheme step; the report is populated from the output field."""
    if dt <= 0:
        raise InvalidConfig("step requires dt > 0")
    f_tilde = Advector(f.grid, dt).apply(f)
    out = DistField(np.empty(f.grid.field_shape), f.grid)
    _relax_into(f_tilde, compute_moments(f_tilde, params, dt), params, dt, out)
    prev = conserved_quantities(f, params.delta)
    report = _step_report(0, dt, out, prev, _defect_scales(prev, params.delta), params, True,
                          tilde_norm_q=weighted_sup_norm(f_tilde, params.q, params.delta))
    return out, report


def _step_report(n: int, time: float, out: DistField, prev, scales, params: SchemeParams,
                 track_entropy: bool, **monitors) -> StepReport:
    """Report of step n from its output field, the conserved sums before it and the
    defect scales; monitors fills the optional StepReport fields."""
    mass, mom, energy = conserved_quantities(out, params.delta)
    return StepReport(
        step=n,
        time=time,
        mass=mass,
        momentum=mom,
        energy=energy,
        mass_defect=(mass - prev[0]) / scales[0],
        momentum_defect=float(np.linalg.norm(mom - prev[1])) / scales[1],
        energy_defect=(energy - prev[2]) / scales[2],
        entropy=entropy(out) if track_entropy else math.nan,
        norm_q=weighted_sup_norm(out, params.q, params.delta),
        **monitors,
    )


def _defect_scales(cons0, delta: float) -> tuple[float, float, float]:
    """Normalizers for relative conservation defects.

    Momentum can start at zero, so its defect is measured against the thermal
    momentum scale mass * sqrt(T) built from the initial energy.
    """
    mass0, mom0, e0 = cons0
    mass_scale = max(abs(mass0), 1e-300)
    t_scale = max(2.0 * e0 / ((3.0 + delta) * mass_scale), 1e-300)
    mom_scale = max(float(np.linalg.norm(mom0)), mass_scale * math.sqrt(t_scale), 1e-300)
    energy_scale = max(abs(e0), 1e-300)
    return mass_scale, mom_scale, energy_scale


def _envelope_min_ratio(f_tilde: DistField, env_table: np.ndarray) -> float:
    g = f_tilde.grid
    flat = f_tilde.values.reshape(g.n_x, -1, g.n_i)
    worst = math.inf
    for i in range(g.n_x):
        worst = min(worst, float(np.min(flat[i] / env_table)))
    return worst


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

    cur = sample(ic, grid, 0.0)
    initial_norm = weighted_sup_norm(cur, params.q, params.delta)
    initial_cons = conserved_quantities(cur, params.delta)
    if n_steps == 0:
        return RunResult(grid, params, scn.dt, [], cur, initial_norm, initial_cons)

    advector = Advector(grid, scn.dt)
    tilde = DistField(np.empty(grid.field_shape), grid)
    nxt = DistField(np.empty(grid.field_shape), grid)
    env_table = envelope.table(grid) if envelope is not None else None
    norm_weight = grid.norm_weight(params.q, params.delta) if envelope is not None else None

    scales = _defect_scales(initial_cons, params.delta)
    prev_cons = initial_cons
    snapshot_steps = scn.snapshot_steps()
    reports: list[StepReport] = []

    for n in range(n_steps):
        if n == 0:
            tilde = sample(ic, grid, scn.dt)  # exact foot values, no initial error
        else:
            advector.apply(cur, out=tilde)

        gauss_norm = None
        if scn.transport_only:
            nxt.values[:] = tilde.values
        else:
            try:
                macro = compute_moments(tilde, params, scn.dt)
                gauss_norm = _relax_into(tilde, macro, params, scn.dt, nxt, norm_weight=norm_weight)
            except PolykinError as exc:
                exc.args = (f"step {n}: {exc}",)
                raise

        t_now = (n + 1) * scn.dt
        monitors = {}
        if envelope is not None:
            monitors = dict(tilde_norm_q=weighted_sup_norm(tilde, params.q, params.delta),
                            envelope_min_ratio=_envelope_min_ratio(tilde, env_table))
        report = _step_report(n, t_now, nxt, prev_cons, scales, params, track_entropy,
                              gaussian_norm_q=gauss_norm, **monitors)
        reports.append(report)
        prev_cons = (report.mass, report.momentum, report.energy)

        if snapshot_writer is not None and n + 1 in snapshot_steps:
            snapshot_writer(t_now, nxt)

        cur, nxt = nxt, cur

    return RunResult(grid, params, scn.dt, reports, cur, initial_norm, initial_cons)


STEP_CSV_HEADER = (
    "time,mass,momentum1,momentum2,momentum3,energy,"
    "mass_defect,momentum_defect,energy_defect,entropy,norm_q\n"
)


def write_step_csv(fh, reports: list[StepReport]) -> None:
    fh.write(STEP_CSV_HEADER)
    for r in reports:
        fh.write(
            "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n"
            % (
                r.time, r.mass, r.momentum[0], r.momentum[1], r.momentum[2], r.energy,
                r.mass_defect, r.momentum_defect, r.energy_defect, r.entropy, r.norm_q,
            )
        )
