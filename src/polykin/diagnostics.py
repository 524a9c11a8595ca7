"""Conserved quantities, entropy, stability envelopes, and convergence orders."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateTable, InvalidConfig, NegativeField
from .field import DistField, error_sup_norm, row_tiles
from .gaussian import gaussian_field
from .grid import PhaseGrid
from .moments import compute_moments, energy_contraction
from .params import SchemeParams, collision_frequency, normalizer_discrete

_MONITOR_SLACK = 1e-12  # relative tolerance of check_envelopes


def cell_conserved(cell: np.ndarray, grid: PhaseGrid, delta: float) -> tuple:
    """(mass, m1, m2, m3, energy) sums of one (n_v^3, n_i) cell table, before the cell weight."""
    v1, v2, v3, vsq = grid.velocity_tables()
    a = energy_contraction(cell, grid, delta)  # (nvol, 2): plain and eps-weighted
    g0 = a[:, 0]
    return g0.sum(), g0 @ v1, g0 @ v2, g0 @ v3, 0.5 * (g0 @ vsq) + a[:, 1].sum()


def conserved_totals(cell_sums: list[tuple], grid: PhaseGrid) -> tuple[float, np.ndarray, float]:
    """(mass, momentum, energy) from the cell_conserved sums of every cell, added in cell order."""
    sums = [0.0] * 5
    for cs in cell_sums:
        sums = [s + c for s, c in zip(sums, cs)]
    t = grid.dx * grid.dv**3 * np.array(sums)
    return t[0], t[1:4], t[4]


def conserved_quantities(fld: DistField, delta: float) -> tuple[float, np.ndarray, float]:
    """Total mass, momentum, and energy of a field.

    mass = sum f dx dv^3 dI, momentum = sum f v ..., and the energy weight is
    |v|^2/2 + I^(2/delta).  Reductions run cell by cell with a fixed tree
    shape, so results are bit-reproducible for a given grid.
    """
    return conserved_totals([cell_conserved(c, fld.grid, delta) for c in fld.cells], fld.grid)


def tile_flogf(t: np.ndarray, wk: np.ndarray, rows: np.ndarray) -> None:
    """rows = (t ln t) @ wk over one row tile, with 0 ln 0 := 0."""
    # the mask is t != 0, not t > 0: NaN and inf propagate as they would in xlogy
    b = np.zeros(t.shape)
    np.log(t, out=b, where=t != 0)
    with np.errstate(over="ignore"):  # an infinite f ln f is reported as a non-finite entropy
        b *= t
    np.matmul(b, wk, out=rows)


def entropy(fld: DistField) -> float:
    """sum f ln f over phase space with cell weights; 0 ln 0 := 0."""
    g = fld.grid
    if fld.values.min() < 0:
        raise NegativeField("entropy requires a nonnegative field")
    tiles = row_tiles(g.n_v**3, g.n_i)
    rows = np.empty(g.n_v**3)
    total = 0.0
    for cell in fld.cells:
        for s in tiles:
            tile_flogf(cell[s], g.i_weights, rows[s])
        total += float(rows.sum())
    return g.dx * g.dv**3 * total


def equilibrium_distance(fld: DistField, params: SchemeParams, dt: float = 0.0) -> float:
    """Weighted sup distance between f and its own ellipsoidal Gaussian.

    With dt = 0 the Gaussian uses the unblended (continuous-form) temperature
    tensor, making the distance a property of the state alone; passing the
    scheme's dt instead measures the distance to the actual per-step
    relaxation target at that Knudsen number.
    """
    macro = compute_moments(fld, params, dt=dt)
    lam_delta = normalizer_discrete(params.delta, fld.grid)
    gauss = gaussian_field(macro, fld.grid, lam_delta, params.delta)
    return error_sup_norm(fld, gauss, params.q, params.delta)


@dataclass(frozen=True)
class StabilityEnvelope:
    """Initial-data lower envelope c01*exp(-c02*(|v|^a + I^b))."""

    c01: float
    c02: float
    a_exp: float
    b_exp: float

    def __post_init__(self):
        if not all(0 < c < math.inf for c in (self.c01, self.c02, self.a_exp, self.b_exp)):
            raise InvalidConfig("envelope parameters must be finite and strictly positive")

    def table(self, grid: PhaseGrid) -> np.ndarray:
        """Envelope values over (velocity-cube, energy) nodes, flattened to 2D."""
        _, _, _, vsq = grid.velocity_tables()
        speed_pow = vsq ** (self.a_exp / 2.0)
        i_pow = grid.i_nodes**self.b_exp
        return self.c01 * np.exp(-self.c02 * (speed_pow[:, None] + i_pow[None, :]))

    def lattice_mass_ratio(self, grid: PhaseGrid) -> float:
        """Discrete mass of the envelope relative to its continuum value.

        The stability theory needs the lattice sum to track the integral
        within a factor of two on each side; the ratio returned here makes
        that smallness condition checkable at runtime.
        """
        tab = self.table(grid)
        disc_mass = float((tab @ grid.i_weights).sum()) * grid.dv**3
        a, b, c = self.a_exp, self.b_exp, self.c02
        cont_v = 4.0 * math.pi * math.gamma(3.0 / a) / (a * c ** (3.0 / a))
        cont_i = math.gamma(1.0 + 1.0 / b) / c ** (1.0 / b)
        return disc_mass / (self.c01 * cont_v * cont_i)


def masked_min_ratio(cell: np.ndarray, table: np.ndarray) -> float:
    """min of cell / table, tile by tile, over the nodes where the envelope table is > 0 (where
    it underflows to 0 it bounds nothing); a NaN quotient is skipped, as min() skips NaN."""
    worst = math.inf
    for s in row_tiles(*table.shape):
        env = table[s]
        with np.errstate(over="ignore"):  # an overflowing quotient is +inf: it bounds nothing
            q = np.divide(cell[s], env, out=np.full(env.shape, math.inf), where=env > 0)
        worst = min(worst, float(q.min()))
    return worst


@dataclass
class EnvelopeReport:
    steps: int
    decay_factor: float
    growth_factor: float
    measured_gaussian_ratio: float
    lower_violations: int
    upper_violations: int
    first_violation: int | None
    worst_lower_slack: float
    worst_upper_slack: float
    lattice_mass_ratio: float

    @property
    def ok(self) -> bool:
        return self.lower_violations == 0 and self.upper_violations == 0


def check_envelopes(run, envelope: StabilityEnvelope) -> EnvelopeReport:
    """Verify the per-step lower/upper stability envelopes of a completed run.

    Lower bound: pointwise, the advected field at step n must dominate
    decay^n times the initial envelope; the run records the worst ratio per
    step.  Upper bound: the weighted norm of the advected field must stay
    under growth^n times the initial norm, with the growth factor assembled
    from the largest measured ratio |Gaussian|_q / |f|_q over the run rather
    than from theoretical constants.  A run that built no Gaussian (transport
    only) has A*dt = 0: interpolation in x at fixed (v, I) keeps both bounds
    with decay = growth = 1.
    """
    reports = run.reports
    if not reports or reports[0].envelope_min_ratio is None:
        raise InvalidConfig("run was not executed with an envelope monitor")

    built = reports[0].gaussian_norm_q is not None
    a_dt = collision_frequency(run.params.nu, run.params.theta) * run.dt if built else 0.0
    dec = run.kappa / (run.kappa + a_dt)
    norm0 = max(run.initial_norm_q, reports[0].tilde_norm_q)

    ratio = 0.0
    prev_norm = run.initial_norm_q
    for rep in reports:
        if rep.gaussian_norm_q is not None and prev_norm > 0:
            ratio = max(ratio, rep.gaussian_norm_q / prev_norm)
        prev_norm = rep.norm_q
    growth = (run.kappa + a_dt * ratio) / (run.kappa + a_dt)

    lower_viol = 0
    upper_viol = 0
    first = None
    worst_lo = math.inf
    worst_hi = math.inf
    for n, rep in enumerate(reports):
        lo_bound = dec**n
        lo_slack = rep.envelope_min_ratio / lo_bound - 1.0
        hi_bound = growth**n * norm0
        hi_slack = 1.0 - rep.tilde_norm_q / hi_bound
        worst_lo = min(worst_lo, lo_slack)
        worst_hi = min(worst_hi, hi_slack)
        bad_lo, bad_hi = lo_slack < -_MONITOR_SLACK, hi_slack < -_MONITOR_SLACK
        lower_viol += bad_lo
        upper_viol += bad_hi
        if first is None and (bad_lo or bad_hi):
            first = n

    mass_ratio = envelope.lattice_mass_ratio(run.grid)
    return EnvelopeReport(
        steps=len(reports),
        decay_factor=dec,
        growth_factor=growth,
        measured_gaussian_ratio=ratio,
        lower_violations=lower_viol,
        upper_violations=upper_viol,
        first_violation=first,
        worst_lower_slack=worst_lo,
        worst_upper_slack=worst_hi,
        lattice_mass_ratio=mass_ratio,
    )


@dataclass
class ConvergenceTable:
    labels: list[str]
    h: list[float]
    errors: list[float]
    orders: list[float] = field(default_factory=list)  # between consecutive levels

    def to_csv(self, fh) -> None:
        fh.write("level,h,error,observed_order\n")
        for idx, (lab, hh, err) in enumerate(zip(self.labels, self.h, self.errors)):
            order = "" if idx == 0 else "%.17g" % self.orders[idx - 1]
            fh.write("%s,%.17g,%.17g,%s\n" % (lab, hh, err, order))

    def to_markdown(self) -> str:
        rows = [("level", "h", "error", "order")]
        for idx, (lab, hh, err) in enumerate(zip(self.labels, self.h, self.errors)):
            order = "-" if idx == 0 else "%.3f" % self.orders[idx - 1]
            rows.append((lab, "%.6g" % hh, "%.6e" % err, order))
        widths = [max(len(r[c]) for r in rows) for c in range(4)]
        lines = []
        for i, r in enumerate(rows):
            lines.append("| " + " | ".join(s.ljust(w) for s, w in zip(r, widths)) + " |")
            if i == 0:
                lines.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
        return "\n".join(lines) + "\n"


def observed_order(table: list[tuple[float, float]],
                   labels: list[str] | None = None) -> ConvergenceTable:
    """Observed orders log(e_coarse/e_fine)/log(h_coarse/h_fine) per refinement.

    Requires at least three levels with strictly positive, strictly
    decreasing errors along decreasing h; anything else raises
    DegenerateTable instead of producing a misleading order.
    """
    if len(table) < 3:
        raise DegenerateTable(f"need at least 3 refinement levels, got {len(table)}")
    h = [float(t[0]) for t in table]
    errors = [float(t[1]) for t in table]
    if labels is None:
        labels = ["%g" % hh for hh in h]
    if any(e <= 0 for e in errors):
        raise DegenerateTable(f"errors must be strictly positive: {errors}")
    if any(h[i + 1] >= h[i] for i in range(len(h) - 1)):
        raise DegenerateTable(f"h must be strictly decreasing: {h}")
    if any(errors[i + 1] >= errors[i] for i in range(len(errors) - 1)):
        raise DegenerateTable(f"errors must decrease under refinement: {errors}")
    orders = [
        math.log(errors[i] / errors[i + 1]) / math.log(h[i] / h[i + 1])
        for i in range(len(errors) - 1)
    ]
    return ConvergenceTable(labels=list(labels), h=h, errors=errors, orders=orders)
