"""Conserved quantities, entropy, stability envelopes, and convergence orders."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateTable, InvalidConfig, NegativeField
from .field import DistField, _sup_norm, cell_tiles, max_nan, row_tiles
# unused here, but benchmarks/spans.py wraps diagnostics.gaussian_field and error_sup_norm
from .field import error_sup_norm  # noqa: F401
from .gaussian import _gaussian_flat, gaussian_table
from .gaussian import gaussian_field  # noqa: F401
from .grid import PhaseGrid
from .moments import compute_moments, energy_contraction
from .params import SchemeParams, _power, collision_frequency, normalizer_discrete

_MONITOR_SLACK = 1e-12  # relative tolerance of check_envelopes


def cell_conserved(a: np.ndarray, grid: PhaseGrid, sums: np.ndarray) -> np.ndarray:
    """sums plus the (mass, m1, m2, m3, energy) sums of a stack of cells, from their
    (k, n_v^3, 2) energy contraction a, before the cell weight, added cell by cell in order,
    so folding every block of cells from zeros(5) gives the same sums whatever the blocks.

    The velocity sums come from one gemm of the velocity tables with each cell's a, all in
    one call.  OpenBLAS splits a long dot over its threads, so its last bits follow
    OPENBLAS_NUM_THREADS; a gemm it splits along its outputs, each summed whole."""
    m = grid.velocity_tables() @ a  # (k, 4, 2): rows v1, v2, v3, |v|^2
    if len(a) == 1:  # the running sum below is this one add, without its arrays
        return sums + (a[0, :, 0].sum(), *m[0, :3, 0], 0.5 * m[0, 3, 0] + a[0, :, 1].sum())
    cs = np.empty((len(a) + 1, 5))
    cs[0] = sums
    a[..., 0].sum(axis=1, out=cs[1:, 0])
    cs[1:, 1:4] = m[:, :3, 0]
    np.add(0.5 * m[:, 3, 0], a[..., 1].sum(axis=1), out=cs[1:, 4])
    return np.cumsum(cs, axis=0)[-1]  # a running sum down the cells, one add at a time


def conserved_totals(sums: np.ndarray, grid: PhaseGrid) -> tuple[float, np.ndarray, float]:
    """(mass, momentum, energy) from the cell_conserved sums of every cell."""
    t = grid.dx * grid.dv**3 * sums
    return t[0], t[1:4], t[4]


def conserved_quantities(fld: DistField, delta: float) -> tuple[float, np.ndarray, float]:
    """Total mass, momentum, and energy of a field.

    mass = sum f dx dv^3 dI, momentum = sum f v ..., and the energy weight is
    |v|^2/2 + I^(2/delta).  Each group of field.cell_tiles is contracted by its tiles and
    folded, cell by cell in a fixed order, as the relaxation does, so a step report equals
    this on the output bit for bit, and the sums are bit-reproducible whatever the number
    of BLAS threads (cell_conserved).
    """
    g, stack = fld.grid, fld.cells
    cells, tiles = cell_tiles(g.n_x, g.n_v**3, g.n_i)
    buf = np.empty((cells[0].stop, g.n_v**3, 2))
    sums = np.zeros(5)
    for c in cells:
        a = buf[: c.stop - c.start]
        for s in tiles:
            energy_contraction(stack[c, s], g, delta, a[:, s])
        sums = cell_conserved(a, g, sums)
    return conserved_totals(sums, g)


def tile_flogf(t: np.ndarray, wk: np.ndarray, rows: np.ndarray, b: np.ndarray) -> None:
    """rows = (t ln t) @ wk over one tile of field.cell_tiles, with 0 ln 0 := 0; b is a
    scratch tile of t's shape."""
    zero = t == 0  # exact zeros only: NaN and inf propagate as they would in xlogy
    # a zero's log is taken of 1, not 0 (log's -inf path is slow), and 0 * t keeps its sign
    np.log(np.add(t, zero, out=b) if zero.any() else t, out=b)
    with np.errstate(over="ignore"):  # an infinite f ln f is reported as a non-finite entropy
        b *= t
    np.matmul(b, wk, out=rows)


def entropy(fld: DistField) -> float:
    """sum f ln f over phase space with cell weights; 0 ln 0 := 0.  Taken by the tiles of
    field.cell_tiles and summed cell by cell, as the relaxation takes it."""
    g, stack = fld.grid, fld.cells
    cells, tiles = cell_tiles(g.n_x, g.n_v**3, g.n_i)
    rows = np.empty((cells[0].stop, g.n_v**3))
    buf = np.empty(stack[cells[0], tiles[0]].shape)
    total = 0.0
    for c in cells:
        r = rows[: c.stop - c.start]
        for s in tiles:
            t = stack[c, s]
            if t.min() < 0:  # checked in cache, before the tile's log
                raise NegativeField("entropy requires a nonnegative field")
            tile_flogf(t, g.i_weights, r[:, s], buf[: len(t), : s.stop - s.start])
        for x in r.sum(axis=1).tolist():
            total += x
    return g.dx * g.dv**3 * total


def equilibrium_distance(fld: DistField, params: SchemeParams, dt: float = 0.0) -> float:
    """Weighted sup distance between f and its own ellipsoidal Gaussian.

    With dt = 0 the Gaussian uses the unblended (continuous-form) temperature
    tensor, making the distance a property of the state alone; passing the
    scheme's dt instead measures the distance to the actual per-step
    relaxation target at that Knudsen number.

    The Gaussian is never built as a field: as the relaxation does, its factors are
    evaluated a block of row_tiles(n_x, n_v**3) cells at a time, and field._sup_norm
    takes the block's distance, writing each tile of the Gaussian into its scratch tile.
    So the distance equals error_sup_norm(f, gaussian_field(...)) bit for bit, and the
    first cell whose Gaussian fails raises the same error.
    """
    g = fld.grid
    macro = compute_moments(fld, params, dt=dt)
    lam_delta = normalizer_discrete(params.delta, g)
    dist = 0.0
    for block in row_tiles(g.n_x, g.n_v**3):
        pev, ei = _gaussian_flat(macro, block, g, lam_delta, params.delta)

        def gauss(c, s, out):  # the block's Gaussian tile [c, s], written into out
            return gaussian_table(pev[c, s], ei[c], out)

        dist = max_nan(dist, _sup_norm(fld.cells[block], gauss, g, params.q, params.delta))
        pev = ei = None  # freed before the next block's factors are built
    return dist


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
        # in one cell-sized array, which a run holds next to its field
        tab = np.add.outer(speed_pow, i_pow)
        tab *= -self.c02
        np.exp(tab, out=tab)
        tab *= self.c01
        return tab

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


def masked_min_ratio(stack: np.ndarray, table: np.ndarray) -> float:
    """min of stack / table over every cell's nodes where the envelope table is > 0 (where it
    underflows to 0 it bounds nothing), by the tiles of field.cell_tiles in one scratch tile;
    a NaN quotient is skipped, whatever the tile holding it."""
    cells, tiles = cell_tiles(len(stack), *table.shape)
    buf = np.empty(stack[cells[0], tiles[0]].shape)
    worst = math.inf
    for s in tiles:
        env, q = table[s], buf[:, : s.stop - s.start]
        q.fill(math.inf)  # where the table is not > 0, kept for every group of this tile
        for c in cells:
            qc = q[: c.stop - c.start]
            with np.errstate(over="ignore"):  # an overflowing quotient is +inf: it bounds nothing
                np.divide(stack[c, s], env, out=qc, where=env > 0)
            worst = min(worst, float(np.fmin.reduce(qc, axis=None)))
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
        """No violation, on a lattice whose envelope mass is within a factor of two of the
        continuum's, the condition under which the stability theory's bounds hold."""
        return (self.lower_violations == 0 and self.upper_violations == 0
                and 0.5 <= self.lattice_mass_ratio <= 2.0)


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
        # a lower bound that underflows to 0, or an upper one that overflows, bounds nothing
        lo_bound = dec**n
        lo_slack = rep.envelope_min_ratio / lo_bound - 1.0 if lo_bound > 0 else math.inf
        hi_bound = _power(growth, n) * norm0
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
