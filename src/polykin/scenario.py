"""Scenario configuration: text-file parsing, validation, initial conditions.

A scenario file is plain ``key = value`` text (``#`` starts a comment).  The
initial condition is one of three families: a global Gaussian equilibrium
with optional split translational/internal temperatures, a smooth periodic
density perturbation carrying a local equilibrium, or two-state data
smoothed over a few cells (raw jumps behind a flag).
"""

from __future__ import annotations

import math
import os
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .diagnostics import StabilityEnvelope, masked_min_ratio
from .errors import InvalidConfig, OutOfRange, ParseError, ValidationError
from .field import cell_tiles, tile_rows
from .grid import GridConfig, PhaseGrid, build_grid
from .moments import moments_peak_doubles
from .params import SchemeParams, _power, normalizer_discrete
from .transport import chunk_doubles

IC_KINDS = ("maxwellian", "smooth", "riemann")
ENVELOPE_MODES = ("off", "auto", "explicit")
MAX_STEPS = 1_000_000  # a run keeps one StepReport per step in memory


def physical_memory() -> int:
    """Bytes of physical memory, the bound of the memory guards."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def run_peak_bytes(n_x: int, n_v: int, n_i: int) -> int:
    """Bytes a run holds at its peak: the field plus what its passes hold beside it,
    summed although they never coexist (each term traced with tracemalloc):
    - sample: the initial function's temporaries while it fills one velocity slab, up to 4.5
      slabs on small grids (Riemann data at (n_x, n_v, n_i) = (256, 3, 1)), where numpy
      computes in place on no temporary under 256 KiB, and 1.1 on large ones: under two
      slabs, 4 n_v + 12 n_i doubles a cell and 1 MiB;
    - compute_moments: moments.moments_peak_doubles, the moments and one block's and one
      group's arrays;
    - the relaxation: the Gaussian factors of a block of tile_rows(n_v^3) cells and their
      temporaries, under 6 n_v^3 + 3 n_i doubles a row, then two tiles of the block's
      first field.cell_tiles group (the Gaussian, then scratch, and a cell's weights) and
      the group's contraction and f ln f rows, 3 n_v^3 doubles a cell: 13.3 thousand
      doubles traced at (6, 5, 6), under 0.84 of these two terms;
    - the envelope's cell table;
    - the norm weights: one row of n_i per |v|^2 shell, at most ceil(n_v/2)^3 of them by
      mirror symmetry, and their temporary while built;
    - the four velocity tables, the shell of each node and what finding the shells takes
      beside them, under 9 n_v^3 doubles; the Advector's chunk (transport.chunk_doubles);
    - 128 KiB of numpy's iteration buffers and array headers (traced at up to 133 KB in
      compute_moments and 75 KB in sample)."""
    cell, block = n_v**3 * n_i, min(n_x, tile_rows(n_v**3))
    samples = n_x * (2 * n_v**2 * n_i + 4 * n_v + 12 * n_i) + 131072
    factors = block * (6 * n_v**3 + 3 * n_i)
    cells, rows = cell_tiles(block, n_v**3, n_i)
    group = cells[0].stop  # cells of the relaxation's first tile
    tiles = group * (2 * rows[0].stop * n_i + 3 * n_v**3)
    shells = 2 * math.ceil(n_v / 2) ** 3 * n_i
    return 8 * (n_x * cell + samples + moments_peak_doubles(n_x, n_v) + factors + tiles + cell
                + shells + 9 * n_v**3 + chunk_doubles(n_x, n_v**2 * n_i) + 16384)


@dataclass
class Scenario:
    # discretization
    n_x: int
    n_v: int
    n_i: int
    dt: float
    t_final: float
    v_max: float | None = None   # default: 8*sqrt(T_ref)
    i_max: float | None = None   # default: (32*T_ref)^(delta/2)
    # model parameters
    nu: float = 0.0
    theta: float = 1.0
    delta: float = 2.0
    kappa: float = 1.0
    q: float | None = None       # default: 6 + delta
    # initial condition
    ic: str = "maxwellian"
    rho0: float = 1.0
    u0: tuple[float, float, float] = (0.0, 0.0, 0.0)
    temperature: float = 1.0
    t_tr: float | None = None    # split translational temperature
    t_int: float | None = None   # split internal temperature
    alpha: float = 0.2           # smooth-profile amplitude
    rho_left: float = 1.0
    u_left: float = 0.0
    t_left: float = 1.0
    rho_right: float = 0.125
    u_right: float = 0.0
    t_right: float = 0.8
    smooth_cells: float = 2.0
    raw_jump: bool = False
    # stability envelope ("auto", "off", or explicit constants)
    envelope: str = "off"
    c01: float | None = None
    c02: float | None = None
    a_exp: float = 2.0
    b_exp: float = 2.0
    # run options
    transport_only: bool = False
    snapshot_times: tuple[float, ...] = ()

    # ---- derived quantities ----

    def reference_temperature(self) -> float:
        if self.ic == "riemann":
            return max(self.t_left, self.t_right)
        return max(self.t_tr or self.temperature, self.t_int or self.temperature)

    def resolved_v_max(self) -> float:
        # 8 thermal standard deviations keep the truncated tail below 1e-12
        return self.v_max if self.v_max is not None else 8.0 * math.sqrt(self.reference_temperature())

    def resolved_i_max(self) -> float:
        if self.i_max is not None:
            return self.i_max
        return _power(32.0 * self.reference_temperature(), self.delta / 2.0)

    def resolved_q(self) -> float:
        return self.q if self.q is not None else 6.0 + self.delta

    def n_steps(self) -> int:
        if self.t_final == 0.0:
            return 0
        n = self.t_final / self.dt
        if n > MAX_STEPS:
            raise ValidationError("dt", f"t_final/dt = {n:.6g} steps exceeds the cap {MAX_STEPS}")
        if abs(n - round(n)) > 1e-9 * max(1.0, abs(n)) or round(n) == 0:
            raise ValidationError("dt", f"t_final/dt = {n!r} is not a positive integer step count")
        return int(round(n))

    def snapshot_steps(self) -> list[int]:
        """Step number 1 <= n <= N of each snapshot time, which must lie within 1e-9 of n*dt."""
        n_steps, steps = self.n_steps(), []
        for t in self.snapshot_times:
            n = round(t / self.dt) if math.isfinite(t / self.dt) else 0
            if not (1 <= n <= n_steps and abs(n * self.dt - t) <= 1e-9):
                raise ValidationError("snapshot_times", f"{t!r} is not a step time in (0, t_final]")
            steps.append(n)
        return steps

    def validate(self) -> tuple[PhaseGrid, SchemeParams]:
        for f in fields(self):
            value = getattr(self, f.name)
            for x in value if isinstance(value, tuple) else (value,):
                if isinstance(x, float) and not math.isfinite(x):
                    raise ValidationError(f.name, f"{x!r} is not a finite number")
        if self.ic not in IC_KINDS:
            raise ValidationError("ic", f"unknown initial condition {self.ic!r}")
        if self.dt <= 0:
            raise ValidationError("dt", "time step must be > 0")
        if self.t_final < 0:
            raise ValidationError("t_final", "final time must be >= 0")
        if self.envelope not in ENVELOPE_MODES:
            raise ValidationError("envelope", f"unknown envelope mode {self.envelope!r}")
        if self.envelope != "off":
            for name in ("a_exp", "b_exp", "c01", "c02"):
                v = getattr(self, name)
                if v is not None and v <= 0:
                    raise ValidationError(name, "envelope constants must be > 0")
        if self.ic == "riemann" and not self.raw_jump and self.smooth_cells <= 0:
            raise ValidationError("smooth_cells", "the jump must be smoothed over > 0 cells")
        self.snapshot_steps()  # also checks that t_final/dt is a step count
        try:
            params = SchemeParams(
                nu=self.nu, theta=self.theta, delta=self.delta,
                kappa=self.kappa, q=self.resolved_q(),
            )
        except OutOfRange as exc:
            raise ValidationError("params", str(exc)) from exc
        # the defaulted v_max and i_max below are derived from the temperatures
        if self.ic == "smooth" and not 0 <= self.alpha < 1:
            raise ValidationError("alpha", "smooth amplitude must lie in [0, 1)")
        for name in ("rho0", "rho_left", "rho_right"):
            if getattr(self, name) <= 0:
                raise ValidationError(name, "densities must be positive")
        for name in ("temperature", "t_left", "t_right"):
            if getattr(self, name) <= 0:
                raise ValidationError(name, "temperatures must be positive")
        for name in ("t_tr", "t_int"):
            v = getattr(self, name)
            if v is not None and v <= 0:
                raise ValidationError(name, "temperatures must be positive")
        for name in ("v_max", "i_max"):
            v = getattr(self, name)
            if v is not None and v <= 0:
                raise ValidationError(name, "grid extents must be positive")
        self._check_representable()
        peak = run_peak_bytes(self.n_x, self.n_v, self.n_i)
        memory = physical_memory()
        if peak > memory:  # checked before build_grid allocates n_x nodes
            raise ValidationError("grid", f"n_x = {self.n_x}, n_v = {self.n_v}, n_i = {self.n_i} "
                                          f"needs {peak / 1e9:.3g} GB at peak (one field, the "
                                          f"moments, a block of cells' contraction and Gaussian "
                                          f"factors, cell and velocity tables, a velocity slab and "
                                          f"an advection chunk), more than the {memory / 1e9:.3g} "
                                          f"GB of physical memory")
        v_max = self.resolved_v_max()
        # after the memory guard, so n_x converts; in Python floats, so it prints no warning
        if not math.isfinite(float(v_max) * float(self.dt) * self.n_x):
            raise ValidationError("dt", f"the foot offset v_max*dt*n_x overflows (v_max = "
                                        f"{v_max!r}, dt = {self.dt!r}, n_x = {self.n_x})")
        try:
            grid = build_grid(GridConfig(
                n_x=self.n_x, n_v=self.n_v, v_max=v_max,
                n_i=self.n_i, i_max=self.resolved_i_max(),
            ))
        except InvalidConfig as exc:
            raise ValidationError("grid", str(exc)) from exc
        return grid, params

    def _check_representable(self) -> None:
        """Reject inputs whose Gaussian normalisation, internal energy or norm weight overflows."""
        if self.ic == "riemann":
            temps = ("t_left", "t_right")
        else:
            temps = tuple(k if getattr(self, k) is not None else "temperature"
                          for k in ("t_tr", "t_int"))
        for name in temps:
            t = getattr(self, name)
            if max(_power(2.0 * math.pi * t, 1.5), _power(t, self.delta / 2.0)) == math.inf:
                raise ValidationError(name, f"{t!r} overflows the Gaussian normalisation "
                                            "(2*pi*T)^1.5 or T^(delta/2)")
        i_max, v_max = self.resolved_i_max(), self.resolved_v_max()
        eps_max = _power(i_max, 2.0 / self.delta)
        if eps_max == math.inf:
            raise ValidationError("delta", f"internal energy i_max^(2/delta) overflows "
                                           f"(i_max = {i_max!r}, delta = {self.delta!r})")
        q = self.resolved_q()
        if _power(1.0 + 3.0 * v_max * v_max + eps_max, q / 2.0) == math.inf:
            raise ValidationError("q", f"norm weight (1 + |v|^2 + i_max^(2/delta))^(q/2) overflows "
                                       f"(v_max = {v_max!r}, i_max = {i_max!r}, q = {q!r})")


def _gaussian_shape(v1, v2, v3, i_nodes, u, t_tr, t_int, delta, lam_delta):
    # extreme temperatures may overflow or underflow here; sample() rejects the
    # non-finite values that result, so numpy's warnings would only repeat it
    with np.errstate(all="ignore"):
        du1 = v1 - u[0]
        du2 = v2 - u[1]
        du3 = v3 - u[2]
        # in place: with two-state data t_tr spans x, and a new quotient would be a
        # second slab-sized array (asarray: scalar arguments give a numpy scalar)
        vel = np.asarray(-(du1 * du1 + du2 * du2 + du3 * du3))
        vel /= 2.0 * t_tr
        np.exp(vel, out=vel)
        vel /= (2.0 * math.pi * t_tr) ** 1.5
        eng = lam_delta * np.exp(-(i_nodes ** (2.0 / delta)) / t_int) / t_int ** (delta / 2.0)
        if np.broadcast_shapes(vel.shape, eng.shape) != vel.shape:
            return vel * eng
        vel *= eng  # at n_i = 1 vel already spans the slab
        return vel


def make_initial(scn: Scenario, grid: PhaseGrid):
    """Bind the scenario's initial condition to a grid as a broadcastable callable."""
    lam_delta = normalizer_discrete(scn.delta, grid)
    delta = scn.delta

    if scn.ic in ("maxwellian", "smooth"):
        t_tr = scn.t_tr if scn.t_tr is not None else scn.temperature
        t_int = scn.t_int if scn.t_int is not None else scn.temperature
        u = np.asarray(scn.u0, dtype=float)
        rho0, alpha = scn.rho0, scn.alpha
        uniform = scn.ic == "maxwellian"

        def ic(x, v1, v2, v3, i_nodes):
            rho = rho0 if uniform else rho0 * (1.0 + alpha * np.sin(2.0 * math.pi * x))
            return rho * _gaussian_shape(v1, v2, v3, i_nodes, u, t_tr, t_int, delta, lam_delta)

        return ic

    # two-state data: the "left" state fills the middle half of the periodic
    # interval, smoothed across smooth_cells cells unless raw jumps are asked for
    width = scn.smooth_cells * grid.dx

    def blend(x):
        if scn.raw_jump:
            return ((x >= 0.25) & (x < 0.75)).astype(float)
        return 0.5 * (np.tanh((x - 0.25) / width) - np.tanh((x - 0.75) / width))

    def ic(x, v1, v2, v3, i_nodes):
        chi = blend(x)
        rho = scn.rho_right + (scn.rho_left - scn.rho_right) * chi
        ux = scn.u_right + (scn.u_left - scn.u_right) * chi
        tt = scn.t_right + (scn.t_left - scn.t_right) * chi
        out = _gaussian_shape(v1, v2, v3, i_nodes, (ux, 0.0, 0.0), tt, tt, delta, lam_delta)
        out *= rho  # the shape already spans the slab (tt varies in x): no second slab
        return out

    return ic


def certified_envelope(scn: Scenario, grid: PhaseGrid) -> StabilityEnvelope | None:
    """Envelope constants certifying the initial data from below, or None.

    With explicit constants they are taken as given.  Auto mode sets the
    decay constant from the coldest temperature and the amplitude from the
    exact minimum over (velocity, energy) nodes of initial data over envelope
    shape, evaluated at the spatial minimum of the density profile; for the
    maxwellian and smooth families that infimum over all of x is attained in
    closed form, so the bound holds at arbitrary shifted positions, not just
    at spatial nodes.  Two-state data has no closed-form infimum, so it
    requires explicit constants.
    """
    if scn.envelope == "off":
        return None
    if scn.envelope == "explicit":
        if scn.c01 is None or scn.c02 is None:
            raise ValidationError("envelope", "explicit envelope needs c01 and c02")
        return StabilityEnvelope(c01=scn.c01, c02=scn.c02, a_exp=scn.a_exp, b_exp=scn.b_exp)

    if scn.ic == "riemann":
        raise ValidationError(
            "envelope",
            "auto certification needs a maxwellian or smooth initial condition; "
            "supply explicit c01/c02 for two-state data",
        )

    a, b = scn.a_exp, scn.b_exp
    t_cold = min(scn.t_tr or scn.temperature, scn.t_int or scn.temperature)
    c02 = scn.c02 if scn.c02 is not None else 1.0 / (2.0 * t_cold)

    # density minimum over the continuum of x: rho0 for the uniform family,
    # rho0*(1 - alpha) at the trough of the sinusoid
    x_min = np.array(0.0 if scn.ic == "maxwellian" else 0.75)
    ic = make_initial(scn, grid)
    v = grid.v_axis
    profile_min = ic(
        x_min,
        v[:, None, None, None],
        v[None, :, None, None],
        v[None, None, :, None],
        grid.i_nodes[None, None, None, :],
    )

    shape = StabilityEnvelope(c01=1.0, c02=c02, a_exp=a, b_exp=b).table(grid)
    ratio = masked_min_ratio(profile_min.reshape((1,) + shape.shape), shape)
    c01 = ratio * (1.0 - 1e-9)  # headroom over the monitors' 1e-12 slack
    if c01 <= 0:
        raise ValidationError("envelope", "initial data does not admit a positive envelope")
    return StabilityEnvelope(c01=c01, c02=c02, a_exp=a, b_exp=b)


# ---- scenario file parsing ----

_TRUE, _FALSE = ("1", "true", "yes", "on"), ("0", "false", "no", "off")


def _parse_bool(val: str) -> bool:
    if val.lower() not in _TRUE + _FALSE:
        raise ValueError(f"expected one of {', '.join(_TRUE + _FALSE)}, got {val!r}")
    return val.lower() in _TRUE


_PARSERS = {"int": int, "float": float, "str": str, "bool": _parse_bool,
            "tuple[float, ...]": lambda val: tuple(float(t) for t in val.split(",") if t.strip())}
# Scenario field annotations are strings under `from __future__ import annotations`;
# u0 is read component by component as u0x, u0y, u0z
_KEY_PARSERS = {f.name: _PARSERS[f.type.removesuffix(" | None")] for f in fields(Scenario)
                if f.type.removesuffix(" | None") in _PARSERS}
_KEY_PARSERS.update(u0x=float, u0y=float, u0z=float)


def parse_scenario(path) -> Scenario:
    """Parse and validate a key-value scenario file.

    Raises ParseError with the offending line number on malformed input, an
    unknown key or a repeated key, and ValidationError with the field name on
    inadmissible values.
    """
    values: dict = {}
    seen: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(str(path), line_no, f"expected 'key = value', got {raw.strip()!r}")
            key, _, val = line.partition("=")
            key = key.strip().lower()
            if key not in _KEY_PARSERS:
                raise ParseError(str(path), line_no, f"unknown key {key!r}")
            if key in seen:
                raise ParseError(str(path), line_no,
                                 f"duplicate key {key!r}, first set on line {seen[key]}")
            seen[key] = line_no
            try:
                values[key] = _KEY_PARSERS[key](val.strip())
            except ValueError as exc:
                raise ParseError(str(path), line_no, f"bad value for {key!r}: {exc}") from exc

    for f in fields(Scenario):
        if f.default is MISSING and f.name not in values:
            raise ValidationError(f.name, "missing required key")
    u0 = tuple(values.pop(f"u0{c}", 0.0) for c in "xyz")
    scn = Scenario(u0=u0, **values)
    scn.validate()
    return scn
