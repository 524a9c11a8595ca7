"""Acceptance suite: one test per criterion, each printing a PASS line.

Resolutions, parameter sets, and tolerances are pinned here; the heavy
homogeneous-relaxation run is shared by the conservation and entropy
criteria through a module-scoped fixture.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from polykin import (
    DistField,
    GridConfig,
    Scenario,
    SchemeParams,
    advect,
    blend_factors,
    build_grid,
    certified_envelope,
    check_envelopes,
    compute_moments,
    eval_gaussian,
    normalizer_discrete,
    run,
    step,
    table_moments,
    tensor_sandwich_check,
    weighted_sup_norm,
)
from polykin.cli import main
from polykin.moments import MacroCell

NU_THETA_GRID = [(nu, theta) for nu in (-0.25, 0.0, 0.5, 0.9) for theta in (0.25, 0.5, 1.0)]


def _report(criterion: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS — {detail}")


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_positivity_and_max_principle():
    """1000+ random nonnegative fields, one full step each: no negative output,
    and advection never expands the weighted sup norm."""
    rng = np.random.default_rng(101)
    t0 = time.time()
    trials = 1008
    for trial in range(trials):
        nu, theta = NU_THETA_GRID[trial % len(NU_THETA_GRID)]
        params = SchemeParams(nu=nu, theta=theta, delta=2.0, kappa=1.0, q=8.0)
        grid = build_grid(GridConfig(
            n_x=int(rng.integers(2, 7)),
            n_v=int(rng.choice([3, 5])),
            v_max=float(rng.uniform(1.0, 3.0)),
            n_i=int(rng.integers(1, 7)),
            i_max=float(rng.uniform(1.0, 6.0)),
        ))
        vals = rng.random(grid.field_shape)
        vals *= rng.random(grid.field_shape) > 0.3
        f = DistField(vals, grid)
        dt = float(10.0 ** rng.uniform(-3.0, -0.7))

        adv = advect(f, dt)
        assert weighted_sup_norm(adv, 8.0, 2.0) <= weighted_sup_norm(f, 8.0, 2.0), (
            f"trial {trial}: advection expanded the weighted norm"
        )
        out, report = step(f, params, dt)
        assert (out.values >= 0.0).all(), f"trial {trial}: negative output"
        assert math.isfinite(report.norm_q)
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s, budget is 60s"
    _report("1 positivity/max-principle", f"{trials} fields, {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_tensor_sandwich():
    """1000+ random anisotropic cells x 100 directions: the blended tensor's
    quadratic form and the relaxation temperature stay inside their bounds."""
    rng = np.random.default_rng(202)
    grid = build_grid(GridConfig(n_x=84, n_v=5, v_max=2.5, n_i=4, i_max=3.0))
    delta = 2.0
    dt = 0.05
    slack = 1e-12
    cells = 0
    for nu, theta in NU_THETA_GRID:
        params = SchemeParams(nu=nu, theta=theta, delta=delta, kappa=1.0, q=8.0)
        lam, _ = blend_factors(nu, theta, 1.0, dt)
        # squared uniforms give strongly anisotropic, drifting moments
        vals = rng.random(grid.field_shape) ** 2
        vals *= rng.random(grid.field_shape) > 0.4
        vals += 1e-12
        macro = compute_moments(DistField(vals, grid), params, dt)

        ks = rng.normal(size=(100, 3))
        ks /= np.linalg.norm(ks, axis=1, keepdims=True)
        forms = np.einsum("nab,ka,kb->nk", macro.t_blend, ks, ks)
        lower = lam * theta * macro.t_delta[:, None]
        c_nu = max(1.0 - nu, 1.0 + 2.0 * nu)
        upper = (lam / 3.0) * c_nu * (3.0 + delta * (1.0 - theta)) * macro.t_delta[:, None]
        assert (forms >= lower - slack * upper).all(), f"lower bound violated at ({nu},{theta})"
        assert (forms <= upper + slack * upper).all(), f"upper bound violated at ({nu},{theta})"

        tt_lo = theta * macro.t_delta
        tt_hi = (delta + 3.0 * (1.0 - theta)) / delta * macro.t_delta
        assert (macro.t_theta >= tt_lo * (1 - slack)).all()
        assert (macro.t_theta <= tt_hi * (1 + slack)).all()

        for i in (0, 41, 83):  # exercise the public checker as well
            tensor_sandwich_check(macro.cell(i), params, dt, trials=100, rng=rng)
        cells += len(macro)
    assert cells == 1008
    _report("2 tensor sandwich", f"{cells} cells x 100 directions, zero violations")


# ---------------------------------------------------------------- criterion 3


def _unit_isotropic_cell() -> MacroCell:
    return MacroCell(
        rho=1.0, u=np.zeros(3), theta_tensor=np.eye(3),
        t_tr=1.0, t_int=1.0, t_delta=1.0, t_theta=1.0, t_blend=np.eye(3),
    )


def test_criterion_3_gaussian_moment_consistency():
    """Moments of the evaluated Gaussian reproduce the defining cell at the
    pinned resolution: rho to 1e-6, |U| to 1e-10, T_delta to 1e-5."""
    params = SchemeParams(nu=0.0, theta=1.0, delta=2.0, kappa=1.0, q=8.0)
    grid = build_grid(GridConfig(n_x=2, n_v=33, v_max=8.0, n_i=256, i_max=40.0))
    lam = normalizer_discrete(2.0, grid)
    table = eval_gaussian(_unit_isotropic_cell(), grid, lam, 2.0)
    field = DistField(np.broadcast_to(table, grid.field_shape).copy(), grid)
    rec = compute_moments(field, params, dt=0.0)

    rho_defect = float(np.max(np.abs(rec.rho - 1.0)))
    u_defect = float(np.max(np.linalg.norm(rec.u, axis=1)))
    t_defect = float(np.max(np.abs(rec.t_delta - 1.0)))
    assert rho_defect <= 1e-6, f"rho defect {rho_defect:.3e}"
    assert u_defect <= 1e-10, f"|U| defect {u_defect:.3e}"
    assert t_defect <= 1e-5, f"T_delta defect {t_defect:.3e}"
    _report(
        "3 Gaussian moment consistency",
        f"rho {rho_defect:.2e}, |U| {u_defect:.2e}, T_delta {t_defect:.2e}",
    )


def test_criterion_3_defect_halving_under_refinement():
    """Companion check: the T_delta recovery defect at least halves (within
    25%) when dv and dI halve, and it shrinks at the energy rule's order.

    At this resolution the defect comes entirely from the energy quadrature:
    the trapezoid sum over the velocity nodes of a unit Gaussian at dv = 0.5
    is exact to rounding (T_tr defect ~1e-14), so only dI matters.  The
    energy weights are composite Boole panels (``grid.energy_weights``), a
    rule of order 6, so one halving should divide the defect by about 2^6.
    An observed order far from 6 means the energy quadrature has lost its
    documented accuracy, which the 1e-5 tolerance above and the conservation
    criterion rely on.
    """
    params = SchemeParams(nu=0.0, theta=1.0, delta=2.0, kappa=1.0, q=8.0)
    cell = _unit_isotropic_cell()
    defects = []
    for n_v, n_i in ((33, 256), (65, 512)):
        grid = build_grid(GridConfig(n_x=2, n_v=n_v, v_max=8.0, n_i=n_i, i_max=40.0))
        lam = normalizer_discrete(2.0, grid)
        table = eval_gaussian(cell, grid, lam, 2.0)
        rec = table_moments(table, grid, params, dt=0.0)
        defects.append(abs(rec.t_delta - 1.0))
        del table
    factor = defects[0] / defects[1]
    assert factor >= 1.5, (
        f"defect did not halve under refinement: {defects[0]:.3e} -> "
        f"{defects[1]:.3e} (factor {factor:.2f})"
    )
    order = math.log2(factor)
    assert 5.5 <= order <= 6.5, (
        f"observed defect order {order:.2f} (factor {factor:.2f}) is not the "
        "order 6 of the composite Boole energy rule (grid.energy_weights; "
        "README, Numerical notes)"
    )
    _report("3b defect halving", f"factor {factor:.2f}, order {order:.2f}")


# ------------------------------------------------------------ criteria 4 + 5


@pytest.fixture(scope="module")
def homogeneous_run():
    scn = Scenario(
        n_x=2, n_v=33, n_i=256, dt=1e-2, t_final=1.0,
        nu=0.0, theta=1.0, delta=2.0, kappa=1.0,
        ic="maxwellian", t_tr=1.1, t_int=0.85, v_max=8.0, i_max=40.0,
    )
    t0 = time.time()
    result = run(scn)
    return result, time.time() - t0


def test_criterion_4_conservation_drift(homogeneous_run):
    """Homogeneous relaxation, 100 steps at the criterion-3 resolution:
    relative drift of mass, momentum, and energy each below 1e-6."""
    result, elapsed = homogeneous_run
    m0, p0, e0 = result.initial_conserved
    t_scale = 2.0 * e0 / ((3.0 + 2.0) * m0)
    mom_scale = m0 * math.sqrt(t_scale)

    mass_drift = max(abs(r.mass - m0) / m0 for r in result.reports)
    mom_drift = max(np.linalg.norm(r.momentum - p0) / mom_scale for r in result.reports)
    energy_drift = max(abs(r.energy - e0) / abs(e0) for r in result.reports)
    assert len(result.reports) == 100
    assert mass_drift < 1e-6, f"mass drift {mass_drift:.3e}"
    assert mom_drift < 1e-6, f"momentum drift {mom_drift:.3e}"
    assert energy_drift < 1e-6, f"energy drift {energy_drift:.3e}"
    assert elapsed < 120.0, f"run took {elapsed:.1f}s, budget is 120s"
    _report(
        "4 conservation drift",
        f"mass {mass_drift:.2e}, momentum {mom_drift:.2e}, "
        f"energy {energy_drift:.2e}, {elapsed:.0f}s",
    )


def test_criterion_5_entropy_monotonicity(homogeneous_run):
    """Same run: entropy non-increasing per step within 1e-10."""
    result, _ = homogeneous_run
    ent = [r.entropy for r in result.reports]
    worst = max(ent[i + 1] - ent[i] for i in range(len(ent) - 1))
    assert worst <= 1e-10, f"entropy increased by {worst:.3e} in one step"
    assert ent[-1] < ent[0], "no dissipation measured"
    _report("5 entropy monotonicity", f"worst increment {worst:.2e}")


# ---------------------------------------------------------------- criterion 6

SMOOTH_SCENARIO = """
n_x = 16
n_v = 17
n_i = 16
v_max = 8.0
i_max = 12.0
nu = 0.5
theta = 0.8
delta = 2.0
kappa = 1.0
dt = 0.0625
t_final = 0.25
ic = smooth
rho0 = 1.0
alpha = 0.2
temperature = 1.0
"""


def _read_orders(path):
    lines = path.read_text().splitlines()[2:]  # skip header and coarsest row
    return [float(line.rsplit(",", 1)[1]) for line in lines]


def test_criterion_6_convergence_order(tmp_path):
    """Coupled dx = dt refinement {1/16, 1/32, 1/64} against a 1/256 reference
    on the smooth scenario: observed order in [0.75, 1.25]."""
    scn = tmp_path / "smooth.txt"
    scn.write_text(SMOOTH_SCENARIO, encoding="utf-8")
    out = tmp_path / "conv"
    t0 = time.time()
    code = main([
        "convergence", str(scn), "--levels", "16,32,64", "--reference", "256",
        "--out", str(out),
    ])
    elapsed = time.time() - t0
    assert code == 0
    orders = _read_orders(out / "convergence.csv")
    assert len(orders) == 2
    for order in orders:
        assert 0.75 <= order <= 1.25, f"observed orders {orders}"
    assert elapsed < 600.0, f"study took {elapsed:.1f}s, budget is 600s"
    _report("6 convergence order", f"orders {[f'{o:.2f}' for o in orders]}, {elapsed:.0f}s")


# ---------------------------------------------------------------- criterion 7

TRANSPORT_SCENARIO = """
n_x = 16
n_v = 9
n_i = 8
v_max = 4.0
i_max = 8.0
nu = 0.5
theta = 0.8
delta = 2.0
kappa = 1.0
# dt = 1/48 keeps every fractional cell shift fixed across the level set
dt = 0.020833333333333332
t_final = 0.25
ic = smooth
rho0 = 1.0
alpha = 0.2
temperature = 1.0
"""


def test_criterion_7_transport_only_spatial_order(tmp_path):
    """Relaxation disabled, fixed dt, exact transport reference: observed
    spatial order in [1.75, 2.25]."""
    scn = tmp_path / "transport.txt"
    scn.write_text(TRANSPORT_SCENARIO, encoding="utf-8")
    out = tmp_path / "conv"
    code = main([
        "convergence", str(scn), "--levels", "16,32,64", "--reference", "256",
        "--transport-only", "--out", str(out),
    ])
    assert code == 0
    orders = _read_orders(out / "convergence.csv")
    for order in orders:
        assert 1.75 <= order <= 2.25, f"observed orders {orders}"
    _report("7 transport-only spatial order", f"orders {[f'{o:.2f}' for o in orders]}")


# ---------------------------------------------------------------- criterion 8

SWEEP_SCENARIO = """
n_x = 16
n_v = 17
n_i = 16
v_max = 8.0
i_max = 12.0
nu = 0.5
theta = 0.8
delta = 2.0
kappa = 1.0
dt = 0.01
t_final = 1.0
ic = smooth
rho0 = 1.0
alpha = 0.2
temperature = 1.0
"""


def test_criterion_8_stiff_uniform_stability(tmp_path):
    """kappa sweep {1, 1e-2, 1e-4, 1e-6} at dt = 1e-2, 100 steps: all runs
    finite, equilibrium distance non-increasing as kappa decreases."""
    scn = tmp_path / "sweep.txt"
    scn.write_text(SWEEP_SCENARIO, encoding="utf-8")
    out = tmp_path / "sw"
    code = main(["sweep", str(scn), "--kappa", "1,1e-2,1e-4,1e-6", "--out", str(out)])
    assert code == 0
    rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert len(rows) == 4
    dists = []
    for kappa, finite, dist in rows:
        assert finite == "1", f"kappa={kappa} produced non-finite output"
        dists.append(float(dist))
        assert math.isfinite(dists[-1])
    for a, b in zip(dists, dists[1:]):
        assert b <= a * (1.0 + 1e-12), f"distance not monotone under stiffening: {dists}"
    _report("8 stiff uniform stability", f"distances {[f'{d:.3e}' for d in dists]}")


# ---------------------------------------------------------------- criterion 9


def test_criterion_9_envelope_monitors():
    """Smooth scenario with a certified initial envelope (a = b = 2): zero
    violations of the per-step lower bound and measured upper bound in 200
    steps."""
    scn = Scenario(
        n_x=16, n_v=9, n_i=8, dt=5e-3, t_final=1.0,
        nu=0.5, theta=0.8, delta=2.0, kappa=1.0,
        ic="smooth", rho0=1.0, alpha=0.2, temperature=1.0,
        v_max=4.0, i_max=8.0, envelope="auto",
    )
    grid, _ = scn.validate()
    envelope = certified_envelope(scn, grid)
    result = run(scn, diagnostics="no_entropy")
    report = check_envelopes(result, envelope)
    assert report.steps == 200
    assert report.lower_violations == 0, f"lower envelope violated: {report}"
    assert report.upper_violations == 0, f"upper envelope violated: {report}"
    assert 0.5 < report.lattice_mass_ratio < 2.0
    _report(
        "9 envelope monitors",
        f"200 steps, decay {report.decay_factor:.4f}, growth {report.growth_factor:.6f}",
    )
