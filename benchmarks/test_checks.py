"""The benchmark's checks reject wrong answers; its span arithmetic adds up.

    PYTHONPATH=src python3 -m pytest benchmarks/test_checks.py -q
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import spans  # noqa: E402

KAPPA, NU, THETA, DT, STEPS, GAP0 = 1.0, 0.0, 1.0, 0.01, 10, 0.25


def _gap(n):
    return GAP0 * (KAPPA / (KAPPA + DT)) ** n


def test_conservation_accepts_exact_and_rejects_drift():
    good = [(1.0, (0.0, 0.0, 0.0), 2.5)] * 4
    assert checks.conservation(good, 1.0, (0, 0, 0), 2.5, 2.0) == {}
    bad = list(good)
    bad[2] = (1.0, (0.0, 0.0, 0.0), 2.5 * (1 + 2e-6))
    bad[3] = (1.0, (0.0, 3e-6, 0.0), 2.5)
    assert sorted(checks.conservation(bad, 1.0, (0, 0, 0), 2.5, 2.0)) == [2, 3]


def test_entropy_rise_is_rejected():
    assert checks.entropy_nonincreasing([-5.0, -5.1, -5.2]) == {}
    assert list(checks.entropy_nonincreasing([-5.0, -5.1, -5.05, -5.2])) == [2]
    assert list(checks.entropy_nonincreasing([-5.0, math.nan])) == [1]


def test_decay_one_step_off_is_rejected():
    ok = checks.temperature_gap_decay([_gap(STEPS)] * 2, GAP0, KAPPA, NU, THETA, DT, STEPS)
    assert ok is None
    # measured on the benchmark grid: 1.7e-6 relative, inside rtol
    near = _gap(STEPS) * (1 + 1.7e-6)
    assert checks.temperature_gap_decay([near], GAP0, KAPPA, NU, THETA, DT, STEPS) is None
    for n in (STEPS - 1, STEPS + 1):
        assert checks.temperature_gap_decay([_gap(n)], GAP0, KAPPA, NU, THETA, DT, STEPS)
    assert checks.temperature_gap_decay([], GAP0, KAPPA, NU, THETA, DT, STEPS)


def _table(order):
    h = [1 / 16, 1 / 32, 1 / 64]
    errors = [0.1 * hh**order for hh in h]
    orders = [math.log(errors[i] / errors[i + 1]) / math.log(2) for i in range(2)]
    return h, errors, orders


def test_first_order_table_passes():
    assert checks.convergence_orders(*_table(1.0)) == {}


@pytest.mark.parametrize("order", [0.5, 2.0])
def test_wrong_order_tables_are_rejected(order):
    assert sorted(checks.convergence_orders(*_table(order))) == [1, 2]


def test_rising_error_and_misreported_order_are_rejected():
    h, errors, orders = _table(1.0)
    assert list(checks.convergence_orders(h, [errors[0], errors[0], errors[2]], orders)) == [1, 2]
    assert list(checks.convergence_orders(h, errors, [orders[0], 1.2])) == [2]
    assert list(checks.convergence_orders(h, [errors[0], math.inf, errors[2]], orders)) == [1]


def test_non_monotone_distances_are_rejected():
    kappas = [1.0, 1e-2, 1e-4, 1e-6]
    assert checks.equilibrium_distances(kappas, [3e-2, 4e-4, 4e-6, 4e-8], [True] * 4) == {}
    assert list(checks.equilibrium_distances(kappas, [3e-2, 4e-4, 5e-4, 4e-8],
                                             [True] * 4)) == [2]
    assert list(checks.equilibrium_distances(kappas, [3e-2, 4e-4, 4e-6, 4e-8],
                                             [True, True, True, False])) == [3]


def test_field_with_one_negative_entry_is_rejected():
    vals = np.random.default_rng(0).random((2, 3, 3, 3, 2))
    assert checks.nonnegative_field(vals, vals.shape) is None
    vals[1, 2, 0, 1, 1] = -1e-300
    assert "negative" in checks.nonnegative_field(vals, vals.shape)
    assert checks.nonnegative_field(vals[:1], vals.shape) is not None
    assert "negative" in checks.tiny_step(vals, 1.0, 0.5, 0.5)


def test_norm_expansion_is_rejected():
    vals = np.ones((2, 3, 3, 3, 1))
    assert checks.tiny_step(vals, 1.0, 1.0, 1.0) is None
    assert checks.tiny_step(vals, 1.0, 1.0 + 1e-12, 1.0) is not None
    assert checks.tiny_step(vals, 1.0, 0.5, math.inf) is not None


def test_independent_norm_matches_the_program():
    polykin = pytest.importorskip("polykin")
    grid = polykin.build_grid(polykin.GridConfig(n_x=3, n_v=5, v_max=2.5, n_i=4, i_max=3.0))
    vals = np.random.default_rng(1).random(grid.field_shape)
    ours = checks.weighted_sup_norm(vals, grid.v_axis, grid.i_nodes, 8.0, 2.0)
    theirs = polykin.weighted_sup_norm(polykin.DistField(vals, grid), 8.0, 2.0)
    assert ours == pytest.approx(theirs, rel=4 * np.finfo(float).eps)


def _synthetic_round():
    # run(0..100) > advector init (0..5), apply (10..30) > grid (12..14), writer (80..90)
    return [
        ["stepper.run", 0, 100_000_000, -1, 0],
        ["transport.Advector.__init__", 0, 5_000_000, 0, 0],
        ["transport.Advector.apply", 10_000_000, 30_000_000, 0, 4_000_000],
        ["grid.velocity_tables", 12_000_000, 14_000_000, 2, 0],
        ["cli.snapshot_writer", 80_000_000, 90_000_000, 0, 0],
    ]


def test_self_times_and_stepping():
    s = _synthetic_round()
    assert spans.self_times(s) == pytest.approx([0.065, 0.005, 0.018, 0.002, 0.010])
    # stepping: from the end of the Advector build to the end of run, minus the writer
    assert spans.stepping_intervals(s) == [(5_000_000, 80_000_000), (90_000_000, 100_000_000)]


def test_modules_and_residual_sum_to_the_traced_wall():
    s = _synthetic_round()
    m = spans.layer_metrics(s, rounds=1, steps=2, traced_walls=[0.120],
                            untraced_walls=[0.100], output_bytes=0)
    modules = sum(m[f"module.{name}_ms"] for name in spans.MODULES)
    assert modules + m["trace.residual_ms"] == pytest.approx(120.0)
    assert m["trace.residual_ms"] == pytest.approx(20.0)
    assert m["transport.apply_ms"] == pytest.approx(9.0)
    assert m["transport.gbps_computed"] == pytest.approx(4e6 / 0.018 / 1e9)
    assert m["trace.overhead_pct"] == pytest.approx(20.0)
    assert set(m) == {name for name, _, _ in spans.PER_LAYER}


def test_recorder_wraps_and_restores():
    import types

    mod = types.SimpleNamespace(f=lambda x: x + 1)
    pk = types.SimpleNamespace(mod=mod)
    rec = spans.Recorder()
    original = mod.f
    rec.install(pk, [("mod", "f", "mod.f")])
    with rec.span("outer"):
        assert mod.f(1) == 2
    assert [(s[0], s[3]) for s in rec.spans] == [("outer", -1), ("mod.f", 0)]
    rec.uninstall()
    assert mod.f is original


def test_reference_seconds_scales_by_the_probes_around_and_skips_them(monkeypatch):
    import speed

    monkeypatch.setattr(speed, "REF_S", 1e-3)
    p = speed.Prober()
    ms = 1_000_000
    # probes of 1, 1 and 2 ms: the first stretch runs at the reference speed,
    # the second at 1.5 ms per reference ms
    p.starts[:] = [0, 11 * ms, 22 * ms]
    p.ends[:] = [1 * ms, 12 * ms, 24 * ms]
    p.times[:] = [1e-3, 1e-3, 2e-3]
    assert p.reference_seconds(1 * ms, 22 * ms) == pytest.approx(0.010 + 0.010 / 1.5)
    assert p.reference_seconds(5 * ms, 15 * ms) == pytest.approx(0.006 + 0.003 / 1.5)
    with pytest.raises(ValueError):
        p.reference_seconds(5 * ms, 30 * ms)


def test_prober_probes_on_its_timer():
    import time

    import speed

    p = speed.Prober()
    p.start()
    t_end = time.perf_counter() + 6 * speed.INTERVAL_S
    while time.perf_counter() < t_end:
        pass
    p.stop()
    assert len(p.starts) >= 4
    assert all(b > a for a, b in zip(p.starts, p.ends))
