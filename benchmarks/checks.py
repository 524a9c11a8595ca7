"""Output checks of the benchmark workloads.

Every check compares the program's output with a value computed here, apart
from the program, or with a property the method must have.  Each returns a
dict mapping the index of a failed operation (a step, a level, a kappa value
or a call) to the reason, so one bad operation is counted once however many
checks it fails.  Nothing here imports polykin.
"""

from __future__ import annotations

import math

import numpy as np


def _fail(failures: dict[int, str], op: int, reason: str) -> None:
    failures.setdefault(op, reason)


def conservation(rows, mass0: float, momentum0, energy0: float, delta: float,
                 tol: float = 1e-6) -> dict[int, str]:
    """Relative drift of mass, momentum and energy against the exact invariants.

    ``rows`` holds (mass, (p1, p2, p3), energy) per step.  The reference is
    the continuum value of the initial data, so the quadrature error of the
    initial sampling counts against the same tolerance as the drift.
    Momentum is measured against the thermal scale mass0*sqrt(T).
    """
    failures: dict[int, str] = {}
    t_scale = 2.0 * energy0 / ((3.0 + delta) * mass0)
    mom_scale = mass0 * math.sqrt(t_scale)
    p0 = np.asarray(momentum0, dtype=float)
    for n, (mass, mom, energy) in enumerate(rows):
        drifts = (
            abs(mass - mass0) / abs(mass0),
            float(np.linalg.norm(np.asarray(mom, dtype=float) - p0)) / mom_scale,
            abs(energy - energy0) / abs(energy0),
        )
        for label, d in zip(("mass", "momentum", "energy"), drifts):
            if not d < tol:
                _fail(failures, n, f"{label} drift {d:.3e} >= {tol:g}")
    return failures


def entropy_nonincreasing(entropies, slack: float = 1e-10) -> dict[int, str]:
    """Entropy may not rise from one step to the next by more than ``slack``."""
    failures: dict[int, str] = {}
    for n, h in enumerate(entropies):
        if not math.isfinite(h):
            _fail(failures, n, f"entropy {h!r}")
        elif n > 0 and h > entropies[n - 1] + slack:
            _fail(failures, n, f"entropy rose by {h - entropies[n - 1]:.3e}")
    return failures


def temperature_gap_decay(gaps, gap0: float, kappa: float, nu: float, theta: float,
                          dt: float, n_steps: int, rtol: float = 1e-4) -> str | None:
    """T_tr - T_int after n steps of homogeneous relaxation with nu = 0, theta = 1.

    There the Gaussian has T_tr = T_int = T_delta, so every blend
    f <- c_f*f + c_m*G(f) multiplies the gap by c_f = kappa/(kappa + A*dt)
    with A = 1/(1 - nu + nu*theta).  One step more or less moves the gap by
    A*dt/kappa (1% at the benchmark's dt), far beyond ``rtol``.
    Returns the reason for a failure, or None.
    """
    a = 1.0 / (1.0 - nu + nu * theta)
    expected = gap0 * (kappa / (kappa + a * dt)) ** n_steps
    worst = max(abs(g / expected - 1.0) for g in gaps) if len(gaps) else math.inf
    if not worst <= rtol:
        return f"T_tr - T_int off the closed-form decay by {worst:.3e} (rtol {rtol:g})"
    return None


def nonnegative_field(values, shape) -> str | None:
    """A read-back or output field: right shape, finite, no negative entry."""
    values = np.asarray(values)
    if tuple(values.shape) != tuple(shape):
        return f"shape {values.shape} != {tuple(shape)}"
    if not np.isfinite(values).all():
        return "non-finite entry"
    low = float(values.min())
    if low < 0.0:
        return f"negative entry {low!r}"
    return None


def convergence_orders(h, errors, reported_orders, lo: float = 0.75,
                       hi: float = 1.25) -> dict[int, str]:
    """First-order convergence, recomputed from the error table.

    Level i (i >= 1) fails when its error does not fall below level i-1's,
    when log(e_{i-1}/e_i)/log(h_{i-1}/h_i) leaves [lo, hi], or when the
    program's order column disagrees with that recomputation.
    """
    failures: dict[int, str] = {}
    invalid = set()
    for i, err in enumerate(errors):
        if not (math.isfinite(err) and err > 0.0):
            _fail(failures, i, f"error {err!r}")
            invalid.add(i)
    for i in range(1, len(errors)):
        if i in invalid or i - 1 in invalid:
            continue
        if not errors[i] < errors[i - 1]:
            _fail(failures, i, f"error did not fall: {errors[i - 1]!r} -> {errors[i]!r}")
            continue
        order = math.log(errors[i - 1] / errors[i]) / math.log(h[i - 1] / h[i])
        if not lo <= order <= hi:
            _fail(failures, i, f"observed order {order:.4f} outside [{lo}, {hi}]")
        elif not abs(order - reported_orders[i - 1]) <= 1e-9 * abs(order):
            _fail(failures, i, f"reported order {reported_orders[i - 1]!r} != {order!r}")
    return failures


def equilibrium_distances(kappas, distances, finite, rel: float = 1e-12) -> dict[int, str]:
    """Asymptotic preservation: the distance to the Gaussian does not grow as kappa falls.

    ``finite`` flags, per kappa, whether the run's final field is all finite.
    """
    failures: dict[int, str] = {}
    order = sorted(range(len(kappas)), key=lambda i: -kappas[i])
    for i in range(len(kappas)):
        if not finite[i]:
            _fail(failures, i, "non-finite field")
        if not (math.isfinite(distances[i]) and distances[i] >= 0.0):
            _fail(failures, i, f"distance {distances[i]!r}")
    for prev, cur in zip(order, order[1:]):
        if distances[cur] > distances[prev] * (1.0 + rel):
            _fail(failures, cur, f"distance rose from {distances[prev]!r} at kappa="
                  f"{kappas[prev]:g} to {distances[cur]!r} at kappa={kappas[cur]:g}")
    return failures


def weighted_sup_norm(values, v_axis, i_nodes, q: float, delta: float) -> float:
    """max |f| (1 + |v|^2 + I^(2/delta))^(q/2) over the nodes of a 5-D field."""
    v2 = np.asarray(v_axis, dtype=float) ** 2
    vsq = v2[:, None, None] + v2[None, :, None] + v2[None, None, :]
    eps = np.asarray(i_nodes, dtype=float) ** (2.0 / delta)
    w = (1.0 + vsq[..., None] + eps) ** (q / 2.0)
    return float((np.abs(values) * w).max())


def tiny_step(out_values, input_norm: float, tilde_norm: float, out_norm: float,
              ulps: float = 4.0) -> str | None:
    """One step on a random field: nonnegative output, no norm expansion by advection.

    ``input_norm`` is computed here from the input field; ``tilde_norm`` is
    the program's norm of the advected field.  The two weights are computed
    by different code, so a few units in the last place separate them.
    """
    bad = nonnegative_field(out_values, np.shape(out_values))
    if bad is not None:
        return bad
    if not math.isfinite(out_norm):
        return f"output norm {out_norm!r}"
    if not tilde_norm <= input_norm * (1.0 + ulps * np.finfo(float).eps):
        return f"advection expanded the weighted norm: {input_norm!r} -> {tilde_norm!r}"
    return None
