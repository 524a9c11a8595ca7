"""The four pinned workloads: their inputs, one timed round, and its checks.

A workload's ``setup`` builds its validated inputs (scenario files, parsed
and validated scenarios, grids, seeded fields).  ``run_round`` is the timed
work, called through polykin's public entry points; it returns the exit code
and, for direct library calls, their outputs.  ``check`` runs after the timed
region, with the ``run()`` results the benchmark captured, and returns the
round's operation count, the failed operations and the sha256 digests of the
final fields.  Digests are printed for reference only; they are never gated.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import shutil
from pathlib import Path

import numpy as np

import checks

RELAX_SCENARIO = """\
# criterion-4 grid, ten steps of homogeneous two-temperature relaxation
n_x = 2
n_v = 33
n_i = 256
v_max = 8.0
i_max = 40.0
nu = 0.0
theta = 1.0
delta = 2.0
kappa = 1.0
dt = 0.01
t_final = 0.1
ic = maxwellian
rho0 = 1.0
t_tr = 1.1
t_int = 0.85
snapshot_times = 0.1
"""

SWEEP_SCENARIO = """\
# criterion-8 scenario: smooth_wave at dt = 0.01 for 100 steps, envelope off
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

SWEEP_KAPPAS = "1,1e-2,1e-4,1e-6"
CONVERGENCE_LEVELS = [16, 32, 64]
CONVERGENCE_REFERENCE = 256
TINY_CALLS = 1008
NU_THETA = [(nu, theta) for nu in (-0.25, 0.0, 0.5, 0.9) for theta in (0.25, 0.5, 1.0)]


def digest(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).data).hexdigest()


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _cli(pk, rec, argv):
    """polykin's CLI in process; its console output is not the benchmark's."""
    with contextlib.redirect_stdout(io.StringIO()), rec.span("cli.main"):
        return pk.cli.main(argv), None


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@dataclasses.dataclass
class Checked:
    ops: int
    failures: dict[int, str]
    digests: list[tuple[str, str]]
    output_bytes: int = 0


def _all_failed(ops: int, why: str, digests=()) -> Checked:
    return Checked(ops, {i: why for i in range(ops)}, list(digests))


class RelaxLargeCell:
    name = "relax_large_cell"

    def setup(self, pk, seed, root: Path, work: Path):
        path = work / "relax_large_cell.txt"
        path.write_text(RELAX_SCENARIO, encoding="utf-8")
        scn = pk.scenario.parse_scenario(path)
        scn.validate()
        return {"path": path, "scn": scn, "out": work / "relax_out"}

    def run_round(self, pk, rec, inputs):
        out = _fresh_dir(inputs["out"])
        return _cli(pk, rec, ["simulate", str(inputs["path"]), "--out", str(out)])

    def check(self, pk, inputs, code, outputs, runs) -> Checked:
        scn = inputs["scn"]
        n_steps = scn.n_steps()
        out = inputs["out"]
        if code != 0 or len(runs) != 1:
            return _all_failed(n_steps, f"exit code {code}")
        final = runs[0].final
        digests = [("final", digest(final.values))]
        files = [out / "steps.csv", out / "macro.csv",
                 out / f"snapshot_t{scn.t_final:.6f}.bin"]  # cli's snapshot name
        output_bytes = sum(p.stat().st_size for p in files if p.exists())

        steps = _read_csv(files[0])
        failures: dict[int, str] = {}
        for n in range(len(steps), n_steps):
            failures[n] = "missing from steps.csv"
        rows = [(float(r["mass"]), (float(r["momentum1"]), float(r["momentum2"]),
                                    float(r["momentum3"])), float(r["energy"]))
                for r in steps]
        # exact invariants of the split-temperature Maxwellian
        energy0 = 0.5 * scn.rho0 * (3.0 * scn.t_tr + scn.delta * scn.t_int)
        failures.update(checks.conservation(rows, scn.rho0, (0.0, 0.0, 0.0), energy0,
                                            scn.delta))
        for n, why in checks.entropy_nonincreasing([float(r["entropy"]) for r in steps]).items():
            failures.setdefault(n, why)

        last = n_steps - 1
        macro = [r for r in _read_csv(files[1]) if abs(float(r["time"]) - scn.t_final) < 1e-12]
        why = checks.temperature_gap_decay(
            [float(r["t_tr"]) - float(r["t_int"]) for r in macro], scn.t_tr - scn.t_int,
            scn.kappa, scn.nu, scn.theta, scn.dt, n_steps)
        if why is not None:
            failures.setdefault(last, why)
        if files[2].exists():
            snap, _, _ = pk.field.read_snapshot(files[2])
            why = checks.nonnegative_field(snap.values, final.grid.field_shape)
            del snap
        else:
            why = "no snapshot at the final time"
        if why is not None:
            failures.setdefault(last, why)
        shutil.rmtree(out, ignore_errors=True)
        return Checked(n_steps, failures, digests, output_bytes)


class ConvergenceSmooth:
    name = "convergence_smooth"

    def setup(self, pk, seed, root: Path, work: Path):
        path = root / "scenarios" / "smooth_wave.txt"
        scn = pk.scenario.parse_scenario(path)
        for n_x in CONVERGENCE_LEVELS + [CONVERGENCE_REFERENCE]:
            dataclasses.replace(scn, n_x=n_x, dt=1.0 / n_x).validate()
        return {"path": path, "scn": scn, "out": work / "convergence_out"}

    def run_round(self, pk, rec, inputs):
        out = _fresh_dir(inputs["out"])
        levels = ",".join(str(n) for n in CONVERGENCE_LEVELS)
        return _cli(pk, rec, ["convergence", str(inputs["path"]), "--levels", levels,
                              "--reference", str(CONVERGENCE_REFERENCE), "--out", str(out)])

    def check(self, pk, inputs, code, outputs, runs) -> Checked:
        n_ops = len(CONVERGENCE_LEVELS)
        expected = CONVERGENCE_LEVELS + [CONVERGENCE_REFERENCE]
        if code != 0 or [r.grid.n_x for r in runs] != expected:
            return _all_failed(n_ops, f"exit code {code}")
        digests = [(f"n_x={r.grid.n_x}", digest(r.final.values)) for r in runs]
        table = _read_csv(inputs["out"] / "convergence.csv")
        if len(table) != n_ops:
            return _all_failed(n_ops, f"{len(table)} table rows", digests)
        failures = checks.convergence_orders(
            [float(r["h"]) for r in table], [float(r["error"]) for r in table],
            [float(r["observed_order"]) for r in table[1:]])
        for i, (row, n_x) in enumerate(zip(table, CONVERGENCE_LEVELS)):
            if float(row["h"]) != 1.0 / n_x:
                failures.setdefault(i, f"row h={row['h']} is not level {n_x}")
        shutil.rmtree(inputs["out"], ignore_errors=True)
        return Checked(n_ops, failures, digests)


class StiffSweep:
    name = "stiff_sweep"

    def setup(self, pk, seed, root: Path, work: Path):
        path = work / "stiff_sweep.txt"
        path.write_text(SWEEP_SCENARIO, encoding="utf-8")
        scn = pk.scenario.parse_scenario(path)
        kappas = [float(k) for k in SWEEP_KAPPAS.split(",")]
        for kappa in kappas:
            dataclasses.replace(scn, kappa=kappa).validate()
        return {"path": path, "kappas": kappas, "out": work / "sweep_out"}

    def run_round(self, pk, rec, inputs):
        out = _fresh_dir(inputs["out"])
        return _cli(pk, rec, ["sweep", str(inputs["path"]), "--kappa", SWEEP_KAPPAS,
                              "--out", str(out)])

    def check(self, pk, inputs, code, outputs, runs) -> Checked:
        kappas = inputs["kappas"]
        n_ops = len(kappas)
        if code != 0 or [r.kappa for r in runs] != kappas:
            return _all_failed(n_ops, f"exit code {code}")
        digests = [(f"kappa={r.kappa:g}", digest(r.final.values)) for r in runs]
        table = _read_csv(inputs["out"] / "sweep.csv")
        if [float(r["kappa"]) for r in table] != kappas:
            return _all_failed(n_ops, "sweep.csv rows do not match", digests)
        finite = [bool(np.isfinite(r.final.values).all()) for r in runs]
        failures = checks.equilibrium_distances(
            kappas, [float(r["final_equilibrium_distance"]) for r in table], finite)
        shutil.rmtree(inputs["out"], ignore_errors=True)
        return Checked(n_ops, failures, digests)


class TinySteps:
    name = "tiny_steps"

    def setup(self, pk, seed, root: Path, work: Path):
        """Criterion-1 make-up: random tiny grids, sparse random fields, random dt."""
        rng = np.random.default_rng(seed)
        calls = []
        for trial in range(TINY_CALLS):
            nu, theta = NU_THETA[trial % len(NU_THETA)]
            params = pk.params.SchemeParams(nu=nu, theta=theta, delta=2.0, kappa=1.0, q=8.0)
            config = pk.grid.GridConfig(
                n_x=int(rng.integers(2, 7)),
                n_v=int(rng.choice([3, 5])),
                v_max=float(rng.uniform(1.0, 3.0)),
                n_i=int(rng.integers(1, 7)),
                i_max=float(rng.uniform(1.0, 6.0)),
            )
            shape = (config.n_x, config.n_v, config.n_v, config.n_v, config.n_i)
            vals = rng.random(shape)
            vals *= rng.random(shape) > 0.3
            dt = float(10.0 ** rng.uniform(-3.0, -0.7))
            calls.append((config, vals, params, dt))
        return {"calls": calls}

    def run_round(self, pk, rec, inputs):
        build_grid = pk.grid.build_grid
        dist_field = pk.field.DistField
        step = pk.stepper.step
        outputs = []
        for config, vals, params, dt in inputs["calls"]:
            with rec.span("grid.build_grid"):
                grid = build_grid(config)
            outputs.append(step(dist_field(vals, grid), params, dt))
        return 0, outputs

    def check(self, pk, inputs, code, outputs, runs) -> Checked:
        if code != 0:
            return _all_failed(TINY_CALLS, f"exit code {code}")
        failures: dict[int, str] = {}
        h = hashlib.sha256()
        for i, ((config, vals, params, _), (out, report)) in enumerate(
                zip(inputs["calls"], outputs)):
            h.update(np.ascontiguousarray(out.values).data)
            norm = checks.weighted_sup_norm(vals, out.grid.v_axis, out.grid.i_nodes,
                                            params.q, params.delta)
            why = checks.tiny_step(out.values, norm, report.tilde_norm_q, report.norm_q)
            if why is not None:
                failures[i] = why
        return Checked(len(inputs["calls"]), failures, [("all outputs", h.hexdigest())])


WORKLOADS = {w.name: w for w in (RelaxLargeCell(), ConvergenceSmooth(), StiffSweep(),
                                 TinySteps())}
