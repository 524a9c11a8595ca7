from __future__ import annotations

import dataclasses
import io
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from polykin import (DistField, Scenario, cli, error_sup_norm, parse_scenario, read_snapshot,
                     stepper)
from polykin.cli import main
from polykin.diagnostics import observed_order
from polykin.errors import NonFiniteField, ParseError, ValidationError
from polykin.scenario import run_peak_bytes
from tests.test_acceptance import SMOOTH_SCENARIO, _read_orders

MINIMAL = """
# smallest viable configuration
n_x = 8
n_v = 5
n_i = 4
dt = 0.05
t_final = 0.2
"""

SMOOTH = """
n_x = 8
n_v = 5
n_i = 4
v_max = 2.0
i_max = 2.0
nu = 0.5
theta = 0.8
kappa = 1.0
dt = 0.05
t_final = 0.2
ic = smooth
alpha = 0.2
"""

TINY = "n_x = 4\nn_v = 5\nn_i = 4\ndt = 0.1\nt_final = 0.2\nic = smooth\n"


def _record_run_modes(monkeypatch) -> list:
    """Wrap stepper.run to record (n_x, kappa, diagnostics) of each call."""
    real, modes = stepper.run, []

    def recording(scn, snapshot_writer=None, diagnostics="all"):
        modes.append((scn.n_x, scn.kappa, diagnostics))
        return real(scn, snapshot_writer, diagnostics)

    monkeypatch.setattr(stepper, "run", recording)
    return modes


def write(tmp_path, text, name="scn.txt"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def override(text, extra):
    """text with the lines of extra replacing any line that sets the same key."""
    keys = {line.partition("=")[0].strip() for line in extra.splitlines()}
    kept = [line for line in text.splitlines() if line.partition("=")[0].strip() not in keys]
    return "\n".join(kept + extra.splitlines()) + "\n"


class TestParse:
    def test_minimal_file_gets_defaults(self, tmp_path):
        scn = parse_scenario(write(tmp_path, MINIMAL))
        assert scn.resolved_v_max() == 8.0 * math.sqrt(1.0)
        assert scn.resolved_q() == 8.0
        assert scn.resolved_i_max() == 32.0
        scn.validate()

    def test_riemann_extents_default_from_the_hotter_state(self, tmp_path):
        scn = parse_scenario(write(tmp_path, MINIMAL + "ic = riemann\nt_left = 2\nt_right = 0.5\n"))
        assert scn.resolved_v_max() == 8.0 * math.sqrt(2.0)
        assert scn.resolved_i_max() == 64.0
        scn.validate()

    def test_theta_zero_rejected(self, tmp_path):
        path = write(tmp_path, MINIMAL + "theta = 0.0\n")
        with pytest.raises(ValidationError):
            parse_scenario(path)

    def test_non_integer_step_count_rejected(self, tmp_path):
        path = write(tmp_path, MINIMAL.replace("dt = 0.05", "dt = 0.3").replace(
            "t_final = 0.2", "t_final = 1.0"))
        with pytest.raises(ValidationError) as exc:
            parse_scenario(path)
        assert exc.value.field == "dt"

    def test_unknown_key_reports_line(self, tmp_path):
        for line in ("mystery = 1", "out_dir = x"):  # --out names the output directory
            path = write(tmp_path, MINIMAL + line + "\n")
            with pytest.raises(ParseError) as exc:
                parse_scenario(path)
            assert exc.value.line_no == 8

    def test_bad_value_reports_line(self, tmp_path):
        path = write(tmp_path, MINIMAL.replace("dt = 0.05", "dt = fast"))
        with pytest.raises(ParseError):
            parse_scenario(path)

    def test_duplicate_key_names_both_lines(self, tmp_path):
        path = write(tmp_path, MINIMAL + "dt = 0.1\n")
        with pytest.raises(ParseError) as exc:
            parse_scenario(path)
        assert exc.value.line_no == 8
        assert "line 6" in str(exc.value)

    def test_misspelt_boolean_rejected(self, tmp_path):
        path = write(tmp_path, MINIMAL + "raw_jump = ture\n")
        with pytest.raises(ParseError) as exc:
            parse_scenario(path)
        assert exc.value.line_no == 8

    def test_unknown_envelope_mode_rejected(self, tmp_path):
        # sweep and convergence never certify an envelope, so validation must catch it
        path = write(tmp_path, SMOOTH + "envelope = bogus\n")
        assert main(["sweep", str(path), "--kappa", "1", "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("t", [0.15, 0.6, 0.0], ids=["off_lattice", "past_end", "zero"])
    def test_snapshot_time_must_be_a_step_time(self, t):
        scn = Scenario(n_x=4, n_v=5, n_i=4, dt=0.1, t_final=0.5, v_max=2.0, i_max=2.0,
                       snapshot_times=(t,))
        with pytest.raises(ValidationError) as exc:
            scn.validate()
        assert exc.value.field == "snapshot_times"

    @pytest.mark.parametrize("extra, key", [
        ("t_final = nan", "t_final"),
        ("t_final = inf", "t_final"),
        ("v_max = nan", "v_max"),
        ("kappa = nan", "kappa"),
        ("rho0 = nan", "rho0"),
        ("u0y = -inf", "u0"),
        ("snapshot_times = 0.1, nan", "snapshot_times"),
    ])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, extra, key):
        path = write(tmp_path, override(SMOOTH, extra))
        assert main(["simulate", str(path), "--out", str(tmp_path / "o")]) == 2
        assert f"error: {key}: " in capsys.readouterr().err

    @pytest.mark.parametrize("extra, key", [
        ("envelope = explicit\nc01 = -1\nc02 = 0.5", "c01"),
        ("envelope = explicit\nc01 = 1\nc02 = 0", "c02"),
        ("envelope = auto\na_exp = 0", "a_exp"),
        ("envelope = auto\nb_exp = -1", "b_exp"),
        ("ic = riemann\nsmooth_cells = 0", "smooth_cells"),
        ("ic = riemann\nsmooth_cells = -2", "smooth_cells"),
    ])
    def test_non_positive_shape_constant_exits_2(self, tmp_path, capsys, extra, key):
        path = write(tmp_path, override(SMOOTH, extra))
        assert main(["simulate", str(path), "--out", str(tmp_path / "o")]) == 2
        assert f"error: {key}: " in capsys.readouterr().err

    @pytest.mark.parametrize("text, prefix", [
        (override(SMOOTH, "ic = bogus"), "ic"),
        (override(SMOOTH, "dt = 0"), "dt"),
        (override(SMOOTH, "t_final = -1"), "t_final"),
        (override(SMOOTH, "alpha = 1.5"), "alpha"),
        (override(SMOOTH, "rho0 = -1"), "rho0"),
        (override(SMOOTH, "rho_left = 0"), "rho_left"),
        (override(SMOOTH, "t_tr = -2"), "t_tr"),
        (override(SMOOTH, "n_x = 1"), "grid"),
        (override(SMOOTH, "v_max = -1"), "v_max"),
        (override(SMOOTH, "i_max = -1\ndelta = 1.5"), "i_max"),  # no complex i_max^(2/delta)
        (override(SMOOTH, "envelope = explicit\nc02 = 0.5"), "envelope"),  # no c01
        ("n_x 8\n" + SMOOTH, "scn.txt:1"),  # a ParseError naming the file's line
    ], ids=["ic", "dt", "t_final", "alpha", "rho0", "rho_left", "t_tr", "n_x", "v_max", "i_max",
            "envelope", "no_equals"])
    def test_inadmissible_scenario_exits_2_naming_the_key(self, tmp_path, capsys, text,
                                                          prefix):
        path = write(tmp_path, text)
        assert main(["simulate", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert re.match(rf"error: (\S*/)?{re.escape(prefix)}: ", err), err
        assert err.count("\n") == 1, err

    def test_raw_jump_ignores_smooth_cells(self):
        Scenario(n_x=4, n_v=5, n_i=4, dt=0.1, t_final=0.5, v_max=2.0, i_max=2.0,
                 ic="riemann", raw_jump=True, smooth_cells=0.0).validate()

    def test_missing_required_key(self, tmp_path):
        path = write(tmp_path, "n_x = 8\nn_v = 5\nn_i = 4\ndt = 0.1\n")
        with pytest.raises(ValidationError) as exc:
            parse_scenario(path)
        assert exc.value.field == "t_final"


class TestSimulate:
    def test_smoke_run_writes_outputs(self, tmp_path):
        scn = write(tmp_path, SMOOTH + "snapshot_times = 0.1, 0.2\n")
        out = tmp_path / "out"
        assert main(["simulate", str(scn), "--out", str(out)]) == 0
        steps = (out / "steps.csv").read_text().splitlines()
        assert steps[0].startswith("time,mass,")
        assert len(steps) == 5  # header + 4 steps
        macro = (out / "macro.csv").read_text().splitlines()
        assert macro[0].startswith("time,x,rho,")
        assert len(macro) == 17  # header + 8 cells at each of the two snapshot times
        times = sorted({float(row.split(",")[0]) for row in macro[1:]})
        assert times == pytest.approx([0.1, 0.2])
        snaps = sorted(out.glob("snapshot_*.bin"))
        assert len(snaps) == 2
        field, delta, q = read_snapshot(snaps[0])
        assert field.grid.n_x == 8
        assert (field.values >= 0).all()
        for line in steps[1:]:
            assert all(math.isfinite(float(tok)) for tok in line.split(","))

    def test_deterministic_outputs(self, tmp_path):
        scn = write(tmp_path, SMOOTH)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", str(scn), "--out", str(out1)]) == 0
        assert main(["simulate", str(scn), "--out", str(out2)]) == 0
        assert (out1 / "steps.csv").read_bytes() == (out2 / "steps.csv").read_bytes()
        assert (out1 / "macro.csv").read_bytes() == (out2 / "macro.csv").read_bytes()

    def test_steps_csv_does_not_depend_on_the_blas_thread_count(self, tmp_path):
        # 35,937 velocity nodes: OpenBLAS splits a dot this long over its threads, so
        # momentum and energy taken as dots moved in their last bits from 1 thread to 2.
        # At (n_v, n_i) = (17, 256) a cell is 39 row tiles, each contracted on its own,
        # and the snapshot holds the field that the tiled moments fed
        src = str(Path(__file__).resolve().parents[1] / "src")
        for n_v, n_i in [(33, 2), (17, 256)]:
            scn = write(tmp_path, f"n_x = 2\nn_v = {n_v}\nn_i = {n_i}\nv_max = 8.0\n"
                                  "i_max = 40.0\ndt = 0.01\nt_final = 0.02\nt_tr = 1.1\n"
                                  "t_int = 0.85\nsnapshot_times = 0.02\n")
            outputs = []
            for threads in ("1", "2"):
                env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                           PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
                out = tmp_path / f"{n_v}-{n_i}-threads{threads}"
                subprocess.run([sys.executable, "-m", "polykin.cli", "simulate", str(scn),
                                "--out", str(out)], check=True, capture_output=True, env=env,
                               timeout=120)
                outputs.append([(out / name).read_bytes()
                                for name in ("steps.csv", "snapshot_t0.020000.bin")])
            assert outputs[0] == outputs[1], (n_v, n_i)

    def test_non_finite_field_exits_3(self, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise NonFiniteField(3, math.nan)

        monkeypatch.setattr(stepper, "run", fail)
        scn = write(tmp_path, SMOOTH)
        assert main(["simulate", str(scn), "--out", str(tmp_path / "o")]) == 3
        assert "cell 3" in capsys.readouterr().err

    def test_non_finite_initial_data_exits_2(self, tmp_path, capsys):
        # (2*pi*T)^1.5 underflows, so every sample of the Gaussian initial data is +inf
        path = write(tmp_path, TINY + "temperature = 1e-300\n")
        assert main(["simulate", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "error: initial data has non-finite sample inf" in err

    def test_non_finite_gaussian_exits_3_naming_step_and_cell(self, tmp_path, capsys):
        # the temperature collapses at step 1 and the Gaussian prefactor overflows
        path = write(tmp_path, TINY + "kappa = 1e-300\nrho0 = 1e300\n")
        assert main(["simulate", str(path), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "step " in err and "cell " in err and "Gaussian prefactor inf" in err

    def test_validation_failure_exits_nonzero(self, tmp_path, capsys):
        scn = write(tmp_path, MINIMAL + "theta = 0.0\n")
        assert main(["simulate", str(scn), "--out", str(tmp_path / "o")]) == 2
        assert "error" in capsys.readouterr().err


class TestExtremeFiniteInputs:
    def test_step_count_cap_exits_2_at_once(self, tmp_path, capsys):
        path = write(tmp_path, override(TINY, "dt = 1e-300"))
        start = time.perf_counter()
        assert main(["simulate", str(path), "--out", str(tmp_path / "o")]) == 2
        assert time.perf_counter() - start < 1.0
        assert "error: dt: " in capsys.readouterr().err

    def test_step_count_rounding_to_zero_exits_2(self, tmp_path, capsys):
        # t_final/dt = 2e-10 is within 1e-9 of the integer 0
        path = write(tmp_path, override(TINY, "dt = 1e9"))
        assert main(["simulate", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "error: dt: " in capsys.readouterr().err
        assert not (tmp_path / "o" / "steps.csv").exists()

    @pytest.mark.parametrize("extra, key", [
        ("delta = 1e-3\ni_max = 2.0", "delta"),  # i_max^(2/delta) = 2^2000
        ("temperature = 1e300", "temperature"),  # (2*pi*T)^1.5
        ("q = 1e300", "q"),  # the norm weight (1 + |v|^2 + eps)^(q/2)
        ("n_v = 3\nn_i = 2\ndt = 1e308\nt_final = 1e308", "dt"),  # the foot offset v_max*dt*n_x
    ])
    def test_overflowing_resolved_quantity_exits_2_naming_the_key(self, tmp_path, capsys,
                                                                  extra, key):
        path = write(tmp_path, override(TINY, extra))
        assert main(["simulate", str(path), "--out", str(tmp_path / "o")]) == 2
        assert f"error: {key}: " in capsys.readouterr().err

    @pytest.mark.parametrize("extra, key", [
        ("temperature = -1", "temperature"),
        ("temperature = 0", "temperature"),
        ("ic = riemann\nt_left = -1\nt_right = -2", "t_left"),
        ("temperature = -1\nv_max = 4\ndelta = 1", "temperature"),
        ("delta = 1000", "delta"),  # the defaulted i_max = 32^500
        ("temperature = 1e300\ndelta = 4", "temperature"),
    ], ids=["negative_t", "zero_t", "riemann_negative_t", "negative_t_delta_1", "delta_1000",
            "huge_t_delta_4"])
    def test_inputs_of_the_defaulted_extents_are_checked_before_the_grid(self, tmp_path,
                                                                         capsys, extra, key):
        # v_max = 8*sqrt(T) and i_max = (32*T)^(delta/2) are derived from checked inputs
        path = write(tmp_path, override(TINY, extra))
        assert main(["simulate", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}: ") and err.count("\n") == 1, err

    def test_grid_beyond_physical_memory_exits_2_naming_it(self, tmp_path, capsys):
        # 7.4 TB per field: rejected by validate() before anything is allocated
        path = write(tmp_path, override(TINY, "n_x = 100000\nn_v = 33\nn_i = 256"))
        assert main(["simulate", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: grid: n_x = 100000, n_v = 33, n_i = 256 needs "), err
        assert ("GB at peak (one field, the moments, a block of cells' contraction and "
                "Gaussian factors, cell and velocity tables, a velocity slab and an advection "
                "chunk)") in err
        assert "physical memory" in err

    def test_grid_that_fits_one_field_but_not_two_validates(self):
        # a run holds one field: 0.6 of physical memory per field passes validate(),
        # which allocates nothing of that size
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        n_x = int(0.6 * memory / (8 * 33**3 * 256))
        scn = Scenario(n_x=n_x, n_v=33, v_max=8.0, n_i=256, i_max=40.0, dt=0.01, t_final=0.1)
        grid, _ = scn.validate()
        assert grid.n_x == n_x

    def test_grid_whose_field_fits_validates_at_one_energy_node(self):
        # compute_moments contracts one block of cells at a time, so at n_i = 1 a field of
        # 0.4 of physical memory passes validate(): the guard counts the moments at 139
        # doubles a cell against a 33^3 cell, not a whole-stack contraction of two fields
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        n_x = int(0.4 * memory / (8 * 33**3))
        scn = Scenario(n_x=n_x, n_v=33, v_max=8.0, n_i=1, i_max=40.0, dt=0.01, t_final=0.1)
        grid, _ = scn.validate()
        assert grid.n_x == n_x
        assert run_peak_bytes(n_x, 33, 1) < 1.1 * 8 * n_x * 33**3

    @pytest.mark.parametrize("extra, code", [
        ("temperature = 1e-300", 2),  # the samples overflow to +inf
        # finite, but the foot offset v_max*dt*n_x overflows: rejected before the run
        ("n_v = 3\nn_i = 2\ndt = 1e308\nt_final = 1e308", 2),
        ("kappa = 1e-300\nrho0 = 1e300", 3),  # the step-1 Gaussian prefactor overflows
        # f ln f overflows in the step-1 entropy
        ("v_max = 1e-26\ni_max = 1e-290\ntemperature = 1e17\ndelta = 1\nu0x = -1\n"
         "q = 10\nalpha = 0", 3),
    ])
    def test_typed_error_comes_without_numpy_warnings(self, tmp_path, extra, code):
        path = write(tmp_path, override(TINY, extra))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run(
            [sys.executable, "-m", "polykin.cli", "simulate", str(path),
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == code
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert "RuntimeWarning" not in proc.stderr


class TestConvergenceCli:
    def test_coupled_order_off_unit_knudsen_number(self, tmp_path):
        # the paper's estimate holds for every fixed Knudsen number: criterion 6's study
        # and bound at kappa = 1e-2, where c_m > 1/2 takes the other blend branch
        scn = write(tmp_path, override(SMOOTH_SCENARIO, "kappa = 0.01"))
        out = tmp_path / "conv"
        assert main(["convergence", str(scn), "--levels", "16,32,64", "--reference", "256",
                     "--out", str(out)]) == 0
        orders = _read_orders(out / "convergence.csv")
        assert len(orders) == 2
        for order in orders:
            assert 0.75 <= order <= 1.25, f"observed orders {orders}"

    def test_coupled_errors_read_the_reference_where_it_lies(self, tmp_path, monkeypatch):
        # one error_sup_norm call a level, against the reference's cells at the level's nodes
        # as a strided view, not a copy: the norm a restricted copy gives
        real, calls = cli.error_sup_norm, []

        def recording(a, b, q, delta):
            copy = DistField(np.ascontiguousarray(b).reshape(a.grid.field_shape), a.grid)
            calls.append((a.grid.n_x, isinstance(b, DistField) or b.flags.c_contiguous,
                          real(a, b, q, delta) == real(a, copy, q, delta)))
            return real(a, b, q, delta)

        monkeypatch.setattr(cli, "error_sup_norm", recording)
        scn = write(tmp_path, SMOOTH.replace("t_final = 0.2", "t_final = 0.25"))
        assert main(["convergence", str(scn), "--levels", "4,8,16", "--reference", "32",
                     "--out", str(tmp_path / "o")]) == 0
        assert calls == [(4, False, True), (8, False, True), (16, False, True)]

    def test_levels_run_without_diagnostics_and_give_the_diagnosed_runs_table(self, tmp_path,
                                                                                 monkeypatch):
        # the study reads each run's final field alone, so no run takes a diagnostic, and
        # its table is the one the fields of fully diagnosed runs give, byte for byte
        modes = _record_run_modes(monkeypatch)
        path = write(tmp_path, SMOOTH.replace("t_final = 0.2", "t_final = 0.25"))
        out = tmp_path / "o"
        assert main(["convergence", str(path), "--levels", "4,8,16", "--reference", "32",
                     "--out", str(out)]) == 0
        assert modes == [(n_x, 1.0, "off") for n_x in (4, 8, 16, 32)]
        scn = parse_scenario(path)
        _, params = scn.validate()
        finals = {n_x: stepper.run(dataclasses.replace(scn, n_x=n_x, dt=1.0 / n_x),
                                   diagnostics="all").final for n_x in (4, 8, 16, 32)}
        errors = [error_sup_norm(finals[n_x], finals[32].cells[:: 32 // n_x], params.q,
                                 params.delta) for n_x in (4, 8, 16)]
        expected = io.StringIO()
        observed_order(list(zip([1 / 4, 1 / 8, 1 / 16], errors)),
                       labels=["n_x=4", "n_x=8", "n_x=16"]).to_csv(expected)
        assert (out / "convergence.csv").read_bytes() == expected.getvalue().encode()

    def test_duplicate_levels_rejected(self, tmp_path):
        scn = write(tmp_path, SMOOTH)
        code = main([
            "convergence", str(scn), "--levels", "8,8,16",
            "--reference", "32", "--out", str(tmp_path / "o"),
        ])
        assert code == 2

    def test_reference_must_be_finer(self, tmp_path):
        scn = write(tmp_path, SMOOTH)
        code = main([
            "convergence", str(scn), "--levels", "8,16,32",
            "--reference", "32", "--out", str(tmp_path / "o"),
        ])
        assert code == 2

    def test_reference_beyond_physical_memory_exits_2_before_any_level(self, tmp_path,
                                                                         capsys):
        # the reference level alone would need 783 GB per field; no level may run first
        text = override(SMOOTH, "n_v = 9\nn_i = 32\ndt = 0.0625\nt_final = 0.0625")
        scn = write(tmp_path, text)
        code = main(["convergence", str(scn), "--levels", "16,32,64",
                     "--reference", str(2**22), "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"error: grid: n_x = {2**22}, n_v = 9, n_i = 32 needs ")
        assert "level" not in captured.out

    @pytest.mark.parametrize("transport_only", [False, True], ids=["coupled", "transport_only"])
    def test_study_beyond_physical_memory_exits_2_before_any_level(self, tmp_path, capsys,
                                                                 monkeypatch, transport_only):
        # its finest run fits the single-run guard, but not beside the other levels' fields
        # (and, transport-only, an exact field): rejected before anything is allocated
        def no_run(*args, **kwargs):
            raise AssertionError("a level ran")

        monkeypatch.setattr(stepper, "run", no_run)
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        cell = 8 * 33**3
        if transport_only:  # the finest level: 0.55 of memory, beside a half and a quarter;
            # its error loop holds every level's field and the coarsest's exact one, 1.1
            finest = 4 * int(0.55 * memory / cell / 4)
            levels, reference = [finest // 4, finest // 2, finest], 2 * finest
        else:  # the reference: 0.6 of memory, beside an eighth, a quarter and a half
            finest = 8 * int(0.6 * memory / cell / 8)
            levels, reference = [finest // 8, finest // 4, finest // 2], finest
        assert run_peak_bytes(finest, 33, 1) < memory
        scn = write(tmp_path, f"n_x = 8\nn_v = 33\nn_i = 1\nv_max = 8.0\ni_max = 40.0\n"
                              f"dt = {1 / finest!r}\nt_final = 0.25\n")
        argv = ["convergence", str(scn), "--levels", ",".join(map(str, levels)),
                "--reference", str(reference), "--out", str(tmp_path / "o")]
        tracemalloc.start()
        try:
            code = main(argv + (["--transport-only"] if transport_only else []))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert code == 2
        key = "levels" if transport_only else "reference"
        assert captured.err.startswith(f"error: {key}: levels {levels} and reference "
                                       f"{reference} need "), captured.err
        assert "physical memory" in captured.err
        assert "level" not in captured.out
        assert peak < 64 * 2**20, peak

    def test_transport_only_study_that_fits_reaches_its_first_level(self, tmp_path,
                                                                    monkeypatch):
        # finest level 0.45 of memory, beside a half and a quarter: its runs peak near 0.8
        # and its error loop at 0.9 (level i's exact field beside levels i on), so the guard
        # lets it run
        def no_run(*args, **kwargs):
            raise AssertionError("a level ran")

        monkeypatch.setattr(stepper, "run", no_run)
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        finest = 4 * int(0.45 * memory / (8 * 33**3) / 4)
        levels = [finest // 4, finest // 2, finest]
        scn = write(tmp_path, f"n_x = 8\nn_v = 33\nn_i = 1\nv_max = 8.0\ni_max = 40.0\n"
                              f"dt = {1 / finest!r}\nt_final = 0.25\n")
        with pytest.raises(AssertionError, match="a level ran"):
            main(["convergence", str(scn), "--levels", ",".join(map(str, levels)),
                  "--reference", str(2 * finest), "--out", str(tmp_path / "o"),
                  "--transport-only"])

    def test_transport_only_smoke(self, tmp_path):
        # tiny sizes: exercises the machinery, not the observed order
        text = SMOOTH.replace("t_final = 0.2", "t_final = 0.1")
        scn = write(tmp_path, text)
        out = tmp_path / "conv"
        code = main([
            "convergence", str(scn), "--levels", "4,8,16", "--reference", "32",
            "--transport-only", "--out", str(out),
        ])
        assert code == 0
        lines = (out / "convergence.csv").read_text().splitlines()
        assert lines[0] == "level,h,error,observed_order"
        assert len(lines) == 4
        assert (out / "convergence.md").exists()

    def test_readme_transport_only_command_gives_second_order(self, tmp_path):
        # the README's transport-only command, run from the root of the tree
        root = Path(__file__).resolve().parents[1]
        line = next(ln for ln in (root / "README.md").read_text(encoding="utf-8").splitlines()
                    if ln.startswith("polykin convergence") and "--transport-only" in ln)
        argv = line.split()[1:]
        assert argv[1] == "scenarios/transport_wave.txt"
        argv[1] = str(root / argv[1])
        out = tmp_path / "conv"
        assert main(argv + ["--out", str(out)]) == 0
        rows = (out / "convergence.csv").read_text().splitlines()[2:]  # header, coarsest
        orders = [float(row.rsplit(",", 1)[1]) for row in rows]
        assert len(orders) == 2 and all(1.75 <= o <= 2.25 for o in orders), orders


class TestInitialConditionFamilies:
    def test_riemann_smoothed_run(self, tmp_path):
        # a finer spatial grid keeps the 2-cell smoothing narrow enough to
        # retain most of the 8x density contrast
        text = SMOOTH.replace("ic = smooth", "ic = riemann").replace("n_x = 8", "n_x = 32")
        text += (
            "rho_left = 1.0\nu_left = 0.0\nt_left = 1.0\n"
            "rho_right = 0.125\nu_right = 0.0\nt_right = 0.8\nsmooth_cells = 2\n"
        )
        scn = parse_scenario(write(tmp_path, text))
        from polykin import run

        res = run(scn)
        assert (res.final.values >= 0).all()
        assert all(math.isfinite(r.entropy) for r in res.reports)
        # the sampled initial profile carries the full two-state contrast
        from polykin import compute_moments, make_initial, sample

        grid, params = scn.validate()
        f0 = sample(make_initial(scn, grid), grid, 0.0)
        macro0 = compute_moments(f0, params, dt=0.0)
        assert macro0.rho.max() > 4 * macro0.rho.min()
        compute_moments(res.final, params, dt=0.0)  # final state stays admissible

    def test_riemann_raw_jump_flag(self, tmp_path):
        text = SMOOTH.replace("ic = smooth", "ic = riemann") + "raw_jump = true\n"
        scn = parse_scenario(write(tmp_path, text))
        assert scn.raw_jump
        from polykin import make_initial

        grid, _ = scn.validate()
        ic = make_initial(scn, grid)
        inside = ic(np.array(0.5 - 1e-9), 0.0, 0.0, 0.0, np.array(0.0))
        outside = ic(np.array(0.9), 0.0, 0.0, 0.0, np.array(0.0))
        # 8x density jump, partly offset by the colder right state's peak
        assert inside > 4 * outside

    def test_auto_envelope_without_a_positive_bound_exits_2(self, tmp_path, capsys):
        # the slow decay c02 = 0.01 lies above the Gaussian's tail out at v_max = 40
        text = ("n_x = 4\nn_v = 9\nn_i = 4\nv_max = 40\ni_max = 8\ndt = 0.05\nt_final = 0.1\n"
                "ic = smooth\nenvelope = auto\nc02 = 0.01\n")
        assert main(["simulate", str(write(tmp_path, text)), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == "error: envelope: initial data does not admit a positive envelope\n"

    def test_riemann_auto_envelope_rejected(self, tmp_path):
        text = SMOOTH.replace("ic = smooth", "ic = riemann") + "envelope = auto\n"
        scn = parse_scenario(write(tmp_path, text))
        from polykin import certified_envelope
        from polykin.errors import ValidationError as VErr

        grid, _ = scn.validate()
        with pytest.raises(VErr):
            certified_envelope(scn, grid)

    def test_non_default_degrees_of_freedom_run(self):
        # delta = 1 (internal energy I^2) on a grid resolved well enough that
        # conservation holds at the quadrature floor
        from polykin import Scenario, run

        scn = Scenario(
            n_x=8, n_v=13, n_i=24, dt=0.05, t_final=0.2,
            nu=0.5, theta=0.8, delta=1.0, kappa=1.0, q=6.5,
            ic="smooth", alpha=0.2, v_max=6.0, i_max=6.0,
        )
        res = run(scn)
        assert (res.final.values >= 0).all()
        m0, _, e0 = res.initial_conserved
        assert res.reports[-1].mass == pytest.approx(m0, rel=1e-6)
        assert res.reports[-1].energy == pytest.approx(e0, rel=1e-5)


class TestSweepCli:
    def test_empty_kappa_list_rejected(self, tmp_path):
        scn = write(tmp_path, SMOOTH)
        assert main(["sweep", str(scn), "--kappa", "", "--out", str(tmp_path / "o")]) == 2

    def test_nonpositive_kappa_rejected(self, tmp_path):
        scn = write(tmp_path, SMOOTH)
        assert main(["sweep", str(scn), "--kappa", "1,0", "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_kappa_exits_2_before_any_run(self, tmp_path, capsys, monkeypatch,
                                                     value):
        # every kappa's scenario is validated before the first kappa runs
        runs = []
        monkeypatch.setattr(stepper, "run", lambda *args, **kwargs: runs.append(args))
        scn = write(tmp_path, SMOOTH)
        code = main(["sweep", str(scn), "--kappa", f"1,{value}", "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2 and not runs
        assert err == f"error: kappa: {value} is not a finite number\n", err

    @pytest.mark.parametrize("rho0, message", [
        # kappa = 1 runs; at kappa = 1e-300 the step-1 Gaussian prefactor overflows
        ("1e200", "kappa=1e-300: step 1: cell 0: Gaussian prefactor inf"),
        # kappa = 1 runs, and its final state's Gaussian prefactor overflows
        ("1e250", "kappa=1: cell 0: Gaussian prefactor inf"),
    ], ids=["step", "distance"])
    def test_an_error_names_its_kappa(self, tmp_path, capsys, rho0, message):
        path = write(tmp_path, TINY + f"rho0 = {rho0}\n")
        assert main(["sweep", str(path), "--kappa", "1,1e-300",
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1, err

    def test_sweep_runs_without_envelope_monitor(self, tmp_path):
        # auto certification rejects two-state data, but a sweep reads no monitor
        text = SMOOTH.replace("ic = smooth", "ic = riemann") + "envelope = auto\n"
        scn = write(tmp_path, text)
        assert main(["sweep", str(scn), "--kappa", "1", "--out", str(tmp_path / "o")]) == 0

    def test_each_kappa_runs_with_its_norms_and_sums_alone(self, tmp_path, monkeypatch):
        # the finite column reads each step's norm_q and mass, and nothing reads the entropy
        modes = _record_run_modes(monkeypatch)
        scn = write(tmp_path, SMOOTH)
        assert main(["sweep", str(scn), "--kappa", "1,1e-2", "--out", str(tmp_path / "o")]) == 0
        assert modes == [(8, 1.0, "no_entropy"), (8, 1e-2, "no_entropy")]

    def test_zero_step_sweep_writes_finite_distance(self, tmp_path):
        # no steps, no reports: the distance is taken from the initial field
        scn = write(tmp_path, SMOOTH.replace("t_final = 0.2", "t_final = 0.0"))
        out = tmp_path / "sw"
        assert main(["sweep", str(scn), "--kappa", "1", "--out", str(out)]) == 0
        _, row = (out / "sweep.csv").read_text().splitlines()
        kappa, finite, dist = row.split(",")
        assert finite == "1"
        assert math.isfinite(float(dist)) and float(dist) > 0.0

    def test_smoke_sweep(self, tmp_path):
        scn = write(tmp_path, SMOOTH)
        out = tmp_path / "sw"
        assert main(["sweep", str(scn), "--kappa", "1,1e-2", "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "kappa,finite,final_equilibrium_distance"
        assert len(lines) == 3
        for line in lines[1:]:
            kappa, finite, dist = line.split(",")
            assert finite == "1"
            assert math.isfinite(float(dist))


@pytest.mark.parametrize("argv, option", [
    (["convergence", "--levels", "0,2,4", "--reference", "8"], "levels"),
    (["convergence", "--levels", "a,b,c", "--reference", "8"], "levels"),
    (["convergence", "--levels", "2,4,8", "--reference", "x"], "reference"),
    (["sweep", "--kappa", "abc"], "kappa"),
], ids=["zero_level", "bad_level", "bad_reference", "bad_kappa"])
def test_bad_cli_number_exits_2_naming_the_option(tmp_path, capsys, argv, option):
    scn = write(tmp_path, SMOOTH)
    assert main([argv[0], str(scn), *argv[1:], "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {option}: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv, out, code, fragment", [
    (["convergence", "--levels", "16,32", "--reference", "64"], "o", 2, "error: levels: "),
    (["convergence", "--levels", "16,32,64", "--reference", "100"], "o", 2, "not divisible"),
    (["simulate"], "taken", 4, "io error: "),  # --out names an existing file
], ids=["two_levels", "indivisible_reference", "out_is_a_file"])
def test_cli_misuse_exits_with_its_code(tmp_path, capsys, argv, out, code, fragment):
    scn = write(tmp_path, SMOOTH)
    (tmp_path / "taken").write_text("", encoding="utf-8")
    assert main([argv[0], str(scn), *argv[1:], "--out", str(tmp_path / out)]) == code
    err = capsys.readouterr().err
    assert fragment in err and err.count("\n") == 1, err
