from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from polykin import Scenario, parse_scenario, read_snapshot, stepper
from polykin.cli import main
from polykin.errors import NonFiniteField, ParseError, ValidationError

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
    ])
    def test_overflowing_resolved_quantity_exits_2_naming_the_key(self, tmp_path, capsys,
                                                                  extra, key):
        path = write(tmp_path, override(TINY, extra))
        assert main(["simulate", str(path), "--out", str(tmp_path / "o")]) == 2
        assert f"error: {key}: " in capsys.readouterr().err

    @pytest.mark.parametrize("extra, code", [
        ("temperature = 1e-300", 2),  # the samples overflow to +inf
        ("kappa = 1e-300\nrho0 = 1e300", 3),  # the step-1 Gaussian prefactor overflows
        # f ln f overflows in the step-1 entropy
        ("v_max = 1e-26\ni_max = 1e-290\ntemperature = 1e17\ndelta = 1\nu0x = -1\n"
         "q = 10\nalpha = 0", 3),
    ])
    def test_typed_error_comes_without_numpy_warnings(self, tmp_path, extra, code):
        path = write(tmp_path, TINY + extra + "\n")
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

    def test_sweep_runs_without_envelope_monitor(self, tmp_path):
        # auto certification rejects two-state data, but a sweep reads no monitor
        text = SMOOTH.replace("ic = smooth", "ic = riemann") + "envelope = auto\n"
        scn = write(tmp_path, text)
        assert main(["sweep", str(scn), "--kappa", "1", "--out", str(tmp_path / "o")]) == 0

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
