from __future__ import annotations

import math

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
        path = write(tmp_path, MINIMAL + "mystery = 1\n")
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

    def test_validation_failure_exits_nonzero(self, tmp_path, capsys):
        scn = write(tmp_path, MINIMAL + "theta = 0.0\n")
        assert main(["simulate", str(scn), "--out", str(tmp_path / "o")]) == 2
        assert "error" in capsys.readouterr().err


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
