"""Command-line driver: simulate, convergence, and stiffness-sweep runs."""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

from . import stepper
from .diagnostics import equilibrium_distance, observed_order
from .errors import NonFiniteField, NonFiniteGaussian, PolykinError, ValidationError
from .field import DistField, error_sup_norm, sample, write_snapshot
from .moments import MACRO_CSV_HEADER, compute_moments, write_macro_csv
from .scenario import (Scenario, make_initial, parse_scenario, physical_memory,
                       run_peak_bytes)


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _number(option: str, text: str, kind):
    try:
        return kind(text)
    except ValueError:
        raise ValidationError(option, f"expected {kind.__name__}, got {text.strip()!r}") from None


def cmd_simulate(args) -> int:
    scn = parse_scenario(args.scenario)
    out = _out_dir(args)
    grid, params = scn.validate()

    snapshots = []
    macro_rows = []  # (time, macro) at every snapshot time, plus the final state

    def writer(time, field_obj):
        path = out / f"snapshot_t{time:.6f}.bin"
        write_snapshot(path, field_obj, params.delta, params.q)
        snapshots.append(path)
        macro_rows.append((time, compute_moments(field_obj, params, dt=0.0)))

    result = stepper.run(scn, snapshot_writer=writer)

    final_time = result.reports[-1].time if result.reports else 0.0
    if not macro_rows or macro_rows[-1][0] != final_time:
        macro_rows.append((final_time, compute_moments(result.final, params, dt=0.0)))

    with open(out / "steps.csv", "w", encoding="utf-8") as fh:
        stepper.write_step_csv(fh, result.reports)
    with open(out / "macro.csv", "w", encoding="utf-8") as fh:
        fh.write(MACRO_CSV_HEADER)
        for t_row, macro in macro_rows:
            write_macro_csv(fh, t_row, grid, macro)

    bad = [r.step for r in result.reports if not all(map(math.isfinite, r.csv_row()))]
    if bad:
        print(f"error: non-finite report at step {bad[0]}", file=sys.stderr)
        return 3
    print(f"simulate: {len(result.reports)} steps -> {out / 'steps.csv'}")
    if snapshots:
        print(f"simulate: wrote {len(snapshots)} snapshots")
    return 0


def _coupled_levels(levels: list[int], reference: int):
    if levels[0] < 1 or any(levels[i + 1] <= levels[i] for i in range(len(levels) - 1)):
        raise ValidationError("levels", f"levels must be positive and strictly increase: {levels}")
    if reference <= levels[-1]:
        raise ValidationError("reference", "reference must be finer than every level")
    for lv in levels + [reference]:
        if reference % lv:
            raise ValidationError("levels", f"reference {reference} not divisible by level {lv}")


def cmd_convergence(args) -> int:
    scn = parse_scenario(args.scenario)
    out = _out_dir(args)
    levels = [_number("levels", t, int) for t in args.levels.split(",") if t.strip()]
    if len(levels) < 3:
        raise ValidationError("levels", f"need at least 3 levels, got {levels}")
    reference = _number("reference", args.reference, int)
    _coupled_levels(levels, reference)
    transport_only = args.transport_only or scn.transport_only

    def level_scenario(n_x: int) -> Scenario:
        # coupled refinement dx = dt; in transport-only mode dt stays fixed and
        # only the spatial mesh refines, isolating the interpolation error
        override = {"n_x": n_x, "transport_only": transport_only,
                    "envelope": "off", "snapshot_times": ()}  # neither is read here
        if not transport_only:
            override["dt"] = 1.0 / n_x
        return dataclasses.replace(scn, **override)

    runs = levels + ([] if transport_only else [reference])
    level_scenario(runs[-1]).validate()  # the finest run alone, before the first level runs
    # the study peaks in its finest run, beside the other runs' fields, or, transport-only,
    # in its error loop, which holds at most every level's field and one exact field
    cell = 8 * scn.n_v**3 * scn.n_i
    peak = run_peak_bytes(runs[-1], scn.n_v, scn.n_i) + cell * sum(runs[:-1])
    held = "the finest run beside the other runs' fields"
    if transport_only:
        peak = max(peak, cell * (sum(levels) + levels[-1]))
        held += ", or every level's field beside an exact one"
    memory = physical_memory()
    if peak > memory:
        raise ValidationError("levels" if transport_only else "reference",
                              f"levels {levels} and reference {reference} need "
                              f"{peak / 1e9:.3g} GB at peak ({held}), more than the "
                              f"{memory / 1e9:.3g} GB of physical memory")
    fields: dict[int, DistField] = {}
    for n_x in runs:
        result = stepper.run(level_scenario(n_x), diagnostics="off")
        fields[n_x] = result.final
        print(f"convergence: level n_x={n_x} done ({len(result.reports)} steps)")
        del result  # and its reports, before the next level runs

    _, params = scn.validate()
    errors = []
    for n_x in levels:
        coarse = fields.pop(n_x)  # freed once its error is taken
        if transport_only:
            # exact transport solution: initial data sampled at the shifted feet
            exact = sample(make_initial(scn, coarse.grid), coarse.grid, shift_dt=scn.t_final)
            errors.append(error_sup_norm(coarse, exact, params.q, params.delta))
            del exact  # before the next level's is sampled
        else:
            # the reference's cells at the level's nodes, read where they lie
            ref = fields[reference].cells[:: reference // n_x]
            errors.append(error_sup_norm(coarse, ref, params.q, params.delta))

    h = [1.0 / lv for lv in levels]
    table = observed_order(list(zip(h, errors)), labels=[f"n_x={lv}" for lv in levels])
    with open(out / "convergence.csv", "w", encoding="utf-8") as fh:
        table.to_csv(fh)
    md = table.to_markdown()
    (out / "convergence.md").write_text(md, encoding="utf-8")
    print(md, end="")
    return 0


def cmd_sweep(args) -> int:
    scn = parse_scenario(args.scenario)
    out = _out_dir(args)
    kappas = [_number("kappa", t, float) for t in args.kappa.split(",") if t.strip()]
    if not kappas or any(k <= 0 for k in kappas):
        raise ValidationError("kappa", f"need one or more kappa values > 0, got {kappas}")

    k_scns = [dataclasses.replace(scn, kappa=k, envelope="off") for k in kappas]  # monitors unread
    for k_scn in k_scns:  # every kappa, before the first one runs
        k_scn.validate()
    rows = []
    for kappa, k_scn in zip(kappas, k_scns):
        try:
            result = stepper.run(k_scn, diagnostics="no_entropy")
            finite = all(
                math.isfinite(r.norm_q) and math.isfinite(r.mass) for r in result.reports
            )
            final_dist = equilibrium_distance(result.final, result.params, dt=k_scn.dt)
        except PolykinError as exc:
            exc.args = (f"kappa={kappa:g}: {exc}",)
            raise
        del result  # its field is freed before the next kappa's run
        rows.append((kappa, finite, final_dist))
        print(f"sweep: kappa={kappa:g} finite={finite} |f-G(f)|_q={final_dist:.6e}")

    with open(out / "sweep.csv", "w", encoding="utf-8") as fh:
        fh.write("kappa,finite,final_equilibrium_distance\n")
        for kappa, finite, final_dist in rows:
            fh.write("%.17g,%d,%.17g\n" % (kappa, int(finite), final_dist))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polykin",
        description="Semi-Lagrangian solver for the polyatomic ellipsoidal-BGK equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario and write step/macro CSV output")
    p.add_argument("scenario")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("convergence", help="coupled dx=dt self-convergence study")
    p.add_argument("scenario")
    p.add_argument("--levels", required=True, help="comma list of spatial resolutions")
    p.add_argument("--reference", required=True, help="reference resolution (coupled mode)")
    p.add_argument("--transport-only", action="store_true",
                   help="disable relaxation; fixed dt, exact transport reference")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("sweep", help="Knudsen-number stiffness sweep at fixed dt")
    p.add_argument("scenario")
    p.add_argument("--kappa", required=True, help="comma list of Knudsen numbers")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PolykinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, (NonFiniteField, NonFiniteGaussian)) else 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
