"""polykin benchmark: run one pinned workload and print its metrics.

    python3 benchmarks/run.py --workload relax_large_cell --seed 1 --seconds 25 --trace 0

Runs from the root of a source tree (``src/polykin`` and ``scenarios`` next
to this directory); the package is imported from that ``src``.  The
workload's set-up is repeated and timed, and whole rounds of its timed work
run for as long as another round fits in ``--seconds`` (at least one), each
round followed by its output checks.  An untraced run times set-ups and
rounds in reference seconds (``speed.py``).  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  ``--workload all`` runs every
workload, each in its own process.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# the names of workloads.WORKLOADS, which cannot be imported before the thread cap
WORKLOAD_NAMES = ["relax_large_cell", "convergence_smooth", "stiff_sweep", "tiny_steps"]
# set-ups per run: a few before the first round, one after each round, the rest
# after the last, so that their median spans the run rather than one moment of it
SETUP_REPS = 11
SETUP_REPS_FIRST = 3
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; must precede numpy's import."""
    cap = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = cap
        os.environ[var] = str(min(max(current, 1), cap))
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def import_polykin():
    """A fresh import of the package (numpy and scipy stay loaded)."""
    for name in [m for m in sys.modules if m == "polykin" or m.startswith("polykin.")]:
        del sys.modules[name]
    pk = importlib.import_module("polykin")
    importlib.import_module("polykin.cli")
    if Path(pk.__file__).resolve().parent != ROOT / "src" / "polykin":
        raise ImportError(f"polykin imported from {pk.__file__}, not from {ROOT / 'src'}")
    return pk


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    threads = cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import speed  # both import numpy, so after the thread cap
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    work = OUT / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # An untraced run times in reference seconds (speed.py).  A traced run is
    # never probed, so that its self times hold no probe time.
    prober = None if traced else speed.Prober()
    try:
        setup_times, raw_setup_times = [], []

        def timed(fn):
            """fn() and its wall time: in reference seconds if probed, and as read."""
            if prober is not None:
                prober.clear()
                prober.start()
            t0 = time.perf_counter_ns()
            try:
                out = fn()
            finally:
                t1 = time.perf_counter_ns()
                if prober is not None:
                    prober.stop()
            raw = (t1 - t0) * 1e-9
            return out, (prober.reference_seconds(t0, t1) if prober is not None else raw), raw

        def timed_setup():
            def setup():
                pk = import_polykin()
                return pk, wl.setup(pk, seed, ROOT, work)
            (pk, inputs), ref, raw = timed(setup)
            setup_times.append(ref)
            raw_setup_times.append(raw)
            return pk, inputs

        for _ in range(SETUP_REPS_FIRST):
            pk, inputs = timed_setup()

        rec = spans.Recorder()
        rec.install(pk, spans.CLOCK)
        walls, raw_walls, step_ms = [], [], []
        untraced_walls, traced_walls, traced_spans = [], [], []
        attempted = failed = traced_steps = traced_bytes = 0
        reasons: list[str] = []
        digests = None
        digests_repeat = True
        correct = True
        phase = "untraced"
        t_begin = time.perf_counter()
        while True:
            rec.clear()
            t0 = time.perf_counter()
            try:
                (code, outputs), wall, raw_wall = timed(lambda: wl.run_round(pk, rec, inputs))
            except Exception as exc:  # the round's operations all count as failed
                print(f"{name}: round raised {exc!r}", file=sys.stderr)
                code, outputs = -1, None
                wall = raw_wall = time.perf_counter() - t0
            runs = list(rec.results)
            rec.results.clear()
            steps = sum(len(r.reports) for r in runs) + sum(
                1 for s in rec.spans if s[0] == "stepper.step")
            if steps and prober is not None:
                step_ms.append(1e3 * sum(prober.reference_seconds(a, b)
                                         for a, b in spans.stepping_intervals(rec.spans)) / steps)
            walls.append(wall)
            raw_walls.append(raw_wall)
            (traced_walls if phase == "traced" else untraced_walls).append(wall)
            if phase == "traced":
                offset = sum(len(s) for s in traced_spans)
                traced_spans.append([[s[0], s[1], s[2], s[3] + offset if s[3] >= 0 else -1, s[4]]
                                     for s in rec.spans])
                traced_steps += steps
            try:
                checked = wl.check(pk, inputs, code, outputs, runs)
            except Exception as exc:
                print(f"{name}: check raised {exc!r}", file=sys.stderr)
                correct = False
                break
            finally:
                del runs, outputs
            attempted += checked.ops
            failed += len(checked.failures)
            reasons += [f"op {op}: {why}" for op, why in sorted(checked.failures.items())]
            if phase == "traced":
                traced_bytes += checked.output_bytes
            if digests is None:
                digests = checked.digests
            elif digests != checked.digests:
                digests_repeat = False
            if len(setup_times) < SETUP_REPS:
                timed_setup()  # the rounds keep the package and inputs they started with
            # another whole round only if it fits in the time left.  A traced run
            # alternates untraced and traced rounds, so that the overhead compares
            # rounds run under the same machine load
            now = time.perf_counter()
            if now + (now - t0) > t_begin + seconds and (
                    not traced or (traced_walls and untraced_walls)):
                break
            if traced and phase == "untraced":
                rec.install(pk, spans.FULL)
                phase = "traced"
            elif traced:
                rec.uninstall()
                rec.install(pk, spans.CLOCK)
                phase = "untraced"
        rec.uninstall()
        while len(setup_times) < SETUP_REPS:
            timed_setup()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        for line in reasons[:10]:
            print(f"{name}: failed {line}", file=sys.stderr)
        for label, hexdigest in digests or []:
            print(f"digest {name} {label} sha256={hexdigest}")
        print(f"digests identical across {len(walls)} rounds: {digests_repeat}")
        print(f"rounds {len(walls)}, BLAS threads {threads}, round walls "
              + " ".join(f"{w:.4f}" for w in raw_walls))
        if prober is not None:
            print("round walls in reference seconds " + " ".join(f"{w:.4f}" for w in walls))
            print(f"as read: median round {statistics.median(raw_walls):.6g} s, "
                  f"median set-up {statistics.median(raw_setup_times):.6g} s")

        if traced:
            if not traced_walls:
                raise RuntimeError(f"{name}: no traced round completed")
            all_spans = [s for chunk in traced_spans for s in chunk]
            metrics = spans.layer_metrics(all_spans, len(traced_walls), traced_steps, traced_walls,
                                          untraced_walls, traced_bytes)
            units = {m: u for m, u, _ in spans.PER_LAYER}
            (OUT / "traces").mkdir(parents=True, exist_ok=True)
            trace_path = OUT / "traces" / f"{name}-seed{seed}.json"
            rec.spans[:] = all_spans
            rec.dump(trace_path, {"workload": name, "seed": seed, "rounds": len(traced_walls),
                                  "steps": traced_steps, "round_walls_s": traced_walls,
                                  "untraced_round_walls_s": untraced_walls})
            print(f"trace: {len(all_spans)} spans -> {trace_path.relative_to(ROOT)}")
        else:
            metrics = {
                "setup_s": statistics.median(setup_times),
                "wall_s": statistics.median(walls),
                "step_ms": statistics.median(step_ms) if step_ms else 0.0,  # 0: nothing stepped
                "peak_rss_mb": peak_rss_mb,
            }
            units = {"setup_s": "s", "wall_s": "s", "step_ms": "ms", "peak_rss_mb": "MB"}
        result = {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for m, entry in result["metrics"].items():
        print(f"{name} {m} = {entry['value']:.6g} {entry['unit']}")
    print(f"{name} attempted {attempted}, failed {failed}")
    return result


def run_all(args) -> int:
    """Every workload in its own process, so each peak RSS belongs to one workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        one = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and one["correct"]
        merged["attempted"] += one["attempted"]
        merged["failed"] += one["failed"]
        for m, entry in one["metrics"].items():
            merged["metrics"][f"{name}.{m}"] = entry
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "src" / "polykin" / "__init__.py", ROOT / "scenarios" / "smooth_wave.txt"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a polykin source tree, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
