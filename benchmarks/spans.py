"""Spans around the calls that cross from one polykin module into another.

Every wrapper is installed from outside the program: a module attribute or a
class attribute is replaced by a function that records a span (name, start,
end, parent) and calls the original.  Patching the name in the *calling*
module's namespace (``stepper.compute_moments`` rather than
``moments.compute_moments``) means one call site is measured and the callee's
calls from elsewhere are not, which is how the layers below are told apart.

Two sets of wrap points exist.  ``CLOCK`` is always installed: a few spans per
``run()`` call that give the stepping intervals the end-to-end ``step_ms`` needs.
``FULL`` adds every cross-module call and is installed only for a traced run.
A span's self time is its duration minus the durations of its direct
children; the self times of all spans sum to the durations of the top-level
spans, so ``round wall - sum of self times`` is the residual that the
benchmark's own loop costs.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time

# (owner path, attribute, span name).  The owner path is resolved against the
# imported polykin package: "stepper" is a module, "transport.Advector" a class.
# A span name is "<module>.<function>", with "@<caller>" when the same callee
# is reached from several call sites that feed different metrics.
CLOCK = [
    ("stepper", "run", "stepper.run"),
    ("stepper", "step", "stepper.step"),
    ("transport.Advector", "__init__", "transport.Advector.__init__"),
]

FULL = CLOCK + [
    ("stepper", "conserved_quantities", "diagnostics.conserved_quantities"),
    ("transport.Advector", "apply", "transport.Advector.apply"),
    ("stepper", "compute_moments", "moments.compute_moments@stepper"),
    ("stepper", "_gaussian_flat", "gaussian._gaussian_flat@stepper"),
    ("stepper", "_blend_into", "stepper._blend_into"),
    ("stepper", "_relax_into", "stepper._relax_into"),
    ("stepper", "_envelope_min_ratio", "stepper._envelope_min_ratio"),
    ("stepper", "entropy", "diagnostics.entropy"),
    ("stepper", "equilibrium_distance", "diagnostics.equilibrium_distance"),
    ("stepper", "weighted_sup_norm", "field.weighted_sup_norm"),
    ("stepper", "sample", "field.sample"),
    ("stepper", "make_initial", "scenario.make_initial"),
    ("stepper", "certified_envelope", "scenario.certified_envelope"),
    ("stepper", "normalizer_discrete", "params.normalizer_discrete"),
    ("stepper", "collision_frequency", "params.collision_frequency"),
    ("stepper", "write_step_csv", "stepper.write_step_csv"),
    ("moments", "blend_factors", "params.blend_factors"),
    ("diagnostics", "compute_moments", "moments.compute_moments@diagnostics"),
    ("diagnostics", "gaussian_field", "gaussian.gaussian_field"),
    ("diagnostics", "error_sup_norm", "field.error_sup_norm"),
    ("diagnostics", "normalizer_discrete", "params.normalizer_discrete"),
    ("diagnostics.StabilityEnvelope", "table", "diagnostics.StabilityEnvelope.table"),
    ("grid.PhaseGrid", "velocity_tables", "grid.velocity_tables"),
    ("grid.PhaseGrid", "energy_eps", "grid.energy_eps"),
    ("grid.PhaseGrid", "norm_weight", "grid.norm_weight"),
    ("scenario", "build_grid", "grid.build_grid"),
    ("scenario", "normalizer_discrete", "params.normalizer_discrete"),
    ("scenario.Scenario", "validate", "scenario.Scenario.validate"),
    ("cli", "parse_scenario", "scenario.parse_scenario"),
    ("cli", "make_initial", "scenario.make_initial"),
    ("cli", "sample", "field.sample"),
    ("cli", "error_sup_norm", "field.error_sup_norm"),
    ("cli", "equilibrium_distance", "diagnostics.equilibrium_distance"),
    ("cli", "write_snapshot", "field.write_snapshot"),
    ("cli", "compute_moments", "moments.compute_moments@cli"),
    ("cli", "write_macro_csv", "moments.write_macro_csv"),
]


class Recorder:
    """Keeps spans in memory as [name, start_ns, end_ns, parent, extra]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.results: list = []  # what each stepper.run call returned

    def wrap(self, fn, name: str):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        is_run = name == "stepper.run"
        is_apply = name == "transport.Advector.apply"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_run and kwargs.get("snapshot_writer") is not None:
                # the writer is cli's closure; its time is output, not stepping
                kwargs["snapshot_writer"] = self.wrap(kwargs["snapshot_writer"],
                                                      "cli.snapshot_writer")
            idx = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, 0]
            if is_apply:
                # bytes one advection pass must at least move: read the input
                # field once, write the output once; cache behaviour is not seen
                span[4] = 2 * args[1].values.nbytes
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if is_run:
                self.results.append(result)
            return result

        return traced

    def install(self, pk, points) -> None:
        """Patch each wrap point of the imported package ``pk``."""
        for owner_path, attr, name in points:
            owner = pk
            for part in owner_path.split("."):
                owner = getattr(owner, part)
            if any(o is owner and a == attr for o, a, _ in self._undo):
                continue
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around code it calls."""
        span = [name, 0, 0, self._stack[-1] if self._stack else -1, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()

    def clear(self) -> None:
        self.spans.clear()

    def dump(self, path, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "fields": ["name", "start_ns", "end_ns", "parent", "extra"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def self_times(spans) -> list[float]:
    """Self time of every span in seconds: duration minus direct children."""
    out = [(s[2] - s[1]) * 1e-9 for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= (s[2] - s[1]) * 1e-9
    return out


def stepping_intervals(spans) -> list[tuple[int, int]]:
    """Wall intervals (start_ns, end_ns) spent stepping, from the CLOCK spans of one round.

    For ``run()`` the stepping starts when its Advector is built (the initial
    sampling, envelope certification and norms before that are set-up of the
    run) and excludes the snapshot writer it calls.  ``step()`` is stepping
    from end to end, including the Advector it builds.  A top-level
    ``grid.build_grid`` span is the per-call grid a ``step()`` caller builds.
    """
    out: list[tuple[int, int]] = []
    children: dict[int, list[int]] = {}
    for idx, s in enumerate(spans):
        children.setdefault(s[3], []).append(idx)
    for idx, s in enumerate(spans):
        name = s[0]
        if name == "stepper.run":
            kids = [spans[k] for k in children.get(idx, [])]
            ready = [k[2] for k in kids if k[0] == "transport.Advector.__init__"]
            if not ready:
                continue  # zero-step run
            start = ready[0]
            for w in sorted((k for k in kids if k[0] == "cli.snapshot_writer"),
                            key=lambda k: k[1]):
                out.append((start, w[1]))
                start = w[2]
            out.append((start, s[2]))
        elif name == "stepper.step" or (name == "grid.build_grid" and s[3] < 0):
            out.append((s[1], s[2]))
    return out


# Per-layer metrics as sums of span self times.  A callee reached from a call
# site that feeds another metric carries "@<caller>" in its span name.
PER_STEP_MS = {
    "transport.apply_ms": ["transport.Advector.apply"],
    "moments.compute_ms": ["moments.compute_moments@stepper"],
    "gaussian.eval_ms": ["gaussian._gaussian_flat@stepper"],
    "stepper.blend_ms": ["stepper._blend_into"],
    "stepper.relax_self_ms": ["stepper._relax_into"],
    "stepper.loop_self_ms": ["stepper.run", "stepper.step"],
    "diagnostics.entropy_ms": ["diagnostics.entropy"],
    "diagnostics.conserved_ms": ["diagnostics.conserved_quantities"],
    "diagnostics.envelope_ms": ["stepper._envelope_min_ratio",
                                "diagnostics.StabilityEnvelope.table"],
    "field.sup_norm_ms": ["field.weighted_sup_norm"],
    "grid.tables_ms": ["grid.velocity_tables", "grid.energy_eps", "grid.norm_weight",
                       "grid.build_grid"],
}
PER_ROUND_MS = {
    "gaussian.field_ms": ["gaussian.gaussian_field"],
    # the diagnostic's own moment pass is part of it, not of the scheme step
    "diagnostics.eq_distance_ms": ["diagnostics.equilibrium_distance",
                                   "moments.compute_moments@diagnostics"],
    "field.error_norm_ms": ["field.error_sup_norm"],
    "field.sample_ms": ["field.sample"],
    "scenario.setup_ms": ["scenario.parse_scenario", "scenario.make_initial",
                          "scenario.certified_envelope", "scenario.Scenario.validate"],
    "cli.output_ms": ["cli.snapshot_writer", "field.write_snapshot",
                      "moments.compute_moments@cli", "moments.write_macro_csv",
                      "stepper.write_step_csv"],
}
MODULES = ["cli", "stepper", "transport", "moments", "gaussian", "diagnostics", "field",
           "grid", "scenario", "params"]

# name -> (unit, better); the order is the order of BENCHMARK.json's per_layer
PER_LAYER = (
    [(m, "ms/step", "lower") for m in PER_STEP_MS]
    + [(m, "ms", "lower") for m in PER_ROUND_MS]
    + [
        ("transport.setup_ms", "ms/call", "lower"),
        ("transport.gbps_computed", "GB/s", "higher"),
        ("gaussian.evals", "count/step", "lower"),
        ("diagnostics.eq_distance_calls", "count", "lower"),
        ("cli.output_mb", "MB", "lower"),
    ]
    + [(f"module.{m}_ms", "ms", "lower") for m in MODULES]
    + [
        ("trace.residual_ms", "ms", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_pct", "%", "lower"),
    ]
)


def layer_metrics(spans, rounds: int, steps: int, traced_walls: list[float],
                  untraced_walls: list[float], output_bytes: float) -> dict[str, float]:
    """Per-layer metrics of the traced rounds; per-round values are means."""
    own = self_times(spans)
    by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    extra: dict[str, float] = {}
    for s, t in zip(spans, own):
        by_name[s[0]] = by_name.get(s[0], 0.0) + t
        calls[s[0]] = calls.get(s[0], 0) + 1
        extra[s[0]] = extra.get(s[0], 0.0) + s[4]

    def total(names):
        return sum(by_name.get(n, 0.0) for n in names)

    out = {}
    for metric, names in PER_STEP_MS.items():
        out[metric] = 1e3 * total(names) / steps
    for metric, names in PER_ROUND_MS.items():
        out[metric] = 1e3 * total(names) / rounds
    init = "transport.Advector.__init__"
    out["transport.setup_ms"] = 1e3 * by_name.get(init, 0.0) / max(calls.get(init, 0), 1)
    apply_s = by_name.get("transport.Advector.apply", 0.0)
    out["transport.gbps_computed"] = (
        extra.get("transport.Advector.apply", 0.0) / apply_s / 1e9 if apply_s > 0 else 0.0
    )
    out["gaussian.evals"] = calls.get("gaussian._gaussian_flat@stepper", 0) / steps
    out["diagnostics.eq_distance_calls"] = (
        calls.get("diagnostics.equilibrium_distance", 0) / rounds
    )
    out["cli.output_mb"] = output_bytes / 1e6 / rounds
    for m in MODULES:
        out[f"module.{m}_ms"] = 1e3 * sum(
            t for n, t in by_name.items() if n.split(".", 1)[0] == m
        ) / rounds
    out["trace.residual_ms"] = 1e3 * (sum(traced_walls) - sum(own)) / rounds
    traced = statistics.median(traced_walls)
    out["trace.wall_s"] = traced
    out["trace.overhead_pct"] = 100.0 * (traced / statistics.median(untraced_walls) - 1.0)
    return out
