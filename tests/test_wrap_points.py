"""The benchmark wraps polykin calls by name; every name it wraps must exist.

``benchmarks/spans.py`` patches each ``(owner, attribute)`` of its ``CLOCK``
and ``FULL`` lists on the imported package, so renaming or removing one of
them breaks the benchmark, not the solver.  The file is loaded by path and
needs only the standard library.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import polykin
import polykin.cli  # noqa: F401  (the "cli" owner)

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def test_every_wrap_point_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for owner_path, attr, _ in spans.FULL:
        owner = polykin
        for part in owner_path.split("."):
            owner = getattr(owner, part)
        present = attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr)
        if not present:
            missing.append(f"{owner_path}.{attr}")
    assert set(spans.CLOCK) <= set(spans.FULL)
    assert not missing, f"wrap points that no longer resolve: {missing}"
