"""numpy is polykin's only runtime dependency; scipy serves the tests alone.  Every name a
module imports is used there, unless the benchmark wraps it in that module's namespace."""

from __future__ import annotations

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import polykin


def test_import_loads_no_scipy():
    # a fresh interpreter, so modules the test suite imported do not count
    src = str(Path(polykin.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = ("import sys, polykin, polykin.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_every_import_is_used_or_a_wrap_point():
    # benchmarks/spans.py patches ("stepper", "entropy") and the like in the calling
    # module, so such an import may go unused there: it sits on a "# noqa: F401" line
    root = Path(polykin.__file__).resolve().parent
    spec = importlib.util.spec_from_file_location(
        "bench_spans", root.parents[1] / "benchmarks" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    wrapped = {(owner, attr) for owner, attr, _ in spans.FULL}
    unused = []
    for path in sorted(root.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in tree.body:  # names re-exported through __all__
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                    for t in node.targets):
                used |= set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                    getattr(node, "module", None) == "__future__":
                continue
            noqa = any("# noqa: F401" in ln for ln in lines[node.lineno - 1:node.end_lineno])
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used and not (noqa and (path.stem, name) in wrapped):
                    unused.append(f"{path.name}:{node.lineno}: {name}")
    assert not unused, f"imported but unused: {unused}"
