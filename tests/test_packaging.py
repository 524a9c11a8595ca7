"""numpy is polykin's only runtime dependency; scipy serves the tests alone."""

from __future__ import annotations

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
