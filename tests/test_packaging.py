"""numpy is polykin's only runtime dependency; scipy serves the tests alone.  Every name a
module imports is used there, unless the benchmark wraps it in that module's namespace, and
every benchmark wrap point is called.  Only field.py reads the tile size: the other modules
take their blocks from its row_tiles.  Only moments.energy_contraction reads the energy
weights, so no pass forks its own contraction, only transport._blend blends in the
advection, stepper blends and builds Gaussians at one call site each, and only
Scenario.x_uniform tells x-uniform initial data by their ic."""

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


def _wrap_points() -> list[tuple[str, str]]:
    """The (owner, attribute) pairs that benchmarks/spans.py wraps, FULL including CLOCK."""
    root = Path(polykin.__file__).resolve().parents[2]
    spec = importlib.util.spec_from_file_location("bench_spans", root / "benchmarks" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(owner, attr) for owner, attr, _ in spans.FULL]


def test_every_import_is_used_or_a_wrap_point():
    # benchmarks/spans.py patches ("stepper", "entropy") and the like in the calling
    # module, so such an import may go unused there: it sits on a "# noqa: F401" line
    root = Path(polykin.__file__).resolve().parent
    wrapped = set(_wrap_points())
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


def test_every_wrap_point_is_called():
    # a wrap point that src/ never calls reads 0 in the benchmark whatever the code costs.
    # A module function counts when its module calls it by its bare name or another
    # module calls module.attr(...); a method when anything calls .attr(...); __init__
    # when anything calls its class.  stepper.step is the benchmark's own entry point;
    # stepper.entropy, stepper.equilibrium_distance, and diagnostics.error_sup_norm and
    # diagnostics.gaussian_field, which the tiled equilibrium distance no longer calls, are
    # known dead points
    root = Path(polykin.__file__).resolve().parent
    bare, dotted = set(), set()  # (module, name) called bare; (value, attr) called dotted
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                bare.add((path.stem, node.func.id))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                value = node.func.value
                dotted.add((value.id if isinstance(value, ast.Name) else None, node.func.attr))
    bare_names = {name for _, name in bare}
    dotted_attrs = {attr for _, attr in dotted}
    uncalled = []
    for owner, attr in _wrap_points():
        module, _, cls = owner.partition(".")
        if not cls:
            called = (module, attr) in bare or (module, attr) in dotted
        elif attr == "__init__":
            called = cls in bare_names or cls in dotted_attrs
        else:
            called = attr in dotted_attrs
        if not called:
            uncalled.append(f"{owner}.{attr}")
    assert sorted(uncalled) == ["diagnostics.error_sup_norm", "diagnostics.gaussian_field",
                                "stepper.entropy", "stepper.equilibrium_distance", "stepper.step"]


def test_only_field_reads_the_tile_size():
    # one cache-block rule: every other module takes its blocks from field.row_tiles
    root = Path(polykin.__file__).resolve().parent
    readers = []
    for path in sorted(root.glob("*.py")):
        if path.name == "field.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names] if isinstance(node, ast.ImportFrom) else
                     [node.id] if isinstance(node, ast.Name) else
                     [node.attr] if isinstance(node, ast.Attribute) else [])
            if "TILE_BYTES" in names:
                readers.append(f"{path.name}:{node.lineno}")
    assert not readers, f"TILE_BYTES read outside field.py: {readers}"


def _readers(node: ast.AST, name: str, where: str, out: list) -> None:
    """Append the dotted function (or class, or module) in which each read of name lies."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        where = f"{where}.{node.name}"
    if (isinstance(node, ast.Attribute) and node.attr == name
            or isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.ImportFrom) and name in [a.name for a in node.names]):
        out.append(where)
    for child in ast.iter_child_nodes(node):
        _readers(child, name, where, out)


def test_only_energy_contraction_reads_the_energy_weights():
    # one contraction: the moments, the conserved sums and the relaxation all take their
    # energy integrals through moments.energy_contraction, tile by tile
    root = Path(polykin.__file__).resolve().parent
    readers = []
    for path in sorted(root.glob("*.py")):
        _readers(ast.parse(path.read_text(encoding="utf-8")), "energy_moment_weights",
                 path.stem, readers)
    assert readers == ["moments.energy_contraction"], readers


def test_only_blend_subtracts_or_updates_in_place_in_transport():
    # one advection blend: both paths call transport._blend, and no second lo + b*(hi - lo)
    # (a subtraction, or an in-place update such as blend *= b) lies anywhere else
    path = Path(polykin.__file__).resolve().parent / "transport.py"
    sites = []
    _blend_sites(ast.parse(path.read_text(encoding="utf-8")), "transport", sites)
    assert sites and set(sites) == {"transport._blend"}, sites


def _blend_sites(node: ast.AST, where: str, out: list) -> None:
    """Append the dotted function in which each np.subtract call or in-place update lies."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        where = f"{where}.{node.name}"
    if (isinstance(node, ast.AugAssign)
            or isinstance(node, ast.Attribute) and node.attr == "subtract"):
        out.append(where)
    for child in ast.iter_child_nodes(node):
        _blend_sites(child, where, out)


def test_stepper_blends_and_builds_gaussians_at_one_site():
    # one relaxation pass: its diagnostics modes are branches of stepper._relax_into, not a
    # second loop with a Gaussian and a blend of its own
    path = Path(polykin.__file__).resolve().parent / "stepper.py"
    calls = [n.func.id for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)]
    assert calls.count("_blend_into") == calls.count("gaussian_table") == 1, calls


def test_every_per_cell_pass_walks_cell_tiles():
    # one walker: a function that contracts, takes f ln f of or sups over a field's tiles
    # takes them from field.cell_tiles, and the second walker stack_tiles is gone
    root = Path(polykin.__file__).resolve().parent
    kernels = {"energy_contraction", "tile_flogf", "tile_sup"}
    missing, passes = [], []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.FunctionDef):
                continue
            called = {n.func.id if isinstance(n.func, ast.Name) else n.func.attr
                      for n in ast.walk(node) if isinstance(n, ast.Call)
                      and isinstance(n.func, (ast.Name, ast.Attribute))}
            if called & kernels and node.name not in kernels:
                passes.append(f"{path.stem}.{node.name}")
                if "cell_tiles" not in called:
                    missing.append(passes[-1])
    assert not missing, f"per-cell passes that do not walk cell_tiles: {missing}"
    assert sorted(passes) == ["diagnostics.conserved_quantities", "diagnostics.entropy",
                              "field._sup_norm", "moments._moments_of_stack",
                              "stepper._relax_into"], passes
    assert not hasattr(polykin.field, "stack_tiles")


def _src_readers(name: str) -> list[str]:
    """_readers of name over every module of src/polykin, in file order."""
    root = Path(polykin.__file__).resolve().parent
    readers = []
    for path in sorted(root.glob("*.py")):
        _readers(ast.parse(path.read_text(encoding="utf-8")), name, path.stem, readers)
    return readers


def test_only_sup_norm_calls_tile_sup():
    # one sup-norm kernel: the weighted norms, the error norms and the equilibrium distance
    # all take their sups through field._sup_norm
    assert _src_readers("tile_sup") == ["field._sup_norm"]


def test_relax_gathers_weights_at_one_site():
    # the output's norm gathers each tile's weights; the Gaussian's norm reads the shell
    # table from its factors, with no gather of its own ("stepper" is the import)
    assert _src_readers("weight_tile") == ["field._sup_norm", "stepper", "stepper._relax_into"]


def _ic_comparisons(node: ast.AST, where: str, out: list) -> None:
    """Append the dotted function in which each comparison of an ic with "maxwellian" lies
    (ic == "maxwellian", ic in ("maxwellian", ...) and the like)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        where = f"{where}.{node.name}"
    if isinstance(node, ast.Compare):
        operands = [node.left, *node.comparators]
        if (any(isinstance(o, ast.Name) and o.id == "ic"
                or isinstance(o, ast.Attribute) and o.attr == "ic" for o in operands)
                and any(isinstance(c, ast.Constant) and c.value == "maxwellian"
                        for o in operands for c in ast.walk(o))):
            out.append(where)
    for child in ast.iter_child_nodes(node):
        _ic_comparisons(child, where, out)


def test_scenario_decides_x_uniform_data_at_one_site():
    # run() skips the advection and the foot sample of x-uniform data, and make_initial
    # builds them, on Scenario.x_uniform alone: no other line tells them from ic by name
    root = Path(polykin.__file__).resolve().parent
    sites = []
    for path in sorted(root.glob("*.py")):
        _ic_comparisons(ast.parse(path.read_text(encoding="utf-8")), path.stem, sites)
    assert sites == ["scenario.Scenario.x_uniform"], sites
    readers = set(_src_readers("x_uniform"))
    assert {"scenario.make_initial", "stepper.run"} <= readers, readers
    assert readers <= {"scenario.certified_envelope", "scenario.make_initial", "stepper.run"}
