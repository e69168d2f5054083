"""Package surface: every exported name exists, no module imports a name it
never uses, no private definition or attribute goes unread, the benchmark's
tracer can still wrap the entry points it measures, and every demo still
imports."""

from __future__ import annotations

import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import tubekernels

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_all_names_resolve():
    missing = [name for name in tubekernels.__all__ if not hasattr(tubekernels, name)]
    assert missing == []


def _modules():
    return {
        info.name: importlib.import_module(f"tubekernels.{info.name}")
        for info in pkgutil.iter_modules(tubekernels.__path__)
    }


def test_module_surfaces_resolve():
    # `from tubekernels.<module> import *` fails on any name __all__ keeps
    # after its definition is gone
    exported = set()
    for name, mod in _modules().items():
        missing = [key for key in mod.__all__ if not hasattr(mod, key)]
        assert missing == [], name
        exported.update(mod.__all__)
    assert set(tubekernels.__all__) - exported == {"__version__"}


def _unused_imports(path: pathlib.Path) -> list[str]:
    """Top-level imports of a module that nothing in it reads; a package
    __init__ uses an import by listing it in __all__."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(elt.value for elt in node.value.elts)
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    src = ROOT / "src" / "tubekernels"
    unused = [hit for path in sorted(src.glob("*.py")) for hit in _unused_imports(path)]
    assert unused == []


def _private_definitions(tree: ast.Module):
    """Top-level private functions, classes and constants: (name, node)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _reads(tree: ast.Module):
    """(name, line) of every Name load, attribute name and from-import name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def test_no_unread_private_definitions():
    # a deletion can strand the private helpers that only the deleted code
    # called; each must be read somewhere in the package outside its own body
    src = ROOT / "src" / "tubekernels"
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(src.glob("*.py"))}
    reads = {name: list(_reads(tree)) for name, tree in trees.items()}
    unread = []
    for fname, tree in trees.items():
        for name, node in _private_definitions(tree):
            own = range(node.lineno, node.end_lineno + 1)
            if not any(
                key == name and not (other == fname and line in own)
                for other, hits in reads.items()
                for key, line in hits
            ):
                unread.append(f"{fname}:{name}")
    assert unread == []


def _top_level_definitions(tree: ast.Module):
    """Names a module's own top-level functions, classes and assignments
    define (imports excluded)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id


def test_one_definition_per_top_level_name():
    # two modules defining one name for two things leave a reader, and a
    # search, to guess which one a call reaches
    src = ROOT / "src" / "tubekernels"
    owners: dict[str, list[str]] = {}
    for path in sorted(src.glob("*.py")):
        for name in set(_top_level_definitions(ast.parse(path.read_text(), str(path)))):
            owners.setdefault(name, []).append(path.name)
    twice = {name: files for name, files in owners.items() if len(files) > 1}
    twice.pop("__all__", None)
    assert twice == {}


def test_no_unread_private_attributes():
    # a private attribute that is assigned on self but never read is state
    # that nothing uses
    src = ROOT / "src" / "tubekernels"
    attrs = [
        (path.name, node)
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute)
    ]
    read = {node.attr for _, node in attrs if isinstance(node.ctx, ast.Load)}
    unread = sorted(
        f"{fname}:{node.attr}"
        for fname, node in attrs
        if isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr.startswith("_")
        and not node.attr.startswith("__")
        and node.attr not in read
    )
    assert unread == []


def _module_bindings() -> dict:
    return {
        (name, key): val
        for name, mod in list(sys.modules.items())
        if name == "tubekernels" or name.startswith("tubekernels.")
        for key, val in vars(mod).items()
    }


def _two_gaussians(x):
    return np.vstack([-(x**2), -3.0 * x**2])


def test_bench_tracer_installs(monkeypatch):
    # bench/tracing.py patches names and signatures of this package from
    # outside; a rename here must fail a test, not only the benchmark
    bench = ROOT / "bench"
    monkeypatch.syspath_prepend(str(bench))
    tracing = importlib.import_module("tracing")
    before = _module_bindings()
    original = tubekernels.quadrature.direct_pair
    tr = tracing.Tracer()
    try:
        tracing.install(tr, tubekernels, [tubekernels.model_domain(2)])
        assert tubekernels.quadrature.direct_pair is not original
        # the tracer reads refinements as (rule points - 15 initial panels) / 30
        for kw, panels in (({"init": 3}, 3), ({"init_edges": [-6.0, -1.0, 0.5, 6.0]}, 3)):
            before_ref = tr.counts["quadrature.adaptive.refinements"]
            _, _, n = tubekernels.quadrature.log_adaptive_multi(
                _two_gaussians, -6.0, 6.0, rel_tol=1e-12, **kw
            )
            ref = tr.counts["quadrature.adaptive.refinements"] - before_ref
            assert ref >= 0 and ref == int(ref) and ref == (n - 15 * panels) / 30
        # the tracer reads a grid's node count from ProfileGrid.c and the
        # frequencies from the size of what log_G returns
        grid = tubekernels.quadrature.ProfileGrid(lambda xi: xi**2, 0.0, 0.5, 8.0)
        grid.log_G(np.linspace(0.5, 8.0, 15))
        assert tr.counts["quadrature.profile_grid.nodes"] == grid.c.size
        assert tr.counts["quadrature.log_G.freqs"] == 15
    finally:
        tr.uninstall()
    assert tubekernels.quadrature.direct_pair is original
    after = _module_bindings()
    assert all(after[k] is v for k, v in before.items())


def test_bench_tracer_sees_direct_pair_log_G(monkeypatch):
    # direct_pair samples log G through ProfileGrid.log_G, so the tracer's
    # per-layer log_G figures count its tables
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracing = importlib.import_module("tracing")
    f = tubekernels.model_domain(1)
    tr = tracing.Tracer()
    try:
        tracing.install(tr, tubekernels, [f])
        tubekernels.quadrature.direct_pair(
            f, tubekernels.BoundaryRelativePoint(0.0, 0.25), tubekernels.QuadratureConfig(1e-5)
        )
    finally:
        tr.uninstall()
    assert tr.spans.get("quadrature.log_G", [0])[0] > 0
    assert tr.counts["quadrature.log_G.freqs"] > 0


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_help_runs(demo):
    # demos import from the package, private names included; --help runs
    # every import without computing anything
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo), "--help"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")
