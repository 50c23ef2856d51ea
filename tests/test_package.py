"""The package's import surface: what alglat/__init__.py re-exports, what the
benchmark's span tracer (perfbench/spans.py) wraps, and the line between the
library and the test-side oracles."""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np

import alglat
from alglat.lattices import ComplexBasis
from alglat.rings import ring_new

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "alglat"
TESTS = Path(__file__).resolve().parent


def imported_names(path: Path) -> list:
    """(module, name) for every `from module import name` at the top of path."""
    tree = ast.parse(path.read_text())
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def test_init_imports_resolve_to_exports():
    names = imported_names(PACKAGE / "__init__.py")
    assert names
    for module, name in names:
        mod = importlib.import_module(f"alglat.{module}")
        assert name in mod.__all__, f"{module}.{name}"
        assert getattr(alglat, name) is getattr(mod, name)


def test_span_tracer_installs_on_the_package():
    """The tracer wraps every __all__ entry of the layer modules and a few
    methods; a stale export or a missing method would stop it installing."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    layers = [importlib.import_module(f"alglat.{layer}") for layer in spans.LAYERS]
    before = [{name: getattr(mod, name) for name in mod.__all__} for mod in layers]
    gauss, det = alglat.reduction.gauss_reduce, alglat.RingMatrix.det

    tracer = spans.Tracer()
    tracer.install()
    try:
        assert alglat.reduction.gauss_reduce is not gauss
        sid = tracer.begin_op(0)
        basis = ComplexBasis(np.array([[3.0 + 1j, 1.0], [1.0, 2.0 - 1j]]), ring_new(1))
        alglat.reduction.gauss_reduce(basis).transform.det()
        tracer.end_op(sid)
    finally:
        tracer.uninstall()
    assert {"reduction.gauss_reduce", "lattices.ComplexBasis", "lattices.RingMatrix.det"} <= set(
        tracer.names
    )
    assert [{name: getattr(mod, name) for name in mod.__all__} for mod in layers] == before
    assert (alglat.reduction.gauss_reduce, alglat.RingMatrix.det) == (gauss, det)


def test_library_imports_no_test_module():
    test_modules = {"tests"} | {path.stem for path in TESTS.glob("*.py")}
    assert "oracles" in test_modules
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            for module in modules:
                assert module.split(".")[0] not in test_modules, f"{path.name} imports {module}"
