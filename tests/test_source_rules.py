"""Rules on the package source itself."""
import ast
import importlib
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "parabolic_sv").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_runtime_check_by_assert(path):
    # python -O strips assert statements, so a check made with one vanishes
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert at line(s) {lines}"


def test_sources_found():
    assert len(SOURCES) >= 8


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_exported_names_resolve(path):
    # a name deleted from a module must leave its __all__ too
    name = "parabolic_sv" if path.stem == "__init__" else f"parabolic_sv.{path.stem}"
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_lazy_calibration_names_resolve():
    # the package resolves these on first use, so a stale entry fails only there;
    # averaging and black_scholes resolve the names of arrays the same way
    import parabolic_sv
    from parabolic_sv import arrays, averaging, black_scholes

    for n, module in parabolic_sv._LAZY_NAMES.items():
        source = importlib.import_module(f"parabolic_sv.{module}")
        assert n in parabolic_sv.__all__, n
        assert getattr(parabolic_sv, n) is getattr(source, n), n
    for module, names in ((averaging, averaging._ORACLE_NAMES), (black_scholes, black_scholes._KERNEL_NAMES)):
        for n in names:
            assert n in module.__all__, n
            assert getattr(module, n) is getattr(arrays, n), n


def imports_of(tree: ast.Module, package: str, *, module_level_only: bool = False) -> list[int]:
    """Lines of the imports of ``package`` anywhere in the module, function
    bodies included; with ``module_level_only``, only those that run when the
    module is imported, outside any function body."""
    lines = []
    todo = [tree]
    while todo:
        node = todo.pop()
        if module_level_only and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        todo.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            names = []
        if any(n.split(".")[0] == package for n in names):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_calibration_imports_scipy_at_import_time(path):
    # the runtime depends on numpy alone: no module imports scipy, at import
    # time or inside a function (scipy is a test-only oracle)
    lines = imports_of(ast.parse(path.read_text(), filename=str(path)), "scipy")
    assert not lines, f"{path.name}: scipy import at line(s) {lines}"


def test_scipy_rule_sees_nested_module_level_imports():
    tree = ast.parse(
        "import scipy.special\n"
        "try:\n    from scipy import optimize\nexcept ImportError:\n    pass\n"
        "def f():\n    from scipy.special import ndtr\n"
        "class C:\n    import scipy\n"
        "from .scipy_like import x\n"
    )
    assert imports_of(tree, "scipy") == [1, 3, 7, 9]


#: The modules that build arrays.  The package and the CLI load them on first
#: use, so a process that only prices (``price``) never imports numpy.
ARRAY_MODULES = ("arrays.py", "calibration.py", "monte_carlo.py", "optimize.py")


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name not in ARRAY_MODULES], ids=lambda p: p.name)
def test_only_array_modules_import_numpy_at_module_level(path):
    # a function may import numpy where it builds arrays, once per call
    lines = imports_of(ast.parse(path.read_text(), filename=str(path)), "numpy", module_level_only=True)
    assert not lines, f"{path.name}: module-level numpy import at line(s) {lines}"


def test_numpy_rule_sees_module_level_imports_only():
    tree = ast.parse(
        "import numpy as np\n"
        "if True:\n    from numpy import linalg\n"
        "def f():\n    import numpy\n"
        "class C:\n    import numpy.random\n"
        "    async def g(self):\n        from numpy import exp\n"
        "from .numpy_like import x\n"
    )
    assert imports_of(tree, "numpy", module_level_only=True) == [1, 3, 7]
    assert imports_of(tree, "numpy") == [1, 3, 5, 7, 9]
