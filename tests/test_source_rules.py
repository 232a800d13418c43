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
    # the package resolves these on first use, so a stale entry fails only there
    import parabolic_sv
    from parabolic_sv import calibration

    missing = sorted(n for n in parabolic_sv._CALIBRATION_NAMES if not hasattr(calibration, n))
    assert not missing, f"_CALIBRATION_NAMES not in parabolic_sv.calibration: {missing}"
    for n in parabolic_sv._CALIBRATION_NAMES:
        assert getattr(parabolic_sv, n) is getattr(calibration, n), n


def scipy_imports(tree: ast.Module) -> list[int]:
    """Lines of the scipy imports anywhere in the module, function bodies included."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            names = []
        if any(n.split(".")[0] == "scipy" for n in names):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_calibration_imports_scipy_at_import_time(path):
    # the runtime depends on numpy alone: no module imports scipy, at import
    # time or inside a function (scipy is a test-only oracle)
    lines = scipy_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, f"{path.name}: scipy import at line(s) {lines}"


def test_scipy_rule_sees_nested_module_level_imports():
    tree = ast.parse(
        "import scipy.special\n"
        "try:\n    from scipy import optimize\nexcept ImportError:\n    pass\n"
        "def f():\n    from scipy.special import ndtr\n"
        "class C:\n    import scipy\n"
        "from .scipy_like import x\n"
    )
    assert scipy_imports(tree) == [1, 3, 7, 9]
