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

    for n, module in parabolic_sv._LAZY_NAMES.items():
        source = importlib.import_module(f"parabolic_sv.{module}")
        assert n in parabolic_sv.__all__, n
        assert getattr(parabolic_sv, n) is getattr(source, n), n


def test_each_exported_name_has_one_module_home():
    # besides the package root, no two modules export the same name
    homes = {}
    for path in SOURCES:
        if path.stem != "__init__":
            for n in getattr(importlib.import_module(f"parabolic_sv.{path.stem}"), "__all__", ()):
                homes.setdefault(n, []).append(path.stem)
    shared = {n: mods for n, mods in homes.items() if len(mods) > 1}
    assert not shared, shared


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def nodes_outside(tree: ast.AST, scopes: tuple[type, ...]):
    """Every node of ``tree`` but those inside a node of a ``scopes`` type,
    which is itself yielded."""
    todo = [tree]
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, scopes):
            todo.extend(ast.iter_child_nodes(node))


def imports_of(tree: ast.Module, package: str, *, module_level_only: bool = False) -> list[int]:
    """Lines of the imports of ``package`` anywhere in the module, function
    bodies included; with ``module_level_only``, only those that run when the
    module is imported, outside any function body."""
    lines = []
    for node in nodes_outside(tree, FUNCTIONS if module_level_only else ()):
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


def module_bindings(tree: ast.Module, name: str) -> list[int]:
    """Lines that bind ``name`` in the module's own namespace, outside every
    function and class body: a def, a class, an import or an assignment."""
    lines = []
    for node in nodes_outside(tree, (*FUNCTIONS, ast.ClassDef)):
        if isinstance(node, ast.Name):
            bound = node.id if isinstance(node.ctx, ast.Store) else None
        elif isinstance(node, ast.alias):
            bound = node.asname or node.name
        else:
            bound = getattr(node, "name", None)
        if bound == name:
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_only_the_package_root_defines_module_getattr(path):
    # each public name has one module home; the package root alone resolves
    # names on first use (PEP 562), so no module re-exports another's names
    lines = module_bindings(ast.parse(path.read_text(), filename=str(path)), "__getattr__")
    assert not lines, f"{path.name}: module-level __getattr__ at line(s) {lines}"


def test_getattr_rule_sees_module_level_bindings_only():
    tree = ast.parse(
        "def __getattr__(name):\n    pass\n"
        "if True:\n    __getattr__ = print\n"
        "class C:\n    def __getattr__(self, name):\n        pass\n"
        "def f():\n    def __getattr__(name):\n        pass\n"
        "from .arrays import __getattr__\n"
        "x = __getattr__\n"
    )
    assert module_bindings(tree, "__getattr__") == [1, 4, 11]
