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
#: use, so a process that only prices (``price``) never imports numpy, nor one
#: that calibrates (``calibrate``, with either fit).
ARRAY_MODULES = ("arrays.py", "monte_carlo.py")


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name not in ARRAY_MODULES], ids=lambda p: p.name)
def test_only_array_modules_import_numpy_at_module_level(path):
    # a function may import numpy where it builds arrays, once per call
    lines = imports_of(ast.parse(path.read_text(), filename=str(path)), "numpy", module_level_only=True)
    assert not lines, f"{path.name}: module-level numpy import at line(s) {lines}"


def test_calibration_imports_no_numpy():
    # the seeded starts draw from a plain-integer port of numpy's generator
    path = next(p for p in SOURCES if p.name == "calibration.py")
    assert imports_of(ast.parse(path.read_text(), filename=str(path)), "numpy") == []


def test_calibration_imports_no_random_source_nor_logging():
    # the effective fit's starts are fixed points of its box, so it draws
    # nothing; load_chain imports logging only to warn of a rejected row.
    # numpy.random is ruled out with numpy
    path = next(p for p in SOURCES if p.name == "calibration.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    for package in ("random", "secrets", "numpy", "logging"):
        assert imports_of(tree, package, module_level_only=True) == [], package


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


def calls_of(tree: ast.AST, name: str, scope: str = "") -> list[str]:
    """The qualified name, as ``Class.method``, of the function or class body
    around each call of ``name``, by name or attribute, in source order; ``""``
    at module level.  A lambda belongs to the body it is written in."""
    found = []
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            inner = f"{scope}.{node.name}" if scope else node.name
        elif isinstance(node, ast.Call):
            func = node.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name:
                found.append(scope)
        found += calls_of(node, name, inner)
    return found


def test_calibration_prices_quotes_in_one_pass():
    # the chain model's one evaluation, _ChainModel.fit, is the one pass that
    # prices a chain's quotes, beside implied_vol's bisection: a second
    # residual path would call the kernel or the modification factor again
    path = next(p for p in SOURCES if p.name == "calibration.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    assert sorted(calls_of(tree, "call_and_d1d2_at")) == ["_ChainModel.fit", "implied_vol"]
    assert calls_of(tree, "modification_factor") == []
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert "modification_factor" not in imported


def test_call_rule_names_the_enclosing_body():
    tree = ast.parse(
        "f(1)\n"
        "def g():\n    h = lambda: f(2)\n    def inner():\n        m.f(3)\n"
        "class C:\n    def fit(self):\n        return f(4), other(5)\n"
    )
    assert calls_of(tree, "f") == ["", "g", "g.inner", "C.fit"]


def test_monte_carlo_writes_blocks_into_the_sample():
    # each block runs in its slice of the returned arrays and a deterministic
    # Z is one broadcast float: no block result is stitched or filled anew
    path = next(p for p in SOURCES if p.name == "monte_carlo.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    assert calls_of(tree, "concatenate") == []
    assert calls_of(tree, "full") == []
