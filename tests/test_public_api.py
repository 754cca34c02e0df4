"""The package namespace exports exactly the names its callers import."""

import ast
import pkgutil
import sys
from pathlib import Path

import splinezeros

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "splinezeros"
CALLERS = (sorted((ROOT / "demos").glob("*.py")) + [PACKAGE / "cli.py"]
           + sorted((ROOT / "perfbench").glob("*.py")))
SUBMODULES = {info.name for info in pkgutil.iter_modules(splinezeros.__path__)}


def names_imported_from_package(path: Path) -> set[str]:
    """Names bound by `from splinezeros import ...` (or `from . import ...`
    inside the package), submodules not counted."""
    inside = path.parent == PACKAGE
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        absolute = node.level == 0 and node.module == "splinezeros"
        relative = inside and node.level == 1 and node.module is None
        if absolute or relative:
            names.update(alias.name for alias in node.names)
    return names - SUBMODULES


def test_all_is_exactly_what_callers_import():
    assert CALLERS and all(path.exists() for path in CALLERS)
    used = set().union(*map(names_imported_from_package, CALLERS))
    assert len(splinezeros.__all__) == len(set(splinezeros.__all__))
    assert set(splinezeros.__all__) == used
    assert all(hasattr(splinezeros, name) for name in splinezeros.__all__)


def test_runtime_imports_only_the_standard_library():
    """Every import in the package is relative or names a stdlib module, so
    the runtime keeps ``dependencies = []``."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                assert module.split(".")[0] in sys.stdlib_module_names, (
                    path.name, module)
