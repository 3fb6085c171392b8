"""Every module-level import in the package and its tests is read by its module.

The test dependencies ship no linter, so each module is parsed with ``ast``.
A name bound by a module-level import, in a ``try`` block too, must appear
as a name somewhere in the module's code; a docstring mention does not count.
Both branches of a guarded fallback bind the same name, so one use covers both.
"""

import ast
import re
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "sitelasso"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(TESTS.glob("*.py"))


def module_imports(tree):
    """(bound name, line) of each import at module level."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Try):
            pending.extend(node.body + node.orelse + node.finalbody)
            for handler in node.handlers:
                pending.extend(handler.body)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


@pytest.mark.parametrize(
    "path",
    [pytest.param(p, id=p.name) for p in MODULES]
    + [pytest.param(p, id=f"tests/{p.name}") for p in TEST_MODULES],
)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(
        f"{name} (line {line})" for name, line in module_imports(tree) if name not in used
    )
    assert not unused, f"{path.name}: unused imports {unused}"


def test_the_package_exports_exactly_what_its_init_imports():
    # the parametrized check above skips __init__.py, whose imports are read
    # only through __all__; a name dropped from a module must leave both
    import sitelasso

    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = {name for name, _line in module_imports(tree)}
    assigned = {
        target.id
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
    }
    assert assigned == {"__version__", "__all__"}
    assert len(sitelasso.__all__) == len(set(sitelasso.__all__))
    assert set(sitelasso.__all__) == imported
    for name in sitelasso.__all__:
        assert hasattr(sitelasso, name), name


def test_every_public_name_is_read_by_the_package_or_documented():
    # an export that no module reads and README.md does not name is a test
    # helper or dead code; a docstring mention does not count as a read
    import sitelasso

    read = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    readme = (PACKAGE.parent.parent / "README.md").read_text(encoding="utf-8")
    dead = [
        name
        for name in sitelasso.__all__
        if name not in read and not re.search(rf"\b{re.escape(name)}\b", readme)
    ]
    assert not dead, f"exported but neither read by the package nor in README.md: {dead}"


def test_csv_writer_is_called_only_by_pointdata():
    # every CSV the package writes goes through pointdata.write_csv, so
    # quoting, encoding and line ends are decided in one place
    callers = sorted(
        path.name
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "writer"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "csv"
    )
    assert set(callers) == {"pointdata.py"}, callers
