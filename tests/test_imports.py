"""Every name a module imports is used in it: the package's modules, the
tests and the scripts.

No linter runs on this repository, so this is the check that an import
left behind by a refactor is removed. A line marked ``# noqa: F401``
keeps its import on purpose (for example a name the traced benchmark
rebinds in that module's namespace); names in ``__all__`` count as used.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mf_readout"
MODULES = [path for folder in (PACKAGE, ROOT / "tests", ROOT / "scripts") for path in sorted(folder.glob("*.py"))]


def _module_id(path: Path) -> str:
    """A package module by its file name, a test or script by its path."""
    return path.name if path.parent == PACKAGE else path.relative_to(ROOT).as_posix()


def _unused_imports(path: Path) -> list[tuple[str, int]]:
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted(
        (name, line)
        for name, line in imported.items()
        if name not in used and "# noqa: F401" not in lines[line - 1]
    )


@pytest.mark.parametrize("path", MODULES, ids=_module_id)
def test_every_imported_name_is_used(path):
    assert _unused_imports(path) == []


def test_the_check_finds_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import os\nimport json  # noqa: F401\nfrom pathlib import Path\n"
        "__all__ = ['Path']\nfrom math import pi, tau\nx = tau\n"
    )
    assert _unused_imports(module) == [("os", 1), ("pi", 5)]
