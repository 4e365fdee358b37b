"""Every name a library module imports is used in that module.

Standard library only (``ast``).  ``__init__.py`` is skipped: its imports
are the package's public API, not names it uses.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cfcgraph"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == [], path.name


def test_unused_import_is_reported():
    source = "from dataclasses import dataclass, field\nimport os.path\n@dataclass\nclass A:\n    x: int\n"
    assert _unused_imports(source) == [(1, "field"), (2, "os")]
