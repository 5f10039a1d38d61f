"""Every module-level import in the package is used by its module."""

import ast
from pathlib import Path

import pytest

import segaltopos

PACKAGE = Path(segaltopos.__file__).resolve().parent
# __init__.py imports names only to re-export them through __all__.
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by a module-level import that no expression refers to."""
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_detector_finds_unused_names():
    source = "import os\nimport a.b\nfrom x import y, z as w\nprint(y, a.b)\n"
    assert unused_imports(source) == ["os", "w"]


def test_modules_found():
    assert {"elements.py", "fincat.py", "segal.py", "topos.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_module_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []
