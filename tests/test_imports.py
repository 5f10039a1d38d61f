"""Every module-level import in the package is used by its module, and
every slot of a package class is read somewhere."""

import ast
from pathlib import Path

import pytest

import segaltopos

PACKAGE = Path(segaltopos.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
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


def slot_names(source: str) -> list[str]:
    """The non-dunder names in the ``__slots__`` of each class."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets
                ):
                    slots = ast.literal_eval(stmt.value)
                    names.extend((slots,) if isinstance(slots, str) else slots)
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def attributes_read(source: str) -> set[str]:
    """The attribute names that some expression loads."""
    return {
        n.attr
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }


def unread_slots(slot_sources: list[str], reader_sources: list[str]) -> list[str]:
    """Slot names of the classes in slot_sources that no reader loads."""
    read = set().union(*map(attributes_read, reader_sources))
    return sorted({n for src in slot_sources for n in slot_names(src)} - read)


def test_detector_finds_unread_slots():
    source = (
        "class A:\n"
        "    __slots__ = ('kept', 'dead', '__weakref__')\n"
        "    def __init__(self, kept, dead):\n"
        "        self.kept = kept\n"
        "        self.dead = dead\n"
        "class B:\n"
        "    __slots__ = 'lone'\n"
    )
    reader = "def f(a):\n    return a.kept\n"
    assert unread_slots([source], [source, reader]) == ["dead", "lone"]


def test_every_slot_is_read():
    package = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    tests = [p.read_text() for p in sorted(TESTS.glob("*.py"))]
    assert unread_slots(package, package + tests) == []
