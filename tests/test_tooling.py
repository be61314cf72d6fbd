"""Source hygiene: every private function or class in ``src/vncap`` has a caller there.

Code that only tests call belongs with the tests (``tests/reference.py``), so a
module-level private definition that nothing else in the package refers to
fails this check.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "vncap"


def orphans(sources: dict[str, str]) -> list[str]:
    """``module.name`` of every module-level private function or class in ``sources``
    (module name -> source text) that no code in ``sources`` refers to.

    A reference is a name used in the defining module, a ``from .module import
    name``, or an attribute ``module.name``.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    defined = [
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]
    used = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add((module, node.id))
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                used.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                used.add((node.value.id, node.attr))
    return sorted(f"{module}.{name}" for module, name in defined if (module, name) not in used)


def test_no_orphan_private_code_in_src():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert orphans(sources) == []


def test_orphan_check_sees_each_kind_of_reference():
    sources = {
        "a": "def _local(): pass\n"
        "def _imported(): pass\n"
        "def _attribute(): pass\n"
        "class _Orphan: pass\n"
        "def public(): _local()\n",
        "b": "from . import a\nfrom .a import _imported\nx = a._attribute\ndef _f(): pass\n",
        "c": "def _f(): pass\ny = _f\n",
    }
    assert orphans(sources) == ["a._Orphan", "b._f"]
