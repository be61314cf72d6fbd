"""Source hygiene: every private function, class or constant in ``src/vncap`` is
read there.

Code that only tests call belongs with the tests (``tests/reference.py``), so a
module-level private definition that nothing else in the package refers to
fails this check.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "vncap"


def _bound_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement binds by ``def``, ``class`` or assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else []
    if isinstance(node, ast.AnnAssign):
        targets = [node.target]
    return [name.id for t in targets for name in ast.walk(t) if isinstance(name, ast.Name)]


def orphans(sources: dict[str, str]) -> list[str]:
    """``module.name`` of every module-level private function, class or assigned
    name in ``sources`` (module name -> source text) that no code in ``sources``
    reads.

    A read is a name loaded in the defining module, a ``from .module import
    name``, or an attribute ``module.name``; binding a name does not read it.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    defined = [
        (module, name)
        for module, tree in trees.items()
        for node in tree.body
        for name in _bound_names(node)
        if name.startswith("_") and not name.startswith("__")
    ]
    used = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
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
        "d": "from . import e\n"
        "from .e import _IMPORTED\n"
        "_READ = 1\n"
        "_LEFTOVER = ('x', 'y')\n"
        "_TYPED: int = 2\n"
        "_PAIR, _OTHER = 3, 4\n"
        "_WRITTEN = _READ + _PAIR\n"
        "z = e._SHARED\n",
        "e": "_SHARED = 5\n_IMPORTED = 6\n",
    }
    assert orphans(sources) == [
        "a._Orphan",
        "b._f",
        "d._LEFTOVER",
        "d._OTHER",
        "d._TYPED",
        "d._WRITTEN",
    ]
