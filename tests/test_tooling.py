"""Source hygiene: every private function, class or constant in ``src/vncap`` is
read there.

Code that only tests call belongs with the tests (``tests/reference.py``), so a
module-level private definition that nothing else in the package refers to
fails this check.
"""

import ast
import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

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


ARRAY_READERS = {"asarray", "array", "asanyarray", "ascontiguousarray"}


def _params(func: ast.FunctionDef) -> set[str]:
    """The names of ``func``'s parameters that its body never rebinds."""
    args = func.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names.update(a.arg for a in (args.vararg, args.kwarg) if a is not None)
    rebound = {
        node.id
        for node in ast.walk(func)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    }
    return names - rebound


def _is_raw(node: ast.expr, params: set[str], post_init: bool) -> bool:
    """True if ``node`` is a parameter, an item of one, or in a ``__post_init__``
    a field ``self.<name>``."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id in params
    return (
        post_init
        and isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def raw_array_reads(sources: dict[str, str]) -> list[str]:
    """``module.function`` of every public function, public method or dataclass
    ``__post_init__`` in ``sources`` that passes one of its own parameters, or an
    item of one, straight to ``np.asarray``/``np.array`` (or their kin), instead
    of reading it through ``qmat._numbers``."""
    found = []
    for module, text in sources.items():
        tree = ast.parse(text)
        scopes = [(None, node) for node in tree.body]
        scopes += [
            (cls.name, node)
            for cls in tree.body
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
        ]
        for owner, func in scopes:
            if not isinstance(func, ast.FunctionDef):
                continue
            post_init = owner is not None and func.name == "__post_init__"
            if func.name.startswith("_") and not post_init:
                continue
            params = _params(func)
            for call in ast.walk(func):
                if not (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and isinstance(call.func.value, ast.Name)
                    and call.func.value.id == "np"
                    and call.func.attr in ARRAY_READERS
                    and call.args
                ):
                    continue
                if _is_raw(call.args[0], params, post_init):
                    name = func.name if owner is None else f"{owner}.{func.name}"
                    found.append(f"{module}.{name}")
                    break
    return sorted(found)


def test_every_outside_array_is_read_by_the_one_reader():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert raw_array_reads(sources) == []


def test_raw_array_check_sees_each_kind_of_read():
    sources = {
        "a": "import numpy as np\n"
        "def direct(x): return np.asarray(x)\n"
        "def typed(x): return np.array(x, dtype=float)\n"
        "def item(d): return np.asarray(d['key'][0])\n"
        "def _private(x): return np.asarray(x)\n"
        "def rebound(x):\n    x = check(x)\n    return np.asarray(x)\n"
        "def wrapped(x): return np.array([x])\n"
        "def local(x):\n    y = f(x)\n    return np.asarray(y)\n"
        "def nested(x):\n    def inner(): return np.ascontiguousarray(x)\n    return inner\n",
        "b": "import numpy as np\n"
        "class C:\n"
        "    def __post_init__(self): self.m = np.asarray(self.m)\n"
        "    def public(self, v): return np.asanyarray(v)\n"
        "    def _helper(self, v): return np.asarray(v)\n"
        "class D:\n"
        "    def __post_init__(self): self.m = read(self.m)\n"
        "    def method(self): return np.asarray(self.m)\n",
    }
    assert raw_array_reads(sources) == [
        "a.direct",
        "a.item",
        "a.nested",
        "a.typed",
        "b.C.__post_init__",
        "b.C.public",
    ]


# The stacked kernels that run as batched matmul calls or a broadcast product,
# and the audits' dilation read, which slices its |0> columns out of an isometry.
MATMUL_KERNELS = {
    "_send_rows",
    "_chain_rows",
    "_parallel_rows",
    "_check_complete",
    "_check_normalized",
    "_random_dilations",
    "_check_isometry",
}


def _calls_einsum(func: ast.FunctionDef) -> bool:
    return any(
        isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "einsum"
            or isinstance(node.func, ast.Name)
            and node.func.id == "einsum"
        )
        for node in ast.walk(func)
    )


def einsum_kernels(sources: dict[str, str], names: set[str]) -> tuple[list[str], list[str]]:
    """``module.function`` of every module-level function in ``sources`` named in
    ``names`` that calls ``einsum`` (``np.einsum`` or a bare imported one), nested
    functions included; and the names that no module defines."""
    found, defined = [], set()
    for module, text in sources.items():
        for func in ast.parse(text).body:
            if isinstance(func, ast.FunctionDef) and func.name in names:
                defined.add(func.name)
                if _calls_einsum(func):
                    found.append(f"{module}.{func.name}")
    return sorted(found), sorted(names - defined)


def test_matmul_kernels_call_no_einsum():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert einsum_kernels(sources, MATMUL_KERNELS) == ([], [])


def test_einsum_check_sees_each_kind_of_call():
    sources = {
        "a": "import numpy as np\n"
        "def _send_rows(b, x): return np.einsum('nakb,nb->nak', b, x)\n"
        "def other(x): return np.einsum('i->', x)\n",
        "b": "from numpy import einsum\n"
        "def _chain_rows(x, y):\n"
        "    def inner(): return einsum('i,i', x, y)\n"
        "    return inner()\n",
        "c": "import numpy as np\n"
        "def _parallel_rows(x, y): return x[:, None] * y\n"
        "def _check_complete(b): return np.matmul(b.conj().T, b)\n"
        "class K:\n"
        "    def _check_normalized(self): return np.einsum('i', self)\n",
    }
    names = {"_send_rows", "_chain_rows", "_parallel_rows", "_check_complete", "_gone"}
    assert einsum_kernels(sources, names) == (["a._send_rows", "b._chain_rows"], ["_gone"])


# The one orthonormality residual, max |V^dag V - I|: a unitary (U^dag as V), a
# Kraus set's branch flattening and the audits' drawn columns all go through it.
ONE_RESIDUAL = "qmat._check_isometry"


def _is_eye(node: ast.expr) -> bool:
    """True if ``node`` calls ``np.eye`` (any ``<x>.eye``) or a bare imported ``eye``."""
    return isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Attribute)
        and node.func.attr == "eye"
        or isinstance(node.func, ast.Name)
        and node.func.id == "eye"
    )


def _functions(sources: dict[str, str]):
    """(``module.function``, node) of every module-level function in ``sources``, and
    (``module.Class.method``, node) of every method; a nested function is part of
    the node it is nested in."""
    for module, text in sources.items():
        tree = ast.parse(text)
        scopes = [(module, node) for node in tree.body]
        scopes += [
            (f"{module}.{cls.name}", node)
            for cls in tree.body
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
        ]
        for owner, func in scopes:
            if isinstance(func, ast.FunctionDef):
                yield f"{owner}.{func.name}", func


def eye_subtractions(sources: dict[str, str]) -> list[str]:
    """``module.function`` (``module.Class.method`` for a method) of every function in
    ``sources`` with an identity ``eye(...)`` on either side of a ``-``, or on the
    right of a ``-=``; a nested function counts as the one it is nested in."""
    found = set()
    for name, func in _functions(sources):
        for node in ast.walk(func):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
                operands = (node.left, node.right)
            elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Sub):
                operands = (node.value,)
            else:
                continue
            if any(map(_is_eye, operands)):
                found.add(name)
    return sorted(found)


def test_one_orthonormality_residual_in_src():
    """Only ``qmat._check_isometry`` subtracts an identity: every unitarity and
    completeness check goes through it."""
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert eye_subtractions(sources) == [ONE_RESIDUAL]


def test_eye_check_sees_each_kind_of_subtraction():
    sources = {
        "qmat": "import numpy as np\n"
        "def _check_isometry(v): return v.T @ v - np.eye(v.shape[1])\n"
        "def _check_unitary(u): return abs(u @ u.T - np.eye(len(u))).max()\n"
        "def _plus(u): return u + np.eye(2)\n"
        "def _ones(u): return u - np.ones(2)\n",
        "a": "from numpy import eye\n"
        "def left(x): return eye(2) - x\n"
        "def nested(b):\n"
        "    def inner(): return b - eye(3)\n"
        "    return inner()\n"
        "def augmented(t):\n    t -= eye(4)\n    return t\n"
        "total = eye(2) - eye(2)\n",
        "b": "import numpy as np\n"
        "class K:\n"
        "    def method(self): return self.m - np.eye(2)\n"
        "    def other(self): return np.eye(2)\n",
    }
    assert eye_subtractions(sources) == [
        "a.augmented",
        "a.left",
        "a.nested",
        "b.K.method",
        "qmat._check_isometry",
        "qmat._check_unitary",
    ]


# The one q-list binder, ``channel._bound_rows``: only it reads a q list, and only
# it and the CSV printer, which prints a sweep in the same chunks, read STACK_ROWS.
Q_LIST_READER = "channel._bound_rows"
STACK_ROWS_READERS = [Q_LIST_READER, "cli._csv_chunks"]


def _called(call: ast.Call) -> str | None:
    """The name a call calls: ``f`` of ``f(...)`` and of ``module.f(...)``."""
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def q_list_reads(sources: dict[str, str]) -> tuple[list[str], list[str]]:
    """(the functions that read ``STACK_ROWS``, the functions that call
    ``_unit_intervals`` with the name "mixing parameter"), each sorted
    ``module.function``, a nested function counting as the one it is nested in.
    ``STACK_ROWS`` is read as a name or as an attribute, and the name is passed
    positionally or as ``name=``."""
    stack_rows, q_lists = set(), set()
    for name, func in _functions(sources):
        for node in ast.walk(func):
            if getattr(node, "id", getattr(node, "attr", None)) == "STACK_ROWS":
                stack_rows.add(name)
            elif isinstance(node, ast.Call) and _called(node) == "_unit_intervals":
                names = [*node.args[1:], *(k.value for k in node.keywords if k.arg == "name")]
                if any(getattr(arg, "value", None) == "mixing parameter" for arg in names):
                    q_lists.add(name)
    return sorted(stack_rows), sorted(q_lists)


def test_one_q_list_binder_in_src():
    """Every q list reaches its kernel through ``channel._bound_rows``, which reads it
    and chunks it; no row function reads or chunks a q list of its own."""
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert q_list_reads(sources) == (STACK_ROWS_READERS, [Q_LIST_READER])


def test_q_list_check_sees_each_kind_of_read():
    sources = {
        "channel": "STACK_ROWS = 4096\n"
        "def _bound_rows(chunk, table):\n"
        "    def rows(q_values):\n"
        "        qs = _unit_intervals(q_values, 'mixing parameter')\n"
        "        return [chunk(table, qs[i : i + STACK_ROWS]) for i in range(len(qs))]\n"
        "    return rows\n"
        "def _chunked(f, qs): return f(qs[:STACK_ROWS])\n",
        "depolarizing": "from .channel import STACK_ROWS\n"
        "def _rows_of(p, chunk):\n"
        "    ps = _unit_intervals(p, 'error probability')\n"
        "    def of(q_values):\n"
        "        return chunk(ps, qmat._unit_intervals(q_values, name='mixing parameter'))\n"
        "    return of\n"
        "class Rows:\n"
        "    def method(self, qs): return _unit_intervals(qs, 'mixing parameter')\n"
        "def _p_only(p): return _unit_intervals(p, 'error probability')\n",
        "cli": "from . import channel\n"
        "def _csv_chunks(table): return table[: channel.STACK_ROWS]\n"
        "def _named(q): return _unit_interval(q, 'mixing parameter')\n",
    }
    assert q_list_reads(sources) == (
        ["channel._bound_rows", "channel._chunked", "cli._csv_chunks"],
        ["channel._bound_rows", "depolarizing.Rows.method", "depolarizing._rows_of"],
    )


def number_formats(sources: dict[str, str]) -> list[str]:
    """``module:line`` of every string constant in ``sources`` that spells the output
    number format ``.12g``: a ``%`` template, a ``format`` spec or an f-string spec."""
    return sorted(
        f"{module}:{node.lineno}"
        for module, text in sources.items()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and ".12g" in node.value
    )


def test_one_number_format_in_src():
    """``cli._NUMBER`` holds the only ``%.12g``; ``_fmt`` and the sweep both print
    through it."""
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    found = number_formats(sources)
    assert len(found) == 1 and found[0].startswith("cli:")
    assert '"%.12g"' in sources["cli"]


def test_number_format_check_sees_each_spelling():
    sources = {
        "a": 'def _texts(v): return "%.12g" % v\n'
        "# a comment that names %.12g is not code\n"
        'def short(v): return "%.6g" % v\n',
        "b": 'def again(x): return "p: %.12g" % x\n'
        "def spec(x): return format(x, '.12g')\n",
        "c": 'def fstring(x): return f"{x:.12g}"\n',
    }
    assert number_formats(sources) == ["a:1", "b:1", "b:2", "c:1"]


# The pure-state constructors.  Inside the package a state is built only to be
# handed back to the caller; a kernel reads plain amplitude arrays.
STATE_BUILDERS = {"PureState", "basis_state"}


def unreturned_states(sources: dict[str, str]) -> list[str]:
    """``module:line`` of every ``PureState(...)`` or ``basis_state(...)`` call in
    ``sources`` that lies outside every ``return`` value, or whose attribute is read
    (``basis_state(2, 0).amplitudes``): a state built only to be read back."""
    found = []
    for module, text in sources.items():
        tree = ast.parse(text)
        returned = {
            id(node)
            for ret in ast.walk(tree)
            if isinstance(ret, ast.Return) and ret.value is not None
            for node in ast.walk(ret.value)
        }
        read = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call) or _called(call) not in STATE_BUILDERS:
                continue
            if id(call) not in returned or id(call) in read:
                found.append((module, call.lineno))
    return [f"{module}:{line}" for module, line in sorted(found)]


def test_states_are_built_only_to_be_returned():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unreturned_states(sources) == []


def test_state_check_sees_each_kind_of_build():
    sources = {
        "a": "def bare(x):\n"
        "    PureState(x)\n"
        "    return x\n"
        "def bound(x):\n"
        "    psi = qmat.basis_state(2, 0)\n"
        "    return psi\n"
        "def read():\n"
        "    return basis_state(2, 1).projector()\n",
        "b": "def pair(u, env):\n"
        "    return u, PureState(env, (4,))\n"
        "def states(rows):\n"
        "    return tuple(PureState(row, (2, 2)) for row in rows)\n"
        "def lazy(rows):\n"
        "    return (basis_state(2, i) for i in rows)\n"
        "def typed(psi):\n"
        "    return isinstance(psi, PureState)\n",
    }
    assert unreturned_states(sources) == ["a:2", "a:5", "a:8"]


# The package's classes: a public parameter annotated with one must reach the one
# object-type check, ``qmat._check_state``, itself or through the checks that run it.
PACKAGE_CLASSES = {
    "DensityMatrix",
    "PureState",
    "KrausChannel",
    "DepolParams",
    "ChannelTranscript",
    "HammingQuery",
}
TYPE_CHECKS = {("qmat", "_check_state"), ("channel", "_branches"), ("qmat", "_one_row")}


def _positional(func: ast.FunctionDef) -> list[str]:
    return [a.arg for a in func.args.posonlyargs + func.args.args]


def _class_name(annotation) -> str | None:
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return annotation.value
    return annotation.id if isinstance(annotation, ast.Name) else None


def unchecked_slots(sources: dict[str, str]) -> list[str]:
    """``module.function.parameter`` of every parameter of a public module-level function
    in ``sources``, annotated with one of ``PACKAGE_CLASSES``, that never reaches a type
    check: the function does not pass it, as it stands, as the first argument of one of
    ``TYPE_CHECKS``, nor at a position or keyword whose parameter reaches one in
    another function of ``sources``.  Calls resolve through ``from .module import``
    and ``module.name``."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    funcs, scopes = {}, {}
    for module, tree in trees.items():
        scope = scopes[module] = {}
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                funcs[module, node.name] = node
                scope[node.name] = (module, node.name)
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                scope.update({a.asname or a.name: (node.module, a.name) for a in node.names})

    def callee(module: str, func: ast.expr):
        if isinstance(func, ast.Name):
            return scopes[module].get(func.id)
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            return (func.value.id, func.attr) if func.value.id in trees else None
        return None

    reached = {(key, _positional(funcs[key])[0]) for key in TYPE_CHECKS if key in funcs}
    grew = True
    while grew:  # until no parameter newly reaches a check
        grew = False
        for key, func in funcs.items():
            own = {a.arg for a in func.args.posonlyargs + func.args.args + func.args.kwonlyargs}
            for call in ast.walk(func):
                target = isinstance(call, ast.Call) and callee(key[0], call.func)
                if target not in funcs:
                    continue
                passed = list(zip(_positional(funcs[target]), call.args))
                passed += [(kw.arg, kw.value) for kw in call.keywords]
                for param, arg in passed:
                    slot = (key, getattr(arg, "id", None))
                    if (target, param) in reached and slot[1] in own and slot not in reached:
                        reached.add(slot)
                        grew = True
    return sorted(
        f"{module}.{name}.{arg.arg}"
        for (module, name), func in funcs.items()
        if not name.startswith("_")
        for arg in func.args.posonlyargs + func.args.args + func.args.kwonlyargs
        if _class_name(arg.annotation) in PACKAGE_CLASSES
        and ((module, name), arg.arg) not in reached
    )


def test_every_object_slot_reaches_the_type_check():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unchecked_slots(sources) == []


def test_type_check_guard_sees_each_kind_of_slot():
    sources = {
        "qmat": "def _check_state(state, kind, name): pass\n"
        "def _one_row(psi, keep): _check_state(psi, PureState, 'psi')\n"
        "def direct(rho: DensityMatrix): _check_state(rho, DensityMatrix, 'rho')\n"
        "def other_slot(rho: DensityMatrix, x): _check_state(x, DensityMatrix, 'x')\n"
        "def via_one_row(psi: 'PureState', keep): return _one_row(psi, keep)\n"
        "def never(psi: PureState): return psi.dims\n"
        "def _private(rho: DensityMatrix): return rho\n"
        "def unrelated(x: int, y: dict): return x\n",
        "channel": "from .qmat import _check_state\n"
        "def _branches(ch, name='channel'): return ch.operators\n"
        "def through_branches(ch: KrausChannel): return _branches(ch)\n"
        "def through_rows(ch: KrausChannel, q): return rows(ch, q)\n"
        "def rows(ch: KrausChannel, qs): return _branches(ch)\n"
        "def by_keyword(t: ChannelTranscript): return take(1, t=t)\n"
        "def take(x, t): _check_state(t, ChannelTranscript, 't')\n"
        "def rebuilt(t: ChannelTranscript): return take(1, t=ChannelTranscript(t))\n",
        "depolarizing": "from . import qmat\n"
        "def attribute(params: DepolParams): qmat._check_state(params, DepolParams, 'p')\n"
        "def field_only(params: DepolParams): return qmat.direct(params.q)\n"
        "def keyword_only(*, query: HammingQuery): return query\n"
        "def checked_keyword(*, q: HammingQuery): qmat._check_state(q, HammingQuery, 'q')\n",
    }
    assert unchecked_slots(sources) == [
        "channel.rebuilt.t",
        "depolarizing.field_only.params",
        "depolarizing.keyword_only.query",
        "qmat.never.psi",
        "qmat.other_slot.rho",
    ]


# functools' memos.  A value that outlives one call would let a request read work
# done for an earlier one; the one memo in the package is the CLI's parser.
MEMOS = {"cache", "lru_cache", "cached_property"}
ALLOWED_MEMO = ("cli", "_build_parser")


def memo_uses(sources: dict[str, str]) -> list[str]:
    """``module:line`` of every use in ``sources`` of functools' ``cache``,
    ``lru_cache`` or ``cached_property``, however spelled: an attribute of
    ``functools`` or of an alias of it, or a name imported from it under any
    alias; and of every ``from functools import *``.  The decorators of
    ``cli._build_parser`` are exempt."""
    found = []
    for module, text in sources.items():
        tree = ast.parse(text)
        modules, names = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update(a.asname or a.name for a in node.names if a.name == "functools")
            elif isinstance(node, ast.ImportFrom) and node.module == "functools":
                for alias in node.names:
                    if alias.name == "*":
                        found.append((module, node.lineno))
                    elif alias.name in MEMOS:
                        names.add(alias.asname or alias.name)
        exempt = {
            id(part)
            for func in tree.body
            if (module, getattr(func, "name", None)) == ALLOWED_MEMO
            for decorator in func.decorator_list
            for part in ast.walk(decorator)
        }
        for node in ast.walk(tree):
            attribute = (
                isinstance(node, ast.Attribute)
                and node.attr in MEMOS
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            )
            name = isinstance(node, ast.Name) and node.id in names
            if (attribute or name) and id(node) not in exempt:
                found.append((module, node.lineno))
    return [f"{module}:{line}" for module, line in sorted(found)]


def test_no_memo_across_calls_in_src():
    """Only ``cli._build_parser`` is memoized; a capacity solve's branch table is a
    binding of that solve, not a cache that a later request could read."""
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert memo_uses(sources) == []
    assert "@functools.cache" in sources["cli"]


def test_memo_check_sees_each_spelling():
    sources = {
        "a": "import functools\n"
        "@functools.cache\n"
        "def table(p): return p\n"
        "@functools.lru_cache(maxsize=4)\n"
        "def rows(p): return p\n"
        "reduce = functools.reduce\n",
        "b": "import functools as ft\n"
        "from functools import cache as memo, lru_cache, partial\n"
        "class K:\n"
        "    @ft.cached_property\n"
        "    def x(self): return 1\n"
        "@memo\n"
        "def f(): pass\n"
        "g = lru_cache()(f)\n"
        "h = partial(f)\n",
        "c": "from functools import *\n",
        "cli": "import functools\n"
        "@functools.cache\n"
        "def _build_parser(): pass\n"
        "@functools.lru_cache\n"
        "def _other(): pass\n"
        "def main(): return _build_parser()\n",
    }
    assert memo_uses(sources) == ["a:2", "a:4", "b:4", "b:6", "b:8", "c:1", "cli:4"]


# numpy's seeding calls.  Each costs about 10 us, so the package seeds a stream
# once per audit or per call and reads every per-seed stream from one PCG64.
SEEDERS = {"default_rng", "PCG64", "SeedSequence"}


def seeding_in_loops(sources: dict[str, str]) -> list[str]:
    """``module:line`` of every call in ``sources`` of ``default_rng``, ``PCG64`` or
    ``SeedSequence`` (a bare name or an attribute) that runs once per pass of a
    ``for`` or ``while`` loop or of a comprehension: in a loop's body, a ``while``
    test, or a comprehension's element, conditions and inner ``for`` clauses, but
    not in what runs once (a ``for``'s iterable, a comprehension's first one, an
    ``else`` clause)."""
    found = set()
    for module, text in sources.items():
        for loop in ast.walk(ast.parse(text)):
            if isinstance(loop, (ast.For, ast.AsyncFor)):
                parts = loop.body
            elif isinstance(loop, ast.While):
                parts = [loop.test, *loop.body]
            elif isinstance(loop, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                first, *rest = loop.generators
                parts = [getattr(loop, key) for key in ("elt", "key", "value") if hasattr(loop, key)]
                parts += [*first.ifs, *rest]
            else:
                continue
            for call in (node for part in parts for node in ast.walk(part)):
                if isinstance(call, ast.Call) and _called(call) in SEEDERS:
                    found.add((module, call.lineno))
    return [f"{module}:{line}" for module, line in sorted(found)]


def test_no_seeding_inside_a_loop_in_src():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert seeding_in_loops(sources) == []
    assert "default_rng" in sources["analysis"] and "PCG64" in sources["qmat"]


def test_seeding_check_sees_each_kind_of_loop():
    sources = {
        "a": "import numpy as np\n"
        "def per_seed(seeds, rows):\n"
        "    for row, seed in zip(rows, seeds):\n"
        "        np.random.default_rng(seed).random(out=row)\n"
        "def listed(seeds):\n"
        "    return [np.random.PCG64(s) for s in seeds]\n"
        "def once(seed, n):\n"
        "    rng = np.random.default_rng(seed)\n"
        "    for _ in range(n):\n"
        "        yield rng.random()\n",
        "b": "from numpy.random import SeedSequence, default_rng\n"
        "def states(seeds):\n"
        "    return {s: SeedSequence(s).generate_state(4) for s in seeds}\n"
        "def spin(seed):\n"
        "    while default_rng(seed).random() < 0.5:\n"
        "        seed += 1\n"
        "def read_once(seed):\n"
        "    return [x for x in default_rng(seed).random(4)]\n"
        "def inner(seeds):\n"
        "    return [x for s in seeds for x in default_rng(s).random(2)]\n"
        "def walk(seed):\n"
        "    for x in default_rng(seed).random(3):\n"
        "        print(x)\n"
        "    else:\n"
        "        default_rng(seed)\n",
    }
    assert seeding_in_loops(sources) == ["a:4", "a:6", "b:3", "b:5", "b:10"]


ROOT = SRC.parents[1]
WORKLOADS = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]


@pytest.fixture(scope="module")
def perfbench():
    """perfbench/run.py, imported as the harness runs it: its directory and ``src/``
    on the path, one BLAS thread unless set.  The path, the environment and
    ``sys.modules`` are put back afterwards."""
    modules = set(sys.modules)
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(ROOT / "perfbench"))
        patch.setenv("OPENBLAS_NUM_THREADS", os.environ.get("OPENBLAS_NUM_THREADS", "1"))
        spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
        run = importlib.util.module_from_spec(spec)
        patch.setitem(sys.modules, spec.name, run)  # dataclasses look their module up there
        spec.loader.exec_module(run)
        yield run
    bench = str(ROOT / "perfbench")
    for name in set(sys.modules) - modules:  # perfbench's own: checks, spans, speed, ...
        if str(getattr(sys.modules[name], "__file__", "")).startswith(bench):
            del sys.modules[name]


@pytest.mark.parametrize("workload", [w["name"] for w in WORKLOADS])
def test_every_listed_per_layer_metric_has_a_value(perfbench, workload):
    """One block untraced and one traced, as ``run.py --trace 1`` runs its two halves:
    every per-layer metric that BENCHMARK.json lists has a value on every workload.
    ``run.py`` exits 1 when one has none."""
    blocks = perfbench.block_stream(workload, 7)
    untraced = perfbench.run_phase(blocks, 0.0)  # a zero budget stops after one block
    tracer = perfbench.Tracer(perfbench.vncap)
    tracer.install()
    try:
        traced = perfbench.run_phase(blocks, 0.0, tracer)
    finally:
        tracer.uninstall()
    assert (untraced.blocks, traced.blocks) == (1, 1)
    assert untraced.failures == traced.failures == []
    metrics = perfbench.per_layer(tracer, traced, untraced)
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert [m["name"] for m in listed if metrics.get(m["name"], (None,))[0] is None] == []
