"""Rules the package keeps, checked on its source with ast.

- np.loadtxt is reached only through ingest.loadtxt_or_none, which turns
  numpy's refusals and warnings into None.
- np.log and np.exp are used only in lda._log_likelihood, whose value feeds
  the printed trace alone: their SIMD loops differ from libm in the last bit,
  so every similarity takes its logs and exps from similarity._log and _exp.
- ctypes.CDLL is called only in lda.load_kernels, the one door to _kernels.c.
- The library in ``lda.load_kernels()[0]`` is taken only by the function that
  holds the Python twin of the loop it calls, so each loop is chosen in one
  place; cli.cmd_train reads only ``[1]``, the text that says which sweep runs.
- _kernels.c is built without flags that round differently from the Python
  twins of its loops.
- Every file is opened as the context expression of a ``with``.
- No function or method writes module-level state, so a forked worker or a
  second caller never sees what an earlier call left behind: no ``global``
  statement, no assignment, augmented assignment or ``del`` into an attribute
  or item of a module-level name, no mutating method called on one. A cache
  that functools keeps (lda.load_kernels) writes nothing in the source.
"""
import ast
from pathlib import Path

import pytest

from topiccf import lda

SRC = Path(lda.__file__).parent


def _modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(SRC.glob("*.py"))}


def _scoped(tree):
    """(qualified name of the enclosing function or class, node) for every node of
    tree; "<module>" outside them."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            yield scope or "<module>", child
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from walk(child, f"{scope}.{child.name}" if scope else child.name)
            else:
                yield from walk(child, scope)
    return walk(tree, "")


def _dotted(node):
    """``a.b.c`` for a chain of attribute reads off a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append({"numpy": "np"}.get(node.id, node.id))
    return ".".join(reversed(parts))


def _uses(modules, names):
    """(module.function, line, name) for every read of one of the dotted names."""
    return [(f"{module}.{scope}", node.lineno, _dotted(node))
            for module, tree in modules.items() for scope, node in _scoped(tree)
            if isinstance(node, ast.Attribute) and _dotted(node) in names]


@pytest.mark.parametrize("names,allowed", [
    ({"np.loadtxt"}, {"ingest.loadtxt_or_none"}),
    ({"np.log", "np.exp"}, {"lda._log_likelihood"}),
    ({"ctypes.CDLL"}, {"lda.load_kernels"}),
], ids=["loadtxt", "log-exp", "cdll"])
def test_outside_calls_stay_in_their_one_function(names, allowed):
    modules = _modules()
    assert {"cli", "ingest", "lda", "persona", "similarity"} <= set(modules)
    assert [use for use in _uses(modules, names) if use[0] not in allowed] == []


def test_rules_see_a_use_in_any_scope():
    tree = ast.parse("import numpy\nclass A:\n    def f(self):\n        return numpy.log(2)\n"
                     "x = [np.exp(v) for v in ()]\n")
    assert _uses({"m": tree}, {"np.log", "np.exp"}) == [("m.A.f", 4, "np.log"),
                                                        ("m.<module>", 5, "np.exp")]


_KERNEL_READS = {("lda.train_lda", 0), ("similarity._libm", 0), ("similarity._co_counts", 0),
                 ("ingest._parse_columns", 0), ("ingest._csv_rows", 0), ("cli.cmd_train", 1)}


def _kernel_reads(modules):
    """(module.function, line, index) for every call of load_kernels: the constant index
    a subscript takes of its result, else None (the whole pair)."""
    reads = []
    for module, tree in modules.items():
        index = {}  # a subscript comes before the call it subscripts in the walk
        for scope, node in _scoped(tree):
            if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
                index[node.value] = node.slice.value
            elif isinstance(node, ast.Call) and _dotted(node.func) in {"load_kernels",
                                                                      "lda.load_kernels"}:
                reads.append((f"{module}.{scope}", node.lineno, index.get(node)))
    return reads


def test_each_loop_is_chosen_where_its_twin_lives():
    assert {(where, at) for where, _, at in _kernel_reads(_modules())} == _KERNEL_READS


def test_kernel_rule_sees_a_read_elsewhere():
    tree = ast.parse("from . import lda\ndef f():\n    return lda.load_kernels()[0]\n"
                     "def g():\n    lib, how = load_kernels()\n"
                     "class C:\n    def h(self):\n        print(f'{lda.load_kernels()[1]}')\n")
    reads = _kernel_reads({"m": tree})
    assert reads == [("m.f", 3, 0), ("m.g", 5, None), ("m.C.h", 8, 1)]
    assert {(where, at) for where, _, at in reads} - _KERNEL_READS


def test_kernel_flags_round_as_the_python_twins():
    flags = lda._KERNEL_FLAGS
    assert "-ffp-contract=off" in flags
    assert not {"-ffast-math", "-Ofast"} & set(flags)
    assert not [f for f in flags if f.startswith("-march=")]


def _opens_outside_with(tree):
    """The lines of open() calls, builtin or a method, that are not a with's context
    expression, or a branch of a conditional that is."""
    held = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for expr in (item.context_expr for item in node.items):
                held.update((expr.body, expr.orelse) if isinstance(expr, ast.IfExp) else (expr,))
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and node not in held
                  and "open" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)))


def test_every_open_is_a_with_context():
    assert {module: lines for module, tree in _modules().items()
            if (lines := _opens_outside_with(tree))} == {}


def test_open_rule_takes_a_conditional_with_and_refuses_a_bare_open():
    tree = ast.parse("with open(p) if own else nullcontext(p) as fh:\n    pass\n"
                     "with (open(a), open(b)):\n    pass\n"
                     "fh = open(p)\nwith f(open(p)):\n    pass\ntext = path.open().read()\n")
    assert _opens_outside_with(tree) == [5, 6, 8]


_MUTATORS = {"append", "extend", "insert", "update", "setdefault", "pop", "popitem", "clear",
             "remove", "discard", "add", "sort", "reverse"}


def _root(node):
    """The name at the bottom of a chain of attribute reads and subscripts, else None."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _module_state_writes(tree):
    """The lines, inside a function or method, of a global statement, of a store into
    or del of an attribute or item of a module-level name, and of a mutating method
    called on one. A name a function binds, as a parameter or a local, is its own,
    and a module's functions (``np.append``) are no methods."""
    top, modules = set(), set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            top.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = {(a.asname or a.name).split(".")[0] for a in node.names}
            top |= names
            modules |= names if isinstance(node, ast.Import) else set()
        else:
            top.update(n.id for n in ast.walk(node)
                       if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
    lines = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        shared = top - {n.arg for n in ast.walk(fn.args) if isinstance(n, ast.arg)} - {
            n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        for node in ast.walk(fn):
            if (isinstance(node, ast.Global)
                    or isinstance(node, (ast.Attribute, ast.Subscript))
                    and isinstance(node.ctx, (ast.Store, ast.Del)) and _root(node) in shared
                    or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _MUTATORS and _root(node.func.value) in shared
                    and getattr(node.func.value, "id", None) not in modules):
                lines.add(node.lineno)
    return sorted(lines)


def test_no_function_writes_module_level_state():
    assert {module: lines for module, tree in _modules().items()
            if (lines := _module_state_writes(tree))} == {}


def test_state_rule_sees_each_write_and_lets_locals_and_instances_be():
    tree = ast.parse(
        "import os, numpy as np\nfrom a import memo\nslot = [None]\nclass C:\n    pass\n"
        "def f(x):\n    slot[:] = [x]\n"                                   # 7
        "def g():\n    global n\n    n = 1\n"                              # 9
        "def h(k):\n    memo.setdefault(k, []).append(k)\n"                 # 12
        "def i():\n    del slot[0]\n    os.environ['A'] += '1'\n"          # 14, 15
        "def j():\n    C.x = 1\n    return lambda: slot.clear()\n"         # 17, 18
        "def k(slot, memo):\n    slot[:] = []\n    memo.update({})\n"
        "def m(self):\n    self.cache = {}\n    self.cache.update(a=1)\n"
        "    local = []\n    local.append(1)\n    memo.get(1)\n    return np.append(local, 1)\n"
        "slot[:] = [2]\nmemo.update({})\n")
    assert _module_state_writes(tree) == [7, 9, 12, 14, 15, 17, 18]
