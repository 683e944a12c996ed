"""Rules the package keeps, checked on its source with ast.

- np.loadtxt is reached only through ingest.loadtxt_or_none, which turns
  numpy's refusals and warnings into None.
- np.log and np.exp are used only in lda._log_likelihood, whose value feeds
  the printed trace alone: their SIMD loops differ from libm in the last bit,
  so every similarity takes its logs and exps from similarity._log and _exp.
- ctypes.CDLL is called only in lda.load_kernels, the one door to _kernels.c.
- _kernels.c is built without flags that round differently from the Python
  twins of its loops.
- Every file is opened as the context expression of a ``with``.
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
