"""Every function, class and method under src/splitflow has a use.

A definition counts as used when its name appears anywhere in the package,
the tests, the demos or the benchmark other than at the definition itself:
as a name, an attribute, an import or an identifier string (the benchmark
wraps functions it looks up by name).  Dunder names are exempt.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "splitflow"
SEARCHED = ("src", "tests", "demos", "perfbench")

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _trees():
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _mentions(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield node.value


def test_every_definition_is_named_elsewhere():
    mentions = Counter()
    defined = []
    for path, tree in _trees():
        mentions.update(_mentions(tree))
        if path.is_relative_to(PACKAGE):
            for node in ast.walk(tree):
                if isinstance(node, DEFINITIONS):
                    defined.append((node.name, path.relative_to(ROOT),
                                    node.lineno))
    unused = [f"{path}:{line} {name}" for name, path, line in defined
              if not (name.startswith("__") and name.endswith("__"))
              and mentions[name] == 0]
    assert not unused, "defined but never named:\n" + "\n".join(unused)
