"""Source hygiene of the package, read with the standard library's `ast`.

Every module of `src/allopca` must use each name that it imports, and every
module-level private name (`_name`) must be referenced somewhere in the
package, so a deletion cannot leave an unused import or an orphaned helper
behind.  `__init__.py` uses its imports by listing them in `__all__`.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "allopca"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported(tree):
    """Names bound at module level by import statements, but `from __future__`."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


def _references(tree):
    """Names read anywhere in `tree`: loaded names, attribute names, and the
    strings of `__all__`."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            refs.update(elt.value for elt in node.value.elts)
    return refs


def _private_definitions(tree):
    """Module-level private names a module defines (functions, classes, assignments)."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_each_import_is_used(path):
    tree = _tree(path)
    unused = [name for name in _imported(tree) if name not in _references(tree)]
    assert unused == []


def test_each_private_module_name_is_referenced_in_the_package():
    trees = {path.name: _tree(path) for path in MODULES}
    refs = set().union(*(_references(tree) for tree in trees.values()))
    imported = set().union(*(_imported(tree) for tree in trees.values()))
    orphans = [f"{module}:{name}" for module, tree in trees.items()
               for name in _private_definitions(tree) if name not in refs | imported]
    assert orphans == []


def test_the_checks_see_a_planted_leftover():
    tree = ast.parse("import os\nfrom .core import _gone, _used\n"
                     "def _orphan():\n    return _used\n")
    assert [n for n in _imported(tree) if n not in _references(tree)] == ["os", "_gone"]
    assert _private_definitions(tree) == ["_orphan"]
    assert "_orphan" not in _references(tree)
