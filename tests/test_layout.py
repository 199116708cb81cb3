"""Reachability lint: the package holds only what its subcommands run.

Every top-level function and class of src/thermalpair must be referenced
somewhere in src/ besides its own definition and the package's exports;
independent cross-check routes that only tests call belong in tests/util.py.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "thermalpair"
# the console entry point, called from outside the package
ENTRY_POINTS = {("cli", "main")}


def _references(node, skip=None) -> set:
    """Names and attribute names used anywhere under node, except inside skip."""
    found = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        stack.extend(ast.iter_child_nodes(n))
    return found


def test_every_top_level_definition_is_used_in_the_package():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"}
    refs = {module: _references(tree) for module, tree in trees.items()}
    unused = []
    for module, tree in trees.items():
        elsewhere = set().union(*(r for other, r in refs.items() if other != module))
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or (module, node.name) in ENTRY_POINTS):
                continue
            if node.name not in elsewhere | _references(tree, skip=node):
                unused.append(f"{module}.{node.name}")
    assert not unused, f"defined in src/ but used only outside it: {unused}"
