"""Layout lint: the package holds only what its subcommands run, and no
guard threshold is a parameter.

Every top-level function, class and module-level constant of
src/thermalpair must be referenced somewhere in src/ besides its own
definition and the package's exports; independent cross-check routes that
only tests call belong in tests/util.py, and a constant nothing reads goes.
Every guard threshold is a module constant beside the guard that reads it,
so no function in src/ takes a parameter whose name ends in "tol".  The
package imports only numpy and a short list of standard-library modules,
which keeps its share of the start-up time small.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "thermalpair"
# the console entry point, called from outside the package
ENTRY_POINTS = {("cli", "main")}
# the top-level modules src/ may import besides its own
ALLOWED_IMPORTS = {"__future__", "argparse", "dataclasses", "json", "math", "sys", "numpy"}


def _references(node, skip=None) -> set:
    """Names read and attribute names used anywhere under node, except inside
    skip; a name that is only assigned to is not used."""
    found = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        stack.extend(ast.iter_child_nodes(n))
    return found


def _trees() -> dict:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _defined_names(node) -> list:
    """Names a top-level statement defines: a function or class, or the
    plain names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def test_every_top_level_definition_is_used_in_the_package():
    trees = {module: tree for module, tree in _trees().items() if module != "__init__"}
    refs = {module: _references(tree) for module, tree in trees.items()}
    unused = []
    for module, tree in trees.items():
        elsewhere = set().union(*(r for other, r in refs.items() if other != module))
        for node in tree.body:
            for name in _defined_names(node):
                if (module, name) in ENTRY_POINTS:
                    continue
                if name not in elsewhere | _references(tree, skip=node):
                    unused.append(f"{module}.{name}")
    assert not unused, f"defined in src/ but used only outside it: {unused}"


def test_no_function_takes_a_tolerance_parameter():
    found = []
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                      *(a for a in (args.vararg, args.kwarg) if a is not None)]
            name = getattr(node, "name", "<lambda>")
            found += [f"{module}.{name}({p.arg})" for p in params if p.arg.endswith("tol")]
    assert not found, f"guard thresholds taken as parameters: {found}"


def test_imports_only_the_allowed_modules():
    found = []
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{module}: {name}" for name in names
                      if name.split(".")[0] not in ALLOWED_IMPORTS | {"thermalpair"}]
    assert not found, f"imports outside the allowlist: {found}"
