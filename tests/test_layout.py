"""Layout lint: the package holds only what its subcommands run, and no
guard threshold is a parameter.

Every top-level function, class and module-level constant of
src/thermalpair must be referenced somewhere in src/ besides its own
definition and the package's exports, and every slot and property of
a class must be read as an attribute somewhere in src/; independent
cross-check routes that only tests call belong in tests/util.py, and a
constant or member nothing reads goes.
Every guard threshold is a module constant beside the guard that reads it,
so no function in src/ takes a parameter whose name ends in "tol".  The
package imports only numpy and a short list of standard-library modules,
which keeps its share of the start-up time small, and it reaches LAPACK only
through numpy.linalg's Hermitian eigenvalue solver (and the vector norm).  It
raises no bare RuntimeError: each failure the CLI maps to an exit code has
its own exception class, and each message of the RK45 cross-check is
written in one module, the one that holds its step control.  A module reads another module's `_`-prefixed
names only where ALLOWED_PRIVATE lists them.  The modules that the phase
diagram, the coefficients report, the asymptotic report and the evolve of
a named state run on import numpy in no module-level statement, so those
runs start without it;
the subprocess tests in test_cli.py check which runs load it.  The code lines of src/
(tokenized, without blank lines, comments and docstrings) stay at or below
MAX_CODE_LINES, so a change that adds code raises the ceiling in its diff.
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "thermalpair"
# the console entry point, called from outside the package
ENTRY_POINTS = {("cli", "main")}
# the top-level modules src/ may import besides its own
ALLOWED_IMPORTS = {"__future__", "importlib", "json", "math", "sys", "numpy"}
# what src/ may call through numpy.linalg: an exponential by linear solve, a
# concurrence by SVD or a matrix square root by eigh is a reference route
# for tests/util.py
ALLOWED_LINALG = {"eigvalsh", "norm"}
# the `_`-prefixed names one module of src/ reads from another: the sinc of
# the generation test's reduction
ALLOWED_PRIVATE = {("spectral", "_sinc")}
# the modules `python -m thermalpair phase-diagram`, `coefficients`,
# `asymptotic` and the `evolve` of a named state import
NUMPY_FREE = {"__init__", "__main__", "asymptotic", "cli", "entanglement", "generation",
              "spectral", "trajectory"}
# the code lines of src/ when the two RK45 kernels came to share one step control
MAX_CODE_LINES = 884
# the RK45 cross-check's failure messages: the step control and the
# agreement check that both of evolve's routes share raise them
CROSS_CHECK_MESSAGES = ("RK45 cross-check integration failed", "trajectories disagree")


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


def _decorator_names(node) -> set:
    """Plain names of node's decorators, whether called or not."""
    return {getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
            for d in node.decorator_list}


def _members(cls) -> list:
    """The names a class body declares in its __slots__ and as properties."""
    names = []
    for node in cls.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets)):
            names += [c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)]
        elif isinstance(node, ast.FunctionDef) and "property" in _decorator_names(node):
            names.append(node.name)
    return names


def test_every_dataclass_field_and_property_is_read_in_the_package():
    # the package's record classes declare their fields in __slots__
    trees = _trees()
    read = {n.attr for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    members = {f"{module}.{cls.name}.{name}": name for module, tree in trees.items()
               for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for name in _members(cls)}
    assert {"spectral.ModelParams.beta_omega", "spectral.KossakowskiCoefficients.Cp",
            "entanglement.ProductState.bloch1", "cli.RunConfig.params"} <= set(members), \
        "the lint no longer sees the slots"
    unread = [member for member, name in members.items() if name not in read]
    assert not unread, f"class members that only tests read: {unread}"


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


def test_reaches_only_the_allowed_numpy_linalg_functions():
    # every `linalg` attribute must be the value of an allowed one,
    # `np.linalg.<name>`; importing numpy.linalg, or binding it to a name,
    # would hide the calls from this lint
    found = []
    for module, tree in _trees().items():
        used_as = {id(n.value): n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "linalg":
                if used_as.get(id(node)) not in ALLOWED_LINALG:
                    found.append(f"{module}:{node.lineno}: {ast.unparse(node)}."
                                 f"{used_as.get(id(node), '')}")
            elif isinstance(node, ast.Import):
                found += [f"{module}:{node.lineno}: import {a.name}" for a in node.names
                          if a.name.startswith("numpy.linalg")]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and (
                    (node.module or "").startswith("numpy.linalg")
                    or node.module == "numpy" and any(a.name == "linalg" for a in node.names)):
                found.append(f"{module}:{node.lineno}: from {node.module} import ...")
    assert not found, f"numpy.linalg beyond {sorted(ALLOWED_LINALG)}: {found}"


def test_raises_no_bare_runtime_error():
    # each failure the CLI maps to an exit code has its own exception class;
    # a bare RuntimeError would escape main as a traceback
    found = []
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "RuntimeError":
                    found.append(f"{module}:{node.lineno}: {ast.unparse(node)}")
    assert not found, f"bare RuntimeError raised in src/: {found}"


def test_reads_other_modules_private_names_only_from_the_allowlist():
    # `from .module import _name` and `module._name`, module a sibling in src/;
    # the allowlist is exact, so a read that goes leaves it too
    trees = _trees()
    read = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                pairs = [(node.module, alias.name) for alias in node.names]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in trees):
                pairs = [(node.value.id, node.attr)]
            else:
                continue
            for pair in pairs:
                if pair[1].startswith("_") and pair[0] != module:
                    read.setdefault(pair, f"{module}:{node.lineno}")
    beyond = {f"{read[pair]}: {'.'.join(pair)}" for pair in read.keys() - ALLOWED_PRIVATE}
    assert not beyond, f"private names read across modules: {sorted(beyond)}"
    stale = ALLOWED_PRIVATE - read.keys()
    assert not stale, f"allowlisted but not read: {sorted(stale)}"


def test_phase_diagram_modules_import_numpy_only_inside_functions():
    # a module-level import, also one inside a class, an if or a try, runs
    # when the module is imported: numpy, or a sibling outside NUMPY_FREE,
    # which imports numpy.  The subprocess test in test_cli.py checks the run
    found = []
    for module, tree in _trees().items():
        if module not in NUMPY_FREE:
            continue
        stack = list(tree.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            stack.extend(ast.iter_child_nodes(node))
            if isinstance(node, ast.Import):
                names = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module.split(".")[0]]
            elif isinstance(node, ast.ImportFrom):
                siblings = [node.module] if node.module else [a.name for a in node.names]
                names = [f".{name}" for name in siblings if name not in NUMPY_FREE]
            else:
                continue
            found += [f"{module}:{node.lineno}: {name}" for name in names
                      if name == "numpy" or name.startswith(".")]
    assert not found, f"module-level imports of numpy on the phase-diagram path: {found}"


def test_each_cross_check_message_lives_in_one_module():
    # a policy that two modules both have to know, such as a copy of the
    # step control, would carry its messages into both
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    for message in CROSS_CHECK_MESSAGES:
        modules = sorted(module for module, text in sources.items() if message in text)
        assert len(modules) == 1, f"{message!r} in {modules}"


def _code_lines(text: str) -> int:
    """The lines of a module's source that hold a token other than a comment
    or a docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    not_code = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in not_code:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def test_code_lines_stay_under_the_ceiling():
    assert _code_lines('"""doc"""\n\nx = (1,  # one\n     2)\n\n\ndef f():\n    """doc\n    """\n'
                       '    return """not a\n    docstring"""\n') == 5
    count = sum(_code_lines(path.read_text(encoding="utf-8"))
                for path in PACKAGE.glob("*.py"))
    assert count <= MAX_CODE_LINES, (f"src/ has {count} code lines, above the ceiling "
                                     f"MAX_CODE_LINES = {MAX_CODE_LINES}")
