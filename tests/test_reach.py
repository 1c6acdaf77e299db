"""Every module-level function, class and constant of ``src/tqpsim``
answers to a command, an acceptance criterion or a benchmark workload: each
is reached by a walk of the call graph from the CLI's ``main`` and
``_COMMANDS`` table (its runners and config rules), from the package's
module hooks ``__getattr__`` and ``__dir__``, which Python calls, from
``perfbench/`` and from ``tests/test_acceptance.py``, through every
definition the walk reaches.
A definition reads a name where it reads it as a name or an attribute,
imports it, or spells it as a whole string (``perfbench/tracing`` wraps
functions by their names); names are matched across modules, not resolved.
Test-only references belong in ``tests/dense_reference.py``, not in
``src/``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# names kept in src/ with no reach yet, each with the ROADMAP item that keeps it
ALLOWED = {
    "cooling_rate": "item 14: the paper's cooling comparison, to be promoted",
    "cooling_comparison": "item 14: the paper's cooling comparison, to be promoted",
    "CoolingComparison": "item 14: the paper's cooling comparison, to be promoted",
    "epsilon_tqp": "item 14: the paper's cooling comparison, to be promoted",
    "run_pure": "item 5: to become the cross-check of the per-column certificate",
    "StateError": "item 5: fock.StateError, raised by run_pure",
    "SUPPORT_LEAK_TOL": "item 5: run_pure's bound on the population leaving the basis pairs",
    "MEMORY_BUDGET_MB": "the README's memory budget, which tests/test_cli.py measures against",
}


def _read(node: ast.AST) -> set[str]:
    """Every name the code of `node` reads, imports or spells as a string."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.rpartition(".")[2])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            found.add(sub.value)
    return found


def _bound(top: ast.stmt) -> set[str]:
    """The names a module-level statement defines: a function's or class's
    name, or an assignment's plain targets (such as ``_COMMANDS``)."""
    if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
        return {top.name}
    targets = top.targets if isinstance(top, ast.Assign) else []
    return {target.id for target in targets if isinstance(target, ast.Name)}


def _unreached() -> set[str]:
    """The module-level functions, classes and constants of src/tqpsim that
    the walk from the roots never reaches."""
    trees = [ast.parse(path.read_text(), str(path))
             for path in sorted((ROOT / "src" / "tqpsim").glob("*.py"))]
    reads: dict[str, set[str]] = {}  # name -> what its definitions read
    for tree in trees:
        for top in tree.body:
            for name in _bound(top):
                reads.setdefault(name, set()).update(_read(top))
    roots = {"main", "_COMMANDS", "__getattr__", "__dir__"}
    corpus = sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    for path in corpus:
        roots |= _read(ast.parse(path.read_text(), str(path)))
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(reads.get(name, ()))
    return {name for tree in trees for top in tree.body for name in _bound(top)
            if name not in reached}


def test_every_src_definition_is_reached():
    unreached = _unreached()
    assert unreached - set(ALLOWED) == set()
    # an entry whose definition went, or that gained a caller, leaves the list
    assert set(ALLOWED) <= unreached
