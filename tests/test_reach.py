"""Every module-level function and class of ``src/tqpsim`` answers to a
command, an acceptance criterion or a benchmark workload: each is named, in
code outside its own definition, somewhere in ``src/``, ``perfbench/`` or
``tests/test_acceptance.py``.  A name counts where it is read as a name or
an attribute, imported, or spelled as a whole string (``perfbench/tracing``
wraps functions by their names).  Test-only references belong in
``tests/dense_reference.py``, not in ``src/``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# names kept in src/ with no reach yet, each with the ROADMAP item that keeps it
ALLOWED = {
    "cooling_rate": "item 14: the paper's cooling comparison, to be promoted",
    "cooling_comparison": "item 14: the paper's cooling comparison, to be promoted",
    "run_pure": "item 5: to become the cross-check of the per-column certificate",
}


def _named(tree: ast.Module) -> set[tuple[str, ast.AST]]:
    """(name, the module-level statement it sits in) for every name the code
    of `tree` reads, imports or spells as a string."""
    found = set()
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                found.add((node.id, top))
            elif isinstance(node, ast.Attribute):
                found.add((node.attr, top))
            elif isinstance(node, ast.alias):
                found.add((node.name.rpartition(".")[2], top))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value.isidentifier():
                found.add((node.value, top))
    return found


def _unreached() -> set[str]:
    """The module-level functions and classes of src/tqpsim that nothing in
    the corpus names outside their own definition; module hooks such as
    ``__getattr__`` are Python's to call."""
    sources = sorted((ROOT / "src" / "tqpsim").glob("*.py"))
    corpus = sources + sorted((ROOT / "perfbench").glob("*.py")) \
        + [ROOT / "tests" / "test_acceptance.py"]
    trees = {path: ast.parse(path.read_text(), str(path)) for path in corpus}
    named = [pair for tree in trees.values() for pair in _named(tree)]
    return {top.name for path in sources for top in trees[path].body
            if isinstance(top, (ast.FunctionDef, ast.ClassDef))
            and not top.name.startswith("__")
            and not any(name == top.name and where is not top for name, where in named)}


def test_every_src_definition_is_reached():
    unreached = _unreached()
    assert unreached - set(ALLOWED) == set()
    # an entry whose definition went, or that gained a caller, leaves the list
    assert set(ALLOWED) <= unreached
