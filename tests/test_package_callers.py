"""Every function, class and method in ``src/wshm`` has a caller there, every
name a module imports is used in it, and the unchecked constructors and the
scalar triple stay in the modules that own them.

A definition that only tests call is a second path beside the one the reports
take.  The scan matches names: a definition is called when its name appears
outside its own body as a name, an attribute or an ``__all__`` entry anywhere
in the package.  Names that start with ``__`` are not scanned.  An import is
used when its bound name appears in its module as a name or an ``__all__``
entry, so a deletion cannot leave a stale import behind.
"""

import ast
from pathlib import Path

import wshm

ALLOWED = {
    # the kept public API: methods of types in ``wshm.__all__``
    "algebra.GradedPolynomial.is_homogeneous",
    "algebra.GradedPolynomial.times_monomial",
    "spaces.WeightedShiftSpace.spherical_defect",  # README's tour; the tests' defect reference
    "exact_linalg.kernel_basis",  # until the benchmark PR retargets `perfbench/tracer.py`
    "exact_linalg.solve",  # until the benchmark PR retargets `perfbench/tracer.py`
    "operators.GradedOperator.norm",  # until the benchmark PR retargets `perfbench/tracer.py`
    "operators.GradedOperator.onb_block",  # until the benchmark PR retargets `perfbench/tracer.py`
    "operators.ModuleRealization.project_to_complement",  # until the benchmark PR retargets `perfbench/tracer.py`
    "operators.pn_split",  # until the benchmark PR retargets `perfbench/tracer.py`
}


def _definitions(module, tree):
    """(qualified name, first line, last line) of each top-level function and
    class and of each method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("__"):
            yield f"{module}.{node.name}", node.lineno, node.end_lineno
        for sub in node.body if isinstance(node, ast.ClassDef) else []:
            if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__"):
                yield f"{module}.{node.name}.{sub.name}", sub.lineno, sub.end_lineno


def _all_entries(node):
    """The entries of an ``__all__`` assignment; none for any other node."""
    if isinstance(node, ast.Assign) and "__all__" in [getattr(t, "id", "") for t in node.targets]:
        return [e.value for e in node.value.elts]
    return []


def _references(tree):
    """(name, line) of each name, attribute and ``__all__`` entry."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        else:
            yield from ((e, node.lineno) for e in _all_entries(node))


def test_every_package_definition_has_a_package_caller():
    defs, refs = [], {}
    for path in Path(wshm.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        defs += [(path, *d) for d in _definitions(path.stem, tree)]
        for name, line in _references(tree):
            refs.setdefault(name, []).append((path, line))
    uncalled = {
        qual
        for path, qual, first, last in defs
        if all(p == path and first <= line <= last for p, line in refs.get(qual.split(".")[-1], []))
    }
    assert sorted(uncalled - ALLOWED) == []
    # a name leaves the list when it is deleted or gains a package caller
    assert sorted(ALLOWED - uncalled) == []


def _imported_names(tree):
    """Each name a module's imports bind, ``from __future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


def test_every_package_import_is_used():
    unused = []
    for path in sorted(Path(wshm.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {e for node in ast.walk(tree) for e in _all_entries(node)}
        used |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{name}" for name in _imported_names(tree) if name not in used]
    assert unused == []


# name -> the modules that may reference it: the unchecked constructors skip the
# checks that the public ones make, and the triple (a + b i) / d is read only by
# the integer kernels
PRIVATE_TO = {
    "_summed": {"algebra"},
    "_poly": {"algebra"},
    "_make": {"algebra", "exact_linalg"},
    "_reduced": {"algebra", "exact_linalg"},
    "_a": {"algebra", "exact_linalg", "operators"},
    "_b": {"algebra", "exact_linalg", "operators"},
    "_d": {"algebra", "exact_linalg", "operators"},
}


def test_private_constructors_and_the_scalar_triple_stay_in_their_modules():
    where = {}
    for path in Path(wshm.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        for name in {name for name, _ in _references(tree)} | set(_imported_names(tree)):
            where.setdefault(name, set()).add(path.stem)
    stray = {name: sorted(where.get(name, set()) - home) for name, home in PRIVATE_TO.items()}
    assert {name: modules for name, modules in stray.items() if modules} == {}
    # a rule lapses silently when its name is renamed away
    assert all(where.get(name) for name in PRIVATE_TO)
