"""Every function, class and method in ``src/wshm`` has a caller there.

A definition that only tests call is a second path beside the one the reports
take.  The scan matches names: a definition is called when its name appears
outside its own body as a name, an attribute or an ``__all__`` entry anywhere
in the package.  Names that start with ``__`` are not scanned.
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
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.lineno, node.end_lineno
        for sub in node.body if isinstance(node, ast.ClassDef) else []:
            if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__"):
                yield f"{module}.{node.name}.{sub.name}", sub.lineno, sub.end_lineno


def _references(tree):
    """(name, line) of each name, attribute and ``__all__`` entry."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Assign) and "__all__" in [getattr(t, "id", "") for t in node.targets]:
            yield from ((e.value, node.lineno) for e in node.value.elts)


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
