"""Every module-level function and class of the package has a caller in src/.

A name counts as used when some module of the package other than
__init__ refers to it beyond its own definition: as a bare name, as an
attribute (module.name) or in an annotation; an import alone is not a use.
Tests do not count: code that only tests call belongs in tests/helpers.py.
__init__ binds __version__ alone, so the modules are the only way in and
there is no second list of names to keep in step with them.
"""

import ast
from collections import Counter
from pathlib import Path

import delaylab

PACKAGE = Path(delaylab.__file__).parent


def test_every_module_level_name_has_a_caller():
    trees = {
        path.name: ast.parse(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    references = Counter()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references[node.id] += 1
            elif isinstance(node, ast.Attribute):
                references[node.attr] += 1
    unused = [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not references[node.name]
    ]
    assert not unused, f"no caller in src/: {unused}"


def test_init_binds_only_version():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    bound = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    }
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
    assert bound == {"__version__"}, f"__init__ binds {sorted(bound)}"
