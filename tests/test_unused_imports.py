"""No module of src/delaylab, tests/ or demos/ imports a name it never uses.

A name bound by an import counts as used when the module refers to it as a
bare name anywhere, including as the root of an attribute (np.asarray) or
in an annotation.  __future__ imports are exempt.
"""

import ast
from pathlib import Path

import delaylab

PACKAGE = Path(delaylab.__file__).parent
TESTS = Path(__file__).parent
DEMOS = TESTS.parent / "demos"


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}:{name}" for name, line in bound.items() if name not in used]


def test_no_unused_imports():
    paths = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")) + sorted(DEMOS.glob("*.py"))
    unused = [entry for path in paths for entry in unused_imports(path)]
    assert not unused, f"imported but never used: {unused}"
