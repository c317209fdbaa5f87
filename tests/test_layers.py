"""The package's modules import one another in one order, lowest layer first.

Each module may import, relatively, only modules before it in ``LAYERS``, so
the imports form no cycle, not even one hidden under ``if TYPE_CHECKING:``.
The package's ``__init__.py`` re-exports every layer and is exempt.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "brandsim"
LAYERS = ("config", "model", "dynamics", "metrics", "harness", "cli")


def relative_imports(tree):
    """The package modules a module's syntax tree imports, at any depth; a name
    imported from the package itself counts as an import of ``__init__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                yield node.module.split(".")[0]
            else:
                yield from (a.name if a.name in LAYERS else "__init__" for a in node.names)


def test_imports_run_down_the_layers():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        layer = LAYERS.index(path.stem)  # a new module needs its place in LAYERS
        for target in relative_imports(ast.parse(path.read_text(encoding="utf-8"))):
            assert target in LAYERS[:layer], f"{path.stem} imports {target}"
