"""Source hygiene without a linter: no module imports a name it never uses.

Each `src/rulkit/*.py` is parsed with `ast`. A name bound by an import must
be read somewhere in its module or listed in the module's `__all__`.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "rulkit"

# perfbench's tracer wraps these names in the importing module too, and
# raises if one is missing there. They go when the tracer stops listing
# them (ROADMAP item 1, Step B).
TRACER_IMPORTS = {("models", "sigmoid"), ("train_eval", "prepare_test_engine")}


def unused_imports(tree: ast.Module) -> list[str]:
    """Names that `tree`'s imports bind and that the module neither reads nor
    lists in `__all__`, in source order. `from __future__` imports are features,
    not names, and are left out."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_no_unused_name(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unused = [n for n in unused_imports(tree) if (path.stem, n) not in TRACER_IMPORTS]
    assert not unused, (
        f"{path.name} imports {unused} without using them. Delete the import; only "
        f"{sorted(TRACER_IMPORTS)} may stay unused, until ROADMAP item 1 Step B."
    )


def test_unused_imports_finds_an_unused_name():
    tree = ast.parse("import os\nimport numpy as np\nfrom a import b, c\n"
                     "__all__ = ['c']\nnp.zeros(1)\n")
    assert unused_imports(tree) == ["os", "b"]
