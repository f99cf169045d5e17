"""Source hygiene without a linter: no module imports a name it never uses,
and no function, class or method is there only for the tests.

Each `src/rulkit/*.py` is parsed with `ast`. A name bound by an import must
be read somewhere in its module or listed in the module's `__all__`. A
module-level function or class, or a class's method, must be referenced by
name from `src/rulkit` or `perfbench/`; `tests/` and `benchmarks/` do not
count, since code that only they reach should go.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rulkit"
PERFBENCH = ROOT / "perfbench"

# perfbench's tracer wraps these names in the importing module too, and
# raises if one is missing there. They go when the tracer stops listing
# them (ROADMAP item 1, Step B).
TRACER_IMPORTS = {("models", "sigmoid"), ("train_eval", "prepare_test_engine")}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


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
    unused = [n for n in unused_imports(_parse(path)) if (path.stem, n) not in TRACER_IMPORTS]
    assert not unused, (
        f"{path.name} imports {unused} without using them. Delete the import; only "
        f"{sorted(TRACER_IMPORTS)} may stay unused, until ROADMAP item 1 Step B."
    )


def test_unused_imports_finds_an_unused_name():
    tree = ast.parse("import os\nimport numpy as np\nfrom a import b, c\n"
                     "__all__ = ['c']\nnp.zeros(1)\n")
    assert unused_imports(tree) == ["os", "b"]


def defined_names(tree: ast.Module) -> list[str]:
    """`tree`'s module-level functions and classes and its classes' methods, in
    source order. Dunder methods are left out: Python calls them itself."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [f.name for f in node.body
                      if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def referenced_names(tree: ast.Module, strings: bool = False) -> set[str]:
    """Every name `tree` reads, as a bare name or an attribute, or imports from
    a module; with `strings`, every string constant too, since perfbench's
    tracer names the functions it wraps in strings."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {a.name for a in node.names}
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_definition_is_referenced_from_src_or_perfbench():
    used = set()
    for path in SRC.glob("*.py"):
        used |= referenced_names(_parse(path))
    for path in PERFBENCH.glob("*.py"):
        used |= referenced_names(_parse(path), strings=True)
    unreferenced = [f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
                    for name in defined_names(_parse(path)) if name not in used]
    assert not unreferenced, (
        f"{unreferenced} are referenced from neither src/rulkit nor perfbench/; "
        f"what only tests/ or benchmarks/ reach should go."
    )


def test_definition_scan_on_a_snippet():
    tree = ast.parse(
        "import a\nfrom b import c\n"
        "def f(): return g\n"
        "class C:\n    def m(self): pass\n    def __eq__(self, o): pass\n    x = 1\n"
        "def g():\n    def inner(): pass\n"
        "h = C().m\nC.x = 'unused'\n"
    )
    assert defined_names(tree) == ["f", "C", "m", "g"]
    used = referenced_names(tree)
    assert {"g", "C", "m", "c"} <= used
    assert not {"f", "inner", "h", "x", "unused", "a"} & used
    assert "unused" in referenced_names(tree, strings=True)


# Lower layers first: a module may import only modules listed before it.
LAYERS = ("errors", "ioutil", "numerics", "dataset_io", "simdata", "preprocess", "models",
          "optim", "train_eval", "cli")


def imported_modules(tree: ast.Module, package: str = "rulkit") -> list[str]:
    """The sibling modules that `tree` imports from its package, at any depth of
    the tree (inside functions too), in the order ast.walk meets them:
    `from . import a`, `from .a import x`, `import rulkit.a`, `from rulkit import a`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name.split(".")[1] for a in node.names
                      if a.name.startswith(f"{package}.")]
        elif isinstance(node, ast.ImportFrom):
            relative = node.level > 0
            parts = (node.module or "").split(".")
            if not relative and parts[0] != package:
                continue
            parts = parts[0 if relative else 1:]
            found += [parts[0]] if parts and parts[0] else [a.name for a in node.names]
    return found


@pytest.mark.parametrize("name", LAYERS)
def test_module_imports_only_lower_layers(name):
    lower = LAYERS[: LAYERS.index(name)]
    upward = [m for m in imported_modules(_parse(SRC / f"{name}.py")) if m not in lower]
    assert not upward, (
        f"{name}.py imports {upward}, which are not below it in {LAYERS}. Move what "
        f"both need into the lower module instead."
    )


def test_every_module_has_a_layer():
    assert {p.stem for p in SRC.glob("*.py")} - {"__init__"} == set(LAYERS)


def test_imported_modules_on_a_snippet():
    tree = ast.parse(
        "import os\nimport rulkit.models\nfrom . import cli, errors\n"
        "from .preprocess import x\nfrom rulkit import optim\nfrom rulkit.simdata import y\n"
        "from numpy import z\nfrom rulkitx import w\n"
        "def f():\n    from .train_eval import g\n"
    )
    assert sorted(imported_modules(tree)) == sorted(
        ["models", "cli", "errors", "preprocess", "optim", "simdata", "train_eval"])
