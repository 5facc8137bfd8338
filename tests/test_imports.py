"""Every name a module under src/ or a test module in tests/ imports is used
in that module.

A check deleted from the code can leave its error class or helper imported
and unused, and a test deleted with it can leave what it imported; this test
finds both. A name read only inside a string annotation counts as used.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "plastlab")

# (module path from the repo root, name): why the import stays unused; none is
# allowed in tests/
ALLOWED = {
    ("src/plastlab/runner/loop.py", "network_output"): "perfbench/layertrace.py patches the name in this module",
}


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {a.asname or a.name for a in node.names}
    return names


def _used(tree: ast.Module) -> set[str]:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = [node.annotation for node in ast.walk(tree) if isinstance(node, (ast.arg, ast.AnnAssign))]
    annotations += [node.returns for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _used(ast.parse(node.value, mode="eval"))
    return names


def _modules() -> list[str]:
    """The non-__init__ modules under src/plastlab, then the modules in tests/."""
    src = sorted(
        os.path.relpath(os.path.join(root, name), ROOT).replace(os.sep, "/")
        for root, _, files in os.walk(SRC)
        for name in files
        if name.endswith(".py") and name != "__init__.py"
    )
    return src + sorted(f"tests/{name}" for name in os.listdir(os.path.join(ROOT, "tests")) if name.endswith(".py"))


def test_modules_use_every_name_they_import():
    unused = []
    for module in _modules():
        with open(os.path.join(ROOT, module), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        unused += [(module, name) for name in sorted(_imported(tree) - _used(tree)) if (module, name) not in ALLOWED]
    assert unused == []


def test_the_guard_sees_an_unused_import_and_a_string_annotation():
    tree = ast.parse("import os\nfrom x import A, B\ndef f(a: 'A') -> None:\n    pass\n")
    assert _imported(tree) - _used(tree) == {"os", "B"}


def test_every_allowed_name_is_still_imported():
    for module, name in ALLOWED:
        with open(os.path.join(ROOT, module), encoding="utf-8") as fh:
            assert name in _imported(ast.parse(fh.read())), (module, name)
