"""Every learner takes its gradient step through `mitigations.optimizer_step`,
and calls it, `reg_loss`, `forward` and `backward` as module globals: the
names a tracer or a test rebinds on the learner module."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "plastlab"
LEARNERS = [SRC / "learners" / name for name in ("ppo.py", "c51.py", "regression.py")]
GLOBALS = ("optimizer_step", "reg_loss", "forward", "backward")
BANNED = ("add_regularizers", "clip_gradients")


def _calls(path: pathlib.Path) -> list[ast.Call]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)]


def _imported(path: pathlib.Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


@pytest.mark.parametrize("path", LEARNERS, ids=lambda p: p.name)
def test_learner_calls_the_traced_names_as_module_globals(path):
    called = {node.func.id for node in _calls(path) if isinstance(node.func, ast.Name)}
    missing = [name for name in GLOBALS if name not in called or name not in _imported(path)]
    assert not missing, f"{path.name} does not call {missing} as imported module globals"


@pytest.mark.parametrize("path", LEARNERS, ids=lambda p: p.name)
def test_learner_has_no_update_sequence_of_its_own(path):
    found = [
        f"{path.name}:{node.lineno}"
        for node in _calls(path)
        if (isinstance(node.func, ast.Name) and node.func.id in BANNED)
        or (isinstance(node.func, ast.Attribute) and node.func.attr in BANNED + ("step",))
    ]
    assert not found, f"gradient steps outside optimizer_step at {found}"
