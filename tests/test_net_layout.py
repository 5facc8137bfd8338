"""net.py owns the parameter layout: the mitigations and the learners reach it
through its public helpers, and no other module spells an injection branch name."""

import ast
import pathlib
import re

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "plastlab"
LAYOUT_USERS = [SRC / "mitigations.py", *sorted((SRC / "learners").glob("*.py"))]


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize("path", LAYOUT_USERS, ids=lambda p: p.relative_to(SRC).as_posix())
def test_no_private_name_imported_from_net(path):
    private = [
        alias.name
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "net"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, f"{path.name} imports {private} from plastlab.net"


def test_only_net_builds_injection_branch_names():
    builders = [
        f"{path.relative_to(SRC).as_posix()}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "net.py" or path.parent != SRC
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and re.search(r"\.inj", node.value)
    ]
    assert not builders, f"injection branch names spelled outside net.py at {builders}"


def test_the_checks_see_the_modules():
    assert len(LAYOUT_USERS) >= 5
    assert ".inj" in (SRC / "net.py").read_text(encoding="utf-8")
