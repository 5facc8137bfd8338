"""Each memo has one owner: the network counts its own writes, only the
mitigations' optimizer step and event methods bump that count, and the
learners empty their memos themselves, so the run loop never touches one."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "plastlab"


def _nodes(path: pathlib.Path) -> list[ast.AST]:
    return list(ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))))


def _targets(node: ast.AST) -> list[ast.AST]:
    """The expressions an assignment statement writes, tuples unpacked."""
    if isinstance(node, ast.Assign):
        found = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        found = [node.target]
    else:
        return []
    out = []
    while found:
        target = found.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            found.extend(target.elts)
        else:
            out.append(target)
    return out


def test_only_mitigations_writes_the_write_count():
    writers = [
        f"{path.relative_to(SRC).as_posix()}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        if path != SRC / "mitigations.py"
        for node in _nodes(path)
        for target in _targets(node)
        if isinstance(target, ast.Attribute) and target.attr == "writes"
    ]
    assert not writers, f".writes assigned outside mitigations.py at {writers}"


def test_the_run_loop_touches_no_memo():
    found = [
        f"loop.py:{node.lineno}"
        for node in _nodes(SRC / "runner" / "loop.py")
        if isinstance(node, ast.Attribute) and "memo" in node.attr
    ]
    assert not found, f"the run loop reaches a learner's memo at {found}"

