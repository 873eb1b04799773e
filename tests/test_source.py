"""Rules that the library's own source keeps."""

import ast
from pathlib import Path

import chromsum


def test_library_has_no_assert():
    """python -O strips assert statements, so an internal invariant must
    raise an explicit error instead."""
    src = Path(chromsum.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _imports(module: str) -> set[str]:
    """The dotted parts of every module a library module imports, and of
    every name it imports from one (``from . import oracle`` and
    ``from chromsum.oracle import x`` both give ``oracle``)."""
    path = Path(chromsum.__file__).parent / f"{module}.py"
    parts = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        else:
            continue
        parts.update(part for name in names for part in name.split("."))
    return parts


def test_layering():
    """structure.py reaches arrays only through repcount, which owns every
    numpy kernel and the dtype rules that keep them exact; and the fast
    path, the command line included, shares no code with the brute-force
    oracle, its ground truth."""
    pairs = [
        ("structure", "numpy"),
        ("structure", "oracle"),
        ("repcount", "oracle"),
        ("cli", "oracle"),
    ]
    assert [pair for pair in pairs if pair[1] in _imports(pair[0])] == []


def test_one_convolution():
    """np.convolve runs only in repcount._fold, which count tables, the
    structure search and the box check share: the gaps of a packed box
    fold are paid where they are proven harmless, and nowhere else."""
    found = []

    class Calls(ast.NodeVisitor):
        def __init__(self, module: str):
            self.where = [module]

        def visit_FunctionDef(self, node):
            self.where.append(node.name)
            self.generic_visit(node)
            self.where.pop()

        def visit_Attribute(self, node):
            if node.attr == "convolve":
                found.append(".".join(self.where))
            self.generic_visit(node)

        def visit_alias(self, node):
            if node.name.split(".")[-1] == "convolve":
                found.append(".".join(self.where))

    for path in sorted(Path(chromsum.__file__).parent.glob("*.py")):
        Calls(path.stem).visit(ast.parse(path.read_text(), filename=str(path)))
    assert set(found) == {"repcount._fold"}
