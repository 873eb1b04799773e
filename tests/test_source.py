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


def _places(hit) -> list[str]:
    """module.function (the module alone at top level) of every node of
    the library's source for which hit(node) holds."""
    found = []

    class Places(ast.NodeVisitor):
        def __init__(self, module: str):
            self.where = [module]

        def visit(self, node):
            if hit(node):
                found.append(".".join(self.where))
            return super().visit(node)

        def visit_FunctionDef(self, node):
            self.where.append(node.name)
            self.generic_visit(node)
            self.where.pop()

    for path in sorted(Path(chromsum.__file__).parent.glob("*.py")):
        Places(path.stem).visit(ast.parse(path.read_text(), filename=str(path)))
    return found


def test_one_convolution():
    """np.convolve runs only in repcount._fold, which count tables, the
    structure search and the box check share: the gaps of a packed box
    fold are paid where they are proven harmless, and nowhere else."""
    found = _places(
        lambda node: (isinstance(node, ast.Attribute) and node.attr == "convolve")
        or (isinstance(node, ast.alias) and node.name.split(".")[-1] == "convolve")
    )
    assert set(found) == {"repcount._fold"}


def test_one_fold_entry():
    """repcount._fold is named only in repcount._box_counts, which picks
    every count's dtype and cap from the one bound (repcount._bound):
    count tables, the search's certificate sizes and the margin box
    cannot fold at a dtype of their own."""
    found = _places(
        lambda node: (isinstance(node, ast.Name) and node.id == "_fold")
        or (isinstance(node, ast.Attribute) and node.attr == "_fold")
    )
    assert found == ["repcount._box_counts"]


_FLOAT_TYPES = {
    "float64", "float_", "double", "float32", "single", "float16", "half", "longdouble", "f8", "f4",
}


def test_one_float_fold():
    """A float type is named only where repcount._box_counts picks the
    fold's dtype, float64 where its bound proves every count below 2^53:
    no other path can count in floats, where an integer past 2^53 would
    round."""
    found = _places(
        lambda node: (isinstance(node, ast.Attribute) and node.attr in _FLOAT_TYPES)
        or (isinstance(node, ast.Name) and node.id in _FLOAT_TYPES)
        or (isinstance(node, ast.alias) and node.name.split(".")[-1] in _FLOAT_TYPES)
        or (isinstance(node, ast.Constant) and node.value in _FLOAT_TYPES)
    )
    assert found == ["repcount._box_counts"]


def test_one_packed_kernel():
    """Integers are packed into bytes and back only in
    repcount._exact_row, where each slot is proven wider than every count
    it can hold: no other path can read a slot that a carry has reached."""
    found = _places(
        lambda node: isinstance(node, ast.Attribute) and node.attr in {"to_bytes", "from_bytes"}
    )
    assert set(found) == {"repcount._exact_row"}


def test_cli_imports_only_public_names():
    """The command line is a client of the library's public surface: it
    imports no _-prefixed name from a chromsum module."""
    path = Path(chromsum.__file__).parent / "cli.py"
    found = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("chromsum"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []


def test_every_error_is_raised():
    """Every ChromsumError leaf class in errors.py appears in some raise of
    the library's source: a documented failure that never happens is a
    stale promise."""
    leaves = {
        name for name, cls in vars(chromsum.errors).items()
        if isinstance(cls, type) and issubclass(cls, chromsum.errors.ChromsumError)
        and not cls.__subclasses__()
    }
    raised = set()
    for path in sorted(Path(chromsum.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert leaves and sorted(leaves - raised) == []
