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


def test_structure_imports_no_numpy():
    """structure.py reaches arrays only through repcount, which owns every
    numpy kernel and the dtype rules that keep them exact."""
    path = Path(chromsum.__file__).parent / "structure.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
    assert not any(name.split(".")[0] == "numpy" for name in imported)
