"""Rules that the library's own source keeps."""

import ast
import re
from pathlib import Path

import chromsum

from conftest import ROUTINGS


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

        visit_ClassDef = visit_FunctionDef

    for path in sorted(Path(chromsum.__file__).parent.glob("*.py")):
        Places(path.stem).visit(ast.parse(path.read_text(), filename=str(path)))
    return found


def test_one_convolution():
    """np.convolve runs only in repcount._fold, the one pairwise product
    that count tables, the structure search and the box check share."""
    found = _places(
        lambda node: (isinstance(node, ast.Attribute) and node.attr == "convolve")
        or (isinstance(node, ast.alias) and node.name.split(".")[-1] == "convolve")
    )
    assert set(found) == {"repcount._fold"}


def test_one_fold_entry():
    """repcount._fold is named only inside repcount._box_counts (its walk
    included), which picks every count's dtype and cap from the one bound
    (repcount._bound), and its crossover repcount._PRODUCT_BITS is read
    only there, where a one-point count's exact total proves the packed
    product's slots wide enough: count tables, the search's certificate
    sizes and the margin box cannot fold at a dtype or slot width of their
    own."""
    for name in ("_fold", "_PRODUCT_BITS"):
        found = _places(
            lambda node: isinstance(node, (ast.Name, ast.Attribute))
            and name in (getattr(node, "id", None), getattr(node, "attr", None))
            and isinstance(node.ctx, ast.Load)
        )
        assert found, name
        assert all(f == "repcount._box_counts" or f.startswith("repcount._box_counts.") for f in found), name


def test_one_row_source():
    """repcount._exact_row and repcount._capped_rows are named only inside
    repcount._rows, the one entry every fold and every packed product
    reads its rows from, and the packed steps only there and in
    repcount._exact_row; the row scope's memo (repcount._ROWS) is read
    only in repcount._rows and repcount._shared_rows: no caller builds or
    keeps rows of its own."""
    for name, places in (("_exact_row", {"repcount._rows"}), ("_capped_rows", {"repcount._rows"}),
                         ("_packed_steps", {"repcount._rows", "repcount._exact_row"})):
        found = _places(lambda node: name in (getattr(node, "id", None), getattr(node, "attr", None)))
        assert set(found) == places, name
    found = _places(
        lambda node: isinstance(node, ast.Name) and node.id == "_ROWS" and isinstance(node.ctx, ast.Load)
    )
    assert found and all(f == "repcount._rows" or f.startswith("repcount._shared_rows.") for f in found)
    # no definition, import or use of the per-search row keeper
    named = ("id", "attr", "name")
    assert _places(lambda node: "_TFoldSets" in (getattr(node, key, None) for key in named)) == []


def test_one_box_check():
    """repcount._shape_fits is named only in repcount._streamed_box_fits,
    which verify_box calls: the structure search proves the margin box
    with its certificate and checks no box."""
    found = _places(
        lambda node: (isinstance(node, ast.Name) and node.id == "_shape_fits")
        or (isinstance(node, ast.Attribute) and node.attr == "_shape_fits")
    )
    assert found == ["repcount._streamed_box_fits"]
    found = _places(
        lambda node: (isinstance(node, ast.Name) and node.id == "_streamed_box_fits")
        or (isinstance(node, ast.Attribute) and node.attr == "_streamed_box_fits")
    )
    assert found == ["structure.verify_box"]


def _trees() -> list[ast.Module]:
    return [
        ast.parse(path.read_text(), filename=str(path))
        for path in sorted(Path(chromsum.__file__).parent.glob("*.py"))
    ]


def _constants(trees: list[ast.Module]) -> set[str]:
    """The module-level UPPER_CASE names the library assigns."""
    assigned = [
        target
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
    ]
    names = [
        name.id
        for target in assigned
        for name in (target.elts if isinstance(target, ast.Tuple) else [target])
        if isinstance(name, ast.Name)
    ]
    return {name for name in names if re.fullmatch(r"_?[A-Z][A-Z0-9_]*", name)}


def test_every_constant_is_read():
    """Every module-level UPPER_CASE constant of the library is read
    somewhere in it besides its own assignment, so a deleted path cannot
    leave its constant behind."""
    trees = _trees()
    constants = _constants(trees)
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    assert constants, "no constant found"
    assert sorted(constants - read) == []


# the library's constants that choose no route, and what each is
_NOT_ROUTING = {
    "_ZERO": "the translation set {0} of the plain tables",
    "_ROWS": "the row scope's shared rows",
    "DEFAULT_BUDGET": "the oracle's default refusal size",
    "DEFAULT_MARGIN": "the default margin of a result's box",
    "_FIELDS": "the command line's request fields",
    "_COMMANDS": "the command line's subcommands",
}


def test_every_routing_constant_is_forced():
    """Every constant of the library is forced by some routing of the
    tests' routing fixture (conftest.ROUTINGS), under which the golden
    fixture and oracle tables are checked, or named in _NOT_ROUTING as
    choosing no route: a new crossover cannot land with a route that no
    test takes."""
    forced = {name for routing in ROUTINGS.values() for name in routing}
    constants = _constants(_trees())
    assert sorted(constants - forced - set(_NOT_ROUTING)) == []
    assert sorted(set(_NOT_ROUTING) - constants) == []
    assert sorted(forced - constants - {"_dtype"}) == []


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
    """Packed integers are stepped only in repcount._packed_steps (the
    module's one loop that shifts a row by an element's slots) and read
    back into slots only in repcount._unpack, which only
    repcount._exact_row and repcount._box_counts call, each with slots
    proven wider than every count they can hold: no other path can read a
    slot that a carry has reached."""
    found = _places(
        lambda node: isinstance(node, ast.Attribute)
        and node.attr in {"to_bytes", "from_bytes", "frombuffer"}
    )
    assert set(found) == {"repcount._unpack"}
    found = _places(lambda node: isinstance(node, ast.Name) and node.id == "_unpack")
    assert set(found) == {"repcount._exact_row", "repcount._box_counts"}


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
