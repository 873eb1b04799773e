"""Rules that the library's own source keeps."""

import ast
import inspect
import re
from pathlib import Path

import chromsum
from chromsum import _arrays

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


def _top_imports(module: str) -> set[str]:
    """The library modules and numpy that a library module imports at its
    top level (imports inside a function run only when it is called)."""
    path = Path(chromsum.__file__).parent / f"{module}.py"
    found = set()
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level:
            # from .module import x, or from . import module
            found.update([node.module] if node.module else [alias.name for alias in node.names])
    return found & {"numpy", *(path.stem for path in Path(chromsum.__file__).parent.glob("*.py"))}


def _cli_process() -> set[str]:
    """Every module a command-line process imports before it runs a
    command: the top-level imports of __main__ and of the package, and
    theirs in turn."""
    loaded, todo = set(), ["__main__", "__init__"]
    while todo:
        module = todo.pop()
        if module not in loaded:
            loaded.add(module)
            if module != "numpy":
                todo += _top_imports(module)
    return loaded


def test_layering():
    """structure.py reaches arrays only through repcount, which owns every
    numpy kernel (in its numpy half, _arrays) and the dtype rules that
    keep them exact; and the fast path, the command line included, shares
    no code with the brute-force oracle, its ground truth: a command-line
    process does not even import it."""
    pairs = [
        ("structure", "numpy"),
        ("structure", "oracle"),
        ("repcount", "oracle"),
        ("cli", "oracle"),
    ]
    assert [pair for pair in pairs if pair[1] in _imports(pair[0])] == []
    assert {"cli", "repcount", "structure"} <= _cli_process()
    assert [name for name in ("oracle", "lemmas", "_arrays", "numpy") if name in _cli_process()] == []


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
    """np.convolve runs only in _arrays._fold, the one pairwise product
    that count tables, the structure search and the box check share."""
    found = _places(
        lambda node: (isinstance(node, ast.Attribute) and node.attr == "convolve")
        or (isinstance(node, ast.alias) and node.name.split(".")[-1] == "convolve")
    )
    assert set(found) == {"_arrays._fold"}


def test_one_fold_entry():
    """_arrays._fold is named only inside _arrays._walk, the walk that only
    repcount._box_counts names, which picks every count's dtype and cap
    from the one exact total it computes at the box's top corner and hands
    the walk; its crossover repcount._PRODUCT_BITS is read only there,
    where that total proves the packed product's slots wide enough: count
    tables, the search's certificate sizes and the margin box cannot fold
    at a dtype or slot width of their own."""
    for name, entry in (("_fold", "_arrays._walk"), ("_walk", "repcount._box_counts"),
                        ("_PRODUCT_BITS", "repcount._box_counts")):
        found = _places(
            lambda node: isinstance(node, (ast.Name, ast.Attribute))
            and name in (getattr(node, "id", None), getattr(node, "attr", None))
            and isinstance(node.ctx, ast.Load)
        )
        assert found, name
        assert all(f == entry or f.startswith(f"{entry}.") for f in found), name


def test_one_row_source():
    """_arrays._exact_row and _arrays._capped_rows are named only inside
    _arrays._rows, the one entry every fold reads its row arrays from,
    which takes no slot width and returns arrays alone; packed rows come
    only from repcount._prefixes, which only _arrays._exact_row and the
    packed product of repcount._box_counts call; the row scope
    (repcount._ROWS) is read only in repcount._prefixes and
    repcount._shared_rows, and no row array is marked read-only to be
    kept: no caller builds or keeps rows of its own."""
    for name, places in (("_exact_row", {"_arrays._rows"}), ("_capped_rows", {"_arrays._rows"}),
                         ("_prefixes", {"_arrays._exact_row", "repcount._box_counts"})):
        found = _places(lambda node: name in (getattr(node, "id", None), getattr(node, "attr", None)))
        assert set(found) == places, name
    assert list(inspect.signature(_arrays._rows).parameters) == ["elements", "hs", "cap"]
    assert inspect.signature(_arrays._rows).return_annotation == "list[np.ndarray]"
    found = _places(
        lambda node: isinstance(node, ast.Name) and node.id == "_ROWS" and isinstance(node.ctx, ast.Load)
    )
    assert set(found) == {"repcount._prefixes", "repcount._shared_rows.__enter__",
                          "repcount._shared_rows.__exit__"}
    assert "_ROWS" not in vars(_arrays)
    assert _places(lambda node: isinstance(node, ast.Attribute) and node.attr == "setflags") == []
    # no definition, import or use of the per-search row keeper
    named = ("id", "attr", "name")
    assert _places(lambda node: "_TFoldSets" in (getattr(node, key, None) for key in named)) == []


def test_one_box_check():
    """_arrays._shape_fits, the walk's shape test, and
    repcount._packed_fits, the packed products', are each named only in
    repcount._streamed_box_fits, which verify_box calls: the structure
    search proves the margin box with its certificate and checks no
    box."""
    for name in ("_shape_fits", "_packed_fits"):
        found = _places(
            lambda node: (isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name)
        )
        assert found == ["repcount._streamed_box_fits"], name
    found = _places(
        lambda node: (isinstance(node, ast.Name) and node.id == "_streamed_box_fits")
        or (isinstance(node, ast.Attribute) and node.attr == "_streamed_box_fits")
    )
    assert found == ["structure.verify_box"]


def test_structure_validates_at_its_boundary():
    """structure builds an HVec or a FiniteSet only where a value enters
    or leaves the library: a result and its JSON form, a fringe constant,
    the constructive threshold and the points verify_box returns.  The
    search, its certificate and the constructive route run on plain
    coordinate tuples and on the (part, color) pairs of structure._parts,
    so nothing the library made is validated again: no tuple is
    reflected, and no function of structure calls a public entry that
    checks its arguments again."""

    def calls(name: str) -> set[str]:
        return {
            f for f in _places(
                lambda node: isinstance(node, ast.Call)
                and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
            )
            if f.startswith("structure.")
        }

    assert calls("HVec") == {
        "structure.StructureResult.from_json", "structure._box_points",
        "structure._result", "structure.threshold_constructive",
    }
    assert calls("FiniteSet") == {
        "structure.StructureResult.pattern_set", "structure.StructureResult.from_json",
        "structure._result", "structure._fringe_constants",
    }
    for name in ("reflected", "certified_rep_bound", "closed_form_threshold", "low_fringe_constants"):
        assert calls(name) == set(), name
    named = ("id", "attr", "name")
    for name in ("hvec_add_unit", "hvec_sup", "_flat_nonzero"):
        found = _places(lambda node: name in (getattr(node, key, None) for key in named))
        assert [f for f in found if f == "structure" or f.startswith("structure.")] == [], name


def test_one_member_reader():
    """repcount._tfold is the one reader of t-fold members: CountTable
    has no member reader of its own below its public ones, and lemmas
    reads every member set through _tfold, building a count table
    (repcount._table) only in _check_reflection_table, the one check
    that compares counts."""
    from chromsum.repcount import CountTable

    assert not hasattr(CountTable, "_at_least")
    found = _places(
        lambda node: "_table" in (getattr(node, "id", None), getattr(node, "attr", None))
    )
    assert {f for f in found if f.startswith("lemmas")} == {"lemmas._check_reflection_table"}
    named = ("id", "attr", "name")
    for name in ("CountTable", "hvec_add_unit", "support", "support_at_least", "_at_least"):
        found = _places(lambda node: name in (getattr(node, key, None) for key in named))
        assert [f for f in found if f == "lemmas" or f.startswith("lemmas.")] == [], name


def test_one_scalar_validator():
    """intset._is_int is named only in intset, where the one scalar
    validator intset._require_int uses it: every other module refuses a
    scalar parameter through that validator, with one message per
    condition, and the per-module checks it replaced are gone."""
    named = ("id", "attr", "name")
    found = _places(lambda node: "_is_int" in (getattr(node, key, None) for key in named))
    assert found and all(f == "intset" or f.startswith("intset.") for f in found)
    for name in ("_require_t", "_require_margin", "_validate_cap"):
        assert _places(lambda node: name in (getattr(node, key, None) for key in named)) == [], name


def test_one_check_per_shared_refusal():
    """A refusal that several entries share is raised by one helper in
    intset, so its condition and its message are written once."""
    for message, place in [
        ("the translation set must have minimum 0", "intset._translation"),
        ("exponent vectors of different lengths", "intset._require_same_length"),
    ]:
        assert _places(lambda node: isinstance(node, ast.Constant) and node.value == message) == [place]


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
    "_ZERO_ONE": "lemmas.run_all's default translation set {0, 1}",
    "_ROWS": "the row scope's packed states",
    "_LAZY": "the package's names loaded on first use",
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
    """A float type is named only in _arrays._walk, which picks the fold's
    dtype, float64 where the bound repcount._box_counts hands it proves
    every count below 2^53, and casts a one-point box's counts back to
    int64: no other path can count in floats, where an integer past 2^53
    would round."""
    found = _places(
        lambda node: (isinstance(node, ast.Attribute) and node.attr in _FLOAT_TYPES)
        or (isinstance(node, ast.Name) and node.id in _FLOAT_TYPES)
        or (isinstance(node, ast.alias) and node.name.split(".")[-1] in _FLOAT_TYPES)
        or (isinstance(node, ast.Constant) and node.value in _FLOAT_TYPES)
    )
    assert found and set(found) == {"_arrays._walk"}


def _shift_and_add(node) -> bool:
    """Whether node adds a shifted value to another, the shifted value
    being no constant: the step of a packed row."""
    def shifted(value):
        return (isinstance(value, ast.BinOp) and isinstance(value.op, ast.LShift)
                and not isinstance(value.left, ast.Constant))
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return shifted(node.left) or shifted(node.right)
    return isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add) and shifted(node.value)


def test_one_packed_kernel():
    """Packed integers are stepped only in repcount._prefixes (the
    module's one loop that adds a row shifted by an element's slots), and
    no caller steps a row of its own; they are read back into slots only
    in repcount._slots, which only _arrays._exact_row and the packed
    product's readers (repcount._Product) call, each with slots proven
    wider than every count they can hold: no other path can read a slot
    that a carry has reached."""
    assert _places(_shift_and_add) == ["repcount._prefixes"]
    names = {"to_bytes", "from_bytes", "frombuffer", "cast"}
    found = _places(lambda node: isinstance(node, ast.Attribute) and node.attr in names)
    assert set(found) == {"repcount._slots"}
    found = _places(lambda node: isinstance(node, ast.Name) and node.id == "_slots")
    assert set(found) == {"_arrays._exact_row", "repcount._Product.marks", "repcount._Product.counts"}


def test_numpy_in_one_module():
    """numpy is imported by one module of the library, _arrays, at its
    top, and no other module names np: repcount reaches arrays only
    through function-level imports of _arrays on the routes that need
    them, so a process whose counts are all short packed products never
    loads numpy."""
    importers = {}
    for path in sorted(Path(chromsum.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            names = [alias.name for alias in node.names] if isinstance(node, ast.Import) else (
                [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.setdefault(path.stem, []).append(node in tree.body)
    assert importers == {"_arrays": [True]}
    found = _places(lambda node: isinstance(node, ast.Name) and node.id == "np")
    assert found and all(f == "_arrays" or f.startswith("_arrays.") for f in found)


def _star_imported() -> list[str]:
    """The modules whose names the package re-exports: every module that
    its __init__ imports with `from .module import *`."""
    tree = ast.parse(Path(chromsum.__file__).read_text())
    return [node.module for node in tree.body
            if isinstance(node, ast.ImportFrom) and [alias.name for alias in node.names] == ["*"]]


def test_lazy_names_are_the_oracle_and_lemmas_names():
    """The package loads on first use exactly the __all__ of oracle and of
    lemmas, each name from its own module, and the two modules by name."""
    from chromsum import lemmas, oracle

    lazy = {}
    for module in (oracle, lemmas):
        short = module.__name__.rpartition(".")[2]
        lazy.update(dict.fromkeys([short, *module.__all__], short))
    assert chromsum._LAZY == lazy


def test_star_imported_modules_share_no_name():
    """The modules the package star-imports have pairwise disjoint
    __all__s, none of which is loaded on first use: a name in two of them
    would be shadowed silently by the later import."""
    assert _star_imported() == ["errors", "intset", "repcount", "structure"]
    names = [name for module in _star_imported() for name in getattr(chromsum, module).__all__]
    assert len(names) == len(set(names)) and not set(names) & set(chromsum._LAZY)


def test_every_public_name_resolves():
    """The package's __all__ is sorted with no repeats, every name in it
    resolves, and it is the union of the star-imported modules' __all__s
    and of the names loaded on first use."""
    public = chromsum.__all__
    assert public == sorted(set(public))
    assert [name for name in public if not hasattr(chromsum, name)] == []
    lazy = {name for name, module in chromsum._LAZY.items() if name != module}
    assert set(public) == lazy.union(*(getattr(chromsum, m).__all__ for m in _star_imported()))


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
