"""Every import in ``src/satkit`` and ``scripts`` is used; ``__init__.py``
re-exports are exempt.  Every private function, method or class defined in ``src/satkit``
is referenced in ``src`` or ``tests``.  Every public module-level function
or class, and every public method, in ``src/satkit`` is referenced outside
its own definition in ``src``, ``scripts`` or ``perfbench`` (``__init__.py``
re-exports do not count): a function or class by a bare name no enclosing
function binds, an import alias, an attribute of an imported module or a
dotted string, a method by any attribute too.  ``tests`` count as callers
of the declared library API alone: the names ``__init__.py`` imports and
the public module-level definitions of ``catalog.py``, never a method.
``satkit.__all__`` is exactly the names ``__init__.py`` imports.  Every
defaulted parameter of a ``src/satkit`` function, and every defaulted field
of a ``Record`` subclass, is set by some call there, or
in ``tests`` for the API (a call to a class sets its ``__init__`` or its
fields, a call to an attribute any function of that name, and
``*args``/``**kwargs`` set everything).  Every ``name = ...`` local in a
``src/satkit`` function is read in that function.  Outside ``formats.py``,
``src/satkit`` and ``scripts`` reach the formats through their one
dispatch (``serialize``, ``to_obj``, ``load_path``, ``obj_to_any``), never a
per-type function.  Outside ``groups.py``, ``src/satkit`` and ``scripts``
never read ``todd_coxeter``: only ``strong_winding_check`` enumerates
cosets.  Outside ``__init__.py``, ``src/satkit`` never reads ``writhe`` or
``linking_number`` and defines no ``_writhe``, ``total_writhe`` or
``self_writhe``: ``diagram._crossing_sums`` is the one signed-crossing
tally.  In ``src/satkit`` only ``diagram._partners`` stores into an item
of a ``partner`` table: the face walk and the validating walk share one
partner table.  Outside ``diagram.py``, ``src/satkit`` and ``scripts``
read no ``head`` or ``component`` attribute: the orientation record's
per-edge arrays are read back through ``diagram._path_heads``.  In
``src/satkit`` only ``_pack``, ``_unpack`` and ``_bias`` read
``to_bytes``, ``from_bytes`` or a ``struct`` packing function: one packing
path.  Only ``_entry`` and ``_widened`` call ``_pack``, and only
``_digits`` calls ``_unpack``; ``_widened`` packs ``_digits(...)`` and
holds no loop: one repacking path.  A function-level import in
``src/satkit`` closes a cycle among the top-level imports; every other
import sits at the top of its file.
Every import in ``src/satkit`` is relative or names a module of the
standard library (``sys.stdlib_module_names``).  Every
``functools.lru_cache`` in ``src/satkit`` is called with an integer
``maxsize``, and ``functools.cache`` is not used.  No module in
``src/satkit`` or ``scripts`` imports ``dataclasses`` or ``typing``:
``errors.Record`` is the one record implementation, and a fresh
``import satkit, satkit.cli`` loads neither, nor ``inspect``.  Standard
library only: the checks walk each module's syntax tree."""

import ast
import pathlib
import re
import subprocess
import sys
import types
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "satkit"
SCRIPTS = SRC.parent.parent / "scripts"
PERFBENCH = SRC.parent.parent / "perfbench"
TESTS = pathlib.Path(__file__).resolve().parent


def _unused_imports(tree):
    """(line, name) for every imported name that is never read."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_flags_an_unused_import():
    tree = ast.parse("import os\nimport sys\nfrom a.b import c as d, e\nsys.exit(e)\n")
    assert _unused_imports(tree) == [(1, "os"), (3, "d")]


def test_no_unused_imports():
    found = []
    for path in sorted(SRC.glob("*.py")) + sorted(SCRIPTS.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        found += [f"{path.parent.name}/{path.name}:{line}: {name}" for line, name in _unused_imports(tree)]
    assert not found, "unused imports:\n" + "\n".join(found)


def _unreferenced_private(tree, referenced):
    """(line, name) for every private (``_name``, not dunder) function,
    method or class defined in ``tree`` whose name is not in ``referenced``."""
    return sorted(
        (node.lineno, node.name)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in referenced
    )


def _referenced_names(tree):
    """Every name read or attribute accessed in ``tree``."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_checker_flags_an_unreferenced_private_name():
    src = (
        "def _used():\n    pass\n"
        "def _dead():\n    pass\n"
        "class _Gone:\n"
        "    def __init__(self):\n        self._kept()\n"
        "    def _kept(self):\n        pass\n"
        "    def _unused(self):\n        pass\n"
        "_used()\n"
    )
    tree = ast.parse(src)
    assert _unreferenced_private(tree, _referenced_names(tree)) == [(3, "_dead"), (5, "_Gone"), (10, "_unused")]


def test_no_unreferenced_private_names():
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))}
    referenced = set().union(*(_referenced_names(tree) for tree in trees.values()))
    found = []
    for path, tree in trees.items():
        if path.parent == SRC:
            found += [f"{path.name}:{line} {name}" for line, name in _unreferenced_private(tree, referenced)]
    assert not found, "unreferenced private names:\n" + "\n".join(found)


_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _imports(tree, modules):
    """The names ``tree``'s imports bind to modules (each ``import``, and
    each from-import of a name in ``modules``), and alias -> imported name
    for each renaming from-import."""
    bound, renamed = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            bound.update(a.asname or a.name for a in node.names if a.name in modules)
            renamed.update((a.asname, a.name) for a in node.names if a.asname)
    return bound, renamed


def _reference_counts(scope, imports):
    """Counter of the references in ``scope``, read with its module's
    ``_imports``: each bare name read that no function around it binds (as
    a parameter or by assignment), and the name an alias renames; each
    attribute read on an imported module; each part of a dotted string
    constant (``"Builder.to_diagram"`` names both).  Every attribute read
    also counts as ``"." + attr``, which only a method may claim."""
    bound, renamed = imports
    found = Counter()

    def visit(node, local):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            local = local | {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)} | {
                n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
            }
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in local:
            found[node.id] += 1
            if node.id in renamed:
                found[renamed[node.id]] += 1
        elif isinstance(node, ast.Attribute):
            found["." + node.attr] += 1
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                found[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and _DOTTED.fullmatch(node.value):
            found.update(node.value.split("."))
        for child in ast.iter_child_nodes(node):
            visit(child, local)

    visit(scope, frozenset())
    return found


def _public_definitions(tree):
    """Public module-level functions and classes, and the public methods
    of module-level classes: (line, name, definition node, is a method)."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []
    for node in tree.body:
        if isinstance(node, defs):
            found.append((node, False))
            if isinstance(node, ast.ClassDef):
                found += [(m, True) for m in node.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [(node.lineno, node.name, node, method) for node, method in found if not node.name.startswith("_")]


def _uncalled_public(tree, references, modules, tested):
    """(line, name) for every public definition in ``tree`` that
    ``references`` (a Counter over the program files) names only inside
    that definition, nor ``tested`` (a Counter over the tests, of the
    ``_api`` names alone) anywhere.  A module-level function or class is
    named only as a name; a method by any attribute too, and never through
    ``tested``."""
    imports = _imports(tree, modules)

    def named(counts, name, method):
        return counts[name] + (counts["." + name] if method else 0)

    return sorted(
        (line, name)
        for line, name, node, method in _public_definitions(tree)
        if named(references, name, method) + (0 if method else tested[name])
        <= named(_reference_counts(node, imports), name, method)
    )


def _api(init, catalog):
    """The declared library API, read from the package's ``__init__`` and
    ``catalog`` trees: every public name ``init`` imports, and every public
    module-level definition of ``catalog``, the fixture library.  Tests
    count as callers of these names only."""
    imported = {a.asname or a.name for node in init.body if isinstance(node, ast.ImportFrom) for a in node.names}
    fixtures = {name for _, name, _, method in _public_definitions(catalog) if not method}
    return {name for name in imported if not name.startswith("_")} | fixtures


def _program_and_tests():
    """The ``src/satkit`` modules (``__init__.py`` left out), the program
    files outside them (``scripts`` and ``perfbench``) and the tests, each
    a list of paths, with the declared ``_api``."""
    sources = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    programs = sorted(SCRIPTS.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    api = _api(ast.parse((SRC / "__init__.py").read_text()), ast.parse((SRC / "catalog.py").read_text()))
    return sources, programs, sorted(TESTS.glob("*.py")), api


def test_checker_flags_an_uncalled_public_definition():
    src = (
        "def used():\n    pass\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "class Kept:\n"
        "    def called(self):\n        return self.named()\n"
        "    def named(self):\n        pass\n"
        "    def dead(self):\n        pass\n"
        "    def __repr__(self):\n        pass\n"
        "def traced():\n    pass\n"
        "used(Kept().called())\n"
        "TARGETS = ['Kept.traced']\n"
        "def field():\n    pass\n"
        "def shadowed():\n    pass\n"
        "def on_module():\n    pass\n"
        "def on_alias():\n    pass\n"
        "def renamed():\n    pass\n"
        "def reader(shadowed):\n    return shadowed\n"
        "obj.field\n"
        "pkg.mod.on_module()\n"
        "alias.on_alias()\n"
        "short(reader)\n"
        "import pkg.mod\n"
        "from pkg import other as alias, renamed as short\n"
    )
    tree = ast.parse(src)
    references = _reference_counts(tree, _imports(tree, {"other"}))
    assert _uncalled_public(tree, references, {"other"}, Counter()) == [
        (3, "recursive"), (10, "dead"), (18, "field"), (20, "shadowed")
    ]


# A package whose only callers are tests: ``__init__`` exports Shape and
# exported, and catalog holds one fixture.
_API_INIT = "from .shapes import Shape, exported\nfrom types import ModuleType as _ModuleType\n"
_API_CATALOG = "def fixture(size=1):\n    pass\nclass Box:\n    def fill(self, level=0):\n        pass\n"
_API_SHAPES = (
    "class Shape:\n"
    "    def __init__(self, sides=3):\n        pass\n"
    "    def area(self, scale=1):\n        pass\n"
    "def exported(n=0):\n    pass\n"
    "def internal(n=0):\n    pass\n"
)
_API_TEST = (
    "from pkg.shapes import Shape, exported, internal\n"
    "from pkg.catalog import Box, fixture\n"
    "Shape(sides=4).area(scale=2)\n"
    "exported(1)\n"
    "internal(1)\n"
    "fixture(2)\n"
    "Box().fill(1)\n"
)


def test_checker_counts_tests_as_callers_of_the_api_only():
    init, catalog, shapes, test = map(ast.parse, (_API_INIT, _API_CATALOG, _API_SHAPES, _API_TEST))
    api = _api(init, catalog)
    assert api == {"Shape", "exported", "fixture", "Box"}
    tested = _reference_counts(test, _imports(test, {"shapes", "catalog"}))
    tested = Counter({name: tested[name] for name in api})
    assert _uncalled_public(shapes, Counter(), {"shapes", "catalog"}, tested) == [(4, "area"), (8, "internal")]
    assert _uncalled_public(catalog, Counter(), {"shapes", "catalog"}, tested) == [(4, "fill")]


def test_star_import_binds_exactly_the_imported_names():
    namespace = {}
    exec("from satkit import *", namespace)
    del namespace["__builtins__"]
    assert not [name for name, value in namespace.items() if isinstance(value, types.ModuleType)]
    assert set(namespace) == _api(ast.parse((SRC / "__init__.py").read_text()), ast.parse(""))


def test_every_public_definition_has_a_caller():
    sources, programs, tests, api = _program_and_tests()
    modules = {p.stem for p in sources}
    trees = {path: ast.parse(path.read_text()) for path in sources + programs + tests}

    def references(paths):
        return sum((_reference_counts(trees[p], _imports(trees[p], modules)) for p in paths), Counter())

    program, tested = references(sources + programs), references(tests)
    tested = Counter({name: tested[name] for name in api})
    found = []
    for path in sources:
        found += [f"{path.name}:{line} {name}"
                  for line, name in _uncalled_public(trees[path], program, modules, tested)]
    assert not found, "public definitions with no caller:\n" + "\n".join(found)


def _names(nodes):
    """The name each node ends in: ``x`` for ``x``, ``x.y(...)`` gives ``y``."""
    nodes = [n.func if isinstance(n, ast.Call) else n for n in nodes]
    return {n.id if isinstance(n, ast.Name) else getattr(n, "attr", None) for n in nodes}


def _defaulted_parameters(tree):
    """(line, function, parameter, position, method) for every parameter
    with a default of every function in ``tree``; ``position`` counts the
    arguments a call passes (a method's ``self``/``cls`` skipped), None for
    a keyword-only parameter.  A class's ``__init__`` is listed under the
    class name, as is each defaulted field of a ``Record`` subclass, its
    position the field order; ``method`` is true for a parameter of any
    other function in a class body."""
    owner = {f: c for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
    found = []
    for c in ast.walk(tree):
        if isinstance(c, ast.ClassDef) and "Record" in _names(c.bases):
            fields = [a for a in c.body if isinstance(a, ast.AnnAssign) and isinstance(a.target, ast.Name)]
            found += [(a.lineno, c.name, a.target.id, i, False) for i, a in enumerate(fields) if a.value is not None]
    for f in ast.walk(tree):
        if not isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        cls = owner.get(f)
        name = cls.name if cls and f.name == "__init__" else f.name
        skip = cls is not None and not any(getattr(d, "id", None) == "staticmethod" for d in f.decorator_list)
        positional = f.args.posonlyargs + f.args.args
        first = len(positional) - len(f.args.defaults)
        method = name == f.name and cls is not None
        found += [(f.lineno, name, a.arg, i - skip, method) for i, a in enumerate(positional) if i >= first]
        found += [(f.lineno, name, a.arg, None, method)
                  for a, d in zip(f.args.kwonlyargs, f.args.kw_defaults) if d is not None]
    return found


def _passed_parameters(tree):
    """Set of (callee, parameter name or position) each call in ``tree``
    passes; ``callee`` is the called name or attribute.  A ``*args`` or
    ``**kwargs`` argument is recorded as ``(callee, "*")``: it may pass
    anything."""
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
        if any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords):
            found.add((callee, "*"))
        found.update((callee, i) for i in range(len(node.args)))
        found.update((callee, k.arg) for k in node.keywords)
    return found


def _unset_defaults(tree, passed, tested):
    """(line, function, parameter) for every defaulted parameter in
    ``tree`` that no call in ``passed`` (the program files) sets by name or
    position, nor one in ``tested`` (the tests' calls to ``_api`` names)
    unless it belongs to a method."""
    either = passed | tested
    return sorted(
        (line, name, param)
        for line, name, param, position, method in _defaulted_parameters(tree)
        if not {(name, param), (name, position), (name, "*")} & (passed if method else either)
    )


def test_checker_flags_a_default_no_caller_sets():
    src = (
        "def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
        "class K:\n"
        "    def __init__(self, x=0, y=0):\n        pass\n"
        "    def m(self, z=0, w=0):\n        pass\n"
        "def g(v=0):\n    pass\n"
        "f(0, 1, d=2)\n"
        "K(1)\n"
        "obj.m(w=1)\n"
        "g(*args)\n"
    )
    tree = ast.parse(src)
    assert _unset_defaults(tree, _passed_parameters(tree), set()) == [
        (1, "f", "c"), (1, "f", "e"), (4, "K", "y"), (6, "m", "z")
    ]


def test_checker_flags_a_field_default_no_caller_sets():
    src = (
        "from satkit import errors\n"
        "from satkit.errors import Record\n"
        "class D(Record):\n"
        "    a: int\n"
        "    b: int = 0\n"
        "    c: int = 0\n"
        "class N(errors.Record):\n"
        "    x: int = 0\n"
        "    y: int = 0\n"
        "class Plain:\n"
        "    z: int = 0\n"
        "D(1, 2)\n"
        "N(y=1)\n"
    )
    tree = ast.parse(src)
    assert _unset_defaults(tree, _passed_parameters(tree), set()) == [(6, "D", "c"), (8, "N", "x")]


def test_checker_counts_tests_as_setting_defaults_of_the_api_only():
    init, catalog, shapes, test = map(ast.parse, (_API_INIT, _API_CATALOG, _API_SHAPES, _API_TEST))
    api = _api(init, catalog)
    tested = {(callee, key) for callee, key in _passed_parameters(test) if callee in api}
    assert _unset_defaults(shapes, set(), tested) == [(4, "area", "scale"), (8, "internal", "n")]
    assert _unset_defaults(catalog, set(), tested) == [(4, "fill", "level")]


def test_every_default_is_set_by_some_caller():
    sources, programs, tests, api = _program_and_tests()
    trees = {path: ast.parse(path.read_text()) for path in sources + programs + tests}
    passed = set().union(*(_passed_parameters(trees[p]) for p in sources + programs))
    tested = {(callee, key) for p in tests for callee, key in _passed_parameters(trees[p]) if callee in api}
    found = []
    for path in sources:
        found += [f"{path.name}:{line} {name}({param})"
                  for line, name, param in _unset_defaults(trees[path], passed, tested)]
    assert not found, "defaulted parameters no caller sets:\n" + "\n".join(found)


def _unread_locals(tree):
    """(line, function, name) for every ``name = ...`` assignment in a
    function whose name is never read in that function (nested functions
    included).  Names declared ``global`` or ``nonlocal`` are exempt."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {n.id for n in ast.walk(func) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        shared = {name for n in ast.walk(func) if isinstance(n, (ast.Global, ast.Nonlocal)) for name in n.names}
        own = list(func.body)
        while own:
            node = own.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
                continue
            own.extend(ast.iter_child_nodes(node))
            if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
                name = node.targets[0].id
                if name not in read and name not in shared:
                    found.append((node.lineno, func.name, name))
    return sorted(found)


def test_checker_flags_an_unread_local():
    src = (
        "def f(a):\n"
        "    dead = a + 1\n"
        "    used = a * 2\n"
        "    x, y = a, a\n"
        "    def inner():\n"
        "        gone = used\n"
        "        return used\n"
        "    return inner\n"
        "def g():\n"
        "    global counter\n"
        "    counter = 1\n"
        "    seen = []\n"
        "    seen.append(1)\n"
    )
    assert _unread_locals(ast.parse(src)) == [(2, "f", "dead"), (6, "inner", "gone")]


def test_no_unread_locals():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        found += [f"{path.name}:{line} {func}: {name}" for line, func, name in _unread_locals(tree)]
    assert not found, "locals assigned and never read:\n" + "\n".join(found)


_PER_TYPE = re.compile(r"(serialize|parse)_\w+|\w+_to_obj")


def _per_type_format_uses(tree):
    """(line, name) for every use of a per-type ``formats`` function
    (``serialize_*``, ``parse_*``, ``*_to_obj``), read as an attribute of
    ``formats`` or through a name imported from it."""
    imported = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "formats"
        for alias in node.names
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "formats":
            name = node.attr
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in imported:
            name = imported[node.id]
        else:
            continue
        if _PER_TYPE.fullmatch(name):
            found.append((node.lineno, name))
    return sorted(found)


def test_checker_flags_a_per_type_format_call():
    src = (
        "from satkit import formats\n"
        "from satkit.formats import parse_pattern as read, to_obj\n"
        "formats.serialize(x)\n"
        "formats.serialize_diagram(x)\n"
        "to_obj(x)\n"
        "read(text)\n"
        "f = formats.framed_link_to_obj\n"
        "parser.parse_args()\n"
    )
    assert _per_type_format_uses(ast.parse(src)) == [(4, "serialize_diagram"), (6, "parse_pattern"),
                                                     (7, "framed_link_to_obj")]


def test_one_serializer_dispatch():
    found = []
    for path in sorted(SRC.glob("*.py")) + sorted(SCRIPTS.glob("*.py")):
        if path.name == "formats.py" and path.parent == SRC:
            continue
        found += [f"{path.name}:{line} {name}" for line, name in _per_type_format_uses(ast.parse(path.read_text()))]
    assert not found, "per-type formats functions outside formats.py:\n" + "\n".join(found)


def _reads(tree, name):
    """(line, source) for every read of ``name`` in ``tree``: the bare
    name, an alias a from-import gives it, or an attribute of that name."""
    aliases = {name} | {a.asname for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                        for a in node.names if a.name == name and a.asname}
    return sorted((node.lineno, ast.unparse(node)) for node in ast.walk(tree)
                  if isinstance(getattr(node, "ctx", None), ast.Load)
                  and (getattr(node, "id", None) in aliases or getattr(node, "attr", None) == name))


def test_checker_flags_a_read_of_a_name():
    src = (
        "from satkit.groups import todd_coxeter as tc, wirtinger\n"
        "from satkit import groups\n"
        "todd_coxeter = None\n"
        "groups.todd_coxeter(g, 10)\n"
        "tc(g)\n"
        "wirtinger(d)\n"
        "f = todd_coxeter\n"
        "groups.todd_coxeter = f\n"
    )
    assert _reads(ast.parse(src), "todd_coxeter") == [(4, "groups.todd_coxeter"), (5, "tc"), (7, "todd_coxeter")]


def _reads_outside_groups(name):
    """"file:line source" for every read of ``name`` in src and scripts,
    groups.py excepted."""
    found = []
    for path in sorted(SRC.glob("*.py")) + sorted(SCRIPTS.glob("*.py")):
        if path.name == "groups.py" and path.parent == SRC:
            continue
        found += [f"{path.name}:{line} {text}" for line, text in _reads(ast.parse(path.read_text()), name)]
    return found


def test_one_triviality_decision():
    found = _reads_outside_groups("todd_coxeter")
    assert not found, "todd_coxeter read outside groups.py:\n" + "\n".join(found)


def test_checker_flags_a_read_of_free_reduce():
    src = (
        "from .groups import free_reduce as fr, wirtinger_relator\n"
        "from . import groups\n"
        "fr((1, -1))\n"
        "groups.free_reduce(word)\n"
        "wirtinger_relator(1, 2, 3, 1)\n"
        "def free_reduce(word):\n    return word\n"
    )
    assert _reads(ast.parse(src), "free_reduce") == [(3, "fr"), (4, "groups.free_reduce")]


def test_one_wirtinger_relator_writer():
    # the Wirtinger relator is written once, in groups.wirtinger_relator;
    # a second writer would have to reduce its word
    found = _reads_outside_groups("free_reduce")
    assert not found, "free_reduce read outside groups.py:\n" + "\n".join(found)


_RETIRED_SUMS = {"_writhe", "total_writhe", "self_writhe"}


def _second_tallies(tree):
    """(line, source) for every definition or binding of a retired
    per-component crossing sum, and every read of ``writhe`` or
    ``linking_number``."""
    defined = [(node.lineno, f"def {node.name}") for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name in _RETIRED_SUMS]
    bound = [(node.lineno, node.id) for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id in _RETIRED_SUMS]
    return sorted(defined + bound + _reads(tree, "writhe") + _reads(tree, "linking_number"))


def test_checker_flags_a_second_crossing_tally():
    src = (
        "from .diagram import _crossing_sums, writhe as w\n"
        "def _writhe(crossings, orient, c):\n    return 0\n"
        "total_writhe = sum\n"
        "class self_writhe:\n    pass\n"
        "w(d, 0)\n"
        "diagram.linking_number(d, 0, 1)\n"
        "_crossing_sums(d.crossings, orient, 2)[0][1]\n"
    )
    assert _second_tallies(ast.parse(src)) == [
        (2, "def _writhe"), (4, "total_writhe"), (5, "def self_writhe"), (7, "w"), (8, "diagram.linking_number"),
    ]


def test_one_crossing_tally():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        found += [f"{path.name}:{line} {text}" for line, text in _second_tallies(ast.parse(path.read_text()))]
    assert not found, "signed crossing sums outside diagram._crossing_sums:\n" + "\n".join(found)


def _partner_writes(tree):
    """(line, function) for every store into an item of a ``partner``
    table in a function other than ``_partners``."""
    return sorted({(node.lineno, fn.name) for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and fn.name != "_partners"
                   for node in ast.walk(fn)
                   if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
                   and getattr(node.value, "id", None) == "partner"})


def test_checker_flags_a_second_partner_table():
    src = (
        "def _partners(labels):\n"
        "    partner = [-1] * len(labels)\n"
        "    partner[0], partner[1] = 1, 0\n"
        "    return partner\n"
        "def _face_walks(crossings):\n"
        "    partner = [0] * 4\n"
        "    partner[2] = 3\n"
        "    return partner[1]\n"
    )
    assert _partner_writes(ast.parse(src)) == [(7, "_face_walks")]


def test_one_partner_table():
    # the face walk and the validating walk read one partner table,
    # built by diagram._partners
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += [f"{path.name}:{line} {name}" for line, name in _partner_writes(ast.parse(path.read_text()))]
    assert not found, "partner table written outside diagram._partners:\n" + "\n".join(found)


def _record_layout_reads(tree):
    """(line, source) for every read of a ``head`` or ``component``
    attribute, the per-edge arrays of an orientation record."""
    return sorted((node.lineno, ast.unparse(node)) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and node.attr in ("head", "component"))


def test_checker_flags_a_read_of_the_record_layout():
    src = (
        "from .diagram import _orient, _path_heads\n"
        "orient = _orient(d)\n"
        "for p in orient.head:\n    pass\n"
        "widths = dict(zip(d.edges(), _orient(d).component))\n"
        "heads = list(_path_heads(orient, d.components))\n"
        "head, component = 1, 2\n"
    )
    assert _record_layout_reads(ast.parse(src)) == [(3, "orient.head"), (5, "_orient(d).component")]


def test_record_layout_read_in_diagram_only():
    # the orientation record's per-edge arrays run in path order and hold
    # darts 4 ci + s; outside diagram.py they are read through _path_heads
    found = []
    for path in sorted(SRC.glob("*.py")) + sorted(SCRIPTS.glob("*.py")):
        if path.name == "diagram.py" and path.parent == SRC:
            continue
        found += [f"{path.name}:{line} {text}" for line, text in _record_layout_reads(ast.parse(path.read_text()))]
    assert not found, "orientation record arrays read outside diagram.py:\n" + "\n".join(found)


_BYTE_CONVERSIONS = {"to_bytes", "from_bytes"}
_STRUCT_FUNCTIONS = {"pack", "unpack", "pack_into", "unpack_from", "iter_unpack", "Struct"}
_PACKERS = {"_pack", "_unpack", "_bias"}


def _packing_reads(tree):
    """(line, scope, source) for every read of ``to_bytes`` or ``from_bytes``
    (as any attribute) and of a ``struct`` packing function (an attribute of
    the module under any alias, or a from-import under any alias) whose
    innermost enclosing function is not ``_pack``, ``_unpack`` or
    ``_bias``; the scope of top-level code is ``<module>``."""
    modules = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names if a.name == "struct"}
    names = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             and node.module == "struct" for a in node.names if a.name in _STRUCT_FUNCTIONS}
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if scope not in _PACKERS and isinstance(getattr(child, "ctx", None), ast.Load) and (
                    isinstance(child, ast.Attribute) and (
                        child.attr in _BYTE_CONVERSIONS
                        or child.attr in _STRUCT_FUNCTIONS and getattr(child.value, "id", None) in modules)
                    or isinstance(child, ast.Name) and child.id in names):
                found.append((child.lineno, scope, ast.unparse(child)))
            visit(child, scope)

    visit(tree, "<module>")
    return sorted(found)


def test_checker_flags_packing_outside_the_packers():
    src = (
        "import struct as s\n"
        "from struct import unpack as up, calcsize\n"
        "def _pack(co, kb):\n"
        "    return int.from_bytes(s.pack('<2b', *co), 'little') + calcsize('b')\n"
        "def _bias(n, kb):\n"
        "    return int.from_bytes(bytes(n * kb), 'little')\n"
        "def _digits(x, n):\n"
        "    return up('<2b', x.to_bytes(n, 'little'))\n"
        "def _unpack(x):\n"
        "    def inner():\n"
        "        return s.unpack('<b', x)\n"
        "    return inner()\n"
        "to_int = int.from_bytes\n"
        "pack = s.calcsize\n"
    )
    assert _packing_reads(ast.parse(src)) == [
        (8, "_digits", "up"), (8, "_digits", "x.to_bytes"), (11, "inner", "s.unpack"),
        (13, "<module>", "int.from_bytes"),
    ]


def test_one_packing_path():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += [f"{path.name}:{line} in {scope}: {text}"
                  for line, scope, text in _packing_reads(ast.parse(path.read_text()))]
    assert not found, "byte or struct packing outside _pack, _unpack and _bias:\n" + "\n".join(found)


# Which function may call each packer: input coefficients are packed in
# ``_entry``, stored entries repacked at a new width in ``_widened``, and
# packed integers read back to digits in ``_digits`` alone.
_PACKER_CALLERS = {"_pack": {"_entry", "_widened"}, "_unpack": {"_digits"}}
_LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _repacking_faults(tree):
    """(line, scope, source) for every call of ``_pack`` or ``_unpack`` from
    a function other than its ``_PACKER_CALLERS``, every ``_pack`` call in
    ``_widened`` that packs anything but a ``_digits(...)`` call, and every
    loop or comprehension in ``_widened``: repacking at a new width reads
    an entry's digits through ``_digits`` and packs them through ``_pack``,
    with no digit loop of its own."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            callee = getattr(child.func, "id", None) if isinstance(child, ast.Call) else None
            if callee in _PACKER_CALLERS and scope not in _PACKER_CALLERS[callee]:
                found.append((child.lineno, scope, ast.unparse(child)))
            elif scope == "_widened" and (
                    isinstance(child, _LOOPS)
                    or callee == "_pack" and not (isinstance(child.args[0], ast.Call)
                                                  and getattr(child.args[0].func, "id", None) == "_digits")):
                found.append((child.lineno, scope, ast.unparse(child)))
            visit(child, scope)

    visit(tree, "<module>")
    return sorted(found)


def test_checker_flags_repacking_outside_digits_and_pack():
    src = (
        "def _entry(lo, co, kb):\n    return lo, _pack(co, kb)\n"
        "def _digits(x, kb):\n    return _unpack(x, 3, kb)\n"
        "def _widened(e, kb):\n    return _pack(_digits(e, kb), 2 * kb)\n"
        "def _bareiss(m, kb):\n    return [_pack(_digits(x, kb), 2 * kb) for x in m], _unpack(m, 2, kb)\n"
        "def _widened(e, kb):\n"
        "    co = [e >> 8 * kb * i & 255 for i in range(4)]\n"
        "    return _pack(co, 2 * kb)\n"
    )
    assert _repacking_faults(ast.parse(src)) == [
        (8, "_bareiss", "_pack(_digits(x, kb), 2 * kb)"), (8, "_bareiss", "_unpack(m, 2, kb)"),
        (10, "_widened", "[e >> 8 * kb * i & 255 for i in range(4)]"), (11, "_widened", "_pack(co, 2 * kb)"),
    ]


def test_one_repacking_path():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += [f"{path.name}:{line} in {scope}: {text}"
                  for line, scope, text in _repacking_faults(ast.parse(path.read_text()))]
    assert not found, "packing or repacking outside _entry, _widened and _digits:\n" + "\n".join(found)


def _max_abs_outside_digit_bytes(tree):
    """(line, source) for every read of ``_max_abs`` that is not inside an
    argument of a ``_digit_bytes(...)`` call: the largest coefficient picks
    a start width, and the elimination loops check sum |c| alone."""
    inside = {id(node) for call in ast.walk(tree)
              if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_digit_bytes"
              for arg in call.args + [k.value for k in call.keywords] for node in ast.walk(arg)}
    return sorted((node.lineno, ast.unparse(node)) for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and node.id == "_max_abs"
                  and isinstance(node.ctx, ast.Load) and id(node) not in inside)


def test_checker_flags_max_abs_outside_digit_bytes():
    src = (
        "def _max_abs(co):\n    return max(co)\n"
        "kb = _digit_bytes(max(_max_abs(c) for c in cs))\n"
        "top = _max_abs(co)\n"
        "kb = _digit_bytes(bound=_max_abs(co)) + _max_abs(co)\n"
        "norm = _max_abs\n"
    )
    assert _max_abs_outside_digit_bytes(ast.parse(src)) == [(4, "_max_abs"), (5, "_max_abs"), (6, "_max_abs")]


def test_one_bound():
    found = [f"invariants.py:{line} {text}"
             for line, text in _max_abs_outside_digit_bytes(ast.parse((SRC / "invariants.py").read_text()))]
    assert not found, "_max_abs read outside a _digit_bytes(...) argument:\n" + "\n".join(found)


def _relative_imports(nodes, modules):
    """The modules among ``modules`` that these import statements name."""
    found = set()
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update(n for n in ([node.module] if node.module else [a.name for a in node.names]) if n in modules)
    return found


def _acyclic_lazy_imports(trees):
    """(module, line, imported) for every import below a module's top level
    whose imported module does not reach the importing one through the
    top-level imports, so that nothing forces the import into a function."""
    top = {name: _relative_imports(tree.body, trees) for name, tree in trees.items()}

    def reaches(start, goal):
        seen, todo = set(), [start]
        while todo:
            name = todo.pop()
            if name == goal:
                return True
            if name not in seen:
                seen.add(name)
                todo.extend(top[name])
        return False

    found = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node not in tree.body:
                found += [(name, node.lineno, m) for m in sorted(_relative_imports([node], trees))
                          if not reaches(m, name)]
    return sorted(found)


def test_checker_flags_an_import_no_cycle_forces():
    trees = {
        "a": ast.parse("from . import b\n"),
        "b": ast.parse("def f():\n    from .a import y\n"),
        "c": ast.parse("from .b import x\ndef g():\n    if x:\n        from .a import z\n"),
    }
    assert _acyclic_lazy_imports(trees) == [("c", 4, "a")]


def test_function_level_imports_close_a_cycle():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    found = [f"{name}.py:{line} imports {m}" for name, line, m in _acyclic_lazy_imports(trees)]
    assert not found, "function-level imports that no import cycle forces:\n" + "\n".join(found)


def _non_stdlib_imports(tree):
    """(line, module) for every import in ``tree`` that is neither relative
    nor of a module in ``sys.stdlib_module_names`` (a dotted name counts by
    its top-level package)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names if name.split(".")[0] not in sys.stdlib_module_names]
    return sorted(found)


def test_checker_flags_a_non_stdlib_import():
    src = (
        "import struct, os.path\n"
        "import numpy\n"
        "from . import diagram\n"
        "from .errors import DomainError\n"
        "from __future__ import annotations\n"
        "def f():\n"
        "    from scipy.linalg import det\n"
        "    import xml.etree.ElementTree\n"
    )
    assert _non_stdlib_imports(ast.parse(src)) == [(2, "numpy"), (7, "scipy.linalg")]


def test_package_imports_only_the_standard_library():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += [f"{path.name}:{line} {name}" for line, name in _non_stdlib_imports(ast.parse(path.read_text()))]
    assert not found, "imports outside the standard library:\n" + "\n".join(found)


def _unbounded_caches(tree):
    """(line, source) for every read of ``functools.cache`` and every
    ``functools.lru_cache`` not called with an integer ``maxsize``, named
    directly (under any alias) or as an attribute of the imported module;
    rebinding the name is not a use."""
    modules = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names if a.name == "functools"}
    names = {a.asname or a.name: a.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "functools" for a in node.names}

    def decorator(node):
        if not isinstance(getattr(node, "ctx", None), ast.Load):
            return None
        if isinstance(node, ast.Name):
            return names.get(node.id)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            return node.attr
        return None

    bounded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and decorator(node.func) == "lru_cache":
            sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
            if sizes and isinstance(sizes[0], ast.Constant) and type(sizes[0].value) is int:
                bounded.add(node.func)
    return sorted((node.lineno, ast.unparse(node)) for node in ast.walk(tree)
                  if decorator(node) in ("cache", "lru_cache") and node not in bounded)


def test_checker_flags_an_unbounded_cache():
    src = (
        "import functools\n"
        "from functools import cache, lru_cache, partial\n"
        "from functools import lru_cache as memo\n"
        "@lru_cache(maxsize=4096)\ndef a():\n    pass\n"
        "@functools.lru_cache(256)\ndef b():\n    pass\n"
        "@lru_cache(maxsize=None)\ndef c():\n    pass\n"
        "@lru_cache\ndef d():\n    pass\n"
        "@cache\ndef e():\n    pass\n"
        "@functools.cache\ndef f():\n    pass\n"
        "@memo()\ndef g():\n    pass\n"
        "h = functools.lru_cache(maxsize=True)(partial(len))\n"
        "cache = {}\n"
    )
    assert _unbounded_caches(ast.parse(src)) == [
        (10, "lru_cache"), (13, "lru_cache"), (16, "cache"), (19, "functools.cache"), (22, "memo"),
        (25, "functools.lru_cache"),
    ]


def test_every_cache_is_bounded():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += [f"{path.name}:{line} {text}" for line, text in _unbounded_caches(ast.parse(path.read_text()))]
    assert not found, "caches without an integer maxsize:\n" + "\n".join(found)


_RECORD_MODULES = {"dataclasses", "typing"}


def _record_module_imports(tree):
    """(line, module) for every import of ``dataclasses`` or ``typing``, or
    of a name from either."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if a.name.split(".")[0] in _RECORD_MODULES]
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module.split(".")[0] in _RECORD_MODULES:
            found.append((node.lineno, node.module))
    return sorted(found)


def test_checker_flags_a_record_module_import():
    src = (
        "import dataclasses\n"
        "import typing as t, types\n"
        "from dataclasses import dataclass\n"
        "from typing import NamedTuple\n"
        "from .errors import Record\n"
        "from collections.abc import Callable\n"
        "def f():\n"
        "    import typing\n"
    )
    assert _record_module_imports(ast.parse(src)) == [
        (1, "dataclasses"), (2, "typing"), (3, "dataclasses"), (4, "typing"), (8, "typing"),
    ]


def test_one_record_implementation():
    found = []
    for path in sorted(SRC.glob("*.py")) + sorted(SCRIPTS.glob("*.py")):
        found += [f"{path.name}:{line} {name}" for line, name in _record_module_imports(ast.parse(path.read_text()))]
    assert not found, "dataclasses or typing imported beside errors.Record:\n" + "\n".join(found)


def test_import_loads_no_dataclasses_inspect_or_typing():
    # -S: site can import typing itself (through a .pth file), which would
    # hide an import of it by satkit
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC.parent)!r})\n"
        "import satkit, satkit.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))\n"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True,
                         timeout=60).stdout
    assert out.strip() == "[]", f"import satkit, satkit.cli loaded {out.strip()}"
