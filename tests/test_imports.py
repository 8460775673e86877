"""Every import in ``src/satkit`` is used; ``__init__.py`` re-exports are
exempt.  Every private function, method or class defined in ``src/satkit``
is referenced in ``src`` or ``tests``.  Every ``name = ...`` local in a
``src/satkit`` function is read in that function.  Outside ``formats.py``,
``src/satkit`` and ``scripts`` reach the formats through their one
dispatch (``serialize``, ``to_obj``, ``load_path``, ``obj_to_any``), never a
per-type function.  A function-level import in ``src/satkit`` closes a
cycle among the top-level imports; every other import sits at the top of
its file.  Standard library only: the checks walk each module's syntax
tree."""

import ast
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "satkit"
SCRIPTS = SRC.parent.parent / "scripts"
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
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        found += [f"{path.name}:{line}: {name}" for line, name in _unused_imports(tree)]
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
