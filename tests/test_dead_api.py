"""No public function or class that nothing uses, and no private name used across modules.

Every public top-level function or class of src/rieszlab must be named
somewhere outside its own definition: in another statement of src/rieszlab
or in tests/test_acceptance.py.  A name that only the unit tests call is code
that no command runs.  The package's __init__.py imports nothing and has no
__all__, so each object has one import path: the module that defines it.

A private name (one leading underscore) belongs to its module: no other
module of src/rieszlab imports it or reads it as an attribute.  A helper that
two modules need is public in one of them, so that it is not copied into the
other.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rieszlab"
INIT = PACKAGE / "__init__.py"
MODULES = [p for p in sorted(PACKAGE.glob("*.py")) if p != INIT]
USERS = [*MODULES, ROOT / "tests" / "test_acceptance.py"]


def _references(stmt: ast.stmt, module: str) -> set[tuple[str, str]]:
    """(module, name) of every package name a statement of `module` refers to.

    A bare name refers to `module` itself, `from .m import f` and `m.f` to m.
    """
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            out.add((module, node.id))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            out.add((node.value.id, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module:
            source = node.module.rpartition(".")[2]
            out.update((source, alias.name) for alias in node.names)
    return out


def unreferenced() -> list[str]:
    """module.name of each public top-level function or class that has no user."""
    bodies = {path: ast.parse(path.read_text()).body for path in USERS}
    used = {}
    for path, body in bodies.items():
        for stmt in body:
            used[id(stmt)] = _references(stmt, path.stem)
    missing = []
    for path in MODULES:
        for defn in bodies[path]:
            if not isinstance(defn, (ast.FunctionDef, ast.ClassDef)) or defn.name.startswith("_"):
                continue
            key = (path.stem, defn.name)
            if not any(key in refs for stmt_id, refs in used.items() if stmt_id != id(defn)):
                missing.append(f"{path.stem}.{defn.name}")
    return missing


def test_every_public_function_and_class_has_a_user():
    missing = unreferenced()
    assert not missing, "no command or acceptance test uses: " + ", ".join(missing)


def test_package_root_binds_no_module_name():
    bound = [node for node in ast.walk(ast.parse(INIT.read_text()))
             if isinstance(node, (ast.Import, ast.ImportFrom))
             or isinstance(node, ast.Name) and node.id == "__all__"]
    assert not bound, f"{INIT.name} imports or lists names: lines {[n.lineno for n in bound]}"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_uses() -> list[str]:
    """module: other.name for each private name a package module takes from another one."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    hits = []
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("rieszlab")):
                source = (node.module or "").rpartition(".")[2]
                hits += [f"{path.stem}: {source or '.'}.{alias.name}"
                         for alias in node.names if _is_private(alias.name)]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules - {path.stem} and _is_private(node.attr)):
                hits.append(f"{path.stem}: {node.value.id}.{node.attr}")
    return sorted(hits)


def test_no_module_uses_another_modules_private_name():
    hits = private_uses()
    assert not hits, "private names used outside their module: " + ", ".join(hits)
