"""Every name a package module imports is used in that module or listed in
its ``__all__``: an import kept only so that something outside the package
can patch it is dead code in the module that holds it. Likewise every
top-level function and class is called or named by package code: one that
only the tests reach is a second entry point the package does not need.
And every name in a module's ``__all__`` is an attribute of that module,
defined there: each exported name has one home, which is where the other
modules import it from. The config is one such home: every config section
is defined in ``config``, which imports no stage module."""
import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import opendomain
from opendomain import config, synth

PACKAGE = Path(opendomain.__file__).parent


def _exports(tree) -> list:
    """The names of the module's ``__all__``, or none."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            return list(ast.literal_eval(node.value))
    return []


def _trees() -> dict:
    """Each package module's syntax tree, by module stem."""
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _unused_imports(tree):
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_exports(tree))
    return sorted(imported - used)


def test_every_import_is_used_or_exported():
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        names = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if names:
            unused[path.name] = names
    assert unused == {}


def test_every_definition_is_used():
    # a reference is an ast.Name or the attribute of an ast.Attribute; the
    # strings of __all__ and of docstrings are no use, nor a definition's
    # references to itself
    defined, used = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            names = {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(stmt)
                     if isinstance(node, (ast.Name, ast.Attribute))}
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.add(stmt.name)
                names.discard(stmt.name)
            used |= names
    unused = sorted(defined - used)
    assert not unused, f"no package code references {unused}"


def test_every_export_names_an_attribute():
    # an __all__ entry that its module does not define breaks `import *` and
    # outlives a rename unseen
    missing = {}
    for path in sorted(PACKAGE.glob("*.py")):
        name = "opendomain" if path.stem == "__init__" else f"opendomain.{path.stem}"
        module = importlib.import_module(name)
        names = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        if names:
            missing[path.name] = names
    assert missing == {}


def test_every_sibling_import_is_exported():
    # a name taken from a sibling that does not export it reaches past the
    # sibling's public face, or finds the name at a second home
    trees = _trees()
    unexported = {}
    for stem, tree in trees.items():
        names = [f"{node.module}.{a.name}" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
                 for a in node.names if a.name not in _exports(trees[node.module])]
        if names:
            unexported[stem] = names
    assert unexported == {}


def test_every_export_is_defined_in_its_module():
    # an __all__ entry imported from a sibling is a second home for the name
    reexported = {}
    for stem, tree in _trees().items():
        defined = {stmt.name for stmt in tree.body
                   if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))}
        defined |= {t.id for stmt in tree.body if isinstance(stmt, ast.Assign)
                    for t in stmt.targets if isinstance(t, ast.Name)}
        names = [n for n in _exports(tree) if n not in defined]
        if names:
            reexported[stem] = names
    assert reexported == {}


def test_config_imports_no_stage_module():
    # a stage module imports its section from config, never the reverse
    siblings = set()
    for node in ast.walk(_trees()["config"]):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            siblings.update([node.module] if node.module else [a.name for a in node.names])
    assert siblings <= {"numkit"}
    # bench/workloads.py builds its synth section as synth.SynthConfig
    assert synth.SynthConfig is config.SynthConfig


def test_every_keyed_dataclass_is_defined_in_config():
    # a dataclass whose fields declare a rule is a config section
    homes = set()
    for info in pkgutil.iter_modules(opendomain.__path__):
        module = importlib.import_module(f"opendomain.{info.name}")
        homes.update(obj.__module__ for obj in vars(module).values()
                     if inspect.isclass(obj) and dataclasses.is_dataclass(obj)
                     and any("rule" in f.metadata for f in dataclasses.fields(obj)))
    assert homes == {"opendomain.config"}
