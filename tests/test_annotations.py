"""Every annotation in the package names something its module can see,
and every import and private name in it is read."""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import typing

import tensortopo


def _annotated(module):
    """(qualified name, object) of each function, class and method defined
    in ``module``."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            yield name, obj
            for attr, member in vars(obj).items():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def test_every_type_hint_resolves():
    unresolved = []
    for info in pkgutil.iter_modules(tensortopo.__path__):
        module = importlib.import_module(f"tensortopo.{info.name}")
        for name, obj in _annotated(module):
            try:
                typing.get_type_hints(obj)
            except NameError as exc:
                unresolved.append(f"{module.__name__}.{name}: {exc}")
    assert unresolved == []


def _reads(tree) -> set:
    """The names a module reads: loaded names and loaded attributes."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def _defined(node) -> list:
    """The names a module-level statement defines by def, class or
    assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def test_every_import_and_private_name_is_read():
    """Every module-level import of a package module is read in that module
    (``__init__`` re-exports its imports and is left out), and every
    private top-level function, class and constant is read in the package
    or its tests, so a deletion leaves no orphaned import or helper."""
    root = pathlib.Path(tensortopo.__file__).parent
    package = {path.name: ast.parse(path.read_text())
               for path in sorted(root.glob("*.py"))}
    tests = [ast.parse(path.read_text())
             for path in sorted(pathlib.Path(__file__).parent.glob("*.py"))]
    unread = []
    for name, tree in package.items():
        if name == "__init__.py":
            continue
        reads = _reads(tree)
        for node in tree.body:
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                unread += [f"{name}: import {alias.name}" for alias in node.names
                           if (alias.asname or alias.name).split(".")[0] not in reads]
    read_anywhere = set().union(*map(_reads, [*package.values(), *tests]))
    for name, tree in package.items():
        unread += [f"{name}: {defined}" for node in tree.body
                   for defined in _defined(node)
                   if defined.startswith("_") and not defined.startswith("__")
                   and defined not in read_anywhere]
    assert unread == []
