"""Every annotation in the package names something its module can see."""

import importlib
import inspect
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
