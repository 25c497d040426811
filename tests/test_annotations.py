"""Every annotation in the package names something its module can resolve."""

import importlib
import inspect
import pkgutil
import typing

import pytest

import curvelim

# ``curvelim.__main__`` runs the command line when imported
_MODULES = sorted(f"curvelim.{m.name}" for m in pkgutil.iter_modules(curvelim.__path__)
                  if m.name != "__main__")


def _annotated(module):
    """The functions and classes defined in ``module``, and the methods and
    property getters defined in those classes."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            yield obj
            for member in vars(obj).values():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    yield member


@pytest.mark.parametrize("name", _MODULES)
def test_type_hints_resolve(name):
    module = importlib.import_module(name)
    unresolved = []
    for obj in _annotated(module):
        try:
            typing.get_type_hints(obj)
        except NameError as exc:
            unresolved.append(f"{obj.__qualname__}: {exc}")
    assert unresolved == []
