"""Source hygiene: no leftover imports, no stale exports, no dead errors,
no unread parameters.

The checks read the package statically (``ast``) or through its public
namespace, so they guard every later deletion without naming what was
deleted.
"""

import ast
import importlib
from pathlib import Path

import pytest

import smsc
from smsc import errors
from smsc.resources import ManagedResource

SRC = Path(smsc.__file__).parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = _imported_names(tree) - used
    assert not unused, f"{path.name} imports but never uses {sorted(unused)}"


def test_every_export_resolves():
    missing = [name for name in smsc.__all__ if not hasattr(smsc, name)]
    assert not missing
    assert len(set(smsc.__all__)) == len(smsc.__all__)


def _raised_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
    return names


def test_every_error_class_is_raised():
    """Each class in ``errors.py`` is raised somewhere in the package, or is
    a base of one that is."""
    tree = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    defined = [n.name for n in tree.body if isinstance(n, ast.ClassDef)]
    raised = set().union(*(
        _raised_names(ast.parse(p.read_text(encoding="utf-8")))
        for p in SRC.glob("*.py")
    ))
    raised_classes = [getattr(errors, name) for name in raised if name in defined]
    dead = [
        name for name in defined
        if not any(issubclass(cls, getattr(errors, name)) for cls in raised_classes)
    ]
    assert not dead, f"errors.py defines but nothing raises {dead}"


def _unread_parameters(path: Path) -> list[str]:
    """``function(parameter)`` for each parameter its body never reads.

    ``self``/``cls`` and the ``invoke`` of a ``ManagedResource`` class,
    whose signature the interface fixes, are exempt.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    module = importlib.import_module(f"smsc.{path.stem}")
    exempt = {
        id(item)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and issubclass(getattr(module, node.name), ManagedResource)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name == "invoke"
    }
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or id(node) in exempt:
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        read = {
            n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        unread += [
            f"{node.name}({p.arg})" for p in params
            if p is not None and p.arg not in ("self", "cls") and p.arg not in read
        ]
    return unread


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    unread = _unread_parameters(path)
    assert not unread, f"{path.name} never reads {unread}"


# what a catch of these would hide is a program bug, logged as a peer's fault
_BUILTIN_ERRORS = {"KeyError", "TypeError", "ValueError", "AttributeError"}


def test_no_catch_outside_the_cli_names_a_builtin_error():
    """Peer and file input is read by ``wire``, which raises ``SmscError``
    subclasses, so only the CLI's process boundary catches a builtin
    error class."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                names = {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
                found += [f"{path.name}:{node.lineno} {name}"
                          for name in sorted(names & _BUILTIN_ERRORS)]
    assert not found, f"catches of builtin errors: {found}"
