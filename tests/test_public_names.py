"""Every name that a ``sgnlab`` module lists in ``__all__`` resolves to an attribute of that module,
and no module of ``src/sgnlab`` takes a parameter it never reads or imports a name it never uses."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import sgnlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(sgnlab.__path__))
SOURCES = sorted(pathlib.Path(sgnlab.__file__).parent.glob("*.py"))
#: ``config._SCHEMA`` calls every value parser as ``parse(key, raw)``; ``_str`` needs only ``raw``
UNREAD_ALLOWED = {("config.py", "_str", "key")}


def test_modules_found():
    assert {"kinematics", "regularization", "dynamics", "characteristics"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    module = importlib.import_module(f"sgnlab.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


def _loaded(nodes) -> set[str]:
    return {n.id for node in nodes for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def unread_parameters(path: pathlib.Path) -> list[tuple[str, str, str]]:
    """``(file, function, parameter)`` for every parameter that its function's body never reads."""
    found = []
    for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = fn.args
        names = [arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if arg]
        read = _loaded(fn.body if isinstance(fn.body, list) else [fn.body])
        name = getattr(fn, "name", "<lambda>")
        found += [(path.name, name, arg) for arg in names if arg not in read and arg not in ("self", "cls")]
    return found


def unused_imports(path: pathlib.Path) -> list[tuple[str, str]]:
    """``(file, name)`` for every name a module imports and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = _loaded([tree])
    return [(path.name, name) for name in bound if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_parameter_is_read(path):
    assert {f for f in unread_parameters(path) if f not in UNREAD_ALLOWED} == set()


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=[p.name for p in SOURCES if p.name != "__init__.py"])
def test_every_import_is_used(path):
    # ``__init__.py`` imports to re-export
    assert unused_imports(path) == []


def test_guard_sees_unread_parameters_and_unused_imports(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text("import os\nfrom math import pi, tau\n\n\n"
                      "def f(a, b, *args, c=1, **kw):\n    return a + c + pi\n", encoding="utf-8")
    assert unread_parameters(source) == [("probe.py", "f", "b"), ("probe.py", "f", "args"), ("probe.py", "f", "kw")]
    assert unused_imports(source) == [("probe.py", "os"), ("probe.py", "tau")]
