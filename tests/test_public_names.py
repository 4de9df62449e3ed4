"""Every name that a ``sgnlab`` module lists in ``__all__`` resolves to an attribute of that module."""

import importlib
import pkgutil

import pytest

import sgnlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(sgnlab.__path__))


def test_modules_found():
    assert {"kinematics", "regularization", "dynamics", "characteristics"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    module = importlib.import_module(f"sgnlab.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing
