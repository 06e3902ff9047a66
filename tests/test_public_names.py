import importlib
import pkgutil

import pytest

import zzlie

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(zzlie.__path__))


def test_package_names_resolve():
    for name in zzlie.__all__:
        assert hasattr(zzlie, name), name


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_names_resolve(name):
    module = importlib.import_module(f"zzlie.{name}")
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"zzlie.{name}.{attr}"
