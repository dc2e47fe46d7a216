"""The package namespace is the union of its modules' public names."""

import bellmodel
from bellmodel import inequalities, lhv, montecarlo, probspace, singlet

MODULES = (inequalities, lhv, montecarlo, probspace, singlet)


def test_package_all_concatenates_module_all():
    assert bellmodel.__all__ == [name for module in MODULES for name in module.__all__]
    assert len(set(bellmodel.__all__)) == len(bellmodel.__all__)


def test_every_public_name_resolves_to_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(bellmodel, name) is getattr(module, name), (module.__name__, name)


def test_star_import_gives_exactly_all():
    namespace: dict = {}
    exec("from bellmodel import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == sorted(bellmodel.__all__)
    assert namespace["sig17"] is probspace.sig17
