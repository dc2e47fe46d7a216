"""The package namespace is the union of its modules' public names, and
importing it runs no garbage collection, leaves the collector as it was and
compiles no source."""

import subprocess
import sys

import pytest

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


def _fresh(code: str) -> list[str]:
    """What ``code`` prints in a fresh interpreter, split into words."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True).stdout.split()


@pytest.mark.parametrize("enabled", [True, False])
def test_import_restores_the_collector(enabled):
    """Enabled only if it was, nothing left frozen, and the youngest
    generation below its threshold, so the first allocation after the import
    does not collect the whole import."""
    assert _fresh(
        "import gc\n"
        f"gc.enable() if {enabled} else gc.disable()\n"
        "import bellmodel\n"
        "young = gc.get_count()[0] < gc.get_threshold()[0]\n"
        "print(gc.isenabled(), gc.get_freeze_count(), young)"
    ) == [str(enabled), "0", "True"]


def test_import_keeps_the_callers_frozen_objects():
    """The caller's frozen objects stay frozen (out of `gc.get_objects`),
    and the import freezes nothing of its own.  Frozen objects can still be
    freed, so the count may fall."""
    before, after, marker_tracked = _fresh(
        "import gc\n"
        "marker = []\n"
        "gc.freeze()\n"
        "before = gc.get_freeze_count()\n"
        "import bellmodel\n"
        "print(before, gc.get_freeze_count(), any(o is marker for o in gc.get_objects()))"
    )
    assert 0 < int(after) <= int(before) and marker_tracked == "False"


def test_import_runs_no_collection():
    assert _fresh(
        "import gc\n"
        "phases = []\n"
        "gc.callbacks.append(lambda phase, info: phases.append(phase))\n"
        "import bellmodel\n"
        "print(phases.count('start'))"
    ) == ["0"]


def test_import_compiles_no_source():
    """The record types share methods written once, none generated: once
    numpy and ``scipy.optimize`` are loaded, importing the package and its
    CLI compiles no source string."""
    assert _fresh(
        "import sys\n"
        "import numpy, scipy.optimize\n"
        "compiled = []\n"
        "sys.addaudithook(lambda event, args: compiled.append(args[1])"
        " if event == 'compile' else None)\n"
        "import bellmodel, bellmodel.cli\n"
        "print(compiled.count('<string>'))"
    ) == ["0"]
