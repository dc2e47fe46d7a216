"""The names the traced benchmark replay wraps still exist and are still used.

``bench/layers.py`` lists each layer's patch points as (module, attribute) or
(module, class, method); ``bench/replay.py`` resolves them with ``getattr``
and fails when one is gone.  The file is loaded from its path, as the replay
loads it, without importing anything else from ``bench/``.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from bellmodel import cli

LAYERS_PATH = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


TARGETS = [target for layer in load_layers().LAYERS for target in layer.targets]


@pytest.mark.parametrize("target", TARGETS, ids=".".join)
def test_patch_point_resolves(target):
    owner = importlib.import_module(target[0])
    for attr in target[1:]:
        owner = getattr(owner, attr)
    assert callable(owner)


@pytest.mark.parametrize("name", ["empirical_measure", "empirical_partial_expectation"])
def test_sample_summary_calls_wrapped_names(capsys, monkeypatch, name):
    """`sample --format json` counts through the names the replay wraps."""
    original = getattr(cli, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, counted)
    assert cli.main(["sample", "--n", "1000", "--format", "json"]) == 0
    assert sum(json.loads(capsys.readouterr().out)["counts"]) == 1000
    assert len(calls) == (1 if name == "empirical_measure" else 4)
