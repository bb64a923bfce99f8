"""The benchmark's span targets still name functions and methods memdiff has.

bench/spans.py wraps memdiff callables by name; a renamed or deleted one
only shows there as a missing span target. This reads its target lists
(without patching anything) and resolves each one here.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from conftest import tiny_config

from memdiff import ForecastModel

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_spans()


@pytest.mark.parametrize("module_name,path", [(m, p) for m, p, _ in SPANS.TARGETS])
def test_target_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize("member,attr", [(m, a) for m, a, _ in SPANS.INSTANCE_TARGETS])
def test_instance_target_resolves(member, attr):
    model = ForecastModel(tiny_config(), np.random.default_rng(0))
    assert callable(getattr(getattr(model, member), attr))
