"""Every entry point the benchmark's per-layer tracer wraps still exists.

``perfbench/layers.py`` wraps ``repro`` methods and functions by
qualified name; a rename in ``repro`` must fail here, in the tier-1
suite, rather than first in a benchmark run.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import layers  # noqa: E402


@pytest.mark.parametrize("name,target", layers.LAYERS)
def test_layer_target_resolves(name, target):
    owner, attr = layers._resolve(target)
    # ``install`` wraps the attribute where it is defined, not inherited.
    assert attr in vars(owner), f"{name}: {target} is not defined there"
    assert callable(vars(owner)[attr])
