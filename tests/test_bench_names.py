"""The benchmark's traced run wraps library names; every one must still exist.

``perfbench/layers.py`` lists the dotted names it wraps (``TARGETS``) and
the API entries it puts spans around (``API_SPANS``).  A renamed or removed
library name makes the traced run skip it silently, so it is checked here.
The benchmark's modules are imported without writing bytecode next to them.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, PERFBENCH)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import layers
        import spans
        import workloads
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(PERFBENCH)
    return layers, spans, workloads


def test_every_wrapper_target_resolves(bench):
    layers, spans, _ = bench
    absent = []
    for dotted, *_ in layers.TARGETS:
        owner, attr = spans._resolve(dotted)
        if owner is None or not hasattr(owner, attr):
            absent.append(dotted)
    assert absent == []


def test_bind_api_fills_every_api_span(bench):
    layers, _, workloads = bench
    workloads.bind_api()
    assert [entry for entry in layers.API_SPANS if not hasattr(workloads.API, entry)] == []
