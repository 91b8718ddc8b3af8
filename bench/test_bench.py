"""Tests of the benchmark's own pieces.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py -q
"""

import json
import os
import sys
import types

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402
from ldp_osc.laws import oracle_moments  # noqa: E402
from ldp_osc.methods import get_method  # noqa: E402
from ldp_osc.oscillator import OscillatorParams  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("method", ["beta:0.5", "theta:1"])
@pytest.mark.parametrize("h", [0.1, 0.5, 1.3])
@pytest.mark.parametrize("N", [1, 2, 7, 100, 1000])
def test_doubling_matches_moment_recursion(method, h, N):
    params = OscillatorParams(alpha=1.0, x0=0.3, y0=-0.2)
    oracle = oracle_moments(get_method(method), h, N, params)
    mean, cov = reference.augmented_moments(
        *reference.coefficients(method, h), h, N, 0.3, -0.2)
    np.testing.assert_allclose(mean, oracle.mean, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(cov, oracle.covariance, rtol=1e-9, atol=1e-14)


def _fake_package():
    """pkg.a defines f and g; pkg.b binds f by `from .a import f`."""
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def g(x):
        return x + 1

    def f(x):
        return a.g(x) * 2

    a.f, a.g = f, g
    b.f = f
    sys.modules.update({"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b})
    return a, b


def test_tracer_wraps_rebound_names_and_reports_absent_ones():
    a, b = _fake_package()
    t = tracer.Tracer()
    try:
        t.install("fakepkg", [("a", "f", lambda args, kw, r: {"out": r}, False),
                              ("a", "g", None, False),
                              ("a", "gone", None, False),
                              ("missing", "f", None, False)])
        assert b.f(1) == 4
    finally:
        for name in ("fakepkg", "fakepkg.a", "fakepkg.b"):
            sys.modules.pop(name)
    assert t.absent == ["a.gone", "missing.f"]
    outer, = [s for s in t.spans if s["name"] == "a.f"]
    inner, = [s for s in t.spans if s["name"] == "a.g"]
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert outer["attrs"] == {"out": 4}


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        {"id": 1, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 2, "parent": 1, "start": 1.0, "end": 5.0},
        {"id": 3, "parent": 1, "start": 3.0, "end": 6.0},  # another thread
        {"id": 4, "parent": 1, "start": 8.0, "end": 9.0},
    ]
    assert tracer.self_times(spans)[1] == pytest.approx(10.0 - 5.0 - 1.0)


def test_import_metrics_attribute_nested_imports_to_the_outer_package():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       mpmath.core",
        "import time:       200 |        300 |     sympy",
        "import time:        50 |        350 |   ldp_osc.ldp",
        "import time:        10 |        360 | ldp_osc",
    ])
    got = layers.import_metrics(log)
    assert got["import.sympy_s"] == pytest.approx(300e-6)
    assert got["import.ldp_osc_self_s"] == pytest.approx(60e-6)


def test_benchmark_json_lists_every_per_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == layers.UNITS
