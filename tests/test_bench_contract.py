"""The benchmark's span tracer still finds every function it traces.

``benchmark/spans.py`` wraps named ``sim2spec`` functions at run time; a
function that is renamed or deleted would otherwise only surface in the
benchmark's own self-test.  The module is imported read-only.
"""

import importlib
import os
import sys

import pytest

from sim2spec.synth import MotionSpec, synth_sim2

BENCH_DIR = os.path.join(os.path.dirname(__file__), "..", "benchmark")


@pytest.fixture(scope="module")
def spans():
    sys.path.insert(0, BENCH_DIR)
    try:
        yield importlib.import_module("spans")
    finally:
        sys.path.remove(BENCH_DIR)


def test_every_traced_function_resolves(spans):
    for modname, fname in spans.TRACED:
        mod = importlib.import_module("sim2spec." + modname)
        assert callable(getattr(mod, fname, None)), f"{modname}.{fname}"


def test_tracer_counts_one_analyze(spans):
    from sim2spec import losses

    clip = synth_sim2("bandpass_noise",
                      MotionSpec(kind="translation", v=(1.0, 0.5), seed=1),
                      16, 64, 64)
    tracer = spans.Tracer()
    tracer.install()
    try:
        losses.analyze(clip)
    finally:
        tracer.uninstall()
    assert spans.installed_wrappers() == []
    counts = tracer.counts[tracer.op]
    assert counts["gates.build_samples.calls"] == 3
    assert counts["losses.ridge_wls_solve.calls"] == 4
    # the 1/2 offset comes off the DC bins, not a normalized copy
    assert counts["core.normalize_window.calls"] == 0
    for block in ("translation", "rotation", "scaling"):
        assert counts["samples." + block] > 0
