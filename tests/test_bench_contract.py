"""The benchmark's span tracer still finds every function it traces.

``benchmark/spans.py`` wraps named ``sim2spec`` functions at run time; a
function that is renamed or deleted would otherwise only surface in the
benchmark's own self-test.  The module is imported read-only.
"""

import importlib
import os
import sys
import threading

import numpy as np
import pytest

from sim2spec import core
from sim2spec.core import VideoWindow, save_video
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


def test_selftest_wrappers_install_and_uninstall():
    # the self-test's wrapper check reaches names such as losses'
    # re-imported spectral_transform, which nothing else here holds
    saved = sys.path[:]
    try:
        sys.path.insert(0, BENCH_DIR)
        importlib.import_module("selftest").check_wrappers()
    finally:
        sys.path[:] = saved


def translation_clip():
    return synth_sim2("bandpass_noise",
                      MotionSpec(kind="translation", v=(1.0, 0.5), seed=1),
                      16, 64, 64)


def traced(spans, run):
    """The tracer of one ``run()``, its spans balanced, every one opened on
    the calling thread, and its wrappers gone once uninstalled."""
    tracer, threads = spans.Tracer(), set()
    open_span = tracer.open

    def recording_open(name):
        threads.add(threading.get_ident())
        return open_span(name)

    tracer.open = recording_open
    tracer.install()
    try:
        run()
    finally:
        tracer.uninstall()
    assert spans.installed_wrappers() == []
    assert tracer._stack == [-1]
    assert threads == {threading.get_ident()}
    assert all(end >= start for start, end in zip(tracer.starts,
                                                   tracer.ends))
    return tracer


def analyze_file(path, out):
    from sim2spec import cli

    assert cli.main(["analyze", path, "--json", out]) == 0


def assert_one_analyze(tracer):
    counts = tracer.counts[tracer.op]
    # a traced function the pipeline stopped calling by its traced name
    # would read zero in the benchmark's per-layer metrics
    for name in ("resample.build_polar_lut", "resample.polar_resample",
                 "resample.make_stack", "resample.ring_energies",
                 "losses.translation_loss", "losses.rotation_loss",
                 "losses.scaling_loss", "losses.unified_residual"):
        assert counts[name + ".calls"] == 1, name
    assert counts["gates.build_samples.calls"] == 3
    assert counts["losses.ridge_wls_solve.calls"] == 4
    # the 1/2 shift comes off the DC bins, not a normalized copy
    assert counts["core.normalize_window.calls"] == 0
    for block in ("translation", "rotation", "scaling"):
        assert counts["samples." + block] > 0


def test_tracer_counts_one_analyze(spans):
    from sim2spec import losses

    clip = translation_clip()
    assert_one_analyze(traced(spans, lambda: losses.analyze(clip)))


@pytest.mark.parametrize("fmt", ["raw_f32", "pgm_dir"])
def test_tracer_counts_one_cli_analyze(spans, fmt, tmp_path):
    # the benchmark's operation: the CLI reads the file as it analyzes it
    path, out = str(tmp_path / "clip"), str(tmp_path / "rep.json")
    save_video(translation_clip(), path, fmt)
    assert_one_analyze(traced(spans, lambda: analyze_file(path, out)))


def test_read_ahead_runs_no_traced_function(spans, tmp_path, monkeypatch):
    # 192x200 frames are read one chunk ahead on a reader thread when two
    # CPUs are usable; a span opened there would overlap the caller's and
    # could leave some span a negative self time
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    reads_ahead = []
    read_ahead = core._read_ahead
    monkeypatch.setattr(core, "_read_ahead", lambda chunks: (
        reads_ahead.append(1), read_ahead(chunks))[1])
    path, out = str(tmp_path / "clip.raw"), str(tmp_path / "rep.json")
    save_video(VideoWindow(np.random.default_rng(2).random((2, 192, 200))),
               path)
    tracer = traced(spans, lambda: analyze_file(path, out))
    assert reads_ahead == [1]
    assert tracer.counts[tracer.op]["losses.analyze.calls"] == 1
    assert (tracer.self_times() >= 0).all()
