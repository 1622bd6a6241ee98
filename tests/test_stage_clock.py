"""The stage clock of ``bench/bench_analyze.py`` still times every stage.

``clocked_call`` swaps its clocks onto the names ``analyze`` reaches
through ``sim2spec.losses``; a stage renamed there, or no longer called by
that name, would otherwise only show as a zero row in the next bench
point.  The bench module is imported read-only.
"""

import importlib
import importlib.util
import os
import sys
import time
import types

import pytest

from sim2spec import losses
from sim2spec.core import DegenerateInputError, VideoWindow

BENCH_DIR = os.path.join(os.path.dirname(__file__), "..", "bench")


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, BENCH_DIR)
    try:
        yield importlib.import_module("bench_analyze")
    finally:
        sys.path.remove(BENCH_DIR)


def stage_names(bench):
    return {name: getattr(losses, name) for name in bench.STAGES}


def test_every_stage_row_is_timed_and_rows_sum_to_the_call(bench):
    clip = bench.mixed_clip((16, 64, 64))
    before = stage_names(bench)
    losses.analyze(clip)
    shares = []
    for _ in range(3):
        t0 = time.perf_counter()
        ms = bench.clocked_call(losses.analyze, clip)
        wall = (time.perf_counter() - t0) * 1e3
        assert set(ms) == {*bench.STAGES.values(), "assembly"}
        assert all(v > 0 for v in ms.values()), ms
        assert sum(ms.values()) <= wall
        shares.append(sum(ms.values()) / wall)
        assert stage_names(bench) == before
    # swapping the clocks in and out costs microseconds of a
    # millisecond call
    assert max(shares) >= 0.95


def test_clocks_are_removed_when_the_call_raises(bench):
    before = stage_names(bench)
    one_frame = VideoWindow(bench.mixed_clip((16, 64, 64)).data[:1])
    with pytest.raises(DegenerateInputError, match="too short"):
        bench.clocked_call(losses.analyze, one_frame)
    assert stage_names(bench) == before


def test_rounds_run_under_the_benchmark_malloc_settings(bench,
                                                       monkeypatch):
    # the bench's children keep freed memory as the benchmark's worker
    # does, so a stage row does not time heap trimming the benchmark
    # never sees
    path = os.path.join(BENCH_DIR, "..", "benchmark", "run.py")
    spec = importlib.util.spec_from_file_location("benchmark_run", path)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    assert bench.MALLOC_ENV == {k: v for k, v in run.PINNED_ENV.items()
                                if k.startswith("MALLOC_")}
    envs = []

    def child(argv, env, **kwargs):
        envs.append(env)
        return types.SimpleNamespace(stdout="{}")

    monkeypatch.setattr(bench.subprocess, "run", child)
    assert bench.run_round("src", 1) == {}
    assert envs[0].items() >= bench.MALLOC_ENV.items()
