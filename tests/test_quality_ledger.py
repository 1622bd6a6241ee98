"""The benchmark's four quality metrics, held to the committed ledger.

The quality set of ``benchmark/gen.py`` (``QUALITY_WINDOWS`` windows of
``motion_mix`` from ``QUALITY_SEED``, rendered by ``synth_sim2`` at
``SMALL``) is built in memory, stored as ``write_windows`` stores it, run
through ``analyze`` with the default config and scored by
``benchmark/worker.py``'s ``quality_metrics``; the benchmark modules are
imported read-only.  A metric worse than its value in
``quality_ledger.json`` by more than ``REL_TOL`` fails; a change that
improves one updates the ledger (see README).
"""

import importlib
import json
import os
import sys

import numpy as np
import pytest

from sim2spec.core import SpectralConfig, VideoWindow
from sim2spec.losses import analyze
from sim2spec.synth import make_rng, synth_sim2

HERE = os.path.dirname(__file__)
BENCH_DIR = os.path.join(HERE, "..", "benchmark")
LEDGER = os.path.join(HERE, "quality_ledger.json")
REL_TOL = 1e-9


@pytest.fixture(scope="module")
def bench():
    saved = sys.path[:]
    sys.path.insert(0, BENCH_DIR)
    try:
        yield (importlib.import_module("gen"),
               importlib.import_module("worker"))
    finally:
        sys.path[:] = saved


def stored(clip: VideoWindow, i: int) -> VideoWindow:
    """``clip`` as the benchmark reads it back: every fourth window from
    8-bit PGM frames (``save_video``'s rounding, ``_parse_pgm``'s scale),
    the rest from raw float32."""
    if i % 4 == 3:
        pixels = np.clip(np.round(clip.data * 255.0), 0, 255).astype(np.uint8)
        return VideoWindow(pixels.astype(np.float64) / 255.0)
    return VideoWindow(clip.data.astype("<f4").astype(np.float64))


def quality(gen, worker) -> dict:
    cfg, docs, truth = SpectralConfig(), [], []
    specs = gen.motion_mix(make_rng(gen.QUALITY_SEED), gen.QUALITY_WINDOWS)
    for i, (base, spec) in enumerate(specs):
        clip = stored(synth_sim2(base, spec, *gen.SMALL), i)
        docs.append({"report": analyze(clip, cfg).to_dict()})
        truth.append({"spec": spec.to_dict()})
    return worker.quality_metrics(docs, truth)


def test_quality_no_worse_than_ledger(bench):
    with open(LEDGER, encoding="utf-8") as fh:
        ledger = json.load(fh)["metrics"]
    with open(os.path.join(BENCH_DIR, "..", "BENCHMARK.json"),
              encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    got = quality(*bench)
    assert set(got) == set(ledger)
    worse = {name: (got[name], ledger[name]) for name in ledger
             if (got[name] - ledger[name])
             * (1 if better[name] == "higher" else -1)
             < -REL_TOL * abs(ledger[name])}
    assert not worse, f"worse than the ledger (got, ledger): {worse}"
