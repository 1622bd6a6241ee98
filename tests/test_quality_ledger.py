"""The benchmark's four quality metrics, held to the committed ledger.

Each set of ``SETS`` (windows of ``benchmark/gen.py``'s ``motion_mix``,
rendered by ``synth_sim2``) is built in memory, stored as
``write_windows`` stores it, run through ``analyze`` with the default
config and scored by ``benchmark/worker.py``'s ``quality_metrics``; the
benchmark modules are imported read-only.  A metric worse than its value
in ``quality_ledger.json`` by more than ``REL_TOL`` fails; a change that
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
# each ledger set's (seed, windows, (T, H, W)) from the benchmark modules
SETS = {
    # the benchmark's quality set, 90 windows at 16x64^2
    "quality": lambda gen: (gen.QUALITY_SEED, gen.QUALITY_WINDOWS,
                            gen.SMALL),
    # 3 windows a motion kind at a second size: its medians catch changed
    # answers, they do not estimate quality
    "seed3_32x128": lambda gen: (3, 15, (32, 128, 128)),
}


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


def quality(gen, worker, seed: int, windows: int, size: tuple) -> dict:
    cfg, docs, truth = SpectralConfig(), [], []
    specs = gen.motion_mix(make_rng(seed), windows)
    for i, (base, spec) in enumerate(specs):
        clip = stored(synth_sim2(base, spec, *size), i)
        docs.append({"report": analyze(clip, cfg).to_dict()})
        truth.append({"spec": spec.to_dict()})
    return worker.quality_metrics(docs, truth)


@pytest.mark.parametrize("set_name", SETS)
def test_quality_no_worse_than_ledger(bench, set_name):
    with open(LEDGER, encoding="utf-8") as fh:
        ledger = json.load(fh)["sets"][set_name]["metrics"]
    with open(os.path.join(BENCH_DIR, "..", "BENCHMARK.json"),
              encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    got = quality(*bench, *SETS[set_name](bench[0]))
    assert set(got) == set(ledger)
    worse = {name: (got[name], ledger[name]) for name in ledger
             if (got[name] - ledger[name])
             * (1 if better[name] == "higher" else -1)
             < -REL_TOL * abs(ledger[name])}
    assert not worse, f"worse than the ledger (got, ledger): {worse}"
