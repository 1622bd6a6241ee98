"""Seeded input generator for the sim2spec benchmark.

Usage: python3 benchmark/gen.py --workload NAME --seed N --out DIR

Writes the program's inputs under ``DIR/inputs`` and the ground truth under
``DIR/truth.json``; the program is only ever given paths under ``inputs``.
The same seed gives byte-identical inputs.

Every workload also gets the quality set: ``QUALITY_WINDOWS`` 16x64^2
windows drawn from the fixed ``QUALITY_SEED``, analysed after the timed loop
for the motion-quality metrics.  Those metrics are exact functions of the
program's answers; with a per-seed quality set they would differ from seed
to seed by far more than any bound (the slice-estimate errors depend
strongly on the random base patterns), so a change of answers would not
stand out.  The timed streams are drawn from ``--seed``.

Windows are a balanced mix: window ``i`` has motion kind ``KINDS[i % 5]``
over base ``BASES[(i // 5) % 3]``.  Motion magnitudes are stratified over
their range (one stratum per window of a kind, seeded jitter inside it), so
every seed covers the same range; directions, signs, base patterns and the
light sensor noise are seeded.  Every fourth window is stored as a
directory of 8-bit PGM frames, the rest as raw float32 plus JSON sidecar.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from sim2spec.core import save_video  # noqa: E402
from sim2spec.synth import MotionSpec, make_rng, synth_sim2  # noqa: E402

KINDS = ("translation", "rotation", "scaling", "mixed", "static")
BASES = ("checker", "gaussian_blobs", "bandpass_noise")

SMALL = (16, 64, 64)
LARGE = (32, 256, 256)
QUALITY_SEED = 0
QUALITY_WINDOWS = 90
SMALL_WINDOWS = 60
LARGE_WINDOWS = 5

SPEED = (0.25, 1.5)      # px/frame
OMEGA = (0.03, 0.12)     # rad/frame; |m * omega| < pi up to m = 24
ALPHA = (0.01, 0.03)     # log-scale per frame; exp(alpha * 32) <= 2.6
NOISE = (0.005, 0.015)


def motion_mix(rng, n: int) -> list:
    """Motion specs for ``n`` windows (see module docstring)."""
    per_kind = max(1, math.ceil(n / len(KINDS)))
    specs = []
    for i in range(n):
        kind = KINDS[i % len(KINDS)]
        stratum = i // len(KINDS)

        def draw(lo, hi):
            return lo + (hi - lo) * (stratum + float(rng.random())) / per_kind

        def sign():
            return float(rng.choice((-1.0, 1.0)))

        kw = {"kind": kind, "seed": int(rng.integers(1 << 31)),
              "noise_sigma": float(rng.uniform(*NOISE))}
        if kind in ("translation", "mixed"):
            speed = draw(*SPEED)
            heading = float(rng.uniform(0.0, 2.0 * math.pi))
            kw["v"] = (speed * math.cos(heading), speed * math.sin(heading))
        if kind in ("rotation", "mixed"):
            kw["omega"] = sign() * draw(*OMEGA)
        if kind in ("scaling", "mixed"):
            kw["alpha"] = sign() * draw(*ALPHA)
        specs.append((BASES[stratum % len(BASES)], MotionSpec(**kw)))
    return specs


def write_windows(rng, n: int, size: tuple, inputs_dir: str, prefix: str,
                  synth_s: list) -> list:
    """Render ``n`` windows, save them, return their ground-truth rows.

    The time spent in ``synth_sim2`` is appended to ``synth_s``."""
    truth = []
    for i, (base, spec) in enumerate(motion_mix(rng, n)):
        t0 = time.perf_counter()
        clip = synth_sim2(base, spec, *size)
        synth_s.append(time.perf_counter() - t0)
        name = f"{prefix}{i:04d}"
        if i % 4 == 3:
            fmt, path = "pgm_dir", os.path.join(inputs_dir, name)
        else:
            fmt, path = "raw_f32", os.path.join(inputs_dir, name + ".raw")
        save_video(clip, path, fmt)
        truth.append({"input": os.path.relpath(path, inputs_dir),
                      "format": fmt, "base": base, "size": list(size),
                      "spec": spec.to_dict()})
    return truth


def generate(workload: str, seed: int, out: str) -> dict:
    """Write inputs and ground truth; also ``gen_stats.json`` with the time
    spent in ``synth_sim2``."""
    inputs = os.path.join(out, "inputs")
    os.makedirs(inputs, exist_ok=True)
    synth_s = []
    truth = {"workload": workload, "seed": seed,
             "quality": write_windows(make_rng(QUALITY_SEED), QUALITY_WINDOWS,
                                      SMALL, inputs, "q", synth_s)}
    rng = make_rng(seed)
    if workload == "window_small":
        truth["stream"] = write_windows(rng, SMALL_WINDOWS, SMALL, inputs, "S",
                                        synth_s)
        truth["size"] = list(SMALL)
    elif workload == "window_large":
        truth["stream"] = write_windows(rng, LARGE_WINDOWS, LARGE, inputs, "L",
                                         synth_s)
        truth["size"] = list(LARGE)
    elif workload == "validate":
        truth["stream"] = []
        truth["size"] = None
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    with open(os.path.join(out, "truth.json"), "w", encoding="utf-8") as fh:
        json.dump(truth, fh)
    with open(os.path.join(out, "gen_stats.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"synth_sim2_s": sum(synth_s), "windows": len(synth_s)}, fh)
    return truth


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
