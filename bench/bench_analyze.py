"""Per-stage and end-to-end wall times of ``sim2spec.losses.analyze``.

    python bench/bench_analyze.py --label NAME [--src DIR] [--repeats N]
                                  [--out BENCH_analyze.json]

On a seeded mixed-motion clip at 16x64^2, 16x128^2 and 32x256^2, each stage
of ``analyze`` is run on the previous stages' outputs and timed with
``time.perf_counter`` as the minimum over ``--repeats`` runs; ``analyze``
itself is timed the same way, and one more run records its tracemalloc
peak.  The stage rows split ``analyze`` as it runs: ``samples`` builds the
three sample blocks, each ``*_loss`` row builds its block again and fits
it, and ``unified_residual`` fits the blocks the losses returned.

The point is stored under ``--label`` in ``--out`` beside the points
already there, so two source trees (``--src``, default this checkout's
``src``) can be compared by one script on one machine.  BLAS and OpenMP
thread variables are recorded, not set: pin them in the environment to
compare like with like.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIZES = ((16, 64, 64), (16, 128, 128), (32, 256, 256))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS")


def min_ms(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def bench_size(size, repeats: int) -> dict:
    import numpy as np
    from sim2spec.core import SpectralConfig
    from sim2spec.losses import (adaptive_composite, analyze,
                                 rotation_loss, rotation_samples,
                                 scaling_loss, scaling_samples,
                                 translation_loss, translation_samples,
                                 unified_residual)
    from sim2spec.resample import (build_polar_lut, make_stack,
                                   polar_resample, ring_energies)
    from sim2spec.spectral import cropped_transform
    from sim2spec.synth import MotionSpec, synth_sim2

    cfg = SpectralConfig()
    clip = synth_sim2("bandpass_noise",
                      MotionSpec(kind="mixed", v=(0.7, -0.3), omega=0.05,
                                 alpha=-0.01, seed=5), *size)
    frames, cube = cropped_transform(clip, cfg, offset=0.5)
    fy, fx = cube.freq_y, cube.freq_x
    lut = build_polar_lut(fy, fx, cfg.rings, cfg.angular_bins)
    polar = polar_resample(frames, lut)
    stack = make_stack(polar, cfg)
    rings = ring_energies(np.abs(frames) ** 2, fy, fx, cfg)
    trans = translation_loss(cube, cfg)
    rot = rotation_loss(stack, rings, cfg)
    scl = scaling_loss(rings, stack, cfg)
    stages = {
        "transform": lambda: cropped_transform(clip, cfg, offset=0.5),
        "polar_lut": lambda: build_polar_lut(fy, fx, cfg.rings,
                                             cfg.angular_bins),
        "polar_resample": lambda: polar_resample(frames, lut),
        "harmonics": lambda: make_stack(polar, cfg),
        "ring_energies": lambda: ring_energies(np.abs(frames) ** 2, fy, fx,
                                               cfg),
        "samples": lambda: (translation_samples(cube, cfg),
                            rotation_samples(stack, cfg),
                            scaling_samples(stack, cfg)),
        "translation_loss": lambda: translation_loss(cube, cfg),
        "rotation_loss": lambda: rotation_loss(stack, rings, cfg),
        "scaling_loss": lambda: scaling_loss(rings, stack, cfg),
        "unified_residual": lambda: unified_residual(
            trans.samples, rot.samples, scl.samples, cfg),
        "composite": lambda: adaptive_composite(
            trans.l_trans, rot.l_rot, scl.l_scale, cfg.softmax_temperature),
    }
    out = {"stages_ms": {k: min_ms(fn, repeats) for k, fn in stages.items()},
           "analyze_ms": min_ms(lambda: analyze(clip, cfg), repeats)}
    tracemalloc.start()
    try:
        analyze(clip, cfg)
        out["analyze_tracemalloc_peak_mb"] = \
            tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True,
                    help="name of the point, e.g. the commit timed")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="source tree whose sim2spec is timed")
    ap.add_argument("--repeats", type=int, default=9)
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_analyze.json"))
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    sys.path.insert(0, os.path.abspath(args.src))
    import numpy as np

    point = {
        "label": args.label,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "repeats": args.repeats,
        "sizes": {"x".join(map(str, s)): bench_size(s, args.repeats)
                  for s in SIZES},
    }
    points = []
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            points = json.load(fh)["points"]
    points = [p for p in points if p["label"] != args.label] + [point]
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"points": points}, fh, indent=1)
        fh.write("\n")
    for name, res in point["sizes"].items():
        print(f"{args.label} {name}: analyze {res['analyze_ms']:.2f} ms, "
              f"peak {res['analyze_tracemalloc_peak_mb']:.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
