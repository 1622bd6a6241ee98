"""Per-stage and end-to-end wall times of ``sim2spec.losses.analyze``.

    python bench/bench_analyze.py --label NAME [--src DIR]
                                  [--label NAME --src DIR ...]
                                  [--repeats N] [--out BENCH_analyze.json]

On a seeded mixed-motion clip at 16x64^2, 16x128^2 and 32x256^2, each stage
of ``analyze`` is run on the previous stages' outputs and timed with
``time.perf_counter`` as the minimum over ``--repeats`` runs; ``analyze``
itself is timed the same way, after one untimed call per size, and one
more run records its tracemalloc peak.  The ``cli_analyze`` row times an
in-process ``cli.main(["analyze", FILE, "--json", OUT])`` on the same clip
saved as raw_f32, after one untimed call, so the CLI glue (parsing,
loading, manifest and JSON output) shows beside the stages.  It records
the median over its calls beside the minimum: a read on a reader thread
stalls now and then on its hand-off, which the minimum hides.  One more
call records its tracemalloc peak, the read included.  The
``retention_clip`` row times ``cli.suite_retention(1, 0)``, the ``validate``
retention suite on one seeded 16x224^2 ``synth_powerlaw`` clip, the same
way, so each tree is timed on its own suite code.  The ``synth_sim2_ms``
rows time rendering the mixed-motion clip itself at 16x64^2 and 32x256^2,
and the ``powerlaw_clip`` rows time one seeded 16x224^2 ``synth_powerlaw``
clip (its amplitude grid cached) and record its tracemalloc peak.  The
stage rows split
``analyze`` as it runs: ``samples`` builds the three sample blocks, each
``*_loss`` row builds its block again and fits it, and
``unified_residual`` fits the blocks the losses returned.  The ``glue_ms``
rows time the CLI glue on the size's report: ``make_manifest`` for an
``analyze`` input, and ``report_json``, ``to_dict`` plus ``json.dumps`` of
the payload ``cli analyze`` writes.

Every timed call is followed by one run of a fixed reference kernel, the
mix of ``benchmark/worker.py``'s ``Reference`` at 16x64^2 (a full-frame
FFT, argument-parser construction, indented JSON encoding and small NumPy
reductions), which does not use ``sim2spec``.  Beside each time row
(``*_ms``) a ``*_ref`` row stores its ratio to the kernel over the same
calls: minimum over minimum, or median over median for the call median.
The host's speed drifts by tens of percent between rounds and runs, and
the ratio cancels most of that drift, so points from different runs
compare by their ratios.

Each ``--label`` names the source tree of the ``--src`` at the same
position (one label alone defaults to this checkout's ``src``).  Every
tree is timed in a fresh interpreter in each of ``ROUNDS`` rounds, and the
order of the trees rotates from round to round, so no tree always runs
first.  Each tree's point stores every value per round and its median
under its label in ``--out``, beside the points already there, so trees
are compared by one script on one machine.  BLAS and OpenMP thread
variables are recorded, not set: pin them in the environment to compare
like with like.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIZES = ((16, 64, 64), (16, 128, 128), (32, 256, 256))
SYNTH_SIZES = ((16, 64, 64), (32, 256, 256))
POWERLAW_SIZE = (16, 224, 224)
ROUNDS = 10
# one round of one tree: bench_all in a fresh interpreter whose sim2spec
# is the tree's (argv: this directory, the tree's src, --repeats)
CHILD = ("import json, sys; sys.path[:0] = sys.argv[1:3]; "
         "import bench_analyze; "
         "json.dump(bench_analyze.bench_all(int(sys.argv[3])), sys.stdout)")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS")


def times_ms(fn, repeats: int, ref) -> tuple:
    """Wall times (ms) of ``repeats`` calls of ``fn``, each followed by one
    run of the reference kernel ``ref``: ``(calls, kernel runs)``."""
    calls, runs = [], []
    for _ in range(repeats):
        for f, out in ((fn, calls), (ref.run, runs)):
            t0 = time.perf_counter()
            f()
            out.append((time.perf_counter() - t0) * 1e3)
    return calls, runs


def row(fn, repeats: int, ref) -> tuple:
    """The minimum time (ms) of ``fn`` and its ratio to the kernel's."""
    calls, runs = times_ms(fn, repeats, ref)
    return min(calls), min(calls) / min(runs)


def rows(fns: dict, repeats: int, ref) -> tuple:
    """``({name: ms}, {name: ratio})``, the ``row`` of each of ``fns``."""
    timed = {k: row(fn, repeats, ref) for k, fn in fns.items()}
    return ({k: ms for k, (ms, _) in timed.items()},
            {k: ratio for k, (_, ratio) in timed.items()})


class Reference:
    """The fixed reference kernel (see the module docstring), run once on
    construction."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.frames = rng.standard_normal(SIZES[0])
        self.payload = {f"k{i}": rng.standard_normal(20).tolist()
                        for i in range(30)}
        self.small = [rng.standard_normal((20, 24)) for _ in range(40)]
        self.run()

    def run(self) -> None:
        import numpy as np

        np.fft.fftshift(np.fft.fft2(self.frames, axes=(1, 2)), axes=(1, 2))
        parser = argparse.ArgumentParser()
        sub = parser.add_subparsers()
        for n in range(4):
            cmd = sub.add_parser(f"c{n}")
            for j in range(12):
                cmd.add_argument(f"--a{j}", type=float)
        json.dumps(self.payload, indent=1)
        for a in self.small:
            float((np.abs(a) ** 2).sum())


def mixed_clip(size):
    """The seeded mixed-motion clip the per-size rows are timed on."""
    from sim2spec.synth import MotionSpec, synth_sim2

    return synth_sim2("bandpass_noise",
                      MotionSpec(kind="mixed", v=(0.7, -0.3), omega=0.05,
                                 alpha=-0.01, seed=5), *size)


def energy(z):
    """``|z|^2`` as ``analyze`` forms it, squared in place."""
    import numpy as np

    e = np.abs(z)
    e *= e
    return e


def bench_size(size, repeats: int, ref) -> dict:
    from sim2spec.cli import make_manifest
    from sim2spec.core import SpectralConfig
    from sim2spec.losses import (adaptive_composite, analyze,
                                 rotation_loss, rotation_samples,
                                 scaling_loss, scaling_samples,
                                 translation_loss, translation_samples,
                                 unified_residual)
    from sim2spec.resample import (build_polar_lut, make_stack,
                                   polar_resample, ring_energies)
    from sim2spec.spectral import cropped_transform

    cfg = SpectralConfig()
    clip = mixed_clip(size)
    frames, cube = cropped_transform(clip, cfg)
    fy, fx = cube.freq_y, cube.freq_x
    lut = build_polar_lut(fy, fx, cfg.rings, cfg.angular_bins)
    polar = polar_resample(frames, lut)
    stack = make_stack(polar, cfg)
    rings = ring_energies(energy(frames), fy, fx, cfg)
    trans = translation_loss(cube, cfg)
    rot = rotation_loss(stack, rings, cfg)
    scl = scaling_loss(rings, stack, cfg)
    report = analyze(clip, cfg)
    manifest = make_manifest("analyze", {"clip.raw": "0" * 64}, cfg)
    glue = {
        "make_manifest": lambda: make_manifest(
            "analyze", {"clip.raw": "0" * 64}, cfg),
        "report_json": lambda: json.dumps({"manifest": manifest,
                                           "report": report.to_dict()}),
    }
    stages = {
        "transform": lambda: cropped_transform(clip, cfg),
        "polar_lut": lambda: build_polar_lut(fy, fx, cfg.rings,
                                             cfg.angular_bins),
        "polar_resample": lambda: polar_resample(frames, lut),
        "harmonics": lambda: make_stack(polar, cfg),
        "ring_energies": lambda: ring_energies(energy(frames), fy, fx, cfg),
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
    (cli_ms, cli_runs), cli_peak = bench_cli_analyze(clip, repeats, ref)
    out = dict(zip(("stages_ms", "stages_ref"), rows(stages, repeats, ref)))
    out.update(zip(("glue_ms", "glue_ref"), rows(glue, repeats, ref)))
    out.update(zip(("analyze_ms", "analyze_ref"),
                   row(lambda: analyze(clip, cfg), repeats, ref)))
    for key, stat in (("cli_analyze", min),
                      ("cli_analyze_call_median", statistics.median)):
        out[key + "_ms"] = stat(cli_ms)
        out[key + "_ref"] = stat(cli_ms) / stat(cli_runs)
    out["cli_analyze_tracemalloc_peak_mb"] = cli_peak
    tracemalloc.start()
    try:
        analyze(clip, cfg)
        out["analyze_tracemalloc_peak_mb"] = \
            tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    return out


def bench_cli_analyze(clip, repeats: int, ref) -> tuple:
    """The ``times_ms`` of ``repeats`` calls of ``cli.main(["analyze",
    FILE, "--json", OUT])`` in process on ``clip`` saved as raw_f32, after
    one untimed call, and the tracemalloc peak (MB) of one more call; its
    printed summary is dropped."""
    from sim2spec import cli
    from sim2spec.core import save_video

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "clip.raw")
        save_video(clip, path)
        argv = ["analyze", path, "--json", os.path.join(tmp, "out.json")]

        def one():
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv)

        one()
        ms = times_ms(one, repeats, ref)
        tracemalloc.start()
        try:
            one()
            peak = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        return ms, peak


def bench_retention_clip(repeats: int, ref) -> dict:
    from sim2spec.cli import suite_retention

    def one():
        return suite_retention(1, 0)

    one()
    return dict(zip(("retention_clip_ms", "retention_clip_ref"),
                    row(one, repeats, ref)))


def bench_synth(repeats: int, ref) -> dict:
    """The rows of the clip generators, and the tracemalloc peak (MB) of
    one power-law clip with its amplitude grid cached."""
    from sim2spec.synth import synth_powerlaw

    out = dict(zip(("synth_sim2_ms", "synth_sim2_ref"), rows(
        {"x".join(map(str, size)): lambda size=size: mixed_clip(size)
         for size in SYNTH_SIZES}, repeats, ref)))

    def powerlaw():
        return synth_powerlaw(*POWERLAW_SIZE, 1.8, 0)

    powerlaw()
    out.update(zip(("powerlaw_clip_ms", "powerlaw_clip_ref"),
                   row(powerlaw, repeats, ref)))
    tracemalloc.start()
    try:
        powerlaw()
        out["powerlaw_clip_tracemalloc_peak_mb"] = \
            tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    return out


def bench_all(repeats: int) -> dict:
    ref = Reference()
    return {"sizes": {"x".join(map(str, s)): bench_size(s, repeats, ref)
                      for s in SIZES},
            **bench_retention_clip(repeats, ref), **bench_synth(repeats, ref)}


def run_round(src: str, repeats: int) -> dict:
    out = subprocess.run([sys.executable, "-c", CHILD, HERE, src,
                          str(repeats)], check=True, capture_output=True,
                         text=True).stdout
    return json.loads(out)


def summarize(rounds: list):
    """``{"median", "rounds"}`` for each leaf value of the per-round
    results, which share one nested layout."""
    if isinstance(rounds[0], dict):
        return {k: summarize([r[k] for r in rounds]) for k in rounds[0]}
    return {"median": statistics.median(rounds), "rounds": rounds}


def spread(ms: dict, ref: dict) -> str:
    """A summarized time row and its reference row: each median, with its
    quartiles across rounds."""
    q = [statistics.quantiles(res["rounds"], n=4) for res in (ms, ref)]
    return (f"median {ms['median']:.2f} ms "
            f"(quartiles {q[0][0]:.2f}-{q[0][2]:.2f}), "
            f"{ref['median']:.3f} ref "
            f"(quartiles {q[1][0]:.3f}-{q[1][2]:.3f})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", action="append", required=True,
                    help="name of a point, e.g. the commit timed")
    ap.add_argument("--src", action="append",
                    help="source tree whose sim2spec is timed, one per "
                         "--label (default: this checkout's src)")
    ap.add_argument("--repeats", type=int, default=9)
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_analyze.json"))
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    srcs = args.src or [os.path.join(ROOT, "src")]
    if len(srcs) != len(args.label) or len(set(args.label)) != len(srcs):
        ap.error("give one --src per --label, and distinct labels")
    trees = [(label, os.path.abspath(src))
             for label, src in zip(args.label, srcs)]
    import numpy as np

    results = {label: [] for label, _ in trees}
    for r in range(ROUNDS):
        for label, src in trees[r % len(trees):] + trees[:r % len(trees)]:
            results[label].append(run_round(src, args.repeats))

    points = []
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            points = json.load(fh)["points"]
    points = [p for p in points if p["label"] not in results]
    for label, _ in trees:
        summary = summarize(results[label])
        sizes = summary["sizes"]
        points.append({
            "label": label,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
            "repeats": args.repeats,
            "rounds": ROUNDS,
            "sizes": sizes,
            **{k: v for k, v in summary.items() if k != "sizes"},
        })

        def show(name, ms, ref):
            print(f"{label} {name}: {spread(ms, ref)}")

        for name, res in sizes.items():
            for key, what in (("analyze", "analyze"),
                              ("cli_analyze", "cli analyze min"),
                              ("cli_analyze_call_median",
                               "cli analyze call median")):
                show(f"{name} {what}", res[key + "_ms"], res[key + "_ref"])
            for key in res["glue_ms"]:
                show(f"{name} {key}", res["glue_ms"][key],
                     res["glue_ref"][key])
            print(f"{label} {name}: peak "
                  f"{res['analyze_tracemalloc_peak_mb']['median']:.1f} MB "
                  "analyze, "
                  f"{res['cli_analyze_tracemalloc_peak_mb']['median']:.1f}"
                  " MB cli analyze")
        for key in ("retention_clip", "powerlaw_clip"):
            show(key, summary[key + "_ms"], summary[key + "_ref"])
        for name in summary["synth_sim2_ms"]:
            show(f"synth_sim2 {name}", summary["synth_sim2_ms"][name],
                 summary["synth_sim2_ref"][name])
        peak = summary["powerlaw_clip_tracemalloc_peak_mb"]["median"]
        print(f"{label} powerlaw_clip: peak {peak:.1f} MB")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"points": points}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
