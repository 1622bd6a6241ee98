"""Per-stage and end-to-end wall times of ``sim2spec.losses.analyze``.

    python bench/bench_analyze.py --label NAME [--src DIR]
                                  [--label NAME --src DIR ...]
                                  [--repeats N] [--out BENCH_analyze.json]

On a seeded mixed-motion clip at 16x64^2, 16x128^2 and 32x256^2, after
one untimed call, ``analyze`` is timed with ``time.perf_counter`` as the
minimum over ``--repeats`` calls, and one more call records its
tracemalloc peak.  The stage rows come from ``--repeats`` more calls of
``analyze`` itself, each run by ``clocked_call``: each name of ``STAGES``
that ``analyze`` reaches through ``sim2spec.losses`` books its self time
(the clocked stages it calls left out) to its row, and ``assembly`` books
the rest, ``analyze``'s own work.  So ``samples`` is the building of the
three sample blocks with their moments (points from trees whose blocks
formed the moments lazily book those to the ``*_loss`` rows), ``fits``
every ridge solve, a ``*_loss`` row what its loss does around them, and
the rows of a call sum to the call.  A stage row is the median over the
calls, ``clocked_ms`` the median clocked call and ``clock_cost`` its
ratio to the median unclocked one.  A stage that ``analyze`` stops
calling reads zero.  A stage row whose median over the
rounds is under ``UNRESOLVED_MS`` moves by tens of percent between
processes of one tree, so each point lists those rows per size under
``unresolved_stages``, and they are printed apart, without a ratio.  The
``cli_analyze`` rows time an in-process ``cli.main(["analyze", FILE,
"--json", OUT])`` on the clip saved as raw_f32 the same way, with the
median call beside the minimum (a reader thread's hand-off stalls now and
then, which the minimum hides).  The ``glue_ms`` rows time ``make_manifest`` and ``report_json``,
``to_dict`` plus ``json.dumps`` of the payload ``cli analyze`` writes.
The ``retention_clip`` row times ``cli.suite_retention(1, 0)`` (one
16x224^2 ``synth_powerlaw`` clip), the ``synth_sim2_ms`` rows the
mixed-motion clip at 16x64^2 and 32x256^2, and the ``powerlaw_clip`` rows
one 16x224^2 ``synth_powerlaw`` clip (amplitude grid cached).  The
``powerlaw_clip_one_cpu`` rows time the same clip, and the reference
kernel after it, with the bench process's affinity narrowed to one of
its CPUs (``os.sched_setaffinity``, restored afterwards), where the clip
has no helper thread; a platform without ``sched_setaffinity`` has no
such rows.

Every timed call is followed by one run of a fixed reference kernel, the
mix of ``benchmark/worker.py``'s ``Reference`` at 16x64^2 (a full-frame
FFT, argument-parser construction, indented JSON encoding and small NumPy
reductions), which does not use ``sim2spec``.  Beside each time row
(``*_ms``) a ``*_ref`` row stores its ratio to the kernel over the same
calls: minimum over minimum, or median over median for a median row.
The host's speed drifts by tens of percent between rounds and runs, and
the ratio cancels most of that drift, so points from different runs
compare by their ratios.

Each ``--label`` names the source tree of the ``--src`` at the same
position (one label alone defaults to this checkout's ``src``).  Every
tree is timed in a fresh interpreter in each of ``ROUNDS`` rounds, the
order of the trees rotating from round to round, with glibc's malloc
told to keep freed memory (``MALLOC_ENV``, as ``benchmark/run.py`` sets
it): under the defaults the heap is trimmed and grown again around
temporaries just under the mmap threshold, which doubled the 16x64^2
``polar_resample`` row.  Each tree's point stores every value per round
and its median under its label in ``--out``, beside the points already
there, with the line count of the tree's ``sim2spec/*.py`` and the
malloc variables.  After the rounds, each tree's tier-1 suite runs once
(``TIER1``, in the directory above its ``src``, the environment as given),
and its point stores the wall seconds and the passed and xfailed counts
under ``tier1``.  BLAS and OpenMP thread variables are recorded, not set:
pin them in the environment to compare like with like.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import glob
import importlib.util
import io
import json
import os
import platform
import re
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


def _benchmark_run():
    """``benchmark/run.py`` as a module, imported read-only."""
    spec = importlib.util.spec_from_file_location(
        "benchmark_run", os.path.join(ROOT, "benchmark", "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the malloc settings of benchmark/run.py, set for every round's child
MALLOC_ENV = {var: value for var, value
              in _benchmark_run().PINNED_ENV.items()
              if var.startswith("MALLOC_")}
# stage rows below this median (ms) differ by tens of percent between
# processes of one tree, far more than their code's cost can move
UNRESOLVED_MS = 0.1
# the tier-1 command of ROADMAP.md, run with the tree's src on PYTHONPATH
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")


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


def peak_mb(fn) -> float:
    """The tracemalloc peak (MB) of one call of ``fn``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


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


# the names ``analyze`` reaches through ``sim2spec.losses`` -> stage row
STAGES = dict(
    cropped_transform="transform", build_polar_lut="polar_lut",
    polar_resample="polar_resample", make_stack="harmonics",
    ring_energies="ring_energies", build_samples="samples",
    ridge_wls_solve="fits", translation_loss="translation_loss",
    rotation_loss="rotation_loss", scaling_loss="scaling_loss",
    unified_residual="unified_residual", adaptive_composite="composite")


def clocked_call(fn, *args) -> dict:
    """``{row: self time (ms)}`` of one call ``fn(*args)``: for the call,
    each name of ``STAGES`` in ``sim2spec.losses`` books the time of its
    calls, less that of the clocked calls they make, to its row, and
    ``assembly`` books the rest.  The names are put back afterwards, also
    when the call raises."""
    from sim2spec import losses

    ms = dict.fromkeys([*STAGES.values(), "assembly"], 0.0)
    inner = [0.0]  # per open call: the time of the clocked calls it made

    def clock(row_name, stage):
        def clocked(*a, **kw):
            inner.append(0.0)
            t0 = time.perf_counter()
            try:
                return stage(*a, **kw)
            finally:
                dt = time.perf_counter() - t0
                ms[row_name] += (dt - inner.pop()) * 1e3
                inner[-1] += dt
        return clocked

    saved = {name: getattr(losses, name) for name in STAGES}
    try:
        for name, row_name in STAGES.items():
            setattr(losses, name, clock(row_name, saved[name]))
        t0 = time.perf_counter()
        fn(*args)
        ms["assembly"] = (time.perf_counter() - t0 - inner[0]) * 1e3
    finally:
        for name, stage in saved.items():
            setattr(losses, name, stage)
    return ms


def bench_size(size, repeats: int, ref) -> dict:
    from sim2spec.cli import make_manifest
    from sim2spec.core import SpectralConfig
    from sim2spec.losses import analyze

    cfg = SpectralConfig()
    clip = mixed_clip(size)
    report = analyze(clip, cfg)
    manifest = make_manifest("analyze", {"clip.raw": "0" * 64}, cfg)
    glue = {
        "make_manifest": lambda: make_manifest(
            "analyze", {"clip.raw": "0" * 64}, cfg),
        "report_json": lambda: json.dumps({"manifest": manifest,
                                           "report": report.to_dict()}),
    }
    cli_times, cli_peak = bench_cli_analyze(clip, repeats, ref)
    out = dict(zip(("glue_ms", "glue_ref"), rows(glue, repeats, ref)))
    clocked = []
    median = statistics.median
    calls, runs = times_ms(
        lambda: clocked.append(clocked_call(analyze, clip, cfg)),
        repeats, ref)
    plain = times_ms(lambda: analyze(clip, cfg), repeats, ref)
    out["stages_ms"] = {k: median(c[k] for c in clocked) for k in clocked[0]}
    out["stages_ref"] = {k: ms / median(runs)
                         for k, ms in out["stages_ms"].items()}
    out["clock_cost"] = median(calls) / median(plain[0])
    for key, stat, timed in (("clocked", median, (calls, runs)),
                             ("analyze", min, plain),
                             ("cli_analyze", min, cli_times),
                             ("cli_analyze_call_median", median, cli_times)):
        out[key + "_ms"] = stat(timed[0])
        out[key + "_ref"] = stat(timed[0]) / stat(timed[1])
    out["cli_analyze_tracemalloc_peak_mb"] = cli_peak
    out["analyze_tracemalloc_peak_mb"] = peak_mb(lambda: analyze(clip, cfg))
    return out


def bench_cli_analyze(clip, repeats: int, ref) -> tuple:
    """``times_ms`` and ``peak_mb`` of the in-process ``cli.main(["analyze",
    FILE, "--json", OUT])`` on ``clip`` saved as raw_f32, its printout
    dropped."""
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
        return times_ms(one, repeats, ref), peak_mb(one)


def bench_clips(repeats: int, ref) -> dict:
    """The rows of the retention suite and of the clip generators, and
    the tracemalloc peak (MB) of one power-law clip."""
    from sim2spec.cli import suite_retention
    from sim2spec.synth import synth_powerlaw

    suite_retention(1, 0)
    out = dict(zip(("retention_clip_ms", "retention_clip_ref"),
                   row(lambda: suite_retention(1, 0), repeats, ref)))
    out.update(zip(("synth_sim2_ms", "synth_sim2_ref"), rows(
        {"x".join(map(str, size)): lambda size=size: mixed_clip(size)
         for size in SYNTH_SIZES}, repeats, ref)))
    powerlaw = functools.partial(synth_powerlaw, *POWERLAW_SIZE, 1.8, 0)
    powerlaw()
    out.update(zip(("powerlaw_clip_ms", "powerlaw_clip_ref"),
                   row(powerlaw, repeats, ref)))
    if hasattr(os, "sched_setaffinity"):
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
        try:
            powerlaw()
            out.update(zip(("powerlaw_clip_one_cpu_ms",
                            "powerlaw_clip_one_cpu_ref"),
                           row(powerlaw, repeats, ref)))
        finally:
            os.sched_setaffinity(0, cpus)
    out["powerlaw_clip_tracemalloc_peak_mb"] = peak_mb(powerlaw)
    return out


def bench_all(repeats: int) -> dict:
    ref = Reference()
    return {"sizes": {"x".join(map(str, s)): bench_size(s, repeats, ref)
                      for s in SIZES},
            **bench_clips(repeats, ref)}


def run_round(src: str, repeats: int) -> dict:
    out = subprocess.run([sys.executable, "-c", CHILD, HERE, src,
                          str(repeats)], check=True, capture_output=True,
                         text=True, env={**os.environ, **MALLOC_ENV}).stdout
    return json.loads(out)


def tier1(src: str) -> dict:
    """Wall seconds and outcome counts of one tier-1 run of the tree whose
    ``src`` is given, from pytest's summary line."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, *TIER1], cwd=os.path.dirname(src),
                          env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    summary = done.stdout.splitlines()[-1]
    return {"wall_s": wall, "passed": 0, "xfailed": 0,
            **{what: int(n) for n, what in re.findall(r"(\d+) (\w+)",
                                                      summary)}}


def src_lines(src: str) -> int:
    """Lines of the tree's ``sim2spec/*.py``."""
    total = 0
    for path in glob.glob(os.path.join(src, "sim2spec", "*.py")):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


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
    suites = {label: tier1(src) for label, src in trees}

    points = []
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            points = json.load(fh)["points"]
    points = [p for p in points if p["label"] not in results]
    for label, src in trees:
        summary = summarize(results[label])
        sizes = summary["sizes"]
        for res in sizes.values():
            res["unresolved_stages"] = [
                k for k, v in res["stages_ms"].items()
                if v["median"] < UNRESOLVED_MS]
        points.append({
            "label": label,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
            "malloc_env": MALLOC_ENV,
            "src_lines": src_lines(src),
            "tier1": suites[label],
            "repeats": args.repeats,
            "rounds": ROUNDS,
            "sizes": sizes,
            **{k: v for k, v in summary.items() if k != "sizes"},
        })

        def show(name, ms, ref):
            print(f"{label} {name}: {spread(ms, ref)}")

        for name, res in sizes.items():
            for key, what in (("analyze", "analyze"),
                              ("clocked", "clocked analyze"),
                              ("cli_analyze", "cli analyze min"),
                              ("cli_analyze_call_median",
                               "cli analyze call median")):
                show(f"{name} {what}", res[key + "_ms"], res[key + "_ref"])
            stages = {k: v["median"] for k, v in res["stages_ms"].items()}
            print(f"{label} {name}: stage rows (ms, ref) " + ", ".join(
                f"{k} {v:.3f} {res['stages_ref'][k]['median']:.4f}"
                for k, v in stages.items()
                if k not in res["unresolved_stages"]) + ", sum "
                f"{sum(stages.values()) / res['clocked_ms']['median']:.1%} "
                f"of the clocked call; clock cost "
                f"{res['clock_cost']['median'] - 1:+.1%}")
            print(f"{label} {name}: stage rows under {UNRESOLVED_MS} ms, "
                  "no ratio (ms) " + ", ".join(
                      f"{k} {stages[k]:.3f}"
                      for k in res["unresolved_stages"]))
            for key in res["glue_ms"]:
                show(f"{name} {key}", res["glue_ms"][key],
                     res["glue_ref"][key])
            print(f"{label} {name}: peak MB " + ", ".join(
                f"{res[key + '_tracemalloc_peak_mb']['median']:.1f} {key}"
                for key in ("analyze", "cli_analyze")))
        for key in ("retention_clip", "powerlaw_clip",
                    "powerlaw_clip_one_cpu"):
            if key + "_ms" in summary:
                show(key, summary[key + "_ms"], summary[key + "_ref"])
        for name in summary["synth_sim2_ms"]:
            show(f"synth_sim2 {name}", summary["synth_sim2_ms"][name],
                 summary["synth_sim2_ref"][name])
        peak = summary["powerlaw_clip_tracemalloc_peak_mb"]["median"]
        print(f"{label} powerlaw_clip: peak {peak:.1f} MB")
        print(f"{label} tier-1: " + ", ".join(
            f"{v} {k}" for k, v in suites[label].items() if k != "wall_s")
            + f" in {suites[label]['wall_s']:.1f} s")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"points": points}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
