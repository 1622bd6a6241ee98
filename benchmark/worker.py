"""Workload process of the sim2spec benchmark (started by ``run.py``).

Runs one workload as a closed loop with a single caller: each operation is
an in-process ``sim2spec.cli.main`` call (``analyze FILE --json OUT`` for a
window, ``validate --suite all`` for a validate pass) issued after the
previous one returned.  Every output is checked after the timed loop.
Writes one JSON result file for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import jsonschema  # noqa: E402
import numpy as np  # noqa: E402

import sim2spec  # noqa: E402
import sim2spec.cli as cli  # noqa: E402

import spans  # noqa: E402
from run import PINNED_ENV  # noqa: E402

# fixed validate-pass size: --n randomized instances per bound suite and
# --n-retention power-law clips (16x224^2) in the retention suite
VALIDATE_N = 200
VALIDATE_N_RETENTION = 6
# below this many operations a timed loop keeps going past its deadline
MIN_OPS = 5
# input of the reference kernel: the workload's window (validate: the
# retention suite's power-law clip)
REFERENCE_SHAPE = {"window_small": (16, 64, 64),
                   "window_large": (32, 256, 256),
                   "validate": (16, 224, 224)}
WEIGHT_SUM_TOL = 1e-9
MOTION_KINDS = ("translation", "rotation", "scaling")


# ---------------------------------------------------------------------------
# output checks


def _schema(name: str):
    path = os.path.join(os.path.dirname(sim2spec.__file__), "schemas", name)
    with open(path, encoding="utf-8") as fh:
        return jsonschema.Draft7Validator(json.load(fh))


def _non_finite(obj, where="$"):
    """Path of the first non-finite number in a parsed JSON document."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return where
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return None
    for k, v in items:
        bad = _non_finite(v, f"{where}.{k}")
        if bad:
            return bad
    return None


class Checker:
    """Checks one operation's exit code and JSON output; returns the
    parsed document and ``None``, or ``None`` and the reason it failed."""

    def __init__(self):
        self.report = _schema("report.schema.json")
        self.validate = _schema("validate.schema.json")

    def _load(self, rc, path: str, schema):
        if rc != 0:
            return None, f"exit status {rc}"
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            return None, f"unreadable output: {exc}"
        err = next(iter(schema.iter_errors(doc)), None)
        if err is not None:
            return None, f"schema: {err.message}"
        bad = _non_finite(doc)
        if bad:
            return None, f"non-finite number at {bad}"
        return doc, None

    def analyze(self, rc, path: str):
        doc, why = self._load(rc, path, self.report)
        if doc is not None:
            total = math.fsum(doc["report"]["weights"].values())
            if abs(total - 1.0) > WEIGHT_SUM_TOL:
                return None, f"weights sum to {total!r}"
        return doc, why

    def validate_pass(self, rc, path: str):
        doc, why = self._load(rc, path, self.validate)
        if doc is not None and doc["violations_total"] != 0:
            return None, f"{doc['violations_total']} violations"
        return doc, why


# ---------------------------------------------------------------------------
# operations


class Workload:
    """The operation stream of one workload; operation ``i`` writes its
    JSON output to its own file so that every output can be checked."""

    def __init__(self, name: str, seed: int, data: str, truth: dict):
        self.name = name
        self.seed = seed
        self.out = os.path.join(data, "out")
        os.makedirs(self.out, exist_ok=True)
        inputs = os.path.join(data, "inputs")
        self.stream = [os.path.join(inputs, w["input"])
                       for w in truth["stream"]]
        self.quality = [os.path.join(inputs, w["input"])
                        for w in truth["quality"]]
        self._sink = io.StringIO()

    def argv(self, i: int, tag: str) -> tuple:
        out = os.path.join(self.out, f"{tag}{i:06d}.json")
        if self.name == "validate":
            return ["validate", "--suite", "all", "--n", str(VALIDATE_N),
                    "--n-retention", str(VALIDATE_N_RETENTION),
                    "--seed", str(self.seed), "--json", out], out
        return ["analyze", self.stream[i % len(self.stream)],
                "--json", out], out

    def call(self, argv: list):
        """Exit code of one ``cli.main`` call, or the exception it raised
        (as text), which the output check counts as a failure."""
        self._sink.seek(0)
        self._sink.truncate()
        try:
            with contextlib.redirect_stdout(self._sink):
                return cli.main(argv)
        except Exception as exc:  # a failed operation, not a failed run
            return f"{type(exc).__name__}: {exc}"


class Reference:
    """Fixed reference kernel, timed right after every operation of a
    ``--trace 0`` run.

    The host's speed drifts by up to about 60% for a minute at a time, which
    moves a run's median operation time by 25-30% between runs.  An
    operation's time divided by the time of this kernel, run a moment later
    in the same process, cancels most of that drift.  The kernel does not
    use ``sim2spec``, so a change to the program moves only the numerator.
    Its mix follows an ``analyze`` call: a full-frame FFT of the workload's
    window size, argument-parser construction, indented JSON encoding and
    small-array NumPy reductions.
    """

    def __init__(self, shape):
        rng = np.random.default_rng(0)
        self.frames = rng.standard_normal(shape)
        self.payload = {f"k{i}": rng.standard_normal(20).tolist()
                        for i in range(30)}
        self.small = [rng.standard_normal((20, 24)) for _ in range(40)]

    def run(self) -> None:
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


def timed_loop(wl: Workload, seconds: float, tag: str, reference=None,
               tracer=None) -> dict:
    """Closed loop for ``seconds`` (at least MIN_OPS operations).

    Returns the per-operation wall times ``op``, the loop's wall time and
    the ``(kind, exit code, output path)`` of every operation.  With a
    reference, ``ref`` holds the reference kernel's time after each
    operation.  With a tracer, every operation runs twice in a row,
    untraced and then traced (``traced`` holds the latter's wall times),
    so drift of the host's speed does not enter the tracing overhead.
    """
    lat, lat_ref, lat_traced, done = [], [], [], []
    t_begin = time.perf_counter()
    deadline = t_begin + seconds
    i = 0
    while True:
        argv, out = wl.argv(i, tag)
        t0 = time.perf_counter()
        rc = wl.call(argv)
        t1 = time.perf_counter()
        lat.append(t1 - t0)
        done.append((argv[0], rc, out))
        if reference is not None:
            reference.run()
            lat_ref.append(time.perf_counter() - t1)
        if tracer is not None:
            argv, out = wl.argv(i, tag + "traced")
            tracer.op = i
            tracer.install()
            try:
                idx = tracer.open("op")
                t0 = time.perf_counter()
                rc = wl.call(argv)
                t1 = time.perf_counter()
                tracer.close(idx)
            finally:
                tracer.uninstall()
            lat_traced.append(t1 - t0)
            done.append((argv[0], rc, out))
        i += 1
        if time.perf_counter() >= deadline and i >= MIN_OPS:
            return {"op": lat, "ref": lat_ref, "traced": lat_traced,
                    "wall": time.perf_counter() - t_begin, "done": done}


# ---------------------------------------------------------------------------
# metrics


def _quantile_ms(lat, q):
    return float(np.percentile(np.asarray(lat) * 1e3, q))


def quality_metrics(docs: list, truth: list) -> dict:
    """Motion-quality metrics of the quality windows: argmax accuracy over
    pure translation/rotation/scaling windows and the median slice-estimate
    errors against the ground truth."""
    hits, v_err, om_err, al_err = [], [], [], []
    for doc, row in zip(docs, truth):
        spec, rep = row["spec"], doc["report"]
        kind = spec["kind"]
        if kind not in MOTION_KINDS:
            continue
        w = rep["weights"]
        hits.append(max(w, key=w.get) == kind)
        est = rep["slice_estimates"][kind]
        if kind == "translation":
            conv = rep["diagnostics"]["conversions"]
            v_err.append(math.hypot(
                est["v_x"] * conv["v_x_bins_to_px_per_frame"] - spec["v"][0],
                est["v_y"] * conv["v_y_bins_to_px_per_frame"] - spec["v"][1]))
        elif kind == "rotation":
            om_err.append(abs(est["omega"] - spec["omega"]) / abs(spec["omega"]))
        else:
            al_err.append(abs(est["alpha"] - spec["alpha"]) / abs(spec["alpha"]))
    return {"motion_accuracy": sum(hits) / len(hits),
            "velocity_err_px": statistics.median(v_err),
            "omega_rel_err": statistics.median(om_err),
            "alpha_rel_err": statistics.median(al_err)}


# spans whose self time is reported together as ``cli.self_ms``
CLI_GLUE = ("cli.main", "cli.suite_bounds", "cli.suite_exactness",
            "cli.suite_retention")
# ``losses.analyze`` is reported as ``self_ms``; ``synth.synth_sim2`` is
# reported from the generator (set-up), not from the operations
LAYER_MS = [s for s in spans.TRACED.values()
            if s not in CLI_GLUE + ("losses.analyze", "synth.synth_sim2")]
CALLS = ("spectral.spatial_transform", "spectral.crop_to_cube",
         "gates.build_samples", "losses.ridge_wls_solve")


def layer_metrics(tracer, lat_traced, flagged_frac, overhead_frac) -> tuple:
    """Per-layer metrics per traced operation, the exact counts of every
    traced operation and the span self-time balance."""
    n_ops = len(lat_traced)
    ops_wall = math.fsum(lat_traced)
    names = np.asarray(tracer.names)
    op_ids = np.asarray(tracer.op_ids)
    self_t = tracer.self_times()
    in_op = op_ids >= 0

    def self_ms(*which):
        sel = in_op & np.isin(names, which)
        return float(self_t[sel].sum()) * 1e3 / n_ops

    per_op = [tracer.counts[i] for i in range(n_ops)]

    def mean_count(key):
        return sum(c[key] for c in per_op) / n_ops

    m = {name + ".ms": self_ms(name) for name in LAYER_MS}
    m[spans.REPORT_JSON + ".ms"] = self_ms(spans.REPORT_JSON)
    m["losses.analyze.self_ms"] = self_ms("losses.analyze")
    m["cli.self_ms"] = self_ms(*CLI_GLUE)
    for name in CALLS:
        m[name + ".calls"] = mean_count(name + ".calls")
    for block in ("translation", "rotation", "scaling"):
        m["gates.samples." + block] = mean_count("samples." + block)
    transform_bins = sum(c["transform.bins"] for c in per_op)
    crop_bins = sum(c["crop.bins.cube"] + c["crop.bins.frames"]
                    for c in per_op)
    m["spectral.kept_fraction"] = (crop_bins / transform_bins
                                   if transform_bins else 0.0)
    m["spectral.computed_mb"] = mean_count("transform.bytes") / 1e6
    m["losses.flagged_frac"] = flagged_frac
    m["trace.overhead_frac"] = overhead_frac

    # every traced span inside an operation, benchmark glue ("op") excluded,
    # against the operation wall time measured outside the tracer
    layer_self = float(self_t[in_op & (names != "op")].sum())
    balance = {"span_self_s": layer_self, "op_wall_s": ops_wall,
               "rel_err": abs(layer_self - ops_wall) / ops_wall}

    keys = ("spectral.spatial_transform.calls",
            "spectral.spectral_transform.calls",
            "spectral.crop_to_cube.calls", "gates.build_samples.calls",
            "losses.ridge_wls_solve.calls", "samples.translation",
            "samples.rotation", "samples.scaling", "crop.bins.cube",
            "crop.bins.frames", "transform.bytes")
    rows = [tuple(c[k] for k in keys) for c in per_op]
    distinct = sorted(set(rows))
    counts = {"per_op": [dict(zip(keys, r)) for r in distinct],
              "ops": n_ops, "distinct": len(distinct)}
    return m, counts, balance


def environment(size) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    pkg = os.path.dirname(sim2spec.__file__)
    for dirpath, dirnames, files in sorted(os.walk(pkg)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for f in sorted(files):
            p = os.path.join(dirpath, f)
            digest.update(os.path.relpath(p, pkg).encode())
            with open(p, "rb") as fh:
                digest.update(fh.read())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fft_backend": np.fft._pocketfft_umath.__name__
        if hasattr(np.fft, "_pocketfft_umath") else "numpy.fft",
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "pinned_env": {k: os.environ.get(k) for k in PINNED_ENV},
        "sim2spec": sim2spec.__version__,
        "src_sha256": digest.hexdigest(),
        "window_size": size,
        "validate": {"n": VALIDATE_N, "n_retention": VALIDATE_N_RETENTION},
        "closed_loop_callers": 1,
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() when the process was started")
    args = p.parse_args(argv)

    with open(os.path.join(args.data, "truth.json"), encoding="utf-8") as fh:
        truth = json.load(fh)
    wl = Workload(args.workload, args.seed, args.data, truth)
    check = Checker()
    failures = []
    attempted = 0

    def check_ops(done) -> list:
        """Check every ``(kind, rc, out)``; return the parsed documents
        (``None`` for a failed operation)."""
        nonlocal attempted
        docs = []
        for kind, rc, out in done:
            attempted += 1
            if kind == "analyze":
                doc, why = check.analyze(rc, out)
            else:
                doc, why = check.validate_pass(rc, out)
            if why is not None:
                failures.append(f"{os.path.basename(out)}: {why}")
            docs.append(doc)
        return docs

    def no_wrappers(when: str) -> None:
        stray = spans.installed_wrappers()
        if stray:
            failures.append(f"tracing wrappers installed {when}: {stray}")

    # warm-up: FFT plans, lazy imports and first-call costs
    warm = [_one(wl, i, "w") for i in range(1 if wl.name == "validate"
                                            else 2)]
    ready_s = time.monotonic() - args.t0
    check_ops(warm)
    result = {"ready_s": ready_s, "environment": environment(truth["size"]),
              "workload": args.workload, "seed": args.seed}

    # the warm-up made every allocation an operation makes
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    no_wrappers("before the timed run")
    if args.trace == 0:
        ref = Reference(REFERENCE_SHAPE[args.workload])
        ref.run()
        loop = timed_loop(wl, args.seconds, "t", reference=ref)
        no_wrappers("during the untraced run")
        check_ops(loop["done"])
        op, ratio = np.asarray(loop["op"]), np.divide(loop["op"], loop["ref"])
        metrics = {"op_ref_p50": float(np.percentile(ratio, 50)),
                   "op_ref_p90": float(np.percentile(ratio, 90)),
                   "ops_per_ref": 1.0 / float(ratio.mean()),
                   "peak_rss_mb": peak_rss_mb}
        q_docs = check_ops([_analyze(wl, path, f"q{i:06d}")
                            for i, path in enumerate(wl.quality)])
        if None not in q_docs:
            metrics.update(quality_metrics(q_docs, truth["quality"]))
        result["wall_clock"] = {
            "op_ms_p50": float(np.percentile(op, 50)) * 1e3,
            "op_ms_p90": float(np.percentile(op, 90)) * 1e3,
            "ops_per_s": len(op) / float(op.sum()),
            "ref_ms_p50": float(np.median(loop["ref"])) * 1e3}
        result["samples"] = len(op)
        result["op_s"] = loop["op"]
        result["ref_s"] = loop["ref"]
    else:
        tracer = spans.Tracer()
        loop = timed_loop(wl, args.seconds, "t", tracer=tracer)
        lat_u, lat_t = loop["op"], loop["traced"]
        no_wrappers("after the traced run")
        flags = [any(d["report"]["diagnostics"]["flags"].values())
                 for d in check_ops(loop["done"])
                 if d is not None and "report" in d]
        flagged = sum(flags) / len(flags) if flags else 0.0
        overhead = _quantile_ms(lat_t, 50) / _quantile_ms(lat_u, 50) - 1.0
        metrics, counts, balance = layer_metrics(tracer, lat_t, flagged,
                                                 overhead)
        result["counts"] = counts
        result["span_balance"] = balance
        result["samples"] = {"untraced": len(lat_u), "traced": len(lat_t)}
        spans_path = os.path.splitext(args.result)[0] + ".spans.jsonl"
        tracer.dump(spans_path)
        result["spans_file"] = os.path.relpath(spans_path, ROOT)

    result.update(metrics=metrics, attempted=attempted, failures=failures)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


def _analyze(wl: Workload, path: str, name: str):
    out = os.path.join(wl.out, name + ".json")
    return "analyze", wl.call(["analyze", path, "--json", out]), out


def _one(wl: Workload, i: int, tag: str):
    argv, out = wl.argv(i, tag)
    return argv[0], wl.call(argv), out


if __name__ == "__main__":
    sys.exit(main())
