"""Command-line surface: analyze / synth / validate / sweep.

Every JSON output embeds a run manifest (command, input digests, tool
version, timestamp, numpy/BLAS/thread environment, and for ``analyze`` the
full configuration and its stable hash) and parses against the schema
files shipped under ``sim2spec/schemas``.

Exit codes: 0 success, 1 validation failure, 2 input/format error,
3 unobservable or degenerate input.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import datetime
import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .bounds import (BoundCheck, band_capture_check, ridge_inequality_check,
                     ring_entropy_check, window_leakage)
from .core import (ConfigError, DegenerateInputError, FrameSource,
                   SpectralConfig, Sim2Error, UnobservableError, save_video,
                   usable_cpus)
from .losses import analyze, ridge_wls_solve
from .spectral import EtaParams, cube_retention, eta_retention
from .synth import MotionSpec, make_rng, read_spec, synth_powerlaw, synth_sim2

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INPUT = 2
EXIT_DEGENERATE = 3


def environment() -> dict:
    """The numpy version and FFT backend, the BLAS numpy was built against,
    the CPU count, the BLAS thread variables (None when unset) and the CPUs
    this process may run on (``usable_cpus``)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    fft = getattr(np.fft, "_pocketfft_umath", None)
    return {"numpy": np.__version__,
            "fft": fft.__name__ if fft else "numpy.fft",
            "blas": {key: blas.get(key) for key in ("name", "version")},
            "threads": {var: os.environ.get(var) for var in (
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
            "cpu_count": os.cpu_count(), "usable_cpus": usable_cpus()}


def make_manifest(command: str, inputs: dict,
                  cfg: SpectralConfig | None = None) -> dict:
    """Run manifest; ``inputs`` maps each input path to its digest.  The
    configuration and its hash are recorded when ``cfg`` is given."""
    config = ({} if cfg is None else
              {"config": cfg.to_dict(), "config_hash": cfg.stable_hash()})
    return {
        "command": command,
        **config,
        "inputs": dict(inputs),
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "environment": environment(),
    }


def write_json(path: str, obj) -> None:
    """Write ``obj`` to ``path`` as ``json.dumps(obj)``: one-shot, so the
    C encoder does it (``json.dump`` always streams through the Python one)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj))


# one row per SpectralConfig field: (flag, field, type or choices, help)
CONFIG_FLAGS = (
    ("--rho", "lowpass_ratio", float, "low-pass ratio per dimension"),
    ("--rings", "rings", int, None),
    ("--angular-bins", "angular_bins", int, None),
    ("--logradius-bins", "logradius_bins", int, None),
    ("--delta", "band_tolerance", int, "tilted-line band tolerance (bins)"),
    ("--ridge", "ridge", float, None),
    ("--tau", "softmax_temperature", float, "softmax temperature"),
    ("--tau-e", "energy_gate_threshold", float, "energy gate threshold"),
    ("--gate-sharpness", "energy_gate_sharpness", float, None),
    ("--window", "window_kind", ("hann", "rect"), None),
)


def add_config_flags(p: argparse.ArgumentParser) -> None:
    for flag, _, kind, help_text in CONFIG_FLAGS:
        p.add_argument(flag, default=None, help=help_text,
                       **({"choices": kind} if isinstance(kind, tuple)
                          else {"type": kind}))


def config_from_args(args) -> SpectralConfig:
    overrides = {field: getattr(args, flag[2:].replace("-", "_"), None)
                 for flag, field, _, _ in CONFIG_FLAGS}
    return SpectralConfig(**{k: v for k, v in overrides.items()
                             if v is not None})


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args) -> int:
    cfg = config_from_args(args)
    # the source feeds the digest the bytes analyze reads through it, so
    # the input is read once and never held whole
    digest = hashlib.sha256()
    report = analyze(FrameSource.open(args.input, digest), cfg)
    payload = {"manifest": make_manifest(
                   "analyze", {args.input: digest.hexdigest()}, cfg),
               "report": report.to_dict()}
    if args.json:
        write_json(args.json, payload)
    if args.csv:
        row = _report_row(report)
        with open(args.csv, "w", newline="") as fh:
            wr = csv.DictWriter(fh, fieldnames=list(row))
            wr.writeheader()
            wr.writerow(row)
    w = report.weights
    print(f"L_trans={report.l_trans:.6g} L_rot={report.l_rot:.6g} "
          f"L_scale={report.l_scale:.6g} L_uni={report.l_uni:.6g} "
          f"L_motion={report.l_motion:.6g}")
    print(f"weights: translation={w['translation']:.4f} "
          f"rotation={w['rotation']:.4f} scaling={w['scaling']:.4f} "
          f"(argmax {report.argmax_weight()})")
    print(f"retained_fraction={report.diagnostics['retained_fraction']:.6g}")
    return EXIT_OK


def _report_row(report) -> dict:
    stats = ("l_trans", "l_rot", "l_scale", "l_uni", "l_motion", "c_rot",
             "c_ring", "c_flow", "s_trend", "c_scale")
    return {**{k: getattr(report, k) for k in stats},
            **{"w_" + k: w for k, w in report.weights.items()},
            "retained_fraction": report.diagnostics["retained_fraction"]}


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args) -> int:
    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read spec: {exc}") from exc
    try:
        spec, base, shape, exact = read_spec(raw)
        v = synth_sim2(base, spec, *shape, exact=exact)
    except (Sim2Error, MemoryError) as exc:
        # a scale collapse or a clip too large to allocate is the spec's fault
        raise ConfigError(f"invalid spec: {exc}") from exc
    save_video(v, args.out)
    spec_copy = dict(spec.to_dict(), T=shape[0], H=shape[1], W=shape[2],
                     base=base, exact=exact)
    write_json(args.out + ".spec.json", spec_copy)
    print(f"wrote {args.out} ({'x'.join(map(str, shape))})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate


def _suite_summary(name: str, checks: list) -> dict:
    violations = sum(1 for c in checks if not c.holds)
    worst = min((c.slack for c in checks), default=0.0)
    return {"suite": name, "instances": len(checks),
            "violations": violations, "worst_slack": worst}


def suite_bounds(n: int, seed: int) -> tuple:
    """Randomized inequality suites plus leakage monotonicity."""
    if n < 0:
        raise ConfigError(f"--n must be at least 0, got {n}")
    rng = make_rng(seed)
    checks = []
    for i in range(n):
        k = int(rng.integers(5, 60))
        energies = rng.uniform(0.01, 1.0, k)
        errors = rng.normal(0.0, 3.0, k)
        g_lo = rng.uniform(0.05, 0.5)
        g_hi = g_lo + rng.uniform(0.01, 1.0)
        gates = rng.uniform(g_lo, g_hi, k)
        delta = float(rng.integers(1, 4))
        checks.append(band_capture_check(energies, errors, gates, delta,
                                         {"case": i}))
    for i in range(n):
        m = int(rng.integers(6, 40))
        p = int(rng.integers(1, 6))
        design = rng.normal(size=(m, p))
        if p >= 2 and rng.random() < 0.2:
            design[:, -1] = design[:, 0]  # exercise the rank-deficient path
        targets = rng.normal(size=m)
        weights = rng.uniform(0.1, 2.0, m)
        checks.extend(ridge_inequality_check(design, targets, weights,
                                             (1e-4, 1e-3), {"case": i}))
    for i in range(n):
        n_r = int(rng.integers(2, 30))
        eps_nb = float(rng.uniform(0.0, 0.5))
        leak = float(rng.uniform(0.0, eps_nb)) if eps_nb > 0 else 0.0
        rings = np.zeros(n_r)
        a, b = rng.choice(n_r, size=2, replace=False)
        rings[a] = 1.0 - leak
        rings[b] = leak
        checks.append(ring_entropy_check(rings, eps_nb, {"case": i}))
    # Hann leakage monotone in T (near-band tolerances; at delta >= 3 the
    # T=8 symmetric window has exactly zero out-of-band energy, so the
    # comparison is only meaningful for delta <= 2) and in delta for each T
    frames = (8, 16, 32, 64)
    for delta in (0, 1, 2):
        vals = [window_leakage(t, delta) for t in frames]
        for i in range(len(vals) - 1):
            checks.append(BoundCheck(vals[i + 1], vals[i], {
                "bound": "leak_mono_T", "delta": delta, "T": frames[i + 1]}))
    for t in frames:
        vals = [window_leakage(t, d) for d in range(t // 2 + 1)]
        for d in range(len(vals) - 1):
            checks.append(BoundCheck(vals[d + 1], vals[d], {
                "bound": "leak_mono_delta", "T": t, "delta": d + 1}))
    return checks, _suite_summary("bounds", checks)


EXACTNESS_VELOCITIES = ((1.0, 0.0), (0.0, 1.0), (1.0, 2.0), (-2.0, 1.0))


def suite_exactness(seed: int) -> tuple:
    """Integer-shift translation fixtures and ideal hyperplane samples."""
    cfg = SpectralConfig(window_kind="rect")
    checks = []
    for i, vel in enumerate(EXACTNESS_VELOCITIES):
        spec = MotionSpec(kind="translation", v=vel, seed=seed + i)
        clip = synth_sim2("bandpass_noise", spec, 32, 32, 32, exact=True)
        rep = analyze(clip, cfg)
        est = rep.slice_estimates["translation"]
        conv = rep.diagnostics["conversions"]
        vx = est.v_x * conv["v_x_bins_to_px_per_frame"]
        vy = est.v_y * conv["v_y_bins_to_px_per_frame"]
        checks.append(BoundCheck(rep.l_trans, 1e-4,
                                 {"bound": "exact_l_trans", "v": list(vel)}))
        checks.append(BoundCheck(abs(vx - vel[0]), 0.05,
                                 {"bound": "exact_vx", "v": list(vel)}))
        checks.append(BoundCheck(abs(vy - vel[1]), 0.05,
                                 {"bound": "exact_vy", "v": list(vel)}))

    rng = make_rng(seed + 100)
    theta_star = np.array([0.1, -0.2, 0.3, 0.05, 0.0])
    rows = np.column_stack([rng.normal(size=500) * 4,
                            rng.normal(size=500) * 4,
                            rng.integers(-6, 7, 500).astype(float),
                            rng.integers(-6, 7, 500).astype(float),
                            np.ones(500)])
    targets = rows @ theta_star
    weights = rng.uniform(0.2, 1.0, 500)
    theta, _ = ridge_wls_solve(rows.T @ (rows * weights[:, None]),
                               rows.T @ (weights * targets), weights.sum(),
                               1e-8)
    err = rows @ theta - targets
    checks.append(BoundCheck(float(weights @ err ** 2 / weights.sum()), 1e-10,
                             {"bound": "hyperplane_residual"}))
    checks.append(BoundCheck(float(np.max(np.abs(theta - theta_star))),
                             1e-6, {"bound": "hyperplane_theta"}))
    return checks, _suite_summary("exactness", checks)


def suite_retention(n: int, seed: int) -> tuple:
    """Power-law clips against the closed-form retention model."""
    if n < 1:
        # with no clip the mean would be NaN and read as a violation
        raise ConfigError(f"--n-retention must be at least 1, got {n}")
    cfg = SpectralConfig(window_kind="rect")
    checks = []
    size = (16, 224, 224)
    params = EtaParams.for_grid(*size, kappa=1.8)
    eta = eta_retention(cfg.lowpass_ratio, params)
    checks.append(BoundCheck(abs(eta["eta_ball"] - 0.97), 0.005,
                             {"bound": "eta_ball_value"}))
    checks.append(BoundCheck(abs(eta["eta_cube_hi"] - 0.987), 0.005,
                             {"bound": "eta_cube_hi_value"}))

    # each clip is freed before the next is made; the 1/2 shift comes off
    # the DC bins, so no shifted copy is made either
    vals = [cube_retention(synth_powerlaw(*size, kappa=1.8, seed=seed + i),
                           cfg) for i in range(n)]
    for i, r in enumerate(vals):
        checks.append(BoundCheck(eta["eta_cube_lo"] - 0.02, r,
                                 {"bound": "retention_sample_lo", "i": i}))
        checks.append(BoundCheck(r, eta["eta_cube_hi"] + 0.02,
                                 {"bound": "retention_sample_hi", "i": i}))
    mean = float(np.mean(vals))
    checks.append(BoundCheck(abs(mean - 0.975), 0.02,
                             {"bound": "retention_mean", "mean": mean}))
    return checks, _suite_summary("retention", checks)


def cmd_validate(args) -> int:
    suites = []
    all_checks = []
    # the lambdas resolve each suite through the module globals at call time
    run = {"bounds": lambda: suite_bounds(args.n, args.seed),
           "exactness": lambda: suite_exactness(args.seed),
           "retention": lambda: suite_retention(args.n_retention, args.seed)}
    names = list(run) if args.suite == "all" else [args.suite]
    for name in names:
        checks, summary = run[name]()
        suites.append(summary)
        all_checks.extend(checks)
        print(f"suite {summary['suite']}: {summary['instances']} checks, "
              f"{summary['violations']} violations, "
              f"worst slack {summary['worst_slack']:.3e}")

    violations = sum(s["violations"] for s in suites)
    # no config in the manifest: each suite builds its own fixed one
    payload = {"manifest": make_manifest("validate", {}),
               "suites": suites, "violations_total": violations}
    if args.json:
        write_json(args.json, payload)
    if violations:
        for c in all_checks:
            if not c.holds:
                print(f"VIOLATION: {c.context} lhs={c.lhs!r} rhs={c.rhs!r}",
                      file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


SWEEP_FIXTURES = {
    "rotation": ("gaussian_blobs",
                 dict(kind="rotation", omega=2 * math.pi / 16, seed=21)),
    "mixed": ("gaussian_blobs",
              dict(kind="mixed", v=(0.5, 0.0), omega=2 * math.pi / 32,
                   alpha=0.01, seed=33)),
}


def _parse_range(text: str, integer: bool) -> list:
    """``--range``: a comma list or ``lo..hi`` inclusive (every integer for
    an integer parameter, else 7 steps); each value an int for an integer
    parameter, else a float, and finite."""
    span = ".." in text
    try:
        vals = list(map(int if integer else float, text.split("..", 1) if span
                        else filter(str.strip, text.split(","))))
        if not all(map(math.isfinite, vals)):
            raise ValueError(f"{text!r} is not finite")
    except ValueError as exc:
        raise ConfigError(f"bad range: {exc}") from exc
    if span:
        vals = (list(range(vals[0], vals[1] + 1)) if integer
                else list(np.linspace(*vals, 7)))
    if not vals:
        raise ConfigError("bad range: empty range")
    return vals


def cmd_sweep(args) -> int:
    values = _parse_range(args.range, args.param in ("T", "delta"))
    if args.param == "T" and any(v < 4 for v in values):
        raise ConfigError("bad range: T must be >= 4")

    base_cfg = config_from_args(args)
    fixture = "mixed" if args.param == "tau" else "rotation"
    base_kind, spec_kw = SWEEP_FIXTURES[fixture]
    if args.seed is not None:
        spec_kw = dict(spec_kw, seed=args.seed)

    # every run's config and spec are built, and so validated, before the
    # first analysis
    runs = []
    for val in values:
        cfg, frames_t, noise = base_cfg, 16, 0.0
        if args.param == "T":
            frames_t = val
        elif args.param == "delta":
            cfg = replace(cfg, band_tolerance=val)
        elif args.param == "tau":
            cfg = replace(cfg, softmax_temperature=float(val))
        elif args.param == "noise":
            noise = float(val)
        runs.append((val, cfg, frames_t,
                     MotionSpec(**dict(spec_kw, noise_sigma=noise))))

    rows = []
    for val, cfg, frames_t, spec in runs:
        clip = synth_sim2(base_kind, spec, frames_t, 64, 64)
        rep = analyze(clip, cfg)
        row = {"param": args.param, "value": val}
        row.update(_report_row(rep))
        row["max_weight"] = max(rep.weights.values())
        row["eps_win"] = window_leakage(frames_t, cfg.band_tolerance,
                                        cfg.window_kind)
        rows.append(row)

    out = args.out or "-"
    with (contextlib.nullcontext(sys.stdout) if out == "-"
          else open(out, "w", newline="")) as fh:
        wr = csv.DictWriter(fh, fieldnames=list(rows[0]))
        wr.writeheader()
        wr.writerows(rows)
    if out != "-":
        print(f"wrote {out} ({len(rows)} rows)")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sim2spec",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="analyze one video window")
    pa.add_argument("input", help="raw_f32 file (with .json sidecar) or a "
                    "directory of PGM frames")
    pa.add_argument("--json", default=None, help="write full report JSON")
    pa.add_argument("--csv", default=None, help="write one-row summary CSV")
    add_config_flags(pa)
    pa.set_defaults(fn=cmd_analyze)

    ps = sub.add_parser("synth", help="render a synthetic motion clip")
    ps.add_argument("spec", help="MotionSpec JSON file")
    ps.add_argument("--out", required=True, help="output raw_f32 path")
    ps.set_defaults(fn=cmd_synth)

    pv = sub.add_parser("validate", help="run verification suites")
    pv.add_argument("--suite", choices=("bounds", "exactness", "retention",
                                        "all"), default="all")
    pv.add_argument("--n", type=int, default=1000,
                    help="instances per randomized suite")
    pv.add_argument("--n-retention", type=int, default=100,
                    help="power-law clips in the retention suite")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--json", default=None)
    pv.set_defaults(fn=cmd_validate)

    pw = sub.add_parser("sweep", help="parameter sweep to CSV")
    pw.add_argument("--param", choices=("T", "delta", "noise", "tau"),
                    required=True)
    pw.add_argument("--range", required=True,
                    help="comma list (1,2,3) or inclusive lo..hi")
    pw.add_argument("--out", default=None, help="CSV path (default stdout)")
    pw.add_argument("--seed", type=int, default=None,
                    help="reseed the sweep fixture clip")
    add_config_flags(pw)
    pw.set_defaults(fn=cmd_sweep)
    return p


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """``build_parser()`` once per process: parsing leaves a parser as it
    was, and each handler looks its collaborators up at call time."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command: the one place an error becomes ``error: ...`` and
    its exit code; an ``OSError`` (an unwritable output) is an input error."""
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (Sim2Error, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        degenerate = isinstance(exc, (DegenerateInputError, UnobservableError))
        return EXIT_DEGENERATE if degenerate else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
