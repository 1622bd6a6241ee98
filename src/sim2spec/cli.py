"""Command-line surface: analyze / synth / validate / sweep.

Every JSON output embeds a run manifest (command, full configuration and
its stable hash, input digests, tool version, timestamp) and parses against
the schema files shipped under ``sim2spec/schemas``.

Exit codes: 0 success, 1 validation failure, 2 input/format error,
3 unobservable or degenerate input.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .bounds import (BoundCheck, Calibration, band_capture_check,
                     calibrate_flow, calibrate_interp, master_bound_check,
                     ridge_inequality_check, ring_entropy_check,
                     window_leakage)
from .core import (ConfigError, DegenerateInputError, FormatError,
                   SpectralConfig, Sim2Error, UnobservableError, load_video,
                   normalize_window, save_video)
from .losses import analyze, ridge_wls_solve
from .spectral import EtaParams, cube_retention, eta_retention
from .synth import MotionSpec, make_rng, synth_powerlaw, synth_sim2

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INPUT = 2
EXIT_DEGENERATE = 3


def _digest_path(path: str) -> str:
    h = hashlib.sha256()
    if os.path.isdir(path):
        for name in sorted(os.listdir(path)):
            h.update(name.encode())
            with open(os.path.join(path, name), "rb") as fh:
                h.update(fh.read())
    else:
        with open(path, "rb") as fh:
            h.update(fh.read())
        sidecar = path + ".json"
        if os.path.exists(sidecar):
            with open(sidecar, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def make_manifest(command: str, cfg: SpectralConfig, inputs: dict) -> dict:
    return {
        "command": command,
        "config": cfg.to_dict(),
        "config_hash": cfg.stable_hash(),
        "inputs": {k: _digest_path(k) if os.path.exists(k) else v
                   for k, v in inputs.items()},
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rho", type=float, default=None, help="low-pass ratio per dimension")
    p.add_argument("--rings", type=int, default=None)
    p.add_argument("--angular-bins", type=int, default=None)
    p.add_argument("--logradius-bins", type=int, default=None)
    p.add_argument("--delta", type=int, default=None, help="tilted-line band tolerance (bins)")
    p.add_argument("--ridge", type=float, default=None)
    p.add_argument("--tau", type=float, default=None, help="softmax temperature")
    p.add_argument("--tau-e", type=float, default=None, help="energy gate threshold")
    p.add_argument("--gate-sharpness", type=float, default=None)
    p.add_argument("--window", choices=("hann", "rect"), default=None)


def config_from_args(args) -> SpectralConfig:
    mapping = {
        "rho": "lowpass_ratio", "rings": "rings",
        "angular_bins": "angular_bins", "logradius_bins": "logradius_bins",
        "delta": "band_tolerance", "ridge": "ridge",
        "tau": "softmax_temperature", "tau_e": "energy_gate_threshold",
        "gate_sharpness": "energy_gate_sharpness", "window": "window_kind",
    }
    overrides = {}
    for arg_name, cfg_name in mapping.items():
        val = getattr(args, arg_name, None)
        if val is not None:
            overrides[cfg_name] = val
    return SpectralConfig(**overrides)


def _load_any(path: str, fmt: str | None) -> "VideoWindow":
    if fmt is None:
        fmt = "pgm_dir" if os.path.isdir(path) else "raw_f32"
    return load_video(path, fmt)


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args) -> int:
    cfg = config_from_args(args)
    try:
        v = _load_any(args.input, args.format)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        report = analyze(v, cfg)
    except (DegenerateInputError, UnobservableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE

    payload = {"manifest": make_manifest("analyze", cfg, {args.input: ""}),
               "report": report.to_dict()}
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
    if args.csv:
        row = _report_row(report)
        with open(args.csv, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(list(row))
            wr.writerow([repr(v) if isinstance(v, float) else v
                         for v in row.values()])
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
    d = {"l_trans": report.l_trans, "l_rot": report.l_rot,
         "l_scale": report.l_scale, "l_uni": report.l_uni,
         "l_motion": report.l_motion, "c_rot": report.c_rot,
         "c_ring": report.c_ring, "c_flow": report.c_flow,
         "s_trend": report.s_trend, "c_scale": report.c_scale,
         "w_translation": report.weights["translation"],
         "w_rotation": report.weights["rotation"],
         "w_scaling": report.weights["scaling"],
         "retained_fraction": report.diagnostics["retained_fraction"]}
    return d


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args) -> int:
    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read spec: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        spec = MotionSpec.from_dict(raw)
        frames_t = int(raw.get("T", 16))
        height = int(raw.get("H", 64))
        width = int(raw.get("W", 64))
        base = raw.get("base", "bandpass_noise")
        exact = bool(raw.get("exact", False))
        v = synth_sim2(base, spec, frames_t, height, width, exact=exact)
    except (ConfigError, DegenerateInputError, KeyError, ValueError) as exc:
        print(f"error: invalid spec: {exc}", file=sys.stderr)
        return EXIT_INPUT
    save_video(v, args.out, "raw_f32")
    spec_copy = dict(spec.to_dict(), T=frames_t, H=height, W=width,
                     base=base, exact=exact)
    with open(args.out + ".spec.json", "w", encoding="utf-8") as fh:
        json.dump(spec_copy, fh, indent=1)
    print(f"wrote {args.out} ({frames_t}x{height}x{width})")
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
        for lam in (1e-4, 1e-3):
            checks.append(ridge_inequality_check(design, targets, weights,
                                                 lam, {"case": i}))
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
    res = ridge_wls_solve(rows, targets, weights, 1e-8)
    checks.append(BoundCheck(res.residual, 1e-10, {"bound": "hyperplane_residual"}))
    checks.append(BoundCheck(float(np.max(np.abs(res.theta - theta_star))),
                             1e-6, {"bound": "hyperplane_theta"}))
    return checks, _suite_summary("exactness", checks)


def suite_retention(n: int, seed: int) -> tuple:
    """Power-law clips against the closed-form retention model."""
    cfg = SpectralConfig(window_kind="rect", lowpass_ratio=0.3)
    checks = []
    size = (16, 224, 224)
    params = EtaParams.for_grid(*size, kappa=1.8)
    eta = eta_retention(0.3, params)
    checks.append(BoundCheck(abs(eta["eta_ball"] - 0.97), 0.005,
                             {"bound": "eta_ball_value"}))
    checks.append(BoundCheck(abs(eta["eta_cube_hi"] - 0.987), 0.005,
                             {"bound": "eta_cube_hi_value"}))

    # one clip per call, so each clip is freed before the next is made
    def one(i: int) -> float:
        clip = synth_powerlaw(*size, kappa=1.8, seed=seed + i)
        return cube_retention(normalize_window(clip), cfg)

    vals = [one(i) for i in range(n)]
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
    cfg = config_from_args(args)
    suites = []
    all_checks = []
    names = ("bounds", "exactness", "retention") if args.suite == "all" \
        else (args.suite,)
    for name in names:
        if name == "bounds":
            checks, summary = suite_bounds(args.n, args.seed)
        elif name == "exactness":
            checks, summary = suite_exactness(args.seed)
        elif name == "retention":
            checks, summary = suite_retention(args.n_retention, args.seed)
        else:
            print(f"error: unknown suite {name}", file=sys.stderr)
            return EXIT_INPUT
        suites.append(summary)
        all_checks.extend(checks)
        print(f"suite {summary['suite']}: {summary['instances']} checks, "
              f"{summary['violations']} violations, "
              f"worst slack {summary['worst_slack']:.3e}")

    violations = sum(s["violations"] for s in suites)
    payload = {"manifest": make_manifest("validate", cfg, {}),
               "suites": suites, "violations_total": violations}
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
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


def _parse_range(text: str, integer: bool):
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = float(lo), float(hi)
        if integer:
            return [int(x) for x in range(int(lo), int(hi) + 1)]
        return list(np.linspace(lo, hi, 7))
    vals = [float(x) for x in text.split(",") if x.strip()]
    return [int(x) for x in vals] if integer else vals


def cmd_sweep(args) -> int:
    try:
        values = _parse_range(args.range, args.param in ("T", "delta"))
        if not values:
            raise ValueError("empty range")
        if args.param == "delta" and any(v < 1 for v in values):
            raise ValueError("delta must be >= 1")
        if args.param == "T" and any(v < 4 for v in values):
            raise ValueError("T must be >= 4")
        if args.param == "tau" and any(v <= 0 for v in values):
            raise ValueError("tau must be positive")
        if args.param == "noise" and any(v < 0 for v in values):
            raise ValueError("noise must be >= 0")
    except ValueError as exc:
        print(f"error: bad range: {exc}", file=sys.stderr)
        return EXIT_INPUT

    base_cfg = config_from_args(args)
    cal = Calibration(calibrate_interp(cfg=base_cfg),
                      calibrate_flow(cfg=base_cfg), base_cfg.stable_hash())
    fixture = "mixed" if args.param == "tau" else "rotation"
    base_kind, spec_kw = SWEEP_FIXTURES[fixture]

    rows = []
    for val in values:
        cfg = base_cfg
        frames_t, noise = 16, 0.0
        if args.param == "T":
            frames_t = int(val)
        elif args.param == "delta":
            cfg = cfg.with_overrides(band_tolerance=int(val))
        elif args.param == "tau":
            cfg = cfg.with_overrides(softmax_temperature=float(val))
        elif args.param == "noise":
            noise = float(val)
        if getattr(args, "seed", None) is not None:
            spec_kw = dict(spec_kw, seed=args.seed)
        spec = MotionSpec(**dict(spec_kw, noise_sigma=noise))
        clip = synth_sim2(base_kind, spec, frames_t, 64, 64)
        rep = analyze(clip, cfg)
        eps_win = window_leakage(frames_t, cfg.band_tolerance, cfg.window_kind)
        checks = {c.context["bound"]: c
                  for c in master_bound_check(rep, eps_win, cal)}
        row = {"param": args.param, "value": val}
        row.update(_report_row(rep))
        row["max_weight"] = max(rep.weights.values())
        row["eps_win"] = eps_win
        for name in ("rotation", "scaling", "translation"):
            c = checks.get(name)
            row[f"{name}_bound_lhs"] = c.lhs if c else ""
            row[f"{name}_bound_rhs"] = c.rhs if c else ""
        rows.append(row)

    out = args.out or "-"
    if out == "-":
        wr = csv.DictWriter(sys.stdout, fieldnames=list(rows[0]))
        wr.writeheader()
        for r in rows:
            wr.writerow(r)
    else:
        with open(out, "w", newline="") as fh:
            wr = csv.DictWriter(fh, fieldnames=list(rows[0]))
            wr.writeheader()
            for r in rows:
                wr.writerow(r)
        print(f"wrote {out} ({len(rows)} rows)")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sim2spec",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="analyze one video window")
    pa.add_argument("input")
    pa.add_argument("--format", choices=("pgm_dir", "raw_f32"), default=None)
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
    add_config_flags(pv)
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (DegenerateInputError, UnobservableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except Sim2Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
