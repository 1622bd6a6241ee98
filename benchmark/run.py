"""sim2spec benchmark: one command per workload run.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads, metrics, units and directions are
declared in ``BENCHMARK.json``.  A run

1. generates the seeded inputs (``gen.py``) in a fresh directory under
   ``.bench_data/``, ``SETUP_REPEATS`` times, and checks the repetitions
   are byte-identical;
2. starts one workload process (``worker.py``) with BLAS/OpenMP and
   ``SIM2SPEC_THREADS`` pinned to one thread, which warms up, runs the
   closed loop for ``--seconds`` and checks every output;
3. prints the environment, the metrics (name, value, unit, direction) and,
   with ``--trace 1``, the exact per-operation counts; the last line of
   standard output is the JSON result.

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing installed; with ``--trace 1`` they are the per-layer ones from a
traced run.  The exit code is 0 only when every operation passed its check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 3
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "SIM2SPEC_THREADS": "1",
    # glibc keeps freed blocks instead of unmapping them, so after warm-up
    # an operation does not pay for faulting in fresh (huge) pages, whose
    # cost depends on the host's memory state more than on the program
    "MALLOC_MMAP_THRESHOLD_": "2000000000",
    "MALLOC_TRIM_THRESHOLD_": "4000000000",
    "PYTHONHASHSEED": "0",
    # no __pycache__ written into the checkout; every run compiles alike
    "PYTHONDONTWRITEBYTECODE": "1",
}
GEN_TIMEOUT_S = 60
WORKER_EXTRA_S = 100


def fail(msg: str) -> int:
    print(f"benchmark: {msg}", file=sys.stderr)
    return 2


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_child(argv: list, env: dict, timeout: float) -> None:
    """Run a child to completion (killed and reaped on timeout)."""
    with subprocess.Popen(argv, env=env, cwd=ROOT) as proc:
        try:
            rc = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"{os.path.basename(argv[1])} timed out")
        except BaseException:  # interrupted: stop the child, then leave
            proc.kill()
            proc.wait()
            raise
    if rc != 0:
        raise RuntimeError(f"{os.path.basename(argv[1])} exited with {rc}")


def setup_inputs(args, env: dict, run_dir: str) -> tuple:
    """Generate the inputs SETUP_REPEATS times; return the directory of the
    first repetition and the median generation time."""
    times = []
    first = os.path.join(run_dir, "setup0")
    for r in range(SETUP_REPEATS):
        out = os.path.join(run_dir, f"setup{r}")
        t0 = time.perf_counter()
        run_child([sys.executable, os.path.join(HERE, "gen.py"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--out", out], env, GEN_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if r == 0:
            digest = _tree_digest(first)
        else:
            if _tree_digest(out) != digest:
                raise RuntimeError("generator output differs between "
                                   "repetitions with the same seed")
            shutil.rmtree(out)
    return first, statistics.median(times)


def _tree_digest(path: str) -> str:
    """Digest of the generated inputs and ground truth (timings excluded)."""
    h = hashlib.sha256()
    for dirpath, dirnames, files in os.walk(path):
        dirnames.sort()
        for name in sorted(set(files) - {"gen_stats.json"}):
            f = os.path.join(dirpath, name)
            h.update(os.path.relpath(f, path).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="sim2spec benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    # SIGTERM unwinds like an exception, so children and inputs are removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "sim2spec", "cli.py")):
        return fail("no sim2spec sources under src/ (run from a checkout)")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PINNED_ENV)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = os.path.join(ROOT, ".bench_data", f"{tag}-{os.getpid()}")
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    result_path = os.path.join(out_dir, tag + ".json")
    try:
        data, gen_s = setup_inputs(args, env, run_dir)
        t0 = time.monotonic()
        run_child([sys.executable, os.path.join(HERE, "worker.py"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", repr(args.seconds), "--trace", str(args.trace),
                   "--data", data, "--result", result_path,
                   "--t0", repr(t0)],
                  env, args.seconds + WORKER_EXTRA_S)
        with open(result_path, encoding="utf-8") as fh:
            res = json.load(fh)
        with open(os.path.join(data, "gen_stats.json"), encoding="utf-8") as fh:
            gen_stats = json.load(fh)
    except (RuntimeError, OSError, ValueError) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    metrics = res["metrics"]
    if args.trace:
        metrics["synth.synth_sim2.ms"] = (1e3 * gen_stats["synth_sim2_s"]
                                          / gen_stats["windows"])
    else:
        metrics["setup_s"] = gen_s + res["ready_s"]
    res["environment"].update(git_commit=git_commit(),
                              setup_repeats=SETUP_REPEATS)
    failures = list(res["failures"])
    out = {}
    for m in declared:
        if m["name"] not in metrics:
            failures.append(f"metric {m['name']} not measured")
            continue
        out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
    attempted = res["attempted"]
    failed = min(len(failures), attempted)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}  "
          f"samples {res['samples']}")
    print("environment " + json.dumps(res["environment"], sort_keys=True))
    if args.trace:
        print("counts " + json.dumps(res["counts"], sort_keys=True))
        print("span_balance " + json.dumps(res["span_balance"]))
        print(f"spans written to {res['spans_file']}")
    for m in declared:
        if m["name"] in out:
            print(f"  {m['name']:<36} {out[m['name']]['value']:>14.6g} "
                  f"{m['unit']:<6} ({m['better']} is better)")
    for name, value in res.get("wall_clock", {}).items():
        print(f"  {name:<36} {value:>14.6g} (wall clock, not a declared "
              f"metric)")
    print(f"  {'failed_frac':<36} {failed / max(attempted, 1):>14.6g} "
          f"(failed {failed} of {attempted} operations)")
    for f in failures[:20]:
        print(f"  FAILED {f}")
    res["metrics"] = metrics
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=1)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
