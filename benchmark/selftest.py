"""Self-test of the sim2spec benchmark.

    python3 benchmark/selftest.py

Run from the repository root; takes about two minutes.  Checks that

* installing the span wrappers reaches every namespace that holds a traced
  function, and uninstalling leaves no wrapper behind;
* the generator is deterministic per seed and differs across seeds;
* a short run of every workload emits exactly the metrics named in
  ``BENCHMARK.json``, each with its declared unit, and no failures;
* the traced run's span self times sum to the traced operation time within
  10%, and its per-operation counts are identical across operations;
* in a directory holding only ``BENCHMARK.json`` and the benchmark files,
  the command exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402

SHORT_S = "1"


def check_wrappers() -> None:
    import sim2spec.cli as cli
    import sim2spec.losses as losses
    import sim2spec.spectral as spectral

    orig = (losses.spectral_transform, spectral.spatial_transform,
            cli.json, losses.LossReport.to_dict)
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = spans.installed_wrappers()
        for name in ("sim2spec.losses.spectral_transform",
                     "sim2spec.spectral.spatial_transform",
                     "sim2spec.losses.spatial_transform",
                     "sim2spec.losses.build_samples",
                     "sim2spec.gates.build_samples",
                     "sim2spec.losses.ridge_wls_solve",
                     "sim2spec.cli.synth_powerlaw",
                     "sim2spec.cli.json",
                     "sim2spec.losses.LossReport.to_dict"):
            assert name in wrapped, f"{name} not wrapped"
    finally:
        tracer.uninstall()
    assert spans.installed_wrappers() == [], spans.installed_wrappers()
    assert (losses.spectral_transform, spectral.spatial_transform, cli.json,
            losses.LossReport.to_dict) == orig, "originals not restored"


def check_generator(tmp: str) -> None:
    digests = []
    for i, seed in enumerate((5, 5, 6)):
        out = os.path.join(tmp, f"gen{i}")
        subprocess.run([sys.executable, os.path.join(HERE, "gen.py"),
                        "--workload", "validate", "--seed", str(seed),
                        "--out", out], check=True, cwd=ROOT)
        digests.append(run._tree_digest(out))
    assert digests[0] == digests[1], "same seed, different inputs"
    assert digests[0] != digests[2], "different seeds, same inputs"


def bench(cwd: str, workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload,
         "--seed", "99", "--seconds", SHORT_S, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout, proc.stderr


def check_runs(spec: dict) -> None:
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, out, err = bench(ROOT, w["name"], trace)
            assert rc == 0, (w["name"], trace, err[-2000:], out[-2000:])
            res = json.loads(out.strip().splitlines()[-1])
            assert set(res) == {"correct", "attempted", "failed", "metrics"}
            assert res["correct"] and res["failed"] == 0, res
            declared = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == declared, (w["name"], trace,
                                     set(got) ^ set(declared))
            if trace:
                path = os.path.join(ROOT, ".bench_out",
                                    f"{w['name']}-seed99-trace1.json")
                with open(path, encoding="utf-8") as fh:
                    detail = json.load(fh)
                bal = detail["span_balance"]
                assert bal["rel_err"] <= 0.10, bal
                assert detail["counts"]["distinct"] == 1, detail["counts"]
            print(f"ok  {w['name']} trace={trace}: "
                  f"{len(res['metrics'])} metrics, "
                  f"{res['attempted']} operations")


def check_bare(tmp: str) -> None:
    bare = os.path.join(tmp, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "benchmark"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, out, _ = bench(bare, "window_small", 0)
    assert rc != 0 and out.strip() == "", (rc, out)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(os.path.join(ROOT, ".bench_data"), exist_ok=True)
    with tempfile.TemporaryDirectory(
            dir=os.path.join(ROOT, ".bench_data")) as tmp:
        check_wrappers()
        print("ok  span wrappers install and uninstall cleanly")
        check_generator(tmp)
        print("ok  generator deterministic per seed")
        check_bare(tmp)
        print("ok  bare benchmark directory exits non-zero, no result")
        check_runs(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
