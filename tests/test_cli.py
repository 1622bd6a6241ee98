import csv
import hashlib
import json
import math
import os

import jsonschema
import numpy as np
import pytest

from sim2spec.cli import main
from sim2spec.core import save_video
from sim2spec.synth import MotionSpec, synth_sim2

SCHEMA_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "sim2spec",
                          "schemas")


def schema(name):
    with open(os.path.join(SCHEMA_DIR, name)) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def trans_clip_path(tmp_path_factory):
    d = tmp_path_factory.mktemp("clips")
    spec = MotionSpec(kind="translation", v=(1.0, 0.5), seed=42)
    clip = synth_sim2("bandpass_noise", spec, 16, 128, 128)
    path = str(d / "trans.raw")
    save_video(clip, path)
    return path


def test_analyze_fixture_argmax(trans_clip_path, tmp_path):
    out = str(tmp_path / "rep.json")
    rc = main(["analyze", trans_clip_path, "--json", out])
    assert rc == 0
    payload = json.load(open(out))
    jsonschema.validate(payload, schema("report.schema.json"))
    weights = payload["report"]["weights"]
    assert max(weights, key=weights.get) == "translation"
    assert payload["manifest"]["config"]["lowpass_ratio"] == 0.3


def test_analyze_rho_one_keeps_everything(trans_clip_path, tmp_path):
    out = str(tmp_path / "rep.json")
    rc = main(["analyze", trans_clip_path, "--rho", "1.0", "--json", out])
    assert rc == 0
    payload = json.load(open(out))
    assert payload["report"]["diagnostics"]["retained_fraction"] == 1.0


def test_analyze_csv_output(trans_clip_path, tmp_path):
    out = str(tmp_path / "rep.csv")
    rc = main(["analyze", trans_clip_path, "--csv", out])
    assert rc == 0
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 1
    assert float(rows[0]["w_translation"]) > 0.5


def test_analyze_missing_input_exit_2(tmp_path):
    assert main(["analyze", str(tmp_path / "nope.raw")]) == 2


def test_analyze_bad_dims_exit_2(tmp_path):
    raw = tmp_path / "neg.raw"
    np.zeros(4096, dtype="<f4").tofile(raw)
    (tmp_path / "neg.raw.json").write_text(
        json.dumps({"T": -1, "H": -1, "W": 4096}))
    assert main(["analyze", str(raw)]) == 2

    d = tmp_path / "frames"
    d.mkdir()
    for t in range(2):
        (d / f"frame_{t:04d}.pgm").write_bytes(b"P5\n0 0\n255\n")
    assert main(["analyze", str(d), "--format", "pgm_dir"]) == 2


def test_analyze_too_short_exit_3(tmp_path):
    clip = synth_sim2("checker", MotionSpec(kind="static", seed=0), 1, 32, 32)
    path = str(tmp_path / "one.raw")
    save_video(clip, path)
    assert main(["analyze", path]) == 3


def test_synth_roundtrip_reanalyzable(tmp_path):
    spec_path = str(tmp_path / "spec.json")
    json.dump({"kind": "rotation", "omega": 2 * math.pi / 16, "seed": 5,
               "base": "gaussian_blobs", "T": 16, "H": 128, "W": 128},
              open(spec_path, "w"))
    out = str(tmp_path / "rot.raw")
    assert main(["synth", spec_path, "--out", out]) == 0
    meta = json.load(open(out + ".spec.json"))
    jsonschema.validate(meta, schema("synth_spec.schema.json"))
    rep = str(tmp_path / "rep.json")
    assert main(["analyze", out, "--json", rep]) == 0
    payload = json.load(open(rep))
    weights = payload["report"]["weights"]
    assert max(weights, key=weights.get) == "rotation"


def test_synth_deterministic_digests(tmp_path):
    spec_path = str(tmp_path / "spec.json")
    json.dump({"kind": "translation", "v": [1, 0], "seed": 9, "T": 8,
               "H": 32, "W": 32}, open(spec_path, "w"))
    digests = []
    for name in ("a.raw", "b.raw"):
        out = str(tmp_path / name)
        assert main(["synth", spec_path, "--out", out]) == 0
        digests.append(hashlib.sha256(open(out, "rb").read()).hexdigest())
    assert digests[0] == digests[1]


def test_synth_scale_collapse_exit_2(tmp_path, capsys):
    spec_path = str(tmp_path / "spec.json")
    json.dump({"kind": "scaling", "alpha": 0.5, "seed": 1, "T": 16,
               "H": 32, "W": 32}, open(spec_path, "w"))
    assert main(["synth", spec_path, "--out", str(tmp_path / "x.raw")]) == 2
    assert "scale collapse" in capsys.readouterr().err


def test_validate_bounds_suite(tmp_path):
    out = str(tmp_path / "val.json")
    rc = main(["validate", "--suite", "bounds", "--n", "150", "--json", out])
    assert rc == 0
    payload = json.load(open(out))
    jsonschema.validate(payload, schema("validate.schema.json"))
    assert payload["violations_total"] == 0
    assert payload["suites"][0]["instances"] >= 150


def test_validate_exactness_suite(tmp_path):
    out = str(tmp_path / "val.json")
    rc = main(["validate", "--suite", "exactness", "--json", out])
    assert rc == 0
    payload = json.load(open(out))
    assert payload["violations_total"] == 0


def test_validate_retention_suite_small(tmp_path):
    out = str(tmp_path / "val.json")
    rc = main(["validate", "--suite", "retention", "--n-retention", "3",
               "--json", out])
    assert rc == 0
    payload = json.load(open(out))
    jsonschema.validate(payload, schema("validate.schema.json"))
    assert payload["violations_total"] == 0


def test_sweep_delta_monotone_c_rot(tmp_path):
    out = str(tmp_path / "sweep.csv")
    rc = main(["sweep", "--param", "delta", "--range", "1..3", "--out", out])
    assert rc == 0
    rows = list(csv.DictReader(open(out)))
    c_rot = [float(r["c_rot"]) for r in rows]
    assert all(c_rot[i + 1] >= c_rot[i] - 1e-12 for i in range(len(c_rot) - 1))
    for r in rows:
        assert float(r["rotation_bound_lhs"]) <= float(r["rotation_bound_rhs"]) + 1e-9


def test_sweep_tau_max_weight_monotone(tmp_path):
    out = str(tmp_path / "sweep.csv")
    rc = main(["sweep", "--param", "tau", "--range",
               "0.01,0.05,0.1,0.5,1.0", "--out", out])
    assert rc == 0
    rows = list(csv.DictReader(open(out)))
    mw = [float(r["max_weight"]) for r in rows]
    assert all(mw[i + 1] <= mw[i] + 1e-9 for i in range(len(mw) - 1))


def test_sweep_t_eps_win_monotone(tmp_path):
    out = str(tmp_path / "sweep.csv")
    rc = main(["sweep", "--param", "T", "--range", "8,16,32", "--out", out])
    assert rc == 0
    rows = list(csv.DictReader(open(out)))
    ew = [float(r["eps_win"]) for r in rows]
    assert all(ew[i + 1] <= ew[i] + 1e-15 for i in range(len(ew) - 1))


def test_sweep_stdout_matches_file(tmp_path, capsys):
    argv = ["sweep", "--param", "delta", "--range", "1,2"]
    assert main(argv) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    out = str(tmp_path / "sweep.csv")
    assert main(argv + ["--out", out]) == 0
    file_rows = list(csv.DictReader(open(out)))
    assert [r["value"] for r in rows] == ["1", "2"]
    assert list(rows[0]) == list(file_rows[0])
    assert rows == file_rows


def test_sweep_bad_range_exit_2():
    assert main(["sweep", "--param", "delta", "--range", "0..2"]) == 2
    assert main(["sweep", "--param", "tau", "--range", "abc"]) == 2


def test_sidecar_matches_schema(tmp_path):
    clip = synth_sim2("checker", MotionSpec(kind="static", seed=0), 4, 32, 32)
    path = str(tmp_path / "c.raw")
    save_video(clip, path)
    jsonschema.validate(json.load(open(path + ".json")),
                        schema("sidecar.schema.json"))


def test_sweep_seed_flag(tmp_path):
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    assert main(["sweep", "--param", "delta", "--range", "1,2",
                 "--seed", "5", "--out", a]) == 0
    assert main(["sweep", "--param", "delta", "--range", "1,2",
                 "--seed", "6", "--out", b]) == 0
    assert open(a).read() != open(b).read()


def test_sweep_noise_param(tmp_path):
    out = str(tmp_path / "sweep.csv")
    rc = main(["sweep", "--param", "noise", "--range", "0,0.02,0.05",
               "--out", out])
    assert rc == 0
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 3
    # bound columns populated and satisfied on every row
    for r in rows:
        for name in ("rotation", "scaling", "translation"):
            assert float(r[f"{name}_bound_lhs"]) <= \
                float(r[f"{name}_bound_rhs"]) + 1e-9
