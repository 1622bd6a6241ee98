import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import pathlib
import re
import tempfile
import tracemalloc
import warnings

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sim2spec import cli, synth
from sim2spec.cli import main
from sim2spec.core import (FormatError, SpectralConfig, VideoWindow,
                           load_video, save_video)
from sim2spec.synth import MotionSpec, synth_sim2

SCHEMA_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "sim2spec",
                          "schemas")


def schema(name):
    return read_json(os.path.join(SCHEMA_DIR, name))


def read_json(path):
    return json.loads(pathlib.Path(path).read_text())


def write_json(path, obj):
    pathlib.Path(path).write_text(json.dumps(obj))


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


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
    payload = read_json(out)
    jsonschema.validate(payload, schema("report.schema.json"))
    weights = payload["report"]["weights"]
    assert max(weights, key=weights.get) == "translation"
    assert payload["manifest"]["config"]["lowpass_ratio"] == 0.3


def test_config_flags_mirror_config_fields():
    fields = [f.name for f in dataclasses.fields(SpectralConfig)]
    table = [field for _, field, _, _ in cli.CONFIG_FLAGS]
    flags = [flag for flag, _, _, _ in cli.CONFIG_FLAGS]
    assert sorted(table) == sorted(fields)
    assert len(table) == len(set(table)) == len(set(flags))
    # every flag sets its own field
    values = {"--rho": "0.5", "--rings": "12", "--angular-bins": "16",
              "--logradius-bins": "8", "--delta": "2", "--ridge": "0.01",
              "--tau": "0.2", "--tau-e": "0.3", "--gate-sharpness": "5",
              "--window": "rect"}
    argv = ["analyze", "clip.raw"] + [x for kv in values.items() for x in kv]
    cfg = cli.config_from_args(cli.build_parser().parse_args(argv))
    assert cfg == SpectralConfig(
        lowpass_ratio=0.5, rings=12, angular_bins=16, logradius_bins=8,
        band_tolerance=2, ridge=0.01, softmax_temperature=0.2,
        energy_gate_threshold=0.3, energy_gate_sharpness=5.0,
        window_kind="rect")


def test_analyze_rho_one_keeps_everything(trans_clip_path, tmp_path):
    out = str(tmp_path / "rep.json")
    rc = main(["analyze", trans_clip_path, "--rho", "1.0", "--json", out])
    assert rc == 0
    payload = read_json(out)
    assert payload["report"]["diagnostics"]["retained_fraction"] == 1.0


def test_analyze_csv_output(trans_clip_path, tmp_path):
    out = str(tmp_path / "rep.csv")
    rc = main(["analyze", trans_clip_path, "--csv", out])
    assert rc == 0
    rows = read_rows(out)
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
    assert main(["analyze", str(d)]) == 2
    for t in range(2):
        (d / f"frame_{t:04d}.pgm").write_bytes(b"P5\n-4 -4\n255\n"
                                               + bytes(64))
    assert main(["analyze", str(d)]) == 2


def test_analyze_nonfinite_config_exit_2(trans_clip_path, tmp_path):
    out = tmp_path / "rep.json"
    assert main(["analyze", trans_clip_path, "--tau", "nan",
                 "--json", str(out)]) == 2
    assert not out.exists()


def test_analyze_too_short_exit_3(tmp_path):
    clip = synth_sim2("checker", MotionSpec(kind="static", seed=0), 1, 32, 32)
    path = str(tmp_path / "one.raw")
    save_video(clip, path)
    assert main(["analyze", path]) == 3


def test_synth_roundtrip_reanalyzable(tmp_path):
    spec_path = str(tmp_path / "spec.json")
    write_json(spec_path, {"kind": "rotation", "omega": 2 * math.pi / 16,
                           "seed": 5, "base": "gaussian_blobs", "T": 16,
                           "H": 128, "W": 128})
    out = str(tmp_path / "rot.raw")
    assert main(["synth", spec_path, "--out", out]) == 0
    meta = read_json(out + ".spec.json")
    jsonschema.validate(meta, schema("synth_spec.schema.json"))
    rep = str(tmp_path / "rep.json")
    assert main(["analyze", out, "--json", rep]) == 0
    payload = read_json(rep)
    weights = payload["report"]["weights"]
    assert max(weights, key=weights.get) == "rotation"


def test_synth_deterministic_digests(tmp_path):
    spec_path = str(tmp_path / "spec.json")
    write_json(spec_path, {"kind": "translation", "v": [1, 0], "seed": 9,
                           "T": 8, "H": 32, "W": 32})
    digests = []
    for name in ("a.raw", "b.raw"):
        out = str(tmp_path / name)
        assert main(["synth", spec_path, "--out", out]) == 0
        digests.append(
            hashlib.sha256(pathlib.Path(out).read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_synth_scale_collapse_exit_2(tmp_path, capsys):
    spec_path = str(tmp_path / "spec.json")
    write_json(spec_path, {"kind": "scaling", "alpha": 0.5, "seed": 1,
                           "T": 16, "H": 32, "W": 32})
    assert main(["synth", spec_path, "--out", str(tmp_path / "x.raw")]) == 2
    assert "scale collapse" in capsys.readouterr().err


@pytest.mark.parametrize("raw", [
    [1, 2], {"kind": "translation", "v": 5}, {"kind": "translation", "v": [1]},
    {"T": None},
    # sizes that do not fit in memory
    {"T": 10 ** 12}, {"H": 10 ** 7, "W": 10 ** 7},
    {"kind": "translation", "v": [1, 0], "exact": True, "T": 10 ** 12}])
def test_synth_malformed_spec_exit_2(raw, tmp_path, capsys, monkeypatch):
    # an oversized clip fails at its first allocation, before any frame is
    # rendered
    def render(*args, **kwargs):
        raise AssertionError("frame loop started")

    monkeypatch.setattr(synth, "_bilinear", render)
    monkeypatch.setattr(synth.np, "roll", render)
    spec_path = str(tmp_path / "spec.json")
    write_json(spec_path, raw)
    assert main(["synth", spec_path, "--out", str(tmp_path / "x.raw")]) == 2
    assert "error: invalid spec" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "x.raw")


@pytest.mark.parametrize("field, raw", [
    ("omega", {"kind": "rotation", "omega": math.inf}),
    ("v", {"kind": "translation", "v": [math.nan, 0]}),
    ("alpha", {"kind": "scaling", "alpha": -math.inf}),
    ("noise_sigma", {"kind": "static", "noise_sigma": math.nan})])
def test_synth_non_finite_spec_exit_2(field, raw, tmp_path, capsys,
                                      monkeypatch):
    # rejected with the field's name before any frame is rendered, and
    # with no NumPy warning on the way
    def render(*args, **kwargs):
        raise AssertionError("frame loop started")

    monkeypatch.setattr(synth, "_bilinear", render)
    spec_path = str(tmp_path / "spec.json")
    write_json(spec_path, dict(raw, T=8, H=32, W=32))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["synth", spec_path, "--out", str(tmp_path / "x.raw")])
    assert rc == 2
    assert f"invalid spec: {field} must be finite" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "x.raw")


SMALL_SPEC = {"kind": "translation", "v": [1, 0], "T": 4, "H": 16, "W": 16}


def run_synth(raw, tmp):
    """``main(["synth", ...])`` on the spec ``raw`` written under ``tmp``:
    the exit code, stderr, and whether any output file was written."""
    spec_path, out = os.path.join(tmp, "spec.json"), os.path.join(tmp, "x.raw")
    write_json(spec_path, raw)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        rc = main(["synth", spec_path, "--out", out])
    written = [n for n in os.listdir(tmp) if n.startswith("x.raw")]
    return rc, err.getvalue(), written


@pytest.mark.parametrize("raw", [
    {}, dict(SMALL_SPEC, T=2.7), dict(SMALL_SPEC, T="3"),
    dict(SMALL_SPEC, T=True), dict(SMALL_SPEC, H=2),
    dict(SMALL_SPEC, v=["1", "2"]),
    dict(SMALL_SPEC, kind="rotation", v=[0, 0], omega="0.1"),
    dict(SMALL_SPEC, seed="7"), dict(SMALL_SPEC, seed=-1),
    dict(SMALL_SPEC, exact="false")],
    ids=["empty", "T_fraction", "T_string", "T_bool", "H_below_8",
         "v_strings", "omega_string", "seed_string", "seed_negative",
         "exact_string"])
def test_synth_reads_spec_with_schema_types(raw, tmp_path):
    # each of these rendered a clip when the fields were coerced with
    # int(), float() and bool(): {} as a 16x64x64 static clip, T=2.7 as 2,
    # "3" as 3, true as 1, exact="false" as an exact clip
    assert not jsonschema.Draft7Validator(
        schema("synth_spec.schema.json")).is_valid(raw)
    rc, err, written = run_synth(raw, str(tmp_path))
    assert rc == 2
    assert err.startswith("error: invalid spec: ") and err.count("\n") == 1
    assert written == []


@pytest.mark.parametrize("raw", [
    dict(SMALL_SPEC, kind="scaling", v=[0, 0], alpha=1000),
    dict(SMALL_SPEC, kind="rotation", v=[0, 0], omega=10 ** 400),
    dict(SMALL_SPEC, T=10 ** 30)],
    ids=["exp_overflow", "number_past_float64", "shape_past_numpy_limit"])
def test_synth_schema_valid_spec_out_of_range_exit_2(raw, tmp_path):
    # valid by the schema, but exp(alpha*T) overflowed math.exp and a
    # number past float64 overflowed float(): uncaught OverflowErrors
    rc, err, written = run_synth(raw, str(tmp_path))
    assert rc == 2
    assert err.startswith("error: invalid spec: ") and err.count("\n") == 1
    assert written == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("raw", [
    dict(SMALL_SPEC, v=[1e308, 0]),
    dict(SMALL_SPEC, kind="static", v=[0, 0], noise_sigma=1e308),
    dict(SMALL_SPEC, kind="rotation", v=[0, 0], omega=1e308)],
    ids=["velocity", "noise_sigma", "omega"])
def test_synth_float64_overflow_exit_2(raw, tmp_path):
    # valid by the schema, but the warp made NaN coordinates (a loader's
    # non-finite error), the noise overflowed to a clip of 0s and 1s
    # (exit 0) and omega*t overflowed math.cos (an uncaught ValueError)
    rc, err, written = run_synth(raw, str(tmp_path))
    assert rc == 2
    assert err.startswith("error: invalid spec: synthesis overflows float64")
    assert err.count("\n") == 1
    assert written == []


def test_synth_integral_float_size_is_an_integer(tmp_path):
    # 2.0 is a JSON Schema integer, as in the sidecar
    rc, _, _ = run_synth(dict(SMALL_SPEC, T=2.0, seed=7.0), str(tmp_path))
    assert rc == 0
    copy = read_json(tmp_path / "x.raw.spec.json")
    assert (copy["T"], copy["seed"]) == (2, 7)
    assert load_video(str(tmp_path / "x.raw")).shape == (2, 16, 16)


# spec fields, with values the schema accepts and values it does not; the
# sizes are always given and stay at most 8x32x32
SIZE_FIELDS = {
    "T": st.one_of(st.integers(-1, 8), st.sampled_from([2.0, 2.7, "3", True])),
    "H": st.one_of(st.integers(2, 32),
                   st.sampled_from([16.0, 8.5, "16", False, None])),
    "W": st.one_of(st.integers(2, 32), st.sampled_from([32.0, "8", [16]])),
}
SPEC_FIELDS = {
    "kind": st.sampled_from(["translation", "rotation", "scaling", "mixed",
                             "static", "spin", 1]),
    "v": st.one_of(st.lists(st.floats(-2, 2), min_size=2, max_size=2),
                   st.lists(st.integers(-2, 2), max_size=3),
                   st.sampled_from([["1", "2"], 5, [True, 0]])),
    "omega": st.one_of(st.floats(-0.3, 0.3),
                       st.sampled_from(["0.1", True, None])),
    "alpha": st.one_of(st.floats(-0.5, 0.5), st.sampled_from(["0", [0.1]])),
    "noise_sigma": st.one_of(st.floats(-0.05, 0.05),
                             st.sampled_from([None, "0"])),
    "seed": st.one_of(st.integers(-2, 50),
                      st.sampled_from([7.0, 2.5, "7", False])),
    "base": st.sampled_from(["checker", "gaussian_blobs", "bandpass_noise",
                             "stripes", 0]),
    "exact": st.one_of(st.booleans(), st.sampled_from(["false", 0, 1.0])),
    "rng": st.sampled_from(["numpy.random.Philox", 3]),
}
SPECS = st.one_of(st.fixed_dictionaries(SIZE_FIELDS, optional=SPEC_FIELDS),
                  st.lists(st.integers(0, 9), max_size=2))


@settings(max_examples=150, deadline=None)
@given(raw=SPECS)
def test_synth_spec_property(raw):
    # a spec the schema rejects exits 2 and writes nothing; no spec ends in
    # an uncaught exception, and every error is one line
    valid = jsonschema.Draft7Validator(
        schema("synth_spec.schema.json")).is_valid(raw)
    with tempfile.TemporaryDirectory() as tmp:
        rc, err, written = run_synth(raw, tmp)
        if rc == 0:
            jsonschema.validate(read_json(os.path.join(tmp, "x.raw.spec.json")),
                                schema("synth_spec.schema.json"))
    assert rc in (0, 2)
    assert valid or rc == 2
    if rc == 2:
        assert err.startswith("error: invalid spec: ")
        assert err.count("\n") == 1 and written == []
    else:
        assert sorted(written) == ["x.raw", "x.raw.json", "x.raw.spec.json"]


@pytest.mark.parametrize("argv", [
    ["analyze", "CLIP", "--json", "BAD"], ["analyze", "CLIP", "--csv", "BAD"],
    ["validate", "--suite", "bounds", "--n", "2", "--json", "BAD"],
    ["synth", "SPEC", "--out", "BAD"],
    ["sweep", "--param", "delta", "--range", "1", "--out", "BAD"]],
    ids=["analyze_json", "analyze_csv", "validate_json", "synth_out",
         "sweep_out"])
def test_unwritable_output_exit_2(argv, trans_clip_path, tmp_path, capsys):
    spec = tmp_path / "spec.json"
    write_json(spec, SMALL_SPEC)
    bad = str(tmp_path / "no_such_dir" / "out")
    paths = {"CLIP": trans_clip_path, "SPEC": str(spec), "BAD": bad}
    assert main([paths.get(a, a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert bad in err


@pytest.mark.parametrize("argv", [
    ["sweep", "--param", "delta", "--range", "1", "--seed", "-1"],
    ["validate", "--suite", "bounds", "--n", "2", "--seed", "-1"]],
    ids=["sweep", "validate"])
def test_negative_seed_exit_2(argv, capsys):
    # Philox rejects a negative seed; that was an uncaught ValueError
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: seed must be at least 0, got -1\n"


def whole_read_digest(path, chunk=None):
    """The manifest digest with every file read in one call, or in
    ``chunk``-byte reads if a chunk size is given."""
    h = hashlib.sha256()

    def feed(file):
        with open(file, "rb") as fh:
            while piece := fh.read(chunk if chunk else -1):
                h.update(piece)

    if os.path.isdir(path):
        for name in sorted(os.listdir(path)):
            h.update(name.encode())
            feed(os.path.join(path, name))
    else:
        feed(path)
        feed(path + ".json")
    return h.hexdigest()


@pytest.mark.parametrize("chunk", [1 << 20, 4097])
def test_manifest_digest_streams_like_whole_read(chunk, tmp_path):
    # 20x128x128 float32 is 1.25 MiB: more than one 1 MiB read; a streaming
    # hasher at any read size reproduces the digest analyze records
    clip = synth_sim2("checker", MotionSpec(kind="static", seed=0), 20, 128,
                      128)
    raw = str(tmp_path / "clip.raw")
    pgm = str(tmp_path / "frames")
    save_video(clip, raw, "raw_f32")
    save_video(clip, pgm, "pgm_dir")
    # files that are not frames are part of a directory's digest
    pathlib.Path(pgm, "notes.txt").write_bytes(b"not a frame\n")
    for path in (raw, pgm):
        out = str(tmp_path / "rep.json")
        assert main(["analyze", path, "--json", out]) == 0
        inputs = read_json(out)["manifest"]["inputs"]
        assert inputs == {path: whole_read_digest(path)}
        assert inputs == {path: whole_read_digest(path, chunk)}


def test_analyze_opens_raw_payload_once(trans_clip_path, monkeypatch):
    real_open = open
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    assert main(["analyze", trans_clip_path]) == 0
    assert opened.count(trans_clip_path) == 1
    assert opened.count(trans_clip_path + ".json") == 1


def test_cli_analyze_peak_allocation_near_one_window(tmp_path):
    # the CLI path, load included, holds the float64 window plus spectra
    # the size of the kept bins: neither the raw payload nor a block-sized
    # half spectrum beside it.  A first call makes the one-time imports
    # and cached tables, which are not what is measured
    clip = synth_sim2("bandpass_noise", MotionSpec(kind="static", seed=3),
                      32, 256, 256)
    path = str(tmp_path / "clip.raw")
    save_video(clip, path)
    argv = ["analyze", path, "--json", str(tmp_path / "rep.json")]
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.45 * clip.data.nbytes


def test_cli_analyze_peak_allocation_below_half_window(tmp_path):
    # the CLI streams the raw payload into the pruned pass a chunk of
    # frames at a time, so it never holds the float64 window
    clip = synth_sim2("bandpass_noise", MotionSpec(kind="static", seed=3),
                      32, 256, 256)
    path = str(tmp_path / "clip.raw")
    save_video(clip, path)
    window_bytes = clip.data.nbytes
    del clip
    argv = ["analyze", path, "--json", str(tmp_path / "rep.json")]
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * window_bytes


def test_manifest_digests_pinned(tmp_path):
    # a window of exact float32 and 8-bit values: the digests of its raw
    # file and of its PGM directory (one file in it not a frame) are the
    # ones the whole-window loader recorded
    t, y, x = np.ogrid[0:12, 0:32, 0:32]
    v = VideoWindow(((3 * x + 5 * y + 7 * t) % 17) / 16.0)
    raw = str(tmp_path / "clip.raw")
    pgm = str(tmp_path / "frames")
    save_video(v, raw)
    save_video(v, pgm, "pgm_dir")
    pathlib.Path(pgm, "notes.txt").write_bytes(b"not a frame\n")
    pinned = {
        raw: "065849ef1c157407493cae71d191ea04da636efce21d3d24b34290532bb09a03",
        pgm: "122f734f9264cbd089dbef0cae8377e664c8425745e1695e8e8ed0afeccb4b89",
    }
    for path, digest in pinned.items():
        out = str(tmp_path / "rep.json")
        assert main(["analyze", path, "--json", out]) == 0
        with open(out) as fh:
            assert json.load(fh)["manifest"]["inputs"] == {path: digest}


def test_pgm_dir_subdirectories_left_out(tmp_path):
    # a subdirectory, even one named like a frame, is not read: analyze
    # (which digests every listed file) and load_video read the same
    # frames, and the digest is the one without the subdirectories
    pgm = str(tmp_path / "frames")
    save_video(VideoWindow(np.full((4, 8, 8), 0.5)), pgm, "pgm_dir")
    out = str(tmp_path / "rep.json")
    runs = []
    for sub in (None, ".ipynb_checkpoints", "extra.pgm"):
        if sub is not None:
            save_video(VideoWindow(np.zeros((1, 8, 8))),
                       os.path.join(pgm, sub), "pgm_dir")
        assert main(["analyze", pgm, "--json", out]) == 0
        rep = read_json(out)
        runs.append((rep["manifest"]["inputs"], rep["report"]))
    assert runs[0] == runs[1] == runs[2]
    assert load_video(pgm).shape == (4, 8, 8)


def write_raw(path, data, shape=None):
    """``data`` as a raw float32 file, its sidecar declaring ``shape``
    (default: the data's)."""
    np.asarray(data, dtype="<f4").tofile(path)
    with open(path + ".json", "w") as fh:
        json.dump(dict(zip("THW", shape or np.shape(data))), fh)


def write_pgm(path, frames):
    """Each ``(h, w)`` uint8 array of ``frames`` as a PGM file in ``path``."""
    os.makedirs(path)
    for i, f in enumerate(frames):
        with open(os.path.join(path, f"frame_{i:04d}.pgm"), "wb") as fh:
            fh.write(b"P5\n%d %d\n255\n" % (f.shape[1], f.shape[0])
                     + f.tobytes())


def bad_inputs(tmp):
    """``(path, message)`` of each malformed input case, built in ``tmp``."""
    cases = {}
    path = os.path.join(tmp, "short.raw")
    write_raw(path, np.zeros((2, 3, 4)), (3, 3, 4))
    cases["short_payload"] = (path, f"{path}: sidecar declares T=3 H=3 W=4 "
                              "(144 bytes), file holds 96 bytes")
    path = os.path.join(tmp, "trailing.raw")
    write_raw(path, np.zeros((2, 3, 4)))
    with open(path, "ab") as fh:
        fh.write(b"\0\0\0")
    cases["trailing_bytes"] = (path, f"{path}: sidecar declares T=2 H=3 W=4 "
                               "(96 bytes), file holds 99 bytes")
    # one frame is too short to analyze, but the format error comes first
    path = os.path.join(tmp, "one_frame.raw")
    write_raw(path, np.zeros(25), (1, 32, 32))
    cases["t1_short_payload"] = (path, f"{path}: sidecar declares T=1 H=32 "
                                 "W=32 (4096 bytes), file holds 100 bytes")
    # 17 frames of 64x64 are read in chunks of 7: the NaN is in the third
    path = os.path.join(tmp, "nan.raw")
    data = np.full((17, 64, 64), 0.5)
    data[16, 5, 5] = np.nan
    write_raw(path, data)
    cases["nan_last_frame"] = (path, "video contains non-finite samples")
    path = os.path.join(tmp, "bad_header")
    write_pgm(path, [np.zeros((4, 4), np.uint8)])
    frame = os.path.join(path, "frame_0000.pgm")
    with open(frame, "wb") as fh:
        fh.write(b"P5\nx 4\n255\n" + bytes(16))
    cases["bad_pgm_header"] = (path, f"frame {frame}: bad PGM header")
    path = os.path.join(tmp, "mixed_shapes")
    write_pgm(path, [np.zeros(s, np.uint8)
                     for s in ((8, 8), (8, 6), (8, 8), (4, 4))])
    cases["inconsistent_pgm_shapes"] = (
        path, f"inconsistent frame shapes in {path}: "
        "[(4, 4), (8, 6), (8, 8)]")
    return cases


BAD_INPUTS = ("short_payload", "trailing_bytes", "t1_short_payload",
              "nan_last_frame", "bad_pgm_header", "inconsistent_pgm_shapes")


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_format_errors_keep_text_and_exit_2(case, tmp_path, capsys):
    # the error streamed out of the pruned pass reads as the loader's: no
    # stage label, exit code 2
    path, message = bad_inputs(str(tmp_path))[case]
    with pytest.raises(FormatError) as exc:
        load_video(path)
    assert str(exc.value) == message
    assert main(["analyze", path]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_validate_bounds_suite(tmp_path):
    out = str(tmp_path / "val.json")
    rc = main(["validate", "--suite", "bounds", "--n", "150", "--json", out])
    assert rc == 0
    payload = read_json(out)
    jsonschema.validate(payload, schema("validate.schema.json"))
    assert payload["violations_total"] == 0
    assert payload["suites"][0]["instances"] >= 150


def test_validate_manifest_has_no_config(tmp_path):
    out = str(tmp_path / "val.json")
    assert main(["validate", "--suite", "bounds", "--n", "5",
                 "--json", out]) == 0
    manifest = read_json(out)["manifest"]
    assert "config" not in manifest and "config_hash" not in manifest
    # the suites run fixed configs, so validate takes no config flags
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--window", "rect"])
    assert exc.value.code == 2


def test_manifests_record_environment(trans_clip_path, tmp_path,
                                     monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    rep, val = str(tmp_path / "rep.json"), str(tmp_path / "val.json")
    assert main(["analyze", trans_clip_path, "--json", rep]) == 0
    assert main(["validate", "--suite", "bounds", "--n", "5",
                 "--json", val]) == 0
    report = read_json(rep)
    jsonschema.validate(report, schema("report.schema.json"))
    env_schema = schema("report.schema.json")["definitions"]["environment"]
    for payload in (report, read_json(val)):
        env = payload["manifest"]["environment"]
        jsonschema.validate(env, env_schema)
        assert env["numpy"] == np.__version__
        assert env["threads"]["OPENBLAS_NUM_THREADS"] == "3"
        assert env["threads"]["MKL_NUM_THREADS"] is None
        assert env["cpu_count"] == os.cpu_count()


def test_validate_exactness_suite(tmp_path):
    out = str(tmp_path / "val.json")
    rc = main(["validate", "--suite", "exactness", "--json", out])
    assert rc == 0
    payload = read_json(out)
    assert payload["violations_total"] == 0


def test_validate_retention_suite_small(tmp_path):
    out = str(tmp_path / "val.json")
    rc = main(["validate", "--suite", "retention", "--n-retention", "3",
               "--json", out])
    assert rc == 0
    payload = read_json(out)
    jsonschema.validate(payload, schema("validate.schema.json"))
    assert payload["violations_total"] == 0


def test_validate_no_retention_clip_is_input_error(capsys):
    # no clip analyzed used to give a NaN mean, a false violation, exit 1
    assert main(["validate", "--suite", "retention",
                 "--n-retention", "0"]) == 2
    assert capsys.readouterr().err == \
        "error: --n-retention must be at least 1, got 0\n"


def test_validate_negative_bounds_count_is_input_error(capsys):
    # a negative count used to run silently as 0
    assert main(["validate", "--suite", "bounds", "--n", "-3"]) == 2
    assert capsys.readouterr().err == "error: --n must be at least 0, got -3\n"


def test_sweep_delta_monotone_c_rot(tmp_path):
    out = str(tmp_path / "sweep.csv")
    rc = main(["sweep", "--param", "delta", "--range", "1..3", "--out", out])
    assert rc == 0
    rows = read_rows(out)
    c_rot = [float(r["c_rot"]) for r in rows]
    assert all(c_rot[i + 1] >= c_rot[i] - 1e-12 for i in range(len(c_rot) - 1))


def test_sweep_tau_max_weight_monotone(tmp_path):
    out = str(tmp_path / "sweep.csv")
    rc = main(["sweep", "--param", "tau", "--range",
               "0.01,0.05,0.1,0.5,1.0", "--out", out])
    assert rc == 0
    rows = read_rows(out)
    mw = [float(r["max_weight"]) for r in rows]
    assert all(mw[i + 1] <= mw[i] + 1e-9 for i in range(len(mw) - 1))


def test_sweep_t_eps_win_monotone(tmp_path):
    out = str(tmp_path / "sweep.csv")
    rc = main(["sweep", "--param", "T", "--range", "8,16,32", "--out", out])
    assert rc == 0
    rows = read_rows(out)
    ew = [float(r["eps_win"]) for r in rows]
    assert all(ew[i + 1] <= ew[i] + 1e-15 for i in range(len(ew) - 1))


def test_sweep_stdout_matches_file(tmp_path, capsys):
    argv = ["sweep", "--param", "delta", "--range", "1,2"]
    assert main(argv) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    out = str(tmp_path / "sweep.csv")
    assert main(argv + ["--out", out]) == 0
    file_rows = read_rows(out)
    assert [r["value"] for r in rows] == ["1", "2"]
    assert list(rows[0]) == list(file_rows[0])
    assert rows == file_rows


def test_sweep_bad_range_exit_2(monkeypatch):
    # a bad value anywhere in the range fails before the first analysis
    def no_analysis(*args):
        raise AssertionError("analyze ran")

    monkeypatch.setattr(cli, "analyze", no_analysis)
    assert main(["sweep", "--param", "delta", "--range", "0..2"]) == 2
    assert main(["sweep", "--param", "tau", "--range", "abc"]) == 2
    assert main(["sweep", "--param", "noise", "--range", "0,-1"]) == 2
    assert main(["sweep", "--param", "tau", "--range", "0.1,0"]) == 2


@pytest.mark.parametrize("text", ["4..inf", "-inf..8", "4,inf", "nan..8"])
def test_sweep_non_finite_bound_exit_2(text, monkeypatch, capsys):
    # 4..inf was an uncaught OverflowError from int(inf)
    def no_analysis(*args):
        raise AssertionError("analyze ran")

    monkeypatch.setattr(cli, "analyze", no_analysis)
    assert main(["sweep", "--param", "T", f"--range={text}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad range: ") and err.count("\n") == 1


def test_sweep_non_finite_noise_exit_2(tmp_path, monkeypatch):
    def no_analysis(*args):
        raise AssertionError("analyze ran")

    monkeypatch.setattr(cli, "analyze", no_analysis)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--param", "noise", "--range", "0,nan",
                 "--out", str(out)]) == 2
    assert not out.exists()


def test_sidecar_matches_schema(tmp_path):
    clip = synth_sim2("checker", MotionSpec(kind="static", seed=0), 4, 32, 32)
    path = str(tmp_path / "c.raw")
    save_video(clip, path)
    jsonschema.validate(read_json(path + ".json"),
                        schema("sidecar.schema.json"))


@pytest.mark.parametrize("meta, valid", [
    ({"T": 2, "H": 3, "W": 4}, True),
    ({"T": 2.0, "H": 3, "W": 4}, True),
    ({"T": 2.7, "H": 3, "W": 4}, False),
    ({"T": "2", "H": 3, "W": 4}, False),
    ({"T": True, "H": 3, "W": 4}, False),
    ({"T": 0, "H": 3, "W": 4}, False),
    ({"H": 3, "W": 4}, False),
    ({"T": 2, "H": 3, "W": 4, "C": 1}, False),
    ([2, 3, 4], False),
], ids=["valid", "float_integral", "float_fraction", "string", "bool",
        "zero", "missing_key", "extra_key", "list"])
def test_sidecar_loader_agrees_with_schema(meta, valid, tmp_path):
    # the raw loader accepts exactly the sidecars the schema accepts
    path = tmp_path / "c.raw"
    np.arange(24, dtype="<f4").tofile(path)
    write_json(str(path) + ".json", meta)
    validator = jsonschema.Draft7Validator(schema("sidecar.schema.json"))
    assert validator.is_valid(meta) == valid
    if valid:
        assert load_video(str(path)).shape == (2, 3, 4)
    else:
        with pytest.raises(FormatError, match="bad sidecar"):
            load_video(str(path))
        assert main(["analyze", str(path)]) == 2


def test_sweep_seed_flag(tmp_path):
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    assert main(["sweep", "--param", "delta", "--range", "1,2",
                 "--seed", "5", "--out", a]) == 0
    assert main(["sweep", "--param", "delta", "--range", "1,2",
                 "--seed", "6", "--out", b]) == 0
    assert pathlib.Path(a).read_text() != pathlib.Path(b).read_text()


def test_sweep_noise_param(tmp_path):
    out = str(tmp_path / "sweep.csv")
    rc = main(["sweep", "--param", "noise", "--range", "0,0.02,0.05",
               "--out", out])
    assert rc == 0
    with open(out, newline="") as fh:
        header = next(csv.reader(fh))
    assert header == [
        "param", "value", "l_trans", "l_rot", "l_scale", "l_uni", "l_motion",
        "c_rot", "c_ring", "c_flow", "s_trend", "c_scale", "w_translation",
        "w_rotation", "w_scaling", "retained_fraction", "max_weight",
        "eps_win"]
    rows = read_rows(out)
    assert len(rows) == 3
    assert [float(r["value"]) for r in rows] == [0.0, 0.02, 0.05]


def test_readme_lists_parser_options():
    readme = pathlib.Path(__file__).parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    declared = {opt for parser in sub.choices.values()
                for action in parser._actions
                for opt in action.option_strings
                if opt.startswith("--") and opt != "--help"}
    assert documented == declared


# ---------------------------------------------------------------------------
# one parser per process: nothing carries over from one main call to the next


def test_main_reuses_one_parser():
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()


def test_parsed_flags_do_not_carry_over(trans_clip_path, tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["analyze", trans_clip_path, "--tau", "0.2", "--json", a]) == 0
    assert main(["analyze", trans_clip_path, "--json", b]) == 0
    assert read_json(a)["manifest"]["config"][
        "softmax_temperature"] == 0.2
    assert read_json(b)["manifest"]["config"] == \
        SpectralConfig().to_dict()


def test_valid_call_after_parse_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--suite", "nonsense"])
    assert exc.value.code == 2
    out = str(tmp_path / "v.json")
    assert main(["validate", "--suite", "bounds", "--n", "5",
                 "--json", out]) == 0
    assert read_json(out)["violations_total"] == 0


def test_patched_analyze_hit_after_earlier_calls(trans_clip_path, tmp_path,
                                                 monkeypatch):
    assert main(["analyze", trans_clip_path]) == 0

    class Patched(Exception):
        pass

    def patched(*args):
        raise Patched

    monkeypatch.setattr(cli, "analyze", patched)
    with pytest.raises(Patched):
        main(["analyze", trans_clip_path])
