"""Run-time span tracing of the sim2spec layers, installed from outside.

``Tracer.install`` replaces each traced public function by a wrapper in
every ``sim2spec`` module namespace that holds it (the defining module, the
modules that imported it, the package root), so calls made through any of
those names open a span.  ``Tracer.uninstall`` puts the original objects
back.  Spans live in flat in-memory lists until ``dump`` writes them out.

Nothing under ``src/`` is modified; the wrappers exist only between
``install`` and ``uninstall``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

MARK = "__bench_span__"

# (defining module, function) -> span name; the span name is the metric
# prefix ``<layer>.<function>``.
TRACED = {
    ("core", "load_video"): "core.load_video",
    ("core", "normalize_window"): "core.normalize_window",
    ("spectral", "spatial_transform"): "spectral.spatial_transform",
    ("spectral", "spectral_transform"): "spectral.spectral_transform",
    ("spectral", "crop_to_cube"): "spectral.crop_to_cube",
    ("spectral", "measured_retention"): "spectral.measured_retention",
    ("resample", "build_polar_lut"): "resample.build_polar_lut",
    ("resample", "polar_resample"): "resample.polar_resample",
    ("resample", "make_stack"): "resample.make_stack",
    ("resample", "ring_energies"): "resample.ring_energies",
    ("gates", "build_samples"): "gates.build_samples",
    ("losses", "translation_loss"): "losses.translation_loss",
    ("losses", "rotation_loss"): "losses.rotation_loss",
    ("losses", "scaling_loss"): "losses.scaling_loss",
    ("losses", "unified_residual"): "losses.unified_residual",
    ("losses", "ridge_wls_solve"): "losses.ridge_wls_solve",
    ("losses", "analyze"): "losses.analyze",
    ("bounds", "ridge_inequality_check"): "bounds.ridge_inequality_check",
    ("bounds", "band_capture_check"): "bounds.band_capture_check",
    ("bounds", "ring_entropy_check"): "bounds.ring_entropy_check",
    ("bounds", "window_leakage"): "bounds.window_leakage",
    ("synth", "synth_sim2"): "synth.synth_sim2",
    ("synth", "synth_powerlaw"): "synth.synth_powerlaw",
    ("cli", "main"): "cli.main",
    ("cli", "make_manifest"): "cli.make_manifest",
    ("cli", "suite_bounds"): "cli.suite_bounds",
    ("cli", "suite_exactness"): "cli.suite_exactness",
    ("cli", "suite_retention"): "cli.suite_retention",
}

# report serialization in ``cli.cmd_analyze``: the dict conversion and the
# ``json.dump`` call, both attributed to one span name
REPORT_JSON = "cli.report_json"


def _block_kind(args) -> str:
    """Sample block of a ``build_samples(ox, oy, m, nu, ot, e, hidx, cfg)``
    call: translation has no harmonic index, rotation carries ``m`` and
    scaling ``nu`` as arrays."""
    if args[6] is None:
        return "translation"
    return "rotation" if np.ndim(args[2]) > 0 else "scaling"


class _JsonProxy:
    """Stands in for the ``json`` module inside ``sim2spec.cli`` so that
    ``json.dump`` opens a span; every other attribute is the real one."""

    def __init__(self, dump):
        self.dump = dump

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    """In-memory span recorder plus the counters measured at the same
    boundaries (bins and bytes returned by transforms, cube bins, sample
    rows per block)."""

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.op_ids: list = []
        self._stack = [-1]
        self.op = -1
        self.counts: dict = defaultdict(Counter)   # op id -> counter
        self._patched: list = []

    # -- spans ---------------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.op_ids.append(self.op)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        tracer = self
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            c = tracer.counts[tracer.op]
            c[name + ".calls"] += 1
            if counter is not None:
                counter(c, result, args)
            return result

        setattr(wrapper, MARK, name)
        return wrapper

    # -- installation --------------------------------------------------
    def install(self) -> None:
        import sim2spec.cli as cli
        import sim2spec.losses as losses

        mods = [m for n, m in list(sys.modules.items())
                if n == "sim2spec" or n.startswith("sim2spec.")]
        for (modname, fname), span in TRACED.items():
            orig = getattr(sys.modules["sim2spec." + modname], fname)
            wrapped = self.wrap(span, orig)
            for mod in mods:
                if mod.__dict__.get(fname) is orig:
                    self._patched.append((mod, fname, orig))
                    setattr(mod, fname, wrapped)
        self._patched.append((losses.LossReport, "to_dict",
                              losses.LossReport.to_dict))
        losses.LossReport.to_dict = self.wrap(REPORT_JSON,
                                              losses.LossReport.to_dict)
        self._patched.append((cli, "json", cli.json))
        cli.json = _JsonProxy(self.wrap(REPORT_JSON, json.dump))

    def uninstall(self) -> None:
        while self._patched:
            obj, name, orig = self._patched.pop()
            setattr(obj, name, orig)

    # -- results -------------------------------------------------------
    def self_times(self) -> np.ndarray:
        """Per-span self time: duration minus the durations of its direct
        children (spans are strictly nested, one thread)."""
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=np.int64)
        child = np.zeros_like(dur)
        has = parents >= 0
        np.add.at(child, parents[has], dur[has])
        return dur - child

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({"id": i, "name": name,
                                     "start": self.starts[i],
                                     "end": self.ends[i],
                                     "parent": self.parents[i],
                                     "op": self.op_ids[i]}) + "\n")


def _count_transform(c, result, args):
    c["transform.bins"] += result.coeffs.size
    c["transform.bytes"] += result.coeffs.nbytes


def _count_crop(c, result, args):
    kind = "frames" if result.temporal_axis_is_time else "cube"
    c["crop.bins." + kind] += result.coeffs.size


def _count_samples(c, result, args):
    c["samples." + _block_kind(args)] += result.n


_COUNTERS = {
    "spectral.spatial_transform": _count_transform,
    "spectral.spectral_transform": _count_transform,
    "spectral.crop_to_cube": _count_crop,
    "gates.build_samples": _count_samples,
}


def installed_wrappers() -> list:
    """Names of ``sim2spec`` attributes that are currently span wrappers."""
    found = []
    for n, mod in list(sys.modules.items()):
        if n != "sim2spec" and not n.startswith("sim2spec."):
            continue
        for attr, val in list(vars(mod).items()):
            if getattr(val, MARK, None) is not None or \
                    getattr(getattr(val, "dump", None), MARK, None):
                found.append(f"{n}.{attr}")
    import sim2spec.losses as losses
    if getattr(losses.LossReport.to_dict, MARK, None) is not None:
        found.append("sim2spec.losses.LossReport.to_dict")
    return found
