"""In-memory span recorder and the wrappers that attach it to ghostsim.

Each wrapped function records one span per call: an id, the id of the span
that was open when it started, a name, start and end times (perf_counter)
and the index of the benchmark op it ran in (None outside ops). Spans stay
in memory until `Tracer.dump` writes them out after the last op.

Wrappers replace module attributes where each name is looked up at call
time. `ghostsim.measurement` and `ghostsim.cli` import functions by name,
so `generate_frame` is wrapped as `ghostsim.measurement.generate_frame`,
`simulate` as `ghostsim.cli.simulate`, and so on; the defining module's
attribute is patched too where the benchmark itself calls through it.

A span name is the per-layer metric its self time feeds (without the `_s`
suffix), so every traced second lands in exactly one metric and the op
span's own self time is what no layer accounts for.
"""
from __future__ import annotations

import functools
import json
import math
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name). Order matters only for readability.
PATCHES = (
    ("ghostsim.measurement", "generate_frame", "speckle"),
    ("ghostsim.measurement", "bucket_signal", "scene.bucket"),
    ("ghostsim.measurement", "noise_value", "noise.value"),
    ("ghostsim.cli", "simulate", "measurement"),
    ("ghostsim.cli", "clean_bucket_series", "measurement"),
    ("ghostsim.measurement", "load_series", "measurement.gsim_read"),
    ("ghostsim.measurement", "save_series", "measurement.gsim_write"),
    ("ghostsim.cli", "save_series", "measurement.gsim_write"),
    ("ghostsim.cli", "write_curve_csv", "measurement.curves"),
    ("ghostsim.cli", "column_curve", "measurement.curves"),
    ("ghostsim.cli", "gi_reconstruct", "reconstruct.gi"),
    ("ghostsim.reconstruct", "gi_reconstruct", "reconstruct.gi"),
    ("ghostsim.cli", "igi_reconstruct", "reconstruct.igi"),
    ("ghostsim.reconstruct", "igi_reconstruct", "reconstruct.igi"),
    ("ghostsim.cli", "save_f64", "reconstruct.artifacts"),
    ("ghostsim.cli", "save_recon_pgm", "reconstruct.artifacts"),
    ("ghostsim.cli", "quality_report", "metrics.quality"),
    ("ghostsim.cli", "pearson", "metrics.quality"),
    ("ghostsim.cli", "parse_config_text", "config.parse"),
    ("ghostsim.cli", "load_config", "config.parse"),
    ("ghostsim.config", "parse_config_text", "config.parse"),
    ("ghostsim.cli", "run_scenario", "cli"),
    ("ghostsim.cli", "run_sweep", "cli"),
)

OP = "op"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, t0, t1, op)
        self.op: int | None = None
        self._stack = [0]
        self._next_id = 1

    def _open(self) -> tuple[int, int]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: int, name: str, t0: float) -> None:
        t1 = perf_counter()
        self._stack.pop()
        self.spans.append((sid, parent, name, t0, t1, self.op))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._open()
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid, parent, name, t0)

        return traced

    def wrap_generator(self, name: str, fn):
        """One span per resumption, so time spent by the consumer is excluded."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                sid, parent = self._open()
                t0 = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(sid, parent, name, t0)
                yield item

        return traced

    def install(self) -> None:
        import importlib

        for module, attr, name in PATCHES:
            mod = importlib.import_module(module)
            setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
        measurement = importlib.import_module("ghostsim.measurement")
        measurement.simulate_stream = self.wrap_generator("measurement", measurement.simulate_stream)
        accumulator = importlib.import_module("ghostsim.reconstruct").IgiAccumulator
        accumulator.push = self.wrap("reconstruct.igi_push", accumulator.push)

    def self_times(self) -> dict[int | None, dict[str, list[float]]]:
        """Per op, per span name: [calls, total seconds, self seconds]."""
        child = defaultdict(float)
        for _sid, parent, _name, t0, t1, _op in self.spans:
            child[parent] += t1 - t0
        out: dict = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        for sid, _parent, name, t0, t1, op in self.spans:
            row = out[op][name]
            row[0] += 1
            row[1] += t1 - t0
            row[2] += (t1 - t0) - child[sid]
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# Span names whose self time a per-layer metric reports, metric -> span.
SELF_TIME_METRICS = {
    "speckle.self_s": "speckle",
    "scene.bucket_s": "scene.bucket",
    "noise.value_s": "noise.value",
    "measurement.self_s": "measurement",
    "measurement.gsim_read_s": "measurement.gsim_read",
    "measurement.gsim_write_s": "measurement.gsim_write",
    "measurement.curves_s": "measurement.curves",
    "reconstruct.gi_s": "reconstruct.gi",
    "reconstruct.igi_s": "reconstruct.igi",
    "reconstruct.igi_push_s": "reconstruct.igi_push",
    "reconstruct.artifacts_s": "reconstruct.artifacts",
    "metrics.quality_s": "metrics.quality",
    "config.op_parse_s": "config.parse",
    "cli.self_s": "cli",
    "trace.unaccounted_s": OP,
}


# Every per-layer metric with its unit, in report order. config.parse_s is
# set-up time; trace.overhead_ratio is filled in by run.py.
LAYER_UNITS = {
    "speckle.calls": "count",
    "speckle.calls_per_record": "ratio",
    "speckle.self_s": "s",
    "speckle.us_per_frame": "us",
    "speckle.gflop_per_s.computed": "GFLOP/s",
    "scene.calls": "count",
    "scene.bucket_s": "s",
    "noise.calls": "count",
    "noise.value_s": "s",
    "measurement.self_s": "s",
    "measurement.cube_mb.computed": "MB",
    "measurement.gsim_read_s": "s",
    "measurement.gsim_write_s": "s",
    "measurement.gsim_mb_per_s": "MB/s",
    "measurement.curves_s": "s",
    "reconstruct.gi_s": "s",
    "reconstruct.igi_s": "s",
    "reconstruct.igi_push_s": "s",
    "reconstruct.gb_per_s.computed": "GB/s",
    "reconstruct.artifacts_s": "s",
    "metrics.quality_s": "s",
    "config.parse_s": "s",
    "config.op_parse_s": "s",
    "cli.self_s": "s",
    "cli.sweep_frames_over_max_n": "ratio",
    "trace.op_mean_s": "s",
    "trace.unaccounted_s": "s",
    "trace.overhead_ratio": "ratio",
}


def op_layer_metrics(rows: dict, facts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced op from its span rows and workload facts.

    facts: records (ordinals reconstructed), max_n, frame_pixels, cube_mb,
    recon_bytes (frame bytes GI/IGI read), gsim_bytes (bytes read + written).
    """
    def calls(name):
        return rows[name][0] if name in rows else 0

    def self_s(name):
        return rows[name][2] if name in rows else 0.0

    m = {metric: self_s(span) for metric, span in SELF_TIME_METRICS.items()}
    frames = calls("speckle")
    wh = facts["frame_pixels"]
    # two complex 2-D FFTs per frame at the nominal 5*n*log2(n) flops each
    flops = frames * 2 * 5 * wh * math.log2(wh)
    m["speckle.calls"] = frames
    m["speckle.calls_per_record"] = frames / facts["records"]
    m["speckle.us_per_frame"] = m["speckle.self_s"] / frames * 1e6 if frames else 0.0
    m["speckle.gflop_per_s.computed"] = flops / m["speckle.self_s"] / 1e9 if frames else 0.0
    m["scene.calls"] = calls("scene.bucket")
    m["noise.calls"] = calls("noise.value")
    m["measurement.cube_mb.computed"] = facts["cube_mb"]
    gsim_s = m["measurement.gsim_read_s"] + m["measurement.gsim_write_s"]
    m["measurement.gsim_mb_per_s"] = facts["gsim_bytes"] / gsim_s / 1e6 if gsim_s else 0.0
    recon_s = m["reconstruct.gi_s"] + m["reconstruct.igi_s"] + m["reconstruct.igi_push_s"]
    m["reconstruct.gb_per_s.computed"] = facts["recon_bytes"] / recon_s / 1e9 if recon_s else 0.0
    m["cli.sweep_frames_over_max_n"] = frames / facts["max_n"]
    m["trace.op_mean_s"] = rows[OP][1]
    return m

