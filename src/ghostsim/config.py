"""Scenario configuration: JSON schema, parsing, and the one path to a Scenario.

parse_config_text checks JSON syntax, keys, types and defaults, then builds
the scenario once through build_scenario, whose domain constructors check
every range and name. Every error carries <file>:<line> of its JSON path.

Schema (JSON object):

  speckle   required  {width, height, grain_radius?, mean_intensity?, seed?}
  object    required  {"builtin": name} or {"pgm": path}
  count     required  int >= 2
  noise     optional  {position?, kind?, amplitude? | amplitude_rel_std?,
                       frequency?, phase?, sample_rate?, seed?,
                       spatial?: {region, pgm?}}
  output    optional  {dir?, emit_curves?, emit_frames?, igi_normalization?}

amplitude_rel_std gives the amplitude as a multiple of the clean bucket
signal's population standard deviation; it is resolved to an absolute
amplitude before simulation and the manifest records the absolute value.
"""
from __future__ import annotations

import json
import re
import sys
from contextlib import contextmanager

from .errors import ConfigurationError
from .measurement import NoiseSpec, Scenario
from .noise import NoiseWaveform, SpatialNoiseMask
from .reconstruct import IGI_NORMALIZATIONS
from .scene import builtin_mask, load_mask
from .speckle import SpeckleParams

_TOP_KEYS = {"speckle", "object", "count", "noise", "output"}
_SPECKLE_KEYS = {"width", "height", "grain_radius", "mean_intensity", "seed"}
_OBJECT_KEYS = {"builtin", "pgm"}
_NOISE_KEYS = {"position", "kind", "amplitude", "amplitude_rel_std", "frequency", "phase", "sample_rate", "seed", "spatial"}
_SPATIAL_KEYS = {"region", "pgm"}
_OUTPUT_KEYS = {"dir", "emit_curves", "emit_frames", "igi_normalization"}

_DEFAULT_OUTPUT = {"dir": "out", "emit_curves": True, "emit_frames": False, "igi_normalization": "unbiased"}
_DEFAULT_NOISE = {
    "position": "none", "kind": "off", "amplitude": 0.0, "frequency": 0.0,
    "phase": 0.0, "sample_rate": 25.0, "seed": 0, "spatial": None,
}


_KEY_OR_BRACE = re.compile(r'("(?:[^"\\]|\\.)*")(\s*:)?|[{}]')
_NON_FINITE = re.compile(r'"(?:[^"\\]|\\.)*"|(-?Infinity|NaN)')


class _Source:
    """Raw config text, for attributing errors to the line of a JSON path."""

    def __init__(self, path: str, text: str):
        self.path = path
        self.text = text
        self.prefix: tuple = ()  # ("config",) when the text is a manifest

    def line_at(self, offset: int) -> int:
        return self.text.count("\n", 0, offset) + 1

    def line_of(self, key_path: tuple) -> int:
        """Line of the key at key_path, else of its nearest enclosing key, else 1 (valid JSON only)."""
        offsets, stack, last = {}, [], None
        for m in _KEY_OR_BRACE.finditer(self.text):
            if m.group(2):  # an object key; braces inside strings never match alone
                last = json.loads(m.group(1))
                offsets.setdefault((*stack[1:], last), m.start())
            elif m.group() == "{":
                stack.append(last)
            elif m.group() == "}":
                stack.pop()
        full = self.prefix + key_path
        while full and full not in offsets:
            full = full[:-1]
        return self.line_at(offsets[full]) if full else 1

    def fail(self, key_path: tuple, message: str) -> ConfigurationError:
        return ConfigurationError(f"{self.path}:{self.line_of(key_path)}: {message}")

    def reject_non_finite(self, token: str):
        """json.loads parse_constant hook: NaN and +-Infinity are not JSON numbers."""
        first = next(m for m in _NON_FINITE.finditer(self.text) if m.group(1))
        raise ConfigurationError(f"{self.path}:{self.line_at(first.start())}: non-finite number {token} is not allowed")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_num(v) -> bool:
    # finite and float-representable: rejects 1e999 (inf) and ints beyond float range
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _check_keys(obj: dict, allowed: set, section: tuple, src: _Source) -> None:
    for key in obj:
        if key not in allowed:
            where = ".".join(section) or "config"
            raise src.fail((*section, key), f"unknown key {key!r} in {where}; allowed: {sorted(allowed)}")


def parse_config_text(text: str, path: str = "<config>") -> dict:
    """Validate config JSON text into a fully defaulted plain dict."""
    src = _Source(path, text)
    try:
        raw = json.loads(text, parse_constant=src.reject_non_finite)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    if isinstance(raw, dict) and raw.get("format") == "ghostsim-manifest":
        # a manifest embeds the resolved config it was produced from
        raw = raw.get("config")
        src.prefix = ("config",)
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{path}:1: config must be a JSON object")
    _check_keys(raw, _TOP_KEYS, (), src)
    for req in ("speckle", "object", "count"):
        if req not in raw:
            raise ConfigurationError(f"{path}:1: missing required key {req!r}")

    sp = raw["speckle"]
    if not isinstance(sp, dict):
        raise src.fail(("speckle",), "speckle must be an object")
    _check_keys(sp, _SPECKLE_KEYS, ("speckle",), src)
    for req in ("width", "height"):
        if req not in sp:
            raise src.fail(("speckle",), f"speckle.{req} is required")
    out_sp = {
        "width": sp["width"], "height": sp["height"],
        "grain_radius": sp.get("grain_radius", 2.0),
        "mean_intensity": sp.get("mean_intensity", 1.0),
        "seed": sp.get("seed", 0),
    }
    for key in ("width", "height", "seed"):
        if not _is_int(out_sp[key]):
            raise src.fail(("speckle", key), f"speckle.{key} must be an integer")
    for key in ("grain_radius", "mean_intensity"):
        if not _is_num(out_sp[key]):
            raise src.fail(("speckle", key), f"speckle.{key} must be a number")
        out_sp[key] = float(out_sp[key])

    obj = raw["object"]
    if not isinstance(obj, dict):
        raise src.fail(("object",), "object must be an object")
    _check_keys(obj, _OBJECT_KEYS, ("object",), src)
    if len(obj) != 1:
        raise src.fail(("object",), 'object needs exactly one of "builtin" or "pgm"')
    if "pgm" in obj and not isinstance(obj["pgm"], str):
        raise src.fail(("object", "pgm"), "object.pgm must be a path string")

    count = raw["count"]
    if not _is_int(count):
        raise src.fail(("count",), "count must be an integer")

    noise = dict(_DEFAULT_NOISE)
    if "noise" in raw:
        nz = raw["noise"]
        if not isinstance(nz, dict):
            raise src.fail(("noise",), "noise must be an object")
        _check_keys(nz, _NOISE_KEYS, ("noise",), src)
        if "amplitude" in nz and "amplitude_rel_std" in nz:
            raise src.fail(("noise", "amplitude_rel_std"), "give either amplitude or amplitude_rel_std, not both")
        noise.update({k: v for k, v in nz.items() if k != "spatial"})
        if nz.get("spatial") is not None:
            spt = nz["spatial"]
            if not isinstance(spt, dict):
                raise src.fail(("noise", "spatial"), "noise.spatial must be an object")
            _check_keys(spt, _SPATIAL_KEYS, ("noise", "spatial"), src)
            region = spt.get("region")
            if region == "custom" and "pgm" not in spt:
                raise src.fail(("noise", "spatial", "region"), "custom spatial region requires a pgm weights path")
            if region != "custom" and "pgm" in spt:
                raise src.fail(("noise", "spatial", "pgm"), "spatial.pgm only applies to the custom region")
            if "pgm" in spt and not isinstance(spt["pgm"], str):
                raise src.fail(("noise", "spatial", "pgm"), "noise.spatial.pgm must be a path string")
            noise["spatial"] = {"region": region, **({"pgm": spt["pgm"]} if "pgm" in spt else {})}
    for key in ("frequency", "phase", "sample_rate"):
        if not _is_num(noise[key]):
            raise src.fail(("noise", key), f"noise.{key} must be a number")
        noise[key] = float(noise[key])
    if not _is_int(noise["seed"]):
        raise src.fail(("noise", "seed"), "noise.seed must be an integer")
    amp_key = "amplitude_rel_std" if "amplitude_rel_std" in noise else "amplitude"
    if not _is_num(noise[amp_key]):
        raise src.fail(("noise", amp_key), f"noise.{amp_key} must be a number")
    noise[amp_key] = float(noise[amp_key])
    if amp_key == "amplitude_rel_std":
        if noise[amp_key] < 0:  # no constructor sees it before simulate() resolves it
            raise src.fail(("noise", amp_key), "noise.amplitude_rel_std must be >= 0")
        noise.pop("amplitude", None)  # the relative form owns the amplitude

    output = dict(_DEFAULT_OUTPUT)
    if "output" in raw:
        op = raw["output"]
        if not isinstance(op, dict):
            raise src.fail(("output",), "output must be an object")
        _check_keys(op, _OUTPUT_KEYS, ("output",), src)
        output.update(op)
    if not isinstance(output["dir"], str):
        raise src.fail(("output", "dir"), "output.dir must be a string")
    for key in ("emit_curves", "emit_frames"):
        if not isinstance(output[key], bool):
            raise src.fail(("output", key), f"output.{key} must be true or false")
    if output["igi_normalization"] not in IGI_NORMALIZATIONS:
        raise src.fail(("output", "igi_normalization"), f"igi_normalization must be one of {IGI_NORMALIZATIONS}")

    cfg = {"speckle": out_sp, "object": dict(obj), "count": count, "noise": noise, "output": output}
    try:
        build_scenario(cfg)
    except ConfigurationError as exc:
        raise src.fail(tuple(exc.field.split(".")), f"{exc.field}: {exc}") from exc
    return cfg


# domain parameters whose config key has another name
_CONFIG_KEY = {"object_mask": "object.pgm", "noise.spatial.custom_weights": "noise.spatial.pgm"}


@contextmanager
def _section(prefix: str):
    """Give a domain ConfigurationError the config path of its field: prefix.field."""
    try:
        yield
    except ConfigurationError as exc:
        path = ".".join(filter(None, (prefix, exc.field)))
        raise ConfigurationError(str(exc), field=_CONFIG_KEY.get(path, path)) from exc


def build_scenario(cfg: dict) -> tuple[Scenario, float | None]:
    """The one path from a parsed config to a Scenario and its amplitude_rel_std, which simulate() resolves.

    A ConfigurationError's field is the JSON path at fault, e.g. noise.spatial.region.
    """
    with _section("speckle"):
        speckle = SpeckleParams(**cfg["speckle"])
    obj, nz = cfg["object"], cfg["noise"]
    if "builtin" in obj:
        with _section("object.builtin"):
            mask = builtin_mask(obj["builtin"], speckle.width, speckle.height)
    else:
        mask = load_mask(obj["pgm"])
    with _section("noise"):
        waveform = NoiseWaveform(
            kind=nz["kind"], amplitude=nz.get("amplitude", 0.0), frequency=nz["frequency"],
            phase=nz["phase"], sample_rate=nz["sample_rate"], seed=nz["seed"],
        )
        spatial = None
        if nz["spatial"] is not None:
            weights = load_mask(nz["spatial"]["pgm"]) if "pgm" in nz["spatial"] else None
            with _section("spatial"):
                spatial = SpatialNoiseMask(region=nz["spatial"]["region"], custom_weights=weights)
        noise = NoiseSpec(waveform=waveform, position=nz["position"], spatial=spatial)
    with _section(""):
        scenario = Scenario(speckle=speckle, object_mask=mask, count=cfg["count"], noise=noise)
    return scenario, nz.get("amplitude_rel_std")


def load_config(path) -> dict:
    with open(path, "r") as fh:
        text = fh.read()
    return parse_config_text(text, path=str(path))
