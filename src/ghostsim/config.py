"""Scenario configuration: JSON schema, parsing, and the one path to a Scenario.

parse_config_text walks the JSON against _SCHEMA, the one statement of each
key's JSON type and default (README "Config schema" has it as a table), checks
the rules between keys, then builds the scenario once through build_scenario,
whose domain constructors check every range and name. Every error carries
<file>:<line> of its JSON path.

Numbers become floats. amplitude_rel_std is the amplitude in units of the clean
bucket's population std; reconstruct.block_pass resolves it from each row's own S0 and the manifest records the result.
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
from .scene import builtin_mask, check_contrast, load_mask
from .speckle import SpeckleParams

_REQUIRED, _ABSENT = "required", "absent"

# section -> key -> (JSON type, default). A dict type is a nested section; a default
# is a value, _REQUIRED or _ABSENT; a key whose default is None also accepts null.
_SCHEMA = {
    "speckle": ({
        "width": (int, _REQUIRED), "height": (int, _REQUIRED),
        "grain_radius": (float, 2.0), "mean_intensity": (float, 1.0), "seed": (int, 0),
    }, _REQUIRED),
    "object": ({"builtin": (str, _ABSENT), "pgm": (str, _ABSENT)}, _REQUIRED),
    "count": (int, _REQUIRED),
    "noise": ({
        "position": (str, "none"), "kind": (str, "off"), "amplitude": (float, 0.0),
        "frequency": (float, 0.0), "phase": (float, 0.0), "sample_rate": (float, 25.0), "seed": (int, 0),
        "spatial": ({"region": (str, _REQUIRED), "pgm": (str, _ABSENT)}, None),
        "amplitude_rel_std": (float, _ABSENT),
    }, {}),
    "output": ({
        "dir": (str, "out"), "emit_curves": (bool, True), "emit_frames": (bool, False),
        "igi_normalization": (str, "unbiased"),
    }, {}),
}
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string", bool: "true or false"}


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


def _has_type(value, kind) -> bool:
    if isinstance(value, bool) != (kind is bool):
        return False
    if kind is float:  # finite and float-representable: rejects 1e999 (inf) and ints beyond float range
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, kind)


def _walk(obj, table: dict, path: tuple, src: _Source) -> dict:
    """Check obj against one schema table: an object, known keys, required keys present, JSON types; fill defaults."""
    where = ".".join(path) or "config"
    if not isinstance(obj, dict):
        raise src.fail(path, f"{where} must be an object")
    for key in obj:
        if key not in table:
            raise src.fail((*path, key), f"unknown key {key!r} in {where}; allowed: {sorted(table)}")
    out = {}
    for key, (kind, default) in table.items():
        at, name = (*path, key), ".".join((*path, key))
        if key not in obj and default in (_REQUIRED, _ABSENT):
            if default == _REQUIRED:
                raise src.fail(at, f"{name} is required")
            continue
        value = obj.get(key, default)
        if isinstance(kind, dict):
            out[key] = None if value is None and default is None else _walk(value, kind, at, src)
        elif not _has_type(value, kind):
            raise src.fail(at, f"{name} must be {_TYPE_NAMES[kind]}")
        else:
            out[key] = float(value) if kind is float else value
    return out


def parse_config_text(text: str, path: str = "<config>") -> dict:
    """Validate config JSON text into a fully defaulted plain dict."""
    src = _Source(path, text)
    try:
        raw = json.loads(text, parse_constant=src.reject_non_finite)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an integer past int()'s digit limit, or nesting too deep
        raise ConfigurationError(f"{path}:1: invalid JSON: {exc}") from exc
    if isinstance(raw, dict) and raw.get("format") == "ghostsim-manifest":
        # a manifest embeds the resolved config it was produced from
        raw = raw.get("config")
        src.prefix = ("config",)
    cfg = _walk(raw, _SCHEMA, (), src)

    if len(cfg["object"]) != 1:
        raise src.fail(("object",), 'object needs exactly one of "builtin" or "pgm"')
    noise, spatial = cfg["noise"], cfg["noise"]["spatial"]
    if "amplitude_rel_std" in noise:
        if "amplitude" in raw["noise"]:
            raise src.fail(("noise", "amplitude_rel_std"), "give either amplitude or amplitude_rel_std, not both")
        if noise["amplitude_rel_std"] < 0:  # no constructor sees it before block_pass resolves it
            raise src.fail(("noise", "amplitude_rel_std"), "noise.amplitude_rel_std must be >= 0")
        del noise["amplitude"]  # the relative form owns the amplitude
    if spatial is not None and spatial["region"] == "custom" and "pgm" not in spatial:
        raise src.fail(("noise", "spatial", "region"), "custom spatial region requires a pgm weights path")
    if spatial is not None and spatial["region"] != "custom" and "pgm" in spatial:
        raise src.fail(("noise", "spatial", "pgm"), "spatial.pgm only applies to the custom region")
    if cfg["output"]["igi_normalization"] not in IGI_NORMALIZATIONS:
        raise src.fail(("output", "igi_normalization"), f"igi_normalization must be one of {IGI_NORMALIZATIONS}")
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
    """The one path from a parsed config to a Scenario and its amplitude_rel_std.

    Only reconstruct.block_pass resolves amplitude_rel_std to an absolute amplitude; simulate takes the Scenario alone.
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
        if "pgm" in obj:  # after Scenario's size check; builtin_mask checks its own
            check_contrast(scenario.object_mask, "object mask", field="object_mask")
    return scenario, nz.get("amplitude_rel_std")


def load_config(path) -> dict:
    with open(path, "r") as fh:
        text = fh.read()
    return parse_config_text(text, path=str(path))
