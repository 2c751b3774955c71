import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ghostsim import ConfigurationError, ContractError, PgmFormatError, save_mask
from ghostsim.config import _SCHEMA, load_config, parse_config_text

_MINIMAL = """{
  "speckle": {"width": 16, "height": 16},
  "object": {"builtin": "disk"},
  "count": 10
}"""


def test_minimal_config_gets_defaults():
    cfg = parse_config_text(_MINIMAL)
    assert cfg["speckle"] == {"width": 16, "height": 16, "grain_radius": 2.0, "mean_intensity": 1.0, "seed": 0}
    assert cfg["count"] == 10
    assert cfg["noise"]["kind"] == "off"
    assert cfg["noise"]["position"] == "none"
    assert cfg["noise"]["spatial"] is None
    assert cfg["output"] == {"dir": "out", "emit_curves": True, "emit_frames": False, "igi_normalization": "unbiased"}


def test_full_config_round_trip():
    text = json.dumps(
        {
            "speckle": {"width": 8, "height": 8, "grain_radius": 1.5, "mean_intensity": 2.0, "seed": 3},
            "object": {"builtin": "TH"},
            "count": 5,
            "noise": {
                "position": "B",
                "kind": "sinusoid",
                "amplitude": 10.0,
                "frequency": 5.0,
                "phase": 0.5,
                "sample_rate": 25.0,
            },
            "output": {"dir": "elsewhere", "emit_frames": True, "igi_normalization": "paper-literal"},
        }
    )
    cfg = parse_config_text(text)
    assert cfg["noise"]["amplitude"] == 10.0
    assert cfg["output"]["dir"] == "elsewhere"
    assert cfg["output"]["emit_curves"] is True  # untouched default


def test_error_messages_carry_path_and_line():
    text = '{\n  "speckle": {"width": 16, "height": 16},\n  "object": {"builtin": "disk"},\n  "count": 1\n}'
    with pytest.raises(ConfigurationError) as err:
        parse_config_text(text, path="scene.json")
    assert str(err.value).startswith("scene.json:4:")
    assert "count" in str(err.value)


def test_invalid_json_reports_line():
    with pytest.raises(ConfigurationError) as err:
        parse_config_text('{\n  "speckle": }', path="x.json")
    assert str(err.value).startswith("x.json:2:")
    # json.loads raises ValueError for an int past int()'s digit limit and RecursionError for deep nesting
    for text in ('{"count": 1%s}' % ("0" * 5000), '{"noise": %s}' % ("[" * 100_000 + "]" * 100_000)):
        with pytest.raises(ConfigurationError) as err:
            parse_config_text(text, path="x.json")
        assert str(err.value).startswith("x.json:1: invalid JSON: ")


def test_unknown_keys_rejected_at_every_level():
    for text, key in [
        ('{"speckle": {"width": 16, "height": 16}, "object": {"builtin": "disk"}, "count": 5, "banana": 1}', "banana"),
        ('{"speckle": {"width": 16, "height": 16, "gain": 2}, "object": {"builtin": "disk"}, "count": 5}', "gain"),
        (
            '{"speckle": {"width": 16, "height": 16}, "object": {"builtin": "disk"}, "count": 5,'
            ' "noise": {"kind": "off", "level": 3}}',
            "level",
        ),
        (
            '{"speckle": {"width": 16, "height": 16}, "object": {"builtin": "disk"}, "count": 5,'
            ' "output": {"format": "png"}}',
            "format",
        ),
    ]:
        with pytest.raises(ConfigurationError) as err:
            parse_config_text(text)
        assert key in str(err.value)


def test_missing_required_keys():
    with pytest.raises(ConfigurationError) as err:
        parse_config_text('{"object": {"builtin": "disk"}, "count": 5}')
    assert "speckle" in str(err.value)
    with pytest.raises(ConfigurationError):
        parse_config_text('{"speckle": {"width": 16}, "object": {"builtin": "disk"}, "count": 5}')
    with pytest.raises(ConfigurationError):
        parse_config_text('{"speckle": {"width": 16, "height": 16}, "count": 5}')


def test_object_needs_exactly_one_source():
    with pytest.raises(ConfigurationError):
        parse_config_text('{"speckle": {"width": 16, "height": 16}, "object": {}, "count": 5}')
    with pytest.raises(ConfigurationError):
        parse_config_text(
            '{"speckle": {"width": 16, "height": 16}, "object": {"builtin": "disk", "pgm": "m.pgm"}, "count": 5}'
        )


def test_amplitude_forms_are_exclusive():
    base = '{"speckle": {"width": 16, "height": 16}, "object": {"builtin": "disk"}, "count": 5, "noise": %s}'
    with pytest.raises(ConfigurationError) as err:
        parse_config_text(base % '{"kind": "constant", "amplitude": 1.0, "amplitude_rel_std": 2.0}')
    assert "amplitude" in str(err.value)
    cfg = parse_config_text(base % '{"kind": "constant", "amplitude_rel_std": 2.0}')
    assert cfg["noise"]["amplitude_rel_std"] == 2.0
    assert "amplitude" not in cfg["noise"]


def test_type_checks_reject_bools_and_strings():
    with pytest.raises(ConfigurationError):
        parse_config_text('{"speckle": {"width": true, "height": 16}, "object": {"builtin": "disk"}, "count": 5}')
    with pytest.raises(ConfigurationError):
        parse_config_text('{"speckle": {"width": 16, "height": 16}, "object": {"builtin": "disk"}, "count": "5"}')
    with pytest.raises(ConfigurationError):
        parse_config_text(
            '{"speckle": {"width": 16, "height": 16}, "object": {"builtin": "disk"}, "count": 5,'
            ' "output": {"emit_frames": 1}}'
        )


def test_manifest_unwraps_to_embedded_config():
    cfg = parse_config_text(_MINIMAL)
    manifest = {
        "format": "ghostsim-manifest",
        "version": 1,
        "tool": {"name": "ghostsim", "version": "0.0.0"},
        "config": {k: v for k, v in cfg.items() if k != "output"} | {"output": {"emit_frames": True}},
        "scenario_digest": "abc",
        "clean_bucket_std": 1.0,
    }
    back = parse_config_text(json.dumps(manifest))
    assert back["speckle"] == cfg["speckle"]
    assert back["count"] == cfg["count"]
    assert back["output"]["emit_frames"] is True
    assert back["output"]["dir"] == "out"  # manifests never pin the output dir


def test_load_config_reads_files(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(_MINIMAL)
    cfg = load_config(path)
    assert cfg["count"] == 10
    with pytest.raises(OSError):
        load_config(tmp_path / "absent.json")


def test_non_finite_numbers_rejected():
    nan_amp = '{\n  "speckle": {"width": 16, "height": 16},\n  "object": {"builtin": "disk"},\n  "count": 5,\n' \
        '  "noise": {"kind": "constant", "amplitude": NaN}\n}'
    inf_mean = '{\n  "speckle": {"width": 16, "height": 16, "mean_intensity": Infinity},\n' \
        '  "object": {"pgm": "NaN.pgm"},\n  "count": 5\n}'
    overflow = '{"speckle": {"width": 16, "height": 16}, "object": {"builtin": "disk"}, "count": 5,' \
        ' "noise": {"kind": "constant", "amplitude": 1e999}}'
    for text, prefix in ((nan_amp, "x.json:5:"), (inf_mean, "x.json:2:"), (overflow, "x.json:1:")):
        with pytest.raises(ConfigurationError) as err:
            parse_config_text(text, path="x.json")
        assert str(err.value).startswith(prefix)


def test_errors_are_attributed_by_json_path():
    text = """{
  "speckle": {"width": 16, "height": 16,
    "seed": 3},
  "object": {"builtin": "disk"},
  "count": 5,
  "noise": {"kind": "gaussian_white", "amplitude": 1.0,
    "seed": -1}
}"""
    with pytest.raises(ConfigurationError) as err:
        parse_config_text(text, path="x.json")
    assert str(err.value).startswith("x.json:7:")
    assert "noise.seed" in str(err.value)
    # the same path inside a manifest is found under its "config" key
    manifest = json.dumps({"format": "ghostsim-manifest", "config": json.loads(text.replace("-1", "-2"))}, indent=2)
    with pytest.raises(ConfigurationError) as err:
        parse_config_text(manifest, path="m.json")
    bad_line = next(i for i, line in enumerate(manifest.splitlines(), 1) if '"seed": -2' in line)
    assert str(err.value).startswith(f"m.json:{bad_line}:")


_ALL_KEYS = """{
  "speckle": {
    "width": 16,
    "height": 16,
    "grain_radius": 2.0,
    "mean_intensity": 1.0,
    "seed": 0
  },
  "object": {
    "builtin": "disk"
  },
  "count": 20,
  "noise": {
    "position": "B",
    "kind": "sinusoid",
    "amplitude": 1.0,
    "frequency": 1.0,
    "sample_rate": 25.0,
    "seed": 0
  }
}"""


@pytest.mark.parametrize(
    "old, new, line, json_path",
    [
        ('"width": 16', '"width": 0', 3, "speckle.width"),
        ('"height": 16', '"height": 0', 4, "speckle.height"),
        ('"grain_radius": 2.0', '"grain_radius": 0', 5, "speckle.grain_radius"),
        ('"mean_intensity": 1.0', '"mean_intensity": -1', 6, "speckle.mean_intensity"),
        ('"seed": 0\n  },', '"seed": -1\n  },', 7, "speckle.seed"),
        ('"seed": 0\n  },', '"seed": 18446744073709551616\n  },', 7, "speckle.seed"),  # 2**64: beyond the Philox key
        ('"builtin": "disk"', '"builtin": "bogus"', 10, "object.builtin"),
        ('"width": 16', '"width": 4', 10, "object.builtin"),  # builtin masks need 8x8
        ('"count": 20', '"count": 1', 12, "count"),
        ('"position": "B"', '"position": "Z"', 14, "noise.position"),
        ('"position": "B"', '"position": "C"', 14, "noise.position"),  # C needs noise.spatial
        ('"kind": "sinusoid"', '"kind": "bogus"', 15, "noise.kind"),
        ('"amplitude": 1.0', '"amplitude": -1', 16, "noise.amplitude"),
        ('"frequency": 1.0', '"frequency": -1', 17, "noise.frequency"),
        ('"frequency": 1.0', '"frequency": 1e308', 17, "noise.frequency"),  # 2*pi*f*t overflows: math.sin(inf) raised
        ('"sample_rate": 25.0', '"sample_rate": 0', 18, "noise.sample_rate"),
        ('"seed": 0\n  }\n}', '"seed": -1\n  }\n}', 19, "noise.seed"),
        ('"seed": 0\n  }\n}', '"seed": 0,\n    "spatial": {"region": "bogus"}\n  }\n}', 20, "noise.spatial.region"),
    ],
    ids=[
        "width", "height", "grain_radius", "mean_intensity", "speckle-seed", "speckle-seed-2**64", "builtin-name",
        "builtin-grid", "count", "position-name", "position-C-without-spatial", "kind", "amplitude", "frequency",
        "frequency-overflow", "sample_rate", "noise-seed", "spatial-region",
    ],
)
def test_range_and_name_errors_carry_line_and_json_path(old, new, line, json_path):
    assert _ALL_KEYS.count(old) == 1
    with pytest.raises(ConfigurationError) as err:
        parse_config_text(_ALL_KEYS.replace(old, new), path="x.json")
    assert str(err.value).startswith(f"x.json:{line}: {json_path}: ")


@pytest.mark.parametrize(
    "old, new, line, message",
    [
        ('"amplitude": 1.0', '"amplitude_rel_std": -1', 16, "noise.amplitude_rel_std must be >= 0"),
        ('"seed": 0\n  }\n}', '"seed": 0,\n    "spatial": {"region": "custom"}\n  }\n}', 20, "requires a pgm weights path"),
        ('"seed": 0\n  }\n}', '"seed": 0,\n    "spatial": {"region": "full", "pgm": "w.pgm"}\n  }\n}', 20, "spatial.pgm only applies"),
        ('"seed": 0\n  }\n}', '"seed": 0\n  },\n  "output": {"igi_normalization": "bogus"}\n}', 21, "igi_normalization must be one of"),
    ],
    ids=["negative-amplitude_rel_std", "custom-without-pgm", "pgm-without-custom", "igi_normalization"],
)
def test_rules_between_keys_carry_line(old, new, line, message):
    assert _ALL_KEYS.count(old) == 1
    with pytest.raises(ConfigurationError) as err:
        parse_config_text(_ALL_KEYS.replace(old, new), path="x.json")
    assert str(err.value).startswith(f"x.json:{line}: ") and message in str(err.value)


def _schema_paths(table: dict, path: tuple = ()) -> list:
    """(path, JSON type) of every key in the schema; sections and an unknown key in each section have type None."""
    paths = [((*path, "bogus"), None)]
    for key, (kind, _) in table.items():
        if isinstance(kind, dict):
            paths += [((*path, key), None), *_schema_paths(kind, (*path, key))]
        else:
            paths.append(((*path, key), kind))
    return paths


_NAMES = ["none", "A", "B", "C", "off", "constant", "sinusoid", "gaussian_white", "poisson", "full", "right_half",
          "custom", "disk", "TH", "unbiased", "paper-literal", ""]
# ints are small or past numpy's index range (2**63): a grid in between would really be allocated
_INTS = st.integers(-3, 40) | st.integers(10**19, 10**400) | st.integers(-(10**400), -(10**19))
_TYPED = {int: _INTS, float: _INTS | st.floats(), str: st.sampled_from(_NAMES) | st.text(max_size=4), bool: st.booleans()}
_SCALARS = st.none() | st.one_of(*_TYPED.values())
_KEYS = st.sampled_from(sorted({path[-1] for path, _ in _schema_paths(_SCHEMA)})) | st.text(max_size=4)
_VALUES = st.recursive(
    _SCALARS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_KEYS, inner, max_size=3), max_leaves=6
)
# (path, delete?, value): half the values have the key's own JSON type, so the checks past the walk are reached too
_EDITS = st.lists(
    st.sampled_from(_schema_paths(_SCHEMA)).flatmap(
        lambda pk: st.tuples(st.just(pk[0]), st.booleans(), _TYPED.get(pk[1], _VALUES) | _VALUES)
    ),
    min_size=1, max_size=2,
)
# the object's pgm path: None keeps the builtin mask, "mask" is a valid 16x16 mask, the rest are hostile paths
_OBJECT_PGM = st.none() | st.sampled_from(["mask", "absent.pgm", ".", "nul\0.pgm", "README.md"]) | st.text(max_size=4)


@pytest.fixture(scope="module")
def mask_pgm(tmp_path_factory):
    path = tmp_path_factory.mktemp("mask") / "m.pgm"
    save_mask(np.tri(16), path)
    return str(path)


@settings(max_examples=500, derandomize=True, database=None, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(edits=_EDITS, object_pgm=_OBJECT_PGM, as_manifest=st.booleans())
@example(edits=[(("speckle", "width"), False, 10**19)], object_pgm=None, as_manifest=False)  # numpy: ValueError
@example(edits=[(("count",), False, 20)], object_pgm="nul\0.pgm", as_manifest=False)  # open(): ValueError
def test_any_edit_at_a_schema_path_parses_or_fails_with_line(mask_pgm, edits, object_pgm, as_manifest):
    cfg = json.loads(_ALL_KEYS)
    if object_pgm is not None:
        cfg["object"] = {"pgm": mask_pgm if object_pgm == "mask" else object_pgm}
    for path, delete, value in edits:
        node = cfg
        for key in path[:-1]:
            if not isinstance(node.get(key), dict):
                node[key] = {}
            node = node[key]
        if delete:
            node.pop(path[-1], None)
        else:
            node[path[-1]] = value
    doc = {"format": "ghostsim-manifest", "config": cfg} if as_manifest else cfg
    text = json.dumps(doc, indent=2)
    try:
        parsed = parse_config_text(text, path="x.json")
    except ConfigurationError as exc:
        assert re.match(r"x\.json:\d+: ", str(exc))
    except (OSError, PgmFormatError):
        assert '"pgm": "' in text
    except ContractError as exc:  # a builtin mask too large to allocate
        assert "GB" in str(exc)
    else:
        assert parse_config_text(json.dumps(parsed)) == parsed  # a parsed config parses to itself
