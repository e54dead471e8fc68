"""Config parsing, validation, canonical serialization and hashing."""

import dataclasses
import functools
import math
import random
import typing

import numpy as np
import pytest
import yaml

from brakeopt import BrakeOptError, MeanOutOfSupport, ParseError, ValidationError
from brakeopt import config as cfgmod
from brakeopt import mc_uq
from brakeopt.config import (
    _NU_MAX,
    _SCHEMA,
    Config,
    McSettings,
    _coerce,
    config_sha256,
    config_to_text,
    default_config,
    default_config_path,
    load_config,
    parse_config_text,
)


def test_default_config_carries_shipped_values(cfg):
    g = cfg.geometry
    assert (g.a, g.b, g.c, g.d, g.e) == (55.0, 16.6, 52.7, 34.5, 60.7)
    assert (g.f, g.l, g.m, g.n, g.R) == (0.005, 49.0, 40.0, 17.5, 29.0)
    assert (cfg.friction.mu1, cfg.friction.mu2, cfg.friction.mu4) == (0.1, 0.1, 0.15)
    assert (cfg.loads.Fg_kN, cfg.loads.Fb_kN) == (50.0, 30.0)
    rm = cfg.random
    assert (rm.alpha_lo_deg, rm.alpha_hi_deg, rm.alpha_mean_deg) == (0.0, 18.0, 6.0)
    assert (rm.fs_lo_kN, rm.fs_hi_kN, rm.fs_mean_kN) == (0.0, 56.0, 42.0)
    assert (cfg.mc.nu, cfg.mc.seed) == (4096, 0)
    box = cfg.design.box
    assert (box.a_min, box.a_max, box.c_min, box.c_max) == (50.0, 60.0, 50.0, 55.0)
    w = cfg.design.weights
    assert (w.beta1, w.beta2, w.beta3, w.beta4) == (0.2, 0.2, 0.2, 0.4)
    assert (cfg.design.constraint.y_star, cfg.design.constraint.p_r) == (0.5, 0.05)
    assert (cfg.output.grid_nx, cfg.output.grid_ny) == (101, 51)


def test_round_trip_serialization(cfg):
    assert parse_config_text(config_to_text(cfg)) == cfg


def test_round_trip_survives_extreme_float_reprs(cfg):
    # values whose repr has a dot-less exponent must still round-trip
    text = config_to_text(cfg).replace("geometry.f_mm: 0.005\n", "geometry.f_mm: 1e-05\n")
    parsed = parse_config_text(text)
    assert parsed.geometry.f == 1e-05
    assert parse_config_text(config_to_text(parsed)) == parsed


def test_omitted_optional_sections_get_defaults(cfg):
    text = "".join(line for line in config_to_text(cfg).splitlines(keepends=True)
                   if not line.startswith(("mc.", "design.", "output.")))
    parsed = parse_config_text(text)
    assert (parsed.mc.nu, parsed.mc.seed) == (4096, 0)
    assert parsed.design == cfg.design
    assert parsed.output == cfg.output


def test_missing_required_key_is_rejected(cfg):
    text = config_to_text(cfg).replace("geometry.a_mm: 55.0\n", "")
    with pytest.raises(ParseError, match="geometry.a_mm"):
        parse_config_text(text)


def test_broken_yaml_reports_line():
    with pytest.raises(ParseError) as err:
        parse_config_text("geometry.a_mm: [unterminated\n")
    assert err.value.line == 2
    shipped = default_config_path().read_text()
    # a non-printable character, and scalars that YAML reads but Python cannot build
    for text in (shipped + 'geometry.zz_mm: "\x00"\n', shipped + "geometry.zz_mm: 2020-13-45\n",
                 shipped.replace("geometry.a_mm: 55.0\n", "geometry.a_mm: 1" + "0" * 5000 + "\n")):
        with pytest.raises(ParseError, match="invalid YAML"):
            parse_config_text(text)


def test_integer_keys_reject_floats(cfg):
    text = config_to_text(cfg).replace("mc.nu: 4096\n", "mc.nu: 4096.5\n")
    with pytest.raises(ParseError, match="mc.nu"):
        parse_config_text(text)


def test_mean_outside_support_is_rejected_at_parse(cfg):
    text = config_to_text(cfg).replace("random.fs_mean_kN: 42.0\n", "random.fs_mean_kN: 60.0\n")
    with pytest.raises(MeanOutOfSupport):
        parse_config_text(text)


def test_hash_ignores_output_routing_but_not_model(cfg):
    base = config_sha256(cfg)
    moved = parse_config_text(config_to_text(cfg).replace("output.dir: out\n",
                                                          "output.dir: elsewhere\n"))
    reseeded = parse_config_text(config_to_text(cfg).replace("mc.seed: 0\n", "mc.seed: 9\n"))
    assert config_sha256(moved) == base
    assert config_sha256(reseeded) != base


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ParseError):
        load_config(tmp_path / "nope.yaml")
    not_utf8 = tmp_path / "latin-1.yaml"
    not_utf8.write_bytes(default_config_path().read_bytes() + b"# \xff\n")
    with pytest.raises(ParseError, match="cannot read config file"):
        load_config(not_utf8)


def _field_types(cls, prefix=""):
    """(field path, annotated type) of every non-dataclass field under ``cls``."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(hints[f.name]):
            yield from _field_types(hints[f.name], f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, hints[f.name]


def test_schema_maps_every_section_field_exactly_once():
    fields = dict(_field_types(Config))
    paths = [path for path, _ in _SCHEMA.values()]
    assert sorted(paths) == sorted(fields)
    assert dict(_SCHEMA.values()) == fields


def _shipped_with(key, value):
    """The shipped document with ``key`` set to ``value``, and that line's number."""
    lines = default_config_path().read_text().splitlines(keepends=True)
    index = next(i for i, line in enumerate(lines) if line.startswith(key + ":"))
    lines[index] = f"{key}: {value}\n"
    return "".join(lines), index + 1


# an integer of 401 digits is beyond the float range
_WRONG_TYPE = {int: ("4096.5", "true"), float: ("abc", "true", "1" + "0" * 400), str: ("5",)}


@pytest.mark.parametrize("key", list(_SCHEMA))
def test_every_key_enforces_its_schema_type(key):
    path, kind = _SCHEMA[key]
    for value in _WRONG_TYPE[kind]:
        text, line = _shipped_with(key, value)
        with pytest.raises(ParseError) as err:
            parse_config_text(text)
        assert (err.value.key, err.value.line) == (key, line), value
    if kind is float:
        # YAML reads '3' as an int and the dot-less '1e-5' as a string
        for value, expected in (("3", 3.0), ("1e-5", 1e-5)):
            got = _coerce(key, yaml.safe_load(f"{key}: {value}")[key])
            assert got == (path, expected) and type(got[1]) is float, value


def test_repeated_key_is_rejected_at_the_repeat():
    text = default_config_path().read_text()
    with pytest.raises(ParseError, match="duplicate") as err:
        parse_config_text(text + "geometry.a_mm: 58.0\n")
    assert (err.value.key, err.value.line) == ("geometry.a_mm", len(text.splitlines()) + 1)


def _misspelt():
    """(document, key, line) of an unknown or mistyped key in a quoted or a
    flow-style spelling, which a line-by-line scan of the text would miss."""
    text = default_config_path().read_text()
    end = len(text.splitlines()) + 1
    flow = config_to_text(default_config()).splitlines()
    mistyped, line = _shipped_with("mc.nu", 1.5)
    return [pytest.param(text + '"geometry.zz_mm": 1.0\n', "geometry.zz_mm", end,
                         id="double-quoted"),
            pytest.param(text + "'geometry.zz_mm': 1.0\n", "geometry.zz_mm", end,
                         id="single-quoted"),
            pytest.param("{" + ",\n ".join(flow) + ", geometry.zz_mm: 1.0}\n",
                         "geometry.zz_mm", len(flow), id="flow-style"),
            pytest.param(mistyped.replace("\nmc.nu:", '\n"mc.nu":'), "mc.nu", line,
                         id="quoted-mistyped")]


MISSPELT = _misspelt()


@pytest.mark.parametrize("text, key, line", MISSPELT)
def test_parse_error_takes_the_key_line_from_the_yaml_parse(text, key, line):
    with pytest.raises(ParseError) as err:
        parse_config_text(text)
    assert (err.value.key, err.value.line) == (key, line)


def test_overrides_are_checked_like_file_values():
    path = default_config_path()
    cfg = load_config(path, {"mc.seed": 5, "output.grid_nx": 7, "output.dir": "elsewhere"})
    assert (cfg.mc.seed, cfg.output.grid_nx, cfg.output.dir) == (5, 7, "elsewhere")
    assert cfg.geometry == default_config().geometry
    with pytest.raises(ParseError) as err:
        load_config(path, {"mc.nu": 1.5})
    assert (err.value.key, err.value.line) == ("mc.nu", None)
    with pytest.raises(ValidationError, match="mc.nu"):
        load_config(path, {"mc.nu": 0})


def test_nu_is_bounded_by_the_largest_uniform_matrix_numpy_accepts():
    assert McSettings(nu=_NU_MAX).nu == _NU_MAX
    with pytest.raises(ValidationError, match="mc.nu"):
        McSettings(nu=_NU_MAX + 1)
    # numpy refuses the (nu, 2) matrix above the bound before it allocates anything
    with pytest.raises(ValueError):
        np.empty((_NU_MAX + 1, 2))


def _refusal(build, value):
    """What ``build(value)`` raises: (error class, exit code, the value the
    error names), or None."""
    try:
        build(value)
    except BrakeOptError as exc:
        return type(exc), exc.exit_code, getattr(exc, "value", getattr(exc, "mean", None))
    return None


# a value out of range for each numeric key: out of the key's own range or,
# for a design bound, a support bound or a mean, out of what the other
# fields of its section allow
_OUT_OF_RANGE = {
    **{key: 0.0 for key in _SCHEMA if key.startswith("geometry.")},
    "friction.mu1": 0.0, "friction.mu2": 1.0, "friction.mu4": -0.1,
    "loads.Fg_kN": -1.0, "loads.Fb_kN": -1.0,
    "random.alpha_lo_deg": -1.0, "random.alpha_hi_deg": 90.0, "random.alpha_mean_deg": 18.0,
    "random.fs_lo_kN": -1.0, "random.fs_hi_kN": 0.0, "random.fs_mean_kN": 0.0,
    "mc.nu": 0, "mc.seed": 2**64,
    "design.a_min_mm": 0.0, "design.a_max_mm": 49.0, "design.c_min_mm": 0.0,
    "design.c_max_mm": 49.0, "design.beta1": -0.1, "design.beta2": 1.1, "design.beta3": -0.1,
    "design.beta4": 1.1, "design.y_star_kN": -1.0, "design.p_r": 1.0,
    "output.grid_nx": 1, "output.grid_ny": 1,
}
_MEAN_KEYS = ("random.alpha_mean_deg", "random.fs_mean_kN")


@pytest.mark.parametrize("key", [key for key, (_, kind) in _SCHEMA.items() if kind is not str])
def test_every_numeric_key_refuses_a_bool_a_nan_an_inf_and_a_value_out_of_range(cfg, key):
    path, kind = _SCHEMA[key]
    *section, field = path.split(".")
    shipped = functools.reduce(getattr, section, cfg)

    def build(value):
        return dataclasses.replace(shipped, **{field: value})
    # the key's own rule refuses each of these and names it, not a rule of the
    # whole section: True would pass as 1 wherever 1 is in range, and an int
    # beyond a float's range is no float.  A mean outside its support, nan
    # and inf included, exits 14; a bool mean exits 11
    for value in (True, math.nan, math.inf, *([10**400] if kind is float else [])):
        mean_out = key in _MEAN_KEYS and value is not True
        want = (MeanOutOfSupport, 14) if mean_out else (ValidationError, 11)
        assert _refusal(build, value) == (*want, value), value
    want = (MeanOutOfSupport, 14) if key in _MEAN_KEYS else (ValidationError, 11)
    assert _refusal(build, _OUT_OF_RANGE[key])[:2] == want


# the library's input fields that no config key sets, each with a value out of
# its range: the nominal load case's and a fitted law's fields, and the
# arguments of the uniform draw and of the sample transform
_LIBRARY_OUT_OF_RANGE = {
    "LoadCase.Fg": -1.0, "LoadCase.Fb": -1.0, "LoadCase.Fs": -1.0, "LoadCase.alpha": math.pi / 2,
    "TruncatedExponential.lo": 18.0, "TruncatedExponential.hi": 0.0,
    "TruncatedExponential.rate": -math.inf,
    "draw_uniform_matrix.seed": 2**64, "draw_uniform_matrix.nu": 0,
    "sample_inputs.freeze_alpha_deg": 90.0, "sample_inputs.freeze_fs_kn": -1.0,
}


@pytest.mark.parametrize("field", list(_LIBRARY_OUT_OF_RANGE))
def test_every_library_input_refuses_a_bool_a_nan_an_inf_and_a_value_out_of_range(
        setup, input_model, field):
    owner, name = field.split(".")
    build = {
        "LoadCase": lambda v: dataclasses.replace(setup.nominal, **{name: v}),
        "TruncatedExponential": lambda v: dataclasses.replace(input_model.alpha_dist, **{name: v}),
        "draw_uniform_matrix": lambda v: mc_uq.draw_uniform_matrix(**{"seed": 0, "nu": 2, name: v}),
        "sample_inputs": lambda v: mc_uq.sample_inputs(input_model, np.full((1, 2), 0.5),
                                                       **{name: v}),
    }[owner]
    for value in (True, math.nan, math.inf):
        assert _refusal(build, value) == (ValidationError, 11, value), value
    assert _refusal(build, _LIBRARY_OUT_OF_RANGE[field])[:2] == (ValidationError, 11)


class _PurePythonLoader(yaml.SafeLoader):
    """The config loader on PyYAML's pure-Python scanner and parser: the
    reference that the libyaml loader is compared against."""

    key_lines = None
    construct_mapping = cfgmod._UniqueKeyLoader.construct_mapping


def _outcome(text, loader):
    """The canonical text of the parsed config, or the error that
    ``parse_config_text`` raises, when it parses with ``loader``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cfgmod, "_UniqueKeyLoader", loader)
        try:
            return config_to_text(parse_config_text(text))
        except BrakeOptError as exc:
            return type(exc).__name__, exc.exit_code, getattr(exc, "line", None), \
                getattr(exc, "key", None)


# one token each, inserted at random places into the shipped document
_TOKENS = {
    "nul": "\x00", "bel": "\x07", "nel": "\x85", "tab": "\t", "bom": "\ufeff", "dquote": '"',
    "squote": "'", "bracket": "[", "brace": "{", "anchor": "&a ", "alias": "*a",
    "str-tag": "!!str ", "int-tag": "!!int ", "local-tag": "!x ", "complex-key": "? ",
    "sequence": "- ", "doc-start": "---", "doc-end": "...", "directive": "%YAML 1.1",
    "crlf": "\r\n", "cr": "\r", "comment": "#", "colon": ": ", "literal": "|", "folded": ">",
    "null": "~", "hex": "0x1F", "underscore": "1_000", "dotless-exp": "1e5", "inf": ".inf",
    "bad-date": "2020-13-45", "bool": "yes", "huge-int": "1" + "0" * 4999,
}
# libyaml reads a tab as whitespace around a key or a value and as part of a
# plain scalar, and skips a byte-order mark at the start of a blank or
# comment line; PyYAML's parser refuses both
_LIBYAML_ONLY = ("\t", "\ufeff")


def _with_token(token, rng):
    lines = default_config_path().read_text().splitlines(keepends=True)
    i = rng.randrange(len(lines))
    j = rng.randrange(len(lines[i]))  # before any character of the line, its break included
    lines[i] = lines[i][:j] + token + lines[i][j:]
    return "".join(lines)


def _broken_documents():
    """Every broken config document of the tests above."""
    shipped = default_config_path().read_text()
    canonical = config_to_text(default_config())
    yield "geometry.a_mm: [unterminated\n"
    yield shipped + 'geometry.zz_mm: "\x00"\n'
    yield shipped + "geometry.zz_mm: 2020-13-45\n"
    yield shipped.replace("geometry.a_mm: 55.0\n", "geometry.a_mm: 1" + "0" * 5000 + "\n")
    yield shipped + "geometry.a_mm: 58.0\n"
    for old, new in (("friction.mu1: 0.1\n", "friction.mu1: 1.5\n"),
                     ("geometry.a_mm: 55.0\n", ""),
                     ("mc.nu: 4096\n", "mc.nu: 4096.5\n"),
                     ("random.fs_mean_kN: 42.0\n", "random.fs_mean_kN: 60.0\n")):
        yield canonical.replace(old, new)
    yield canonical + "geometry.q_mm: 1.0\n"
    for key, (_, kind) in _SCHEMA.items():
        for value in _WRONG_TYPE[kind]:
            yield _shipped_with(key, value)[0]
    yield _shipped_with("mc.nu", _NU_MAX + 1)[0]
    for param in MISSPELT:
        yield param.values[0]


@pytest.mark.parametrize("token", [pytest.param(t, id=name) for name, t in _TOKENS.items()]
                         + [pytest.param(None, id="broken-documents")])
def test_libyaml_loader_agrees_with_the_pure_python_parser(token):
    if token is None:
        docs = list(_broken_documents())
    else:
        rng = random.Random(token)
        docs = [_with_token(token, rng) for _ in range(30)]
    for doc in docs:
        got, reference = _outcome(doc, cfgmod._UniqueKeyLoader), _outcome(doc, _PurePythonLoader)
        if got == reference:
            continue
        # the one difference allowed: libyaml reads a tab or a byte-order mark
        # that PyYAML refuses, and then either agrees with the document
        # without it or fails at the same line, naming a key or not
        assert token in _LIBYAML_ONLY and isinstance(reference, tuple), (doc, got, reference)
        if isinstance(got, str):
            assert got == _outcome(doc.replace(token, ""), _PurePythonLoader), doc
        else:
            assert got[0] == "ParseError" and got[:3] == reference[:3], (doc, got, reference)
