"""Config ingestion: one flat, unit-suffixed key per value.

The canonical format is a flat YAML mapping whose keys look like
``geometry.a_mm: 55.0``.  Exactly the keys of ``_SCHEMA`` are accepted, each
once; unknown or repeated keys are rejected so typos cannot silently fall
back to defaults.  The ``geometry``, ``friction``, ``loads`` and ``random``
sections are required, while omitted ``mc``, ``design`` and ``output`` keys
take their dataclass field defaults.  Building the dataclasses, at parse
time, checks each numeric field by one rule, ``errors.check_real`` (a finite
number, not a bool, in its range), and the rules across fields.

The document is parsed by libyaml's C parser (``yaml.CSafeLoader``), about
ten times as fast as PyYAML's pure-Python one; there is no fallback, so a
PyYAML built without libyaml fails at import.  Broken YAML raises
``ParseError`` with its line and libyaml's wording.  libyaml accepts a tab
used as whitespace around a key or a value, and a byte-order mark at the
start of a blank or comment line, where PyYAML's own parser refuses both.
"""

# no ``from __future__ import annotations``: _build and _leaves read the
# nested section classes from the field types of Config and DesignSettings
import contextlib
import dataclasses
import functools
import hashlib
import json
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from . import maxent, mechmodel, optimizer
from .errors import MeanOutOfSupport, ParseError, ValidationError, check_real


@dataclass(frozen=True)
class Loads:
    Fg_kN: float
    Fb_kN: float

    def __post_init__(self):
        for name in ("Fg_kN", "Fb_kN"):
            check_real(f"load {name} must be >= 0", getattr(self, name), 0.0)


@dataclass(frozen=True)
class RandomModel:
    alpha_lo_deg: float
    alpha_hi_deg: float
    alpha_mean_deg: float
    fs_lo_kN: float
    fs_hi_kN: float
    fs_mean_kN: float

    def __post_init__(self):
        for v in (self.alpha_lo_deg, self.alpha_hi_deg):
            check_real("alpha support must lie in [0, 90) deg", v, 0.0, 90.0, closed="[)")
        for v in (self.fs_lo_kN, self.fs_hi_kN):
            check_real("Fs support must be finite and non-negative", v, 0.0)
        supports = (("alpha", self.alpha_lo_deg, self.alpha_hi_deg, self.alpha_mean_deg),
                    ("Fs", self.fs_lo_kN, self.fs_hi_kN, self.fs_mean_kN))
        for name, lo, hi, _ in supports:
            if not lo < hi:
                raise ValidationError(f"{name} support requires lo < hi", (lo, hi))
        for name, lo, hi, mean in supports:
            # a nan or infinite mean lies outside the support: exit 14, not 11
            if not lo < mean < hi:
                raise MeanOutOfSupport(lo, hi, mean)
            check_real(f"{name} mean must be a number, not a bool", mean)


# the largest nu whose (nu, 2) float64 uniform matrix numpy will try to
# allocate; above it numpy raises ValueError (2**59 - 1 on 64-bit platforms)
_NU_MAX = np.iinfo(np.intp).max // 16


@dataclass(frozen=True)
class McSettings:
    nu: int = 4096
    seed: int = 0

    def __post_init__(self):
        check_real(f"mc.nu must be an integer in [1, {_NU_MAX}]", self.nu, 1, _NU_MAX, integer=True)
        check_real("mc.seed must be a 64-bit unsigned integer", self.seed, 0, 2**64 - 1,
                   integer=True)


@dataclass(frozen=True)
class DesignSettings:
    box: optimizer.DesignBox
    weights: optimizer.RobustWeights
    constraint: optimizer.ConstraintSpec


@dataclass(frozen=True)
class OutputSettings:
    dir: str = "out"
    grid_nx: int = 101
    grid_ny: int = 51

    def __post_init__(self):
        if self.dir == "":  # Path("") is the current directory
            raise ValidationError("output.dir must name a directory", self.dir)
        for n in (self.grid_nx, self.grid_ny):
            check_real("output grid must be at least 2x2", n, 2, integer=True)


@dataclass(frozen=True)
class Config:
    geometry: mechmodel.BrakeGeometry
    friction: mechmodel.FrictionSet
    loads: Loads
    random: RandomModel
    mc: McSettings
    design: DesignSettings
    output: OutputSettings


# flat key -> (field path in Config, type), in serialization order.  Optional
# keys take their defaults from the dataclass fields; a key whose field has
# no default is required.
_SCHEMA = {
    "geometry.a_mm": ("geometry.a", float), "geometry.b_mm": ("geometry.b", float),
    "geometry.c_mm": ("geometry.c", float), "geometry.d_mm": ("geometry.d", float),
    "geometry.e_mm": ("geometry.e", float), "geometry.f_mm": ("geometry.f", float),
    "geometry.l_mm": ("geometry.l", float), "geometry.m_mm": ("geometry.m", float),
    "geometry.n_mm": ("geometry.n", float), "geometry.R_mm": ("geometry.R", float),
    "friction.mu1": ("friction.mu1", float), "friction.mu2": ("friction.mu2", float),
    "friction.mu4": ("friction.mu4", float),
    "loads.Fg_kN": ("loads.Fg_kN", float), "loads.Fb_kN": ("loads.Fb_kN", float),
    "random.alpha_lo_deg": ("random.alpha_lo_deg", float),
    "random.alpha_hi_deg": ("random.alpha_hi_deg", float),
    "random.alpha_mean_deg": ("random.alpha_mean_deg", float),
    "random.fs_lo_kN": ("random.fs_lo_kN", float),
    "random.fs_hi_kN": ("random.fs_hi_kN", float),
    "random.fs_mean_kN": ("random.fs_mean_kN", float),
    "mc.nu": ("mc.nu", int), "mc.seed": ("mc.seed", int),
    "design.a_min_mm": ("design.box.a_min", float),
    "design.a_max_mm": ("design.box.a_max", float),
    "design.c_min_mm": ("design.box.c_min", float),
    "design.c_max_mm": ("design.box.c_max", float),
    "design.beta1": ("design.weights.beta1", float),
    "design.beta2": ("design.weights.beta2", float),
    "design.beta3": ("design.weights.beta3", float),
    "design.beta4": ("design.weights.beta4", float),
    "design.y_star_kN": ("design.constraint.y_star", float),
    "design.p_r": ("design.constraint.p_r", float),
    "output.dir": ("output.dir", str),
    "output.grid_nx": ("output.grid_nx", int), "output.grid_ny": ("output.grid_ny", int),
}


def _leaves(cls, prefix=""):
    """(field path, field) of every non-dataclass field under dataclass ``cls``."""
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(f.type):
            yield from _leaves(f.type, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, f


_REQUIRED = frozenset(path for path, f in _leaves(Config) if f.default is dataclasses.MISSING)


def _build(cls, values, prefix=""):
    """Instance of dataclass ``cls`` from values keyed by field path.

    Nested dataclasses are built first, in field order, so the first invalid
    section in that order raises; absent fields keep their defaults.
    """
    kwargs = {}
    for f in dataclasses.fields(cls):
        path = prefix + f.name
        if dataclasses.is_dataclass(f.type):
            kwargs[f.name] = _build(f.type, values, path + ".")
        elif path in values:
            kwargs[f.name] = values[path]
    return cls(**kwargs)


class _UniqueKeyLoader(yaml.CSafeLoader):
    """Safe YAML loader on libyaml's C parser that refuses a key given twice
    in one mapping (plain ``safe_load`` keeps the last value without a word)
    and keeps the line of each key of the document's mapping in
    ``key_lines``."""

    key_lines = None

    def construct_mapping(self, node, deep=False):
        lines = {}
        for key_node, _ in node.value:
            if isinstance(key_node, yaml.ScalarNode):
                line = key_node.start_mark.line + 1
                if key_node.value in lines:
                    raise ParseError("duplicate config key", line=line, key=key_node.value)
                lines[key_node.value] = line
        if self.key_lines is None:  # the document's mapping is constructed first
            self.key_lines = lines
        # named, not super(): the tests' pure-Python reference loader shares this method
        return yaml.constructor.SafeConstructor.construct_mapping(self, node, deep)


def _coerce(key, value):
    """Field path of ``key`` and ``value`` as its schema type; a ValueError
    says what is wrong."""
    if key not in _SCHEMA:
        raise ValueError("unknown config key")
    path, kind = _SCHEMA[key]
    if kind is str:
        if not isinstance(value, str):
            raise ValueError(f"expected a string, got {value!r}")
        return path, value
    if kind is float and isinstance(value, str):
        # YAML 1.1 reads dot-less exponents ('1e-5') as strings; forgive that
        with contextlib.suppress(ValueError):
            value = float(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    if kind is int and isinstance(value, float):
        raise ValueError(f"expected an integer, got {value!r}")
    try:
        return path, kind(value)
    except OverflowError:
        raise ValueError("expected a number, got an integer too large for a float") from None


def parse_config_text(text: str, source: str = "<string>", overrides=None) -> Config:
    """Parse and fully validate a flat-key config document.

    ``overrides`` (flat key -> value) replace or add document values before
    the type checks, so they are validated exactly like the document.
    """
    try:
        # building the loader encodes the text, which fails on a lone surrogate
        loader = _UniqueKeyLoader(text)
        try:
            raw = loader.get_single_data()
        finally:
            loader.dispose()
    # a ValueError comes from a scalar that YAML reads but Python cannot
    # build: a date such as 2020-13-45, or an integer of over 4,300 digits
    except (yaml.YAMLError, ValueError) as exc:
        line = getattr(getattr(exc, "problem_mark", None), "line", None)
        raise ParseError(f"invalid YAML in {source}: {exc}",
                         line=None if line is None else line + 1) from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ParseError(f"{source} must be a flat mapping of 'section.key: value'")

    overrides = overrides or {}
    values = {}
    for key, value in {**raw, **overrides}.items():
        try:
            path, value = _coerce(key, value)
        except ValueError as exc:
            line = None if key in overrides else loader.key_lines.get(str(key))
            raise ParseError(f"{exc} in {source}", line=line, key=str(key)) from None
        values[path] = value

    missing = [key for key, (path, _) in _SCHEMA.items()
               if path in _REQUIRED and path not in values]
    if missing:
        raise ParseError(f"missing required keys in {source}: {', '.join(missing)}")
    return _build(Config, values)


def load_config(path, overrides=None) -> Config:
    """Read and parse a config file; ``overrides`` (flat key -> value) win
    over the file's values."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, source=str(path), overrides=overrides)


_PLAIN_STR = re.compile(r"^[A-Za-z0-9_./-]+$")


def _emit(value) -> str:
    if isinstance(value, float):
        text = repr(value)
        if "e" in text and "." not in text:
            # YAML floats need a dot; '1e-05' would read back as a string
            text = text.replace("e", ".0e")
        return text
    if isinstance(value, int):
        return str(value)
    if _PLAIN_STR.match(value):
        return value
    return json.dumps(value)


def config_to_text(cfg: Config) -> str:
    """Serialize to the canonical flat-key document (round-trips exactly)."""
    return "".join(f"{key}: {_emit(functools.reduce(getattr, path.split('.'), cfg))}\n"
                   for key, (path, _) in _SCHEMA.items())


def config_sha256(cfg: Config) -> str:
    """Hash of the model-determining keys (geometry through design).

    Output routing (``output.*``) is excluded on purpose: the same model
    written to two directories must produce byte-identical artifacts.
    """
    lines = [ln for ln in config_to_text(cfg).splitlines(keepends=True)
             if not ln.startswith("output.")]
    return hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()


def default_config_path() -> Path:
    return Path(str(resources.files("brakeopt").joinpath("data/default.yaml")))


def default_config() -> Config:
    return load_config(default_config_path())


def input_model_from(cfg: Config) -> maxent.InputModel:
    rm = cfg.random
    return maxent.InputModel(
        alpha_dist=maxent.fit_truncexp(rm.alpha_lo_deg, rm.alpha_hi_deg, rm.alpha_mean_deg),
        fs_dist=maxent.fit_truncexp(rm.fs_lo_kN, rm.fs_hi_kN, rm.fs_mean_kN))


def setup_from(cfg: Config) -> optimizer.ModelSetup:
    return optimizer.ModelSetup(geom=cfg.geometry, fric=cfg.friction, nominal=nominal_load(cfg))


def nominal_load(cfg: Config) -> mechmodel.LoadCase:
    return mechmodel.LoadCase.from_degrees(
        Fg=cfg.loads.Fg_kN, Fb=cfg.loads.Fb_kN,
        Fs=cfg.random.fs_mean_kN, alpha_deg=cfg.random.alpha_mean_deg)
