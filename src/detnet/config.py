"""Flat key-value run configuration: parsing, validation, emission.

Format: one `key = value` per line, `#` starts a comment, blank lines ignored.
The keys are the fields of `ModelParams`, `ArchitectureSpec` and `RunConfig`;
the dataclass that owns a key validates it, and a rejected value is reported
with its key and line. Emission writes full-precision floats, so a
parse/emit round trip is lossless.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields

from detnet.scaling import ArchitectureSpec, ModelParams

__all__ = ["RunConfig", "ConfigError", "parse_config", "emit_config", "DEFAULT_EXPONENTS"]

DEFAULT_MASSES = [1.0, 10.0, 100.0, 1000.0, 10000.0]
DEFAULT_EXPONENTS = [i / 20 for i in range(21)]

_NONE_WORDS = {"model3_exponent": "auto", "site": "random"}  # the words for a None value


class ConfigError(ValueError):
    def __init__(self, message: str, key: str | None = None, line: int | None = None):
        where = (f"line {line}: " if line is not None else "") + (
            f"key '{key}': " if key is not None else "")
        super().__init__(where + message)
        self.key, self.line = key, line


@dataclass
class RunConfig:
    """Everything a run needs: model constants, architecture, grids, IO."""

    params: ModelParams = field(default_factory=ModelParams)
    arch: ArchitectureSpec = field(default_factory=ArchitectureSpec)
    masses: list[float] = field(default_factory=lambda: list(DEFAULT_MASSES))
    exponents: list[float] = field(default_factory=lambda: list(DEFAULT_EXPONENTS))
    mode: str = "spatial"
    movement: str = "straight"
    trials: int = 1
    seed: int = 42
    output: str = "out.csv"
    detectors: int = 1
    walk_step: float = 0.1
    grid_resolution: float = 0.01
    model3_exponent: float | None = None  # None = optimize per mass
    site: tuple[float, ...] | None = None  # None = uniform random

    def __post_init__(self):
        m3, site, d = self.model3_exponent, self.site, self.arch.dimension
        for name, ok, requirement in (
            ("masses", self.masses and all(0.0 < m < math.inf for m in self.masses),
             "a non-empty list of finite values > 0"),
            ("exponents", self.exponents and all(0.0 <= x <= 1.0 for x in self.exponents),
             "a non-empty list of values in [0, 1]"),
            ("mode", self.mode in ("spatial", "contention"), "'spatial' or 'contention'"),
            ("movement", self.movement in ("straight", "random_walk"),
             "'straight' or 'random_walk'"),
            ("trials", self.trials >= 1, ">= 1"),
            ("seed", self.seed >= 0, ">= 0"),
            ("detectors", self.detectors >= 1, ">= 1"),
            ("walk_step", 0.0 < self.walk_step < math.inf, "finite and > 0"),
            ("grid_resolution", 0.0 < self.grid_resolution <= 1.0, "in (0, 1]"),
            ("model3_exponent", m3 is None or 0.0 <= m3 <= 1.0, "in [0, 1] or None (auto)"),
            ("site", site is None or len(site) == d, f"None (random) or {d} coordinates"),
        ):
            if not ok:
                raise ValueError(f"{name} must be {requirement}, got {getattr(self, name)!r}")


def _kind(f):
    # values are parsed and written by the type of the field's default;
    # a None default holds a float, except `site`, a tuple of floats
    default = f.default_factory() if f.default is MISSING else f.default
    return tuple if f.name == "site" else float if default is None else type(default)


_OWNERS = (ModelParams, ArchitectureSpec, RunConfig)
# key -> (owner, kind) in emission order; `params` and `arch` are owners, not keys
_KEYS = {f.name: (owner, _kind(f)) for owner in _OWNERS for f in fields(owner)
         if f.default_factory not in _OWNERS}


def _parse_value(key: str, kind, text: str, line: int):
    if text == _NONE_WORDS.get(key):
        return None
    try:
        if kind in (list, tuple):
            return kind(float(part) for part in text.replace(",", " ").split())
        return kind(text)
    except ValueError:
        expected = {int: "an integer", float: "a number"}.get(kind, "a list of numbers")
        raise ConfigError(f"expected {expected}, got {text!r}", key, line) from None


def _format(key: str, kind, value) -> str:
    if value is None:
        return _NONE_WORDS[key]
    if kind in (list, tuple):
        return " ".join(repr(float(x)) for x in value)
    return repr(float(value)) if kind is float else str(value)


def _build(owner, given: dict, lines: dict, **fixed):
    """Construct `owner`; if it refuses, find the key it refuses alone."""
    try:
        return owner(**fixed, **given)
    except ValueError as exc:
        for key, value in given.items():
            try:
                owner(**fixed, **{key: value})
            except ValueError as own:
                raise ConfigError(str(own), key, lines[key]) from None
        raise ConfigError(str(exc)) from None


def parse_config(text: str) -> RunConfig:
    """Parse and validate configuration text; omitted keys take their defaults."""
    given: dict = {owner: {} for owner in _OWNERS}
    lines: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got {stripped!r}", line=lineno)
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEYS:
            raise ConfigError("unknown key", key, lineno)
        if not value:
            raise ConfigError("missing value", key, lineno)
        owner, kind = _KEYS[key]
        given[owner][key], lines[key] = _parse_value(key, kind, value, lineno), lineno
    params = _build(ModelParams, given[ModelParams], lines)
    arch = _build(ArchitectureSpec, given[ArchitectureSpec], lines)
    return _build(RunConfig, given[RunConfig], lines, params=params, arch=arch)


def emit_config(cfg: RunConfig) -> str:
    """Serialize a config so that parse(emit(cfg)) reproduces it exactly."""
    sources = {ModelParams: cfg.params, ArchitectureSpec: cfg.arch, RunConfig: cfg}
    return "".join(f"{key} = {_format(key, kind, getattr(sources[owner], key))}\n"
                   for key, (owner, kind) in _KEYS.items())
