"""Flat key-value run configuration: parsing, validation, emission.

Format: one `key = value` per line, `#` starts a comment, blank lines
ignored. Unknown keys and malformed values are rejected with the offending
key and line number. Emission writes every key back with full-precision
floats so a parse/emit round trip is lossless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from detnet.scaling import ArchitectureSpec, ModelParams

__all__ = ["RunConfig", "ConfigError", "parse_config", "emit_config", "DEFAULT_EXPONENTS"]

DEFAULT_MASSES = [1.0, 10.0, 100.0, 1000.0, 10000.0]
DEFAULT_EXPONENTS = [i / 20 for i in range(21)]

_PARAM_KEYS = (
    "cognate_frequency",
    "bcrit_coefficient",
    "antibody_coefficient",
    "plasma_yield",
    "doubling_time",
    "detector_speed",
    "contact_latency",
    "contention_coefficient",
    "body_volume_coefficient",
    "recruit_transit_coefficient",
)
_ARCH_KEYS = ("exponent", "base_hub_count", "base_hub_size", "dimension")

_KNOWN_KEYS = set(_PARAM_KEYS) | set(_ARCH_KEYS) | {
    "recruitment_composition",
    "masses",
    "exponents",
    "mode",
    "movement",
    "trials",
    "seed",
    "output",
    "detectors",
    "walk_step",
    "grid_resolution",
    "limited_rho",
    "limited_lambda",
    "model3_exponent",
    "site",
}


class ConfigError(ValueError):
    def __init__(self, message: str, key: str | None = None, line: int | None = None):
        prefix = ""
        if line is not None:
            prefix += f"line {line}: "
        if key is not None:
            prefix += f"key '{key}': "
        super().__init__(prefix + message)
        self.key = key
        self.line = line


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
    limited_rho: float = 0.1
    limited_lambda: float = 0.1
    model3_exponent: float | None = None  # None = optimize per mass
    site: tuple[float, ...] | None = None  # None = uniform random


def _parse_float(raw: str, key: str, line: int) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"expected a number, got {raw!r}", key, line) from None


def _parse_int(raw: str, key: str, line: int) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"expected an integer, got {raw!r}", key, line) from None


def _parse_float_list(raw: str, key: str, line: int) -> list[float]:
    parts = raw.replace(",", " ").split()
    if not parts:
        raise ConfigError("expected a non-empty list of numbers", key, line)
    return [_parse_float(p, key, line) for p in parts]


def parse_config(text: str) -> RunConfig:
    """Parse and validate configuration text, applying documented defaults
    for omitted keys."""
    raw: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got {stripped!r}", line=lineno)
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ConfigError("unknown key", key, lineno)
        if not value:
            raise ConfigError("missing value", key, lineno)
        raw[key] = value
        lines[key] = lineno

    def fetch(key, parse, default, check=None, describe=""):
        if key not in raw:
            return default
        value = parse(raw[key], key, lines[key])
        if check is not None and not check(value):
            raise ConfigError(f"invalid value {value!r}{describe}", key, lines[key])
        return value

    def fetch_choice(key, choices, default):
        if key not in raw:
            return default
        value = raw[key]
        if value not in choices:
            raise ConfigError(f"expected one of {sorted(choices)}, got {value!r}",
                              key, lines[key])
        return value

    positive = lambda x: x > 0.0
    nonneg = lambda x: x >= 0.0

    params_kwargs = {
        "cognate_frequency": fetch("cognate_frequency", _parse_float, ModelParams.cognate_frequency,
                                   positive, " (must be > 0)"),
        "bcrit_coefficient": fetch("bcrit_coefficient", _parse_float, ModelParams.bcrit_coefficient,
                                   positive, " (must be > 0)"),
        "antibody_coefficient": fetch("antibody_coefficient", _parse_float, None,
                                      positive, " (must be > 0)"),
        "plasma_yield": fetch("plasma_yield", _parse_float, ModelParams.plasma_yield,
                              positive, " (must be > 0)"),
        "doubling_time": fetch("doubling_time", _parse_float, ModelParams.doubling_time,
                               positive, " (must be > 0)"),
        "detector_speed": fetch("detector_speed", _parse_float, ModelParams.detector_speed,
                                positive, " (must be > 0)"),
        "contact_latency": fetch("contact_latency", _parse_float, ModelParams.contact_latency,
                                 nonneg, " (must be >= 0)"),
        "contention_coefficient": fetch("contention_coefficient", _parse_float,
                                        ModelParams.contention_coefficient,
                                        nonneg, " (must be >= 0)"),
        "body_volume_coefficient": fetch("body_volume_coefficient", _parse_float,
                                         ModelParams.body_volume_coefficient,
                                         positive, " (must be > 0)"),
        "recruit_transit_coefficient": fetch("recruit_transit_coefficient", _parse_float,
                                             ModelParams.recruit_transit_coefficient,
                                             nonneg, " (must be >= 0)"),
        "recruitment_composition": fetch_choice("recruitment_composition",
                                                {"serial", "parallel"},
                                                ModelParams.recruitment_composition),
    }
    params = ModelParams(**params_kwargs)

    dimension = fetch("dimension", _parse_int, ArchitectureSpec.dimension,
                      lambda d: d in (1, 2, 3), " (must be 1, 2 or 3)")
    arch = ArchitectureSpec(
        exponent=fetch("exponent", _parse_float, ArchitectureSpec.exponent,
                       lambda a: 0.0 <= a <= 1.0, " (must be in [0, 1])"),
        base_hub_count=fetch("base_hub_count", _parse_float, ArchitectureSpec.base_hub_count,
                             lambda n: n >= 1.0, " (must be >= 1)"),
        base_hub_size=fetch("base_hub_size", _parse_float, ArchitectureSpec.base_hub_size,
                            positive, " (must be > 0)"),
        dimension=dimension,
    )

    masses = fetch("masses", _parse_float_list, list(DEFAULT_MASSES),
                   lambda ms: all(0.0 < m < math.inf for m in ms),
                   " (masses must be finite and > 0)")
    exponents = fetch("exponents", _parse_float_list, list(DEFAULT_EXPONENTS),
                      lambda xs: all(0.0 <= x <= 1.0 for x in xs),
                      " (exponents must be in [0, 1])")

    model3_exponent = None
    if "model3_exponent" in raw:
        if raw["model3_exponent"] != "auto":
            model3_exponent = _parse_float(raw["model3_exponent"], "model3_exponent",
                                           lines["model3_exponent"])
            if not 0.0 <= model3_exponent <= 1.0:
                raise ConfigError(f"invalid value {model3_exponent!r} (must be in [0, 1] or 'auto')",
                                  "model3_exponent", lines["model3_exponent"])

    site = None
    if "site" in raw and raw["site"] != "random":
        coords = _parse_float_list(raw["site"], "site", lines["site"])
        if len(coords) != dimension:
            raise ConfigError(f"expected {dimension} coordinates or 'random', got {len(coords)}",
                              "site", lines["site"])
        site = tuple(coords)

    return RunConfig(
        params=params,
        arch=arch,
        masses=masses,
        exponents=exponents,
        mode=fetch_choice("mode", {"spatial", "contention"}, RunConfig.mode),
        movement=fetch_choice("movement", {"straight", "random_walk"}, RunConfig.movement),
        trials=fetch("trials", _parse_int, RunConfig.trials,
                     lambda t: t >= 1, " (must be >= 1)"),
        seed=fetch("seed", _parse_int, RunConfig.seed,
                   lambda s: s >= 0, " (must be >= 0)"),
        output=raw.get("output", RunConfig.output),
        detectors=fetch("detectors", _parse_int, RunConfig.detectors,
                        lambda n: n >= 1, " (must be >= 1)"),
        walk_step=fetch("walk_step", _parse_float, RunConfig.walk_step,
                        positive, " (must be > 0)"),
        grid_resolution=fetch("grid_resolution", _parse_float, RunConfig.grid_resolution,
                              lambda g: 0.0 < g <= 1.0, " (must be in (0, 1])"),
        limited_rho=fetch("limited_rho", _parse_float, RunConfig.limited_rho,
                          positive, " (must be > 0)"),
        limited_lambda=fetch("limited_lambda", _parse_float, RunConfig.limited_lambda,
                             positive, " (must be > 0)"),
        model3_exponent=model3_exponent,
        site=site,
    )


def _fmt_float(x: float) -> str:
    return repr(float(x))


def emit_config(cfg: RunConfig) -> str:
    """Serialize a config so that parse(emit(cfg)) reproduces it exactly."""
    p, a = cfg.params, cfg.arch
    items = [
        ("cognate_frequency", _fmt_float(p.cognate_frequency)),
        ("bcrit_coefficient", _fmt_float(p.bcrit_coefficient)),
        ("antibody_coefficient", _fmt_float(p.antibody_coefficient)),
        ("plasma_yield", _fmt_float(p.plasma_yield)),
        ("doubling_time", _fmt_float(p.doubling_time)),
        ("detector_speed", _fmt_float(p.detector_speed)),
        ("contact_latency", _fmt_float(p.contact_latency)),
        ("contention_coefficient", _fmt_float(p.contention_coefficient)),
        ("body_volume_coefficient", _fmt_float(p.body_volume_coefficient)),
        ("recruit_transit_coefficient", _fmt_float(p.recruit_transit_coefficient)),
        ("recruitment_composition", p.recruitment_composition),
        ("exponent", _fmt_float(a.exponent)),
        ("base_hub_count", _fmt_float(a.base_hub_count)),
        ("base_hub_size", _fmt_float(a.base_hub_size)),
        ("dimension", str(a.dimension)),
        ("masses", " ".join(_fmt_float(m) for m in cfg.masses)),
        ("exponents", " ".join(_fmt_float(x) for x in cfg.exponents)),
        ("mode", cfg.mode),
        ("movement", cfg.movement),
        ("trials", str(cfg.trials)),
        ("seed", str(cfg.seed)),
        ("output", cfg.output),
        ("detectors", str(cfg.detectors)),
        ("walk_step", _fmt_float(cfg.walk_step)),
        ("grid_resolution", _fmt_float(cfg.grid_resolution)),
        ("limited_rho", _fmt_float(cfg.limited_rho)),
        ("limited_lambda", _fmt_float(cfg.limited_lambda)),
        ("model3_exponent", "auto" if cfg.model3_exponent is None
         else _fmt_float(cfg.model3_exponent)),
        ("site", "random" if cfg.site is None
         else " ".join(_fmt_float(c) for c in cfg.site)),
    ]
    return "".join(f"{key} = {value}\n" for key, value in items)
