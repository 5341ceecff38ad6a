"""Pipeline configuration: one JSON file plus command-line overrides.

Relative paths inside a config file resolve against the file's directory,
so a config travels with its data. Command-line flags always win over
file values.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Optional

from . import ingestion
from .ingestion import ConfigError, CountryRegistry, FilterPolicy, load_json_object, require_int
from .residence import MonthCalendar
from .solver import FitConfig

FORMATS = ("csv", "jsonl")
DETECTION_MODES = ("strict", "modal")


@dataclass(frozen=True)
class PipelineConfig:
    epoch_year: int
    epoch_month: int
    months: int
    registry: Path
    input: Path
    out_dir: Path
    centroids: Optional[Path] = None
    format: str = "csv"
    window_k: int = 1
    detection_mode: str = "strict"
    filter_policy: FilterPolicy = field(default_factory=FilterPolicy)
    fit: FitConfig = field(default_factory=FitConfig)
    top_k: int = 10
    n_top: int = 5

    def __post_init__(self):
        for name in ("epoch_year", "epoch_month", "months", "window_k", "top_k", "n_top"):
            require_int(name, getattr(self, name))
        if self.format not in FORMATS:
            raise ConfigError(f"format must be one of {FORMATS}, got {self.format!r}")
        if self.detection_mode not in DETECTION_MODES:
            raise ConfigError(f"detection_mode must be one of {DETECTION_MODES}")
        if self.window_k < 1 or 2 * self.window_k > self.months:
            raise ConfigError(
                f"window_k={self.window_k} out of range for {self.months} months")
        if self.top_k < 1 or self.n_top < 1:
            raise ConfigError("top_k and n_top must be positive")
        self.calendar  # validates epoch

    @property
    def calendar(self) -> MonthCalendar:
        return MonthCalendar(self.epoch_year, self.epoch_month, self.months)

    @cached_property
    def countries(self) -> CountryRegistry:
        """The registry file's countries, read once per config, so that
        every stage of one run works with the same registry."""
        return ingestion.load_registry(self.registry)


# top-level keys passed as given to PipelineConfig's fields of the same name,
# only where the file holds them: the dataclass keeps the one copy of each default
_PLAIN_KEYS = ("format", "window_k", "detection_mode", "top_k", "n_top")


def _build(raw: dict, base: Path) -> PipelineConfig:
    def path_of(key, required=True):
        value = raw.get(key)
        if value is None:
            if required:
                raise ConfigError(f"missing required path {key!r}")
            return None
        p = Path(value)
        return p if p.is_absolute() else base / p

    try:
        epoch = raw["epoch"]
        filter_policy = FilterPolicy(**raw.get("filter", {}))
        fit = FitConfig(**raw.get("fit", {}))
        return PipelineConfig(
            epoch_year=epoch["year"],
            epoch_month=epoch["month"],
            months=raw["months"],
            registry=path_of("registry"),
            input=path_of("input"),
            out_dir=path_of("out_dir"),
            centroids=path_of("centroids", required=False),
            filter_policy=filter_policy,
            fit=fit,
            **{key: raw[key] for key in _PLAIN_KEYS if key in raw},
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad config: {exc}") from exc


def load_config(path) -> PipelineConfig:
    path = Path(path)
    return _build(load_json_object(path, "config"), path.parent)


# CLI-overridable fields; fit fields are nested under ``fit``
_PLAIN_OVERRIDES = ("input", "format", "out_dir", "window_k", "detection_mode", "top_k", "n_top")
_FIT_OVERRIDES = ("rank", "seed", "restarts", "max_iters", "rel_tol")
OVERRIDE_KEYS = (*_PLAIN_OVERRIDES, *_FIT_OVERRIDES)
# overrides made paths; every other value reaches the dataclasses' checks
# as given, as a config file's value does
_PATH_OVERRIDES = ("input", "out_dir")


def apply_overrides(config: PipelineConfig, overrides: dict) -> PipelineConfig:
    """Apply non-None CLI override values on top of a loaded config."""
    plain, fit_kwargs = {}, {}
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in OVERRIDE_KEYS:
            raise ConfigError(f"unknown override {key!r}")
        (fit_kwargs if key in _FIT_OVERRIDES else plain)[key] = value
    try:
        plain.update((key, Path(plain[key])) for key in _PATH_OVERRIDES if key in plain)
        if fit_kwargs:
            plain["fit"] = replace(config.fit, **fit_kwargs)
        return replace(config, **plain) if plain else config
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad override: {exc}") from exc
