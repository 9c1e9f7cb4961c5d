"""Run configuration: strict JSON schema, defaults, resolved-config echo."""

from __future__ import annotations

import hashlib
import json
import typing
from dataclasses import dataclass, field, fields, asdict, is_dataclass
from pathlib import Path

from .frac_geom import PhysicalConstants, PowerLawSpec

# fracture to matrix conductivity ratio of each dataset class
RATIO_CLASSES = {"A": 1e3, "B": 1e5, "C": 1e7}


class ConfigError(ValueError):
    pass


def fingerprint(obj) -> str:
    """First 16 hex digits of the SHA-256 of ``obj`` as key-sorted JSON."""
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _accepts(hint, value) -> bool:
    """Whether a JSON value fits a field's type hint: float takes int,
    no number field takes bool, and X | None takes None."""
    options = typing.get_args(hint) or (hint,)
    if isinstance(value, bool):
        return bool in options
    if float in options and isinstance(value, int):
        return True
    return isinstance(value, options)


def _build(cls, data: dict, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'config'}: expected an object")
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"{path or 'config'}: unknown keys {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for name in known & set(data):
        value = data[name]
        hint = hints.get(name)
        where = f"{path}.{name}".lstrip(".")
        if isinstance(hint, type) and is_dataclass(hint):
            value = _build(hint, value, where)
        elif not _accepts(hint, value):
            expected = getattr(hint, "__name__", hint)
            raise ConfigError(f"{where}: expected {expected}, got "
                              f"{type(value).__name__} {value!r}")
        kwargs[name] = value
    return cls(**kwargs)


@dataclass
class DfnSection:
    alpha: float = 2.5
    r_min: float = 4.325
    r_max: float = 100.0
    rho_2d: float = 10.0
    aperture_ratio: float = 1e-4
    gravity: float = 9.81
    water_density: float = 1000.0
    viscosity: float = 1.0e-3

    @property
    def power_law(self) -> PowerLawSpec:
        return PowerLawSpec(self.alpha, self.r_min, self.r_max)

    @property
    def constants(self) -> PhysicalConstants:
        return PhysicalConstants(self.gravity, self.water_density,
                                 self.viscosity)


@dataclass
class SrfSection:
    correlation_length: float = 0.0
    mean_log: list = field(default_factory=lambda: [-6.0, -5.8])
    cov_log: list = field(default_factory=lambda: [[0.25, 0.2], [0.2, 0.25]])
    resolution: int = 64


@dataclass
class SolverSection:
    resolution: int = 32


@dataclass
class BlocksSection:
    domain_side: float = 100.0
    block_size: float = 100.0 / 7.0
    length_threshold: float | None = None
    coarse_resolution: int | None = None


@dataclass
class RasterSection:
    resolution: int = 64


@dataclass
class DatasetSection:
    ratio_class: str = "A"
    n_samples: int = 128
    lambdas: list = field(default_factory=lambda: [0.0, 10.0, 25.0])
    block_size: float = 14.28
    srf_resolution: int = 64
    solver_resolution: int = 24

    def __post_init__(self):
        if self.ratio_class not in RATIO_CLASSES:
            raise ConfigError(
                f"dataset.ratio_class: unknown ratio class "
                f"{self.ratio_class!r}, expected one of "
                f"{sorted(RATIO_CLASSES)}")
        if not self.lambdas:
            raise ConfigError("dataset.lambdas: must be non-empty")


@dataclass
class TrainSection:
    learning_rate: float = 0.0025
    epochs: int = 125
    batch_size: int = 64
    patience: int = 10
    lr_decay: float = 0.1
    conv_channels: list = field(default_factory=lambda: [24, 48, 96, 192, 256])
    dense_widths: list = field(default_factory=lambda: [2048, 2048, 1024])


@dataclass
class RunConfig:
    dfn: DfnSection = field(default_factory=DfnSection)
    srf: SrfSection = field(default_factory=SrfSection)
    solver: SolverSection = field(default_factory=SolverSection)
    blocks: BlocksSection = field(default_factory=BlocksSection)
    raster: RasterSection = field(default_factory=RasterSection)
    dataset: DatasetSection = field(default_factory=DatasetSection)
    train: TrainSection = field(default_factory=TrainSection)
    seed: int = 0

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        return _build(cls, data, "")

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path) as f:
            return cls.from_dict(json.load(f))

    def to_dict(self) -> dict:
        return asdict(self)

    def hash(self) -> str:
        return fingerprint(self.to_dict())

    def write_resolved(self, out_dir):
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        resolved = dict(self.to_dict(), config_hash=self.hash())
        with open(out_dir / "resolved_config.json", "w") as f:
            json.dump(resolved, f, indent=2)
        return resolved
