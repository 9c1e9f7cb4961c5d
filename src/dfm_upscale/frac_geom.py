"""Stochastic discrete fracture network generation.

Fracture lengths follow a truncated power law, orientations are isotropic on
[0, pi), centers come from a Poisson process, apertures scale linearly with
length and fracture conductivity follows the cubic law.
"""

from __future__ import annotations

import copy
import csv
import json
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np
from scipy.optimize import brentq

from .geometry import Rect
from .seeding import substream


@dataclass(frozen=True)
class PhysicalConstants:
    """Values come from config.DfnSection."""

    gravity: float        # m/s^2
    water_density: float  # kg/m^3
    viscosity: float      # Pa*s


@dataclass(frozen=True)
class PowerLawSpec:
    """Truncated power-law length distribution with density ~ C * r^-alpha."""

    alpha: float
    r_min: float
    r_max: float

    def __post_init__(self):
        if self.alpha == 1.0:
            raise ValueError("alpha = 1 gives a degenerate normalization")
        if not (0.0 < self.r_min < self.r_max):
            raise ValueError(f"need 0 < r_min < r_max, got {self}")

    @property
    def norm_const(self) -> float:
        a = self.alpha
        return (1.0 - a) / (self.r_max ** (1.0 - a) - self.r_min ** (1.0 - a))

    def moment(self, k: int) -> float:
        """E[length^k] in closed form."""
        a = self.alpha
        c = self.norm_const
        p = k + 1.0 - a
        if abs(p) < 1e-12:
            return c * np.log(self.r_max / self.r_min)
        return c * (self.r_max ** p - self.r_min ** p) / p

    @property
    def mean_length(self) -> float:
        return self.moment(1)


# the per-fracture arrays of a FractureNetwork
ARRAY_FIELDS = ("id", "center", "length", "angle", "aperture",
                "conductivity", "p0", "p1")


@dataclass(eq=False)
class FractureNetwork:
    """Fractures as parallel arrays, one row per fracture.

    p0 and p1 are the endpoints center -/+ half the length along the angle,
    computed once from the other arrays.
    """

    id: np.ndarray            # (n,) int
    center: np.ndarray        # (n, 2)
    length: np.ndarray        # (n,)
    angle: np.ndarray         # (n,) rad, in [0, pi)
    aperture: np.ndarray      # (n,) m
    conductivity: np.ndarray  # (n,) m/s
    domain: Rect
    density: float
    seed: int
    constants: PhysicalConstants
    spec: PowerLawSpec | None = None
    aperture_ratio: float | None = None
    p0: np.ndarray = field(init=False, repr=False)
    p1: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.id = np.asarray(self.id, np.int64).reshape(-1)
        self.center = np.asarray(self.center, float).reshape(-1, 2)
        for name in ("length", "angle", "aperture", "conductivity"):
            setattr(self, name, np.asarray(getattr(self, name),
                                           float).reshape(-1))
        h = (0.5 * self.length)[:, None] * np.stack(
            [np.cos(self.angle), np.sin(self.angle)], 1)
        self.p0 = self.center - h
        self.p1 = self.center + h

    def __len__(self):
        return len(self.id)

    def take(self, rows, domain: Rect) -> FractureNetwork:
        """The fractures at rows (indices or a mask), re-rooted on domain;
        the endpoints are sliced, not recomputed."""
        out = copy.copy(self)
        for name in ARRAY_FIELDS:
            setattr(out, name, getattr(self, name)[rows])
        out.domain = domain
        return out


def sample_power_law(spec: PowerLawSpec, u):
    """Inverse-CDF sample(s) of the truncated power law; u in [0, 1]."""
    u = np.asarray(u, dtype=float)
    if np.any((u < 0.0) | (u > 1.0)):
        raise ValueError("u must lie in [0, 1]")
    p = 1.0 - spec.alpha
    r = (spec.r_min ** p + u * (spec.r_max ** p - spec.r_min ** p)) ** (1.0 / p)
    return np.clip(r, spec.r_min, spec.r_max)


def excluded_area(spec: PowerLawSpec) -> float:
    """Mean-field excluded area of isotropic sticks: (2/pi) * E[length]^2."""
    return (2.0 / np.pi) * spec.mean_length ** 2


def expected_count(spec: PowerLawSpec, density: float, domain_area: float) -> float:
    """Mean fracture count for dimensionless density over a domain area."""
    if density <= 0.0 or domain_area <= 0.0:
        raise ValueError("density and domain_area must be positive")
    return density * domain_area / excluded_area(spec)


def calibrate_alpha(target_count: float, density: float, domain_area: float,
                    r_min: float, r_max: float,
                    bracket=(1.2, 4.5)) -> float:
    """Exponent for which the expected count matches target_count."""

    def gap(alpha):
        return expected_count(PowerLawSpec(alpha, r_min, r_max),
                              density, domain_area) - target_count

    return float(brentq(gap, *bracket, xtol=1e-10))


def fracture_conductivity(length, aperture_ratio: float,
                          constants: PhysicalConstants):
    """Aperture and cubic-law conductivity of fractures of given length(s)."""
    length = np.asarray(length, float)
    if np.any(length <= 0.0) or aperture_ratio <= 0.0:
        raise ValueError("length and aperture_ratio must be positive")
    delta = aperture_ratio * length
    # float_power calls libm pow, as Python's scalar ** does; ndarray ** 2
    # squares by multiplication, which differs in the last bit for about
    # 0.1 % of apertures
    k_f = constants.gravity * constants.water_density * np.float_power(
        delta, 2) / (12.0 * constants.viscosity)
    return delta, k_f


def generate_dfn(spec: PowerLawSpec, density: float, domain: Rect,
                 aperture_ratio: float, constants: PhysicalConstants,
                 seed: int = 0) -> FractureNetwork:
    """Draw a fracture network: Poisson count, uniform centers and angles,
    power-law lengths. Centers lie inside the domain; geometry may overhang
    (clipping happens at use sites)."""
    rng = substream(seed, "dfn")
    n = int(rng.poisson(expected_count(spec, density, domain.area)))
    cx = rng.uniform(domain.x0, domain.x1, size=n)
    cy = rng.uniform(domain.y0, domain.y1, size=n)
    angles = rng.uniform(0.0, np.pi, size=n)
    lengths = sample_power_law(spec, rng.uniform(0.0, 1.0, size=n))
    delta, k_f = fracture_conductivity(lengths, aperture_ratio, constants)
    return FractureNetwork(
        id=np.arange(n), center=np.column_stack([cx, cy]), length=lengths,
        angle=angles, aperture=delta, conductivity=k_f, domain=domain,
        density=density, seed=seed, spec=spec,
        aperture_ratio=aperture_ratio, constants=constants)


CSV_COLUMNS = ("id", "cx", "cy", "length", "angle", "aperture", "conductivity")


def save_network(network: FractureNetwork, csv_path):
    """One CSV row per fracture plus a JSON sidecar with generation metadata."""
    csv_path = Path(csv_path)
    columns = [network.center[:, 0], network.center[:, 1], network.length,
               network.angle, network.aperture, network.conductivity]
    with open(csv_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(CSV_COLUMNS)
        w.writerows([i, *map(repr, values)] for i, *values in zip(
            network.id.tolist(), *(c.tolist() for c in columns)))
    sidecar = {
        "domain": network.domain.as_tuple(),
        "density": network.density,
        "seed": network.seed,
        "spec": asdict(network.spec) if network.spec else None,
        "aperture_ratio": network.aperture_ratio,
        "constants": asdict(network.constants),
        "count": len(network),
    }
    with open(csv_path.with_suffix(".json"), "w") as f:
        json.dump(sidecar, f, indent=2)


def load_network(csv_path) -> FractureNetwork:
    csv_path = Path(csv_path)
    with open(csv_path.with_suffix(".json")) as f:
        meta = json.load(f)
    with open(csv_path, newline="") as f:
        header, *rows = csv.reader(f)
    cols = dict(zip(header, np.array(rows, float).reshape(-1, len(header)).T))
    spec = PowerLawSpec(**meta["spec"]) if meta.get("spec") else None
    return FractureNetwork(
        id=cols["id"], center=np.column_stack([cols["cx"], cols["cy"]]),
        length=cols["length"], angle=cols["angle"],
        aperture=cols["aperture"], conductivity=cols["conductivity"],
        domain=Rect(*meta["domain"]), density=meta["density"],
        seed=meta["seed"], spec=spec,
        aperture_ratio=meta.get("aperture_ratio"),
        constants=PhysicalConstants(**meta["constants"]))
