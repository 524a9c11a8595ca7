"""Scheme parameters and the derived scalar constants used throughout."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGrid, OutOfRange


def _power(base: float, exponent: float) -> float:
    """base**exponent in floats, inf where it overflows."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def _check_ranges(nu: float, theta: float) -> None:
    if not -0.5 < nu < 1.0:
        raise OutOfRange(f"nu must lie in (-1/2, 1), got {nu}")
    if not 0.0 < theta <= 1.0:
        raise OutOfRange(f"theta must lie in (0, 1], got {theta}")


@dataclass(frozen=True)
class SchemeParams:
    """Model and norm parameters (nu, theta, delta, kappa, q).

    nu tunes the stress-tensor blend (Prandtl fitting), theta mixes the
    relaxation temperature, delta counts internal degrees of freedom, kappa
    is the Knudsen number, and q is the weight exponent of the sup norm.
    """

    nu: float
    theta: float
    delta: float
    kappa: float
    q: float

    def __post_init__(self):
        _check_ranges(self.nu, self.theta)
        if self.delta <= 0:
            raise OutOfRange(f"delta must be > 0, got {self.delta}")
        if self.delta > 2:
            warnings.warn(
                f"delta={self.delta} > 2: the scheme runs but the first-order "
                "convergence guarantee is stated only for 0 < delta <= 2",
                stacklevel=2,
            )
        if self.kappa <= 0:
            raise OutOfRange(f"kappa must be > 0, got {self.kappa}")
        if self.q <= 5 + self.delta:
            raise OutOfRange(f"q must exceed 5 + delta = {5 + self.delta}, got {self.q}")


@dataclass(frozen=True)
class DerivedConstants:
    collision_freq: float  # A = 1/(1 - nu + nu*theta)
    lam: float             # tensor blend factor (kappa + A*dt)/(dt + kappa)
    nu_bar: float          # stress blend factor kappa*nu/(dt + kappa)
    lambda_delta: float    # discrete normalizer of the energy marginal
    dt: float


def collision_frequency(nu: float, theta: float) -> float:
    """1/(1 - nu + nu*theta); equals 1 exactly when nu = 0 or theta = 1."""
    _check_ranges(nu, theta)
    return 1.0 / (1.0 - nu + nu * theta)


def blend_factors(nu: float, theta: float, kappa: float, dt: float) -> tuple[float, float]:
    """Tensor and stress blend factors (lam, nu_bar) at time step dt.

    lam = (kappa + A*dt)/(dt + kappa) and nu_bar = kappa*nu/(dt + kappa).
    At dt = 0 they reduce to (1, nu); as dt grows, lam -> A and nu_bar -> 0.
    """
    _check_ranges(nu, theta)
    if kappa <= 0:
        raise OutOfRange(f"kappa must be > 0, got {kappa}")
    if dt < 0:
        raise OutOfRange(f"dt must be >= 0, got {dt}")
    a = collision_frequency(nu, theta)
    lam = (kappa + a * dt) / (dt + kappa)
    nu_bar = kappa * nu / (dt + kappa)
    return lam, nu_bar


def normalizer_discrete(delta: float, energy_grid) -> float:
    """Normalizer of the discrete energy marginal exp(-I^(2/delta)).

    The inverse is the quadrature sum of exp(-I_k^(2/delta)) over all energy
    nodes.  The same discrete value is used everywhere the ellipsoidal
    Gaussian is evaluated, so the energy marginal carries unit discrete mass
    at unit relaxation temperature by construction; the continuous value
    (a Gamma function) serves only as a cross-check in tests.
    """
    if delta <= 0:
        raise OutOfRange(f"delta must be > 0, got {delta}")
    nodes = np.asarray(energy_grid.i_nodes, dtype=float)
    weights = np.asarray(energy_grid.i_weights, dtype=float)
    if nodes.size == 0:
        raise DegenerateGrid("energy grid is empty")
    inv = float(weights @ np.exp(-(nodes ** (2.0 / delta))))
    if inv <= 0.0:
        raise DegenerateGrid(f"normalizer sum underflowed to {inv!r}")
    return 1.0 / inv


def derived_constants(params: SchemeParams, energy_grid, dt: float) -> DerivedConstants:
    lam, nu_bar = blend_factors(params.nu, params.theta, params.kappa, dt)
    return DerivedConstants(
        collision_freq=collision_frequency(params.nu, params.theta),
        lam=lam,
        nu_bar=nu_bar,
        lambda_delta=normalizer_discrete(params.delta, energy_grid),
        dt=dt,
    )
