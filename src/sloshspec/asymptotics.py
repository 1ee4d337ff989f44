"""Two-term quasi-frequency asymptotics for two-dimensional sloshing.

For a container whose free surface has length L and meets the walls at
interior angles alpha (corner A) and beta (corner B), the scaled
frequencies sigma_k = lambda_k approach an arithmetic lattice

    sigma_k * L = pi (k - 1/2) + phase,

where the phase is a sum of one term per corner, fixed by the corner's
angle and its wall's boundary condition.  This module evaluates those
closed forms, the associated remainder exponents, and the one-term Weyl
counting estimate.

Everything here is exact double-precision arithmetic on explicit
formulas; nothing is rounded or interpolated.
"""

import math
from dataclasses import dataclass

from .geometry import CornerSpec

HALF_PI = math.pi / 2

_SIGN = {"neumann": -1.0, "dirichlet": 1.0}


@dataclass(frozen=True)
class QuasiFrequencyModel:
    """The corners and surface length entering the two-term law.

    corner_A and corner_B are the surface corners in domain order, each
    an interior angle between the free surface and a wall and that wall's
    condition, as SloshingDomain holds them; CornerSpec validates both.
    """

    corner_A: CornerSpec
    corner_B: CornerSpec
    surface_length: float

    def __post_init__(self):
        if not self.surface_length > 0.0:
            raise ValueError("surface_length must be positive")

    @property
    def phase(self) -> float:
        """The phase added to pi (k - 1/2): pi^2/(8 angle) per corner, negative behind Neumann."""
        a, b = self.corner_A, self.corner_B
        return math.pi**2 / 8.0 * (
            _SIGN[a.condition_adjacent_wall] / a.angle + _SIGN[b.condition_adjacent_wall] / b.angle
        )

    @property
    def conjectural(self) -> bool:
        """True when a corner angle exceeds pi/2, outside the proven range."""
        return max(self.corner_A.angle, self.corner_B.angle) > HALF_PI + 1e-12


def quasi_frequency(model: QuasiFrequencyModel, k: int) -> float:
    """k-th quasi-frequency sigma_k (1-based)."""
    if k < 1 or int(k) != k:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    sigma = (math.pi * (k - 0.5) + model.phase) / model.surface_length
    if not math.isfinite(sigma):
        raise OverflowError(f"sigma_{k} = {sigma} is not finite; the surface length is too small")
    return sigma


def remainder_exponent(model: QuasiFrequencyModel):
    """Power-law exponent of sigma_k - quasi_frequency(k), or "exponential".

    The deviation from the lattice decays like k**exponent, the largest
    corner exponent: 1 - pi/(2 angle) behind a Neumann wall, 1 - pi/angle
    behind a Dirichlet one.  A vertical wall, whose model solution is the
    exact plane wave, adds no algebraic term.
    """
    exponents = [
        1.0 - math.pi / (2.0 * c.angle if c.condition_adjacent_wall == "neumann" else c.angle)
        for c in (model.corner_A, model.corner_B)
        if abs(c.angle - HALF_PI) > 1e-12
    ]
    return max(exponents) if exponents else "exponential"


def weyl_count_estimate(lam: float, surface_length: float) -> float:
    """One-term Weyl law: expected number of eigenvalues at most lam."""
    if surface_length <= 0:
        raise ValueError("surface_length must be positive")
    return surface_length * lam / math.pi
