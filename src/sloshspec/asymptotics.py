"""Two-term quasi-frequency asymptotics for two-dimensional sloshing.

For a container whose free surface has length L and meets the walls at
interior angles alpha (corner A) and beta (corner B), the scaled
frequencies sigma_k = lambda_k approach an arithmetic lattice

    sigma_k * L = pi (k - 1/2) + phase(regime, alpha, beta),

where the phase depends only on the corner angles and the wall boundary
conditions.  This module evaluates those closed forms, the associated
remainder exponents, and the one-term Weyl counting estimate.

Everything here is exact double-precision arithmetic on explicit
formulas; nothing is rounded or interpolated.
"""

import enum
import math
from dataclasses import dataclass

HALF_PI = math.pi / 2


class Regime(enum.Enum):
    """Wall condition regime at the two surface corners."""

    NEUMANN_NEUMANN = "nn"
    DIRICHLET_DIRICHLET = "dd"
    MIXED_DIRICHLET_A_NEUMANN_B = "mixed"
    HALFPI_NEUMANN = "halfpi-neumann"
    HALFPI_DIRICHLET = "halfpi-dirichlet"

    @classmethod
    def from_string(cls, name: str) -> "Regime":
        for member in cls:
            if member.value == name:
                return member
        valid = ", ".join(m.value for m in cls)
        raise ValueError(f"unknown regime {name!r}; expected one of: {valid}")


# the walls at corners A and B of each regime; the general regimes come first
_WALLS = {
    Regime.NEUMANN_NEUMANN: ("neumann", "neumann"),
    Regime.DIRICHLET_DIRICHLET: ("dirichlet", "dirichlet"),
    Regime.MIXED_DIRICHLET_A_NEUMANN_B: ("dirichlet", "neumann"),
    Regime.HALFPI_NEUMANN: ("neumann", "neumann"),
    Regime.HALFPI_DIRICHLET: ("dirichlet", "dirichlet"),
}
_SIGN = {"neumann": -1.0, "dirichlet": 1.0}


@dataclass(frozen=True)
class QuasiFrequencyModel:
    """Container geometry and wall conditions entering the two-term law.

    alpha and beta are the interior angles between the free surface and
    the walls at corners A and B; the regime fixes the walls (_WALLS), so
    for the mixed regime alpha is the Dirichlet corner's angle.  The
    half-pi regimes fix alpha = pi/2 exactly (a vertical wall at A, where
    the model solution is exact) and keep beta free.
    """

    regime: Regime
    alpha: float
    beta: float
    surface_length: float

    def __post_init__(self):
        if not (0.0 < self.alpha < math.pi) or not (0.0 < self.beta < math.pi):
            raise ValueError("corner angles must lie strictly between 0 and pi")
        if not self.surface_length > 0.0:
            raise ValueError("surface_length must be positive")
        if self.regime in (Regime.HALFPI_NEUMANN, Regime.HALFPI_DIRICHLET):
            if abs(self.alpha - HALF_PI) > 1e-15:
                raise ValueError("half-pi regimes require alpha = pi/2 exactly")

    @classmethod
    def from_walls(cls, alpha, wall_a, beta, wall_b, surface_length):
        """The model of corners (alpha, wall_a) and (beta, wall_b), mixed ones in mixed order."""
        if (wall_a, wall_b) == ("neumann", "dirichlet"):
            alpha, wall_a, beta, wall_b = beta, wall_b, alpha, wall_a
        for regime, walls in _WALLS.items():
            if walls == (wall_a, wall_b):
                return cls(regime, alpha, beta, surface_length)
        raise ValueError(f"wall conditions must be 'neumann' or 'dirichlet', got {wall_a!r}, {wall_b!r}")

    def _corners(self):
        """(angle, wall) at A, then at B."""
        wall_a, wall_b = _WALLS[self.regime]
        return (self.alpha, wall_a), (self.beta, wall_b)

    @property
    def phase(self) -> float:
        """The phase added to pi (k - 1/2): pi^2/(8 angle) per corner, negative behind Neumann."""
        (a, wall_a), (b, wall_b) = self._corners()
        return math.pi**2 / 8.0 * (_SIGN[wall_a] / a + _SIGN[wall_b] / b)

    @property
    def conjectural(self) -> bool:
        """True when an angle exceeds pi/2, outside the proven range."""
        return max(self.alpha, self.beta) > HALF_PI + 1e-12


def quasi_frequency(model: QuasiFrequencyModel, k: int) -> float:
    """k-th quasi-frequency sigma_k (1-based)."""
    if k < 1 or int(k) != k:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    return (math.pi * (k - 0.5) + model.phase) / model.surface_length


def remainder_exponent(model: QuasiFrequencyModel):
    """Power-law exponent of sigma_k - quasi_frequency(k), or "exponential".

    The deviation from the lattice decays like k**exponent, the largest
    corner exponent: 1 - pi/(2 angle) behind a Neumann wall, 1 - pi/angle
    behind a Dirichlet one.  A vertical wall, whose model solution is the
    exact plane wave, adds no algebraic term.
    """
    exponents = [
        1.0 - math.pi / (2.0 * angle if wall == "neumann" else angle)
        for angle, wall in model._corners()
        if abs(angle - HALF_PI) > 1e-12
    ]
    return max(exponents) if exponents else "exponential"


def weyl_count_estimate(lam: float, surface_length: float) -> float:
    """One-term Weyl law: expected number of eigenvalues at most lam."""
    if surface_length <= 0:
        raise ValueError("surface_length must be positive")
    return surface_length * lam / math.pi
