"""Explicit wedge solutions for corner angles pi/(2q) by reflection.

Starting from the plane wave exp(-iz), which satisfies the Steklov
condition d/dy u = u on the surface y = 0 exactly, a finite chain of two
moves builds a harmonic function that also satisfies the wall condition
on the ray arg z = -pi/(2q):

* wall reflection    g(z) -> g(xi conj(z)) with xi = exp(-i pi / q),
* Steklov repair     exp(p conj(z)) -> (ip+1)/(ip-1) exp(p z).

The chain closes after 2q terms because the repair factor vanishes at
rotation xi^q = -1.  Coefficients are finite products of
eta(xi^j) = (xi^j + 1)/(xi^j - 1) and the final coefficient equals
gamma = i^(q-1) exactly.

Traces of these solutions on the surface (`hl_eval` at real points),
glued from both surface corners, provide quasimodes whose frequencies
live on the lattice sigma L = pi (k - 1/2) - pi q / 2.
"""

import cmath
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np


def eta(z: complex) -> complex:
    """The Steklov repair factor (z + 1)/(z - 1)."""
    return (z + 1.0) / (z - 1.0)


def gamma_xi(q: int) -> complex:
    """Product of eta(xi^j) over j = 1..q-1, in closed form: i^(q-1)."""
    if q < 1:
        raise ValueError("q must be a positive integer")
    return (1 + 0j, 1j, -1 + 0j, -1j)[(q - 1) % 4]


@dataclass(frozen=True)
class HLTerm:
    """One summand c * exp(-i r z) (or c * exp(-i r conj(z)) if conjugated)."""

    coefficient: complex
    rotation: complex
    conjugated: bool


@dataclass(frozen=True)
class HansonLewySolution:
    q: int
    condition: str
    xi: complex
    terms: Tuple[HLTerm, ...]

    @property
    def alpha(self) -> float:
        return math.pi / (2 * self.q)


def build_hanson_lewy(q: int, condition: str = "neumann") -> HansonLewySolution:
    """Assemble the 2q-term wedge solution for corner angle pi/(2q).

    The Neumann chain alternates wall reflections and Steklov repairs of
    exp(-iz); the Dirichlet variant flips the sign at each wall
    reflection instead.  Terms come out in chain order: term 2j is
    analytic with rotation xi^j, term 2j+1 is conjugated with rotation
    xi^(j+1), and both carry the coefficient prod_{i<=j} eta(xi^i) (times
    the alternating sign in the Dirichlet case).
    """
    if q < 1:
        raise ValueError("q must be a positive integer")
    if condition not in ("neumann", "dirichlet"):
        raise ValueError("condition must be 'neumann' or 'dirichlet'")
    xi = cmath.exp(-1j * math.pi / q)
    terms = []
    prod = 1.0 + 0j
    for j in range(q):
        sign_even = (-1.0) ** j if condition == "dirichlet" else 1.0
        sign_odd = (-1.0) ** (j + 1) if condition == "dirichlet" else 1.0
        terms.append(HLTerm(sign_even * prod, xi**j, False))
        terms.append(HLTerm(sign_odd * prod, xi ** (j + 1), True))
        prod = prod * eta(xi ** (j + 1))
    return HansonLewySolution(q=q, condition=condition, xi=xi, terms=tuple(terms))


def _term_values(sol: HansonLewySolution, z):
    """One row c exp(-i r w) per term, w = conj(z) on conjugated terms; z is a scalar or an array."""
    z = np.asarray(z, dtype=complex)
    return np.array([t.coefficient * np.exp(-1j * t.rotation * (np.conj(z) if t.conjugated else z)) for t in sol.terms])


def hl_eval(sol: HansonLewySolution, z):
    """Value of the solution at complex points z (vectorized); at real z, the surface trace."""
    z = np.asarray(z, dtype=complex)
    return sum(_term_values(sol, z), np.zeros_like(z))  # term after term from zero, as a loop adds


def hl_gradient(sol: HansonLewySolution, z):
    """(d/dx, d/dy) of the solution at complex points z."""
    z = np.asarray(z, dtype=complex)
    dx = np.zeros_like(z)
    dy = np.zeros_like(z)
    for t, val in zip(sol.terms, _term_values(sol, z)):
        p = -1j * t.rotation
        dx = dx + p * val
        dy = dy + (-1j * p * val if t.conjugated else 1j * p * val)
    return dx, dy


def hl_derivative_at_origin(sol: HansonLewySolution, m: int) -> complex:
    """m-th derivative of the surface trace at x = 0: sum c_j (-i r_j)^m.

    For the Neumann solution these vanish for m = q..2q-1 and for the
    Dirichlet one for m = 0..q-1, mirroring the interval problem's
    boundary conditions.
    """
    if m < 0:
        raise ValueError("derivative order must be nonnegative")
    return sum(t.coefficient * (-1j * t.rotation) ** m for t in sol.terms)


def steklov_defect(sol: HansonLewySolution, x):
    """(d/dy - 1) applied on the surface; identically zero by construction."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape, dtype=complex)
    for t, val in zip(sol.terms, _term_values(sol, x)):
        r = t.rotation
        out = out + ((-r - 1.0) if t.conjugated else (r - 1.0)) * val
    return out


def wall_defect(sol: HansonLewySolution, r):
    """Residual of the wall condition on the ray arg z = -alpha at radii r.

    Neumann: outward normal derivative (normal (-sin a, -cos a));
    Dirichlet: the boundary value itself.
    """
    r = np.asarray(r, dtype=float)
    a = sol.alpha
    z = r * cmath.exp(-1j * a)
    if sol.condition == "dirichlet":
        return hl_eval(sol, z)
    dx, dy = hl_gradient(sol, z)
    return -math.sin(a) * dx - math.cos(a) * dy


def _decaying_terms(sol: HansonLewySolution):
    # drop the two oscillatory terms (rotations xi^0 and xi^q = -1)
    return sol.terms[1:-1]


def quasimode_trace(q: int, sigma: float, samples, surface_length: float):
    """Surface trace of the glued quasimode at frequency sigma.

    The trace combines the full corner solution at A with the decaying
    terms of the mirrored solution at B.  sigma must sit on the lattice
    sigma L = pi (k - 1/2) - pi q / 2 (within 1e-10) for some k >= q + 1;
    the gluing phases only match there.  Returns the real part of the
    glued trace at the sample positions, normalized to a unit discrete l2
    norm.  For q = 3 (mod 4), where gamma = -1, the plane-wave pair
    exp(-ix) - exp(ix) = -2i sin(x) is purely imaginary and the real part
    holds only the decaying corner terms, so the imaginary part is
    returned instead.
    """
    L = surface_length
    if not L > 0:
        raise ValueError("surface_length must be positive")
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or len(x) < 2:
        raise ValueError("samples must be a 1-d array with at least 2 positions")
    if x.min() < -1e-12 or x.max() > L + 1e-12:
        raise ValueError("samples must lie in [0, surface_length]")
    k_real = (sigma * L + math.pi * q / 2.0) / math.pi + 0.5
    k = round(k_real)
    if abs(k_real - k) * math.pi > 1e-10 * max(1.0, sigma * L):
        raise ValueError(
            f"sigma = {sigma!r} is off the quantization lattice (nearest index {k}, offset {(k_real - k) * math.pi:.3e})"
        )
    if k < q + 1:
        raise ValueError(f"lattice index k = {k} must be at least q + 1 = {q + 1}")
    sol = build_hanson_lewy(q, "neumann")
    vals = hl_eval(sol, sigma * x)
    # The mirrored corner solution at B enters with the phase that makes
    # the oscillatory parts of the two corner traces coincide; on the
    # lattice that phase is exp(-i sigma L) / gamma.
    gamma = gamma_xi(q)
    tau = cmath.exp(-1j * sigma * L) / gamma
    for t in _decaying_terms(sol):
        vals = vals + tau * t.coefficient * np.exp(-1j * t.rotation * sigma * (L - x))
    v = vals.imag if gamma == -1 else vals.real
    return v / np.linalg.norm(v)
