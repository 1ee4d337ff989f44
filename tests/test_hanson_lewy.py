"""Explicit wedge solutions: exactness identities and glued quasimodes."""

import cmath
import math

import numpy as np
import pytest

from sloshspec.model_solutions.hanson_lewy import (
    build_hanson_lewy,
    eta,
    gamma_xi,
    hl_derivative_at_origin,
    hl_eval,
    hl_gradient,
    hl_trace,
    quasimode_trace,
    steklov_defect,
    wall_defect,
)

QS = (2, 3, 4)


@pytest.mark.parametrize("q", range(1, 9))
def test_gamma_closed_form_equals_eta_product(q):
    xi = cmath.exp(-1j * math.pi / q)
    product = 1.0 + 0j
    for j in range(1, q):
        product *= eta(xi**j)
    assert gamma_xi(q) == 1j ** (q - 1)
    assert abs(product - gamma_xi(q)) < 1e-13


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("condition", ["neumann", "dirichlet"])
def test_trace_derivatives_vanish_in_the_condition_band(q, condition):
    sol = build_hanson_lewy(q, condition)
    all_orders = [abs(hl_derivative_at_origin(sol, m)) for m in range(2 * q)]
    scale = max(all_orders)
    assert scale > 0.1
    band = range(q, 2 * q) if condition == "neumann" else range(0, q)
    for m in band:
        assert all_orders[m] <= 1e-12 * scale


@pytest.mark.parametrize("q", QS)
def test_solution_is_harmonic(q):
    sol = build_hanson_lewy(q)
    h = 1e-3
    for z in (0.4 - 0.2j, 1.1 - 0.6j):
        stencil = hl_eval(sol, np.array([z + h, z - h, z + 1j * h, z - 1j * h, z]))
        laplacian = (stencil[:4].sum() - 4 * stencil[4]) / h**2
        assert abs(laplacian) < 1e-5


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("condition", ["neumann", "dirichlet"])
def test_boundary_defects(q, condition):
    sol = build_hanson_lewy(q, condition)
    x = np.linspace(0.0, 5.0, 201)
    assert np.max(np.abs(steklov_defect(sol, x))) < 1e-10
    r = np.linspace(0.05, 3.0, 101)
    assert np.max(np.abs(wall_defect(sol, r))) < 1e-10


def test_rotations_stay_on_the_unit_circle():
    for q in QS:
        sol = build_hanson_lewy(q)
        assert len(sol.terms) == 2 * q
        for term in sol.terms:
            assert abs(abs(term.rotation) - 1.0) < 1e-14


def test_trace_agrees_with_plane_values_on_the_surface():
    sol = build_hanson_lewy(3)
    x = np.linspace(0.0, 4.0, 50)
    assert np.max(np.abs(hl_trace(sol, x) - hl_eval(sol, x + 0j))) < 1e-13


def test_gradient_matches_finite_differences():
    sol = build_hanson_lewy(2)
    h = 1e-6
    for z in (0.3 - 0.4j, 1.2 - 0.1j):
        dx, dy = hl_gradient(sol, z)
        fd_x = (hl_eval(sol, z + h) - hl_eval(sol, z - h)) / (2 * h)
        fd_y = (hl_eval(sol, z + 1j * h) - hl_eval(sol, z - 1j * h)) / (2 * h)
        assert abs(complex(dx) - complex(fd_x)) < 1e-7
        assert abs(complex(dy) - complex(fd_y)) < 1e-7


def test_build_validation():
    with pytest.raises(ValueError):
        build_hanson_lewy(0)
    with pytest.raises(ValueError):
        build_hanson_lewy(2, "robin")
    with pytest.raises(ValueError):
        hl_derivative_at_origin(build_hanson_lewy(2), -1)
    with pytest.raises(ValueError):
        gamma_xi(0)


def lattice_sigma(q, k, length):
    return (math.pi * (k - 0.5) - math.pi * q / 2.0) / length


def test_quasimode_trace_requires_the_lattice():
    x = np.linspace(0.0, 1.0, 64)
    sigma = lattice_sigma(2, 5, 1.0)
    trace = quasimode_trace(2, sigma, x, 1.0)
    assert np.linalg.norm(trace) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="quantization lattice"):
        quasimode_trace(2, sigma + 0.01, x, 1.0)
    with pytest.raises(ValueError, match="at least q \\+ 1"):
        quasimode_trace(2, lattice_sigma(2, 2, 1.0), x, 1.0)
    with pytest.raises(ValueError, match="surface_length"):
        quasimode_trace(2, sigma, x, -1.0)
    with pytest.raises(ValueError, match="samples"):
        quasimode_trace(2, sigma, np.array([0.5]), 1.0)
    with pytest.raises(ValueError, match="lie in"):
        quasimode_trace(2, sigma, np.array([-0.2, 0.5]), 1.0)


def test_quasimode_trace_is_deterministic():
    x = np.linspace(0.0, 1.0, 128)
    sigma = lattice_sigma(2, 6, 1.0)
    a = quasimode_trace(2, sigma, x, 1.0)
    b = quasimode_trace(2, sigma, x, 1.0)
    assert np.array_equal(a, b)


def _plane_wave_fit(q, k, length):
    """(amplitude, misfit, samples) of a plane-wave fit to the middle half."""
    sigma = lattice_sigma(q, k, length)
    x = np.linspace(0.0, length, 1024)
    trace = quasimode_trace(q, sigma, x, length)
    middle = (x > 0.25 * length) & (x < 0.75 * length)
    basis = np.column_stack([np.cos(sigma * x[middle]), np.sin(sigma * x[middle])])
    coeffs, residual, _, _ = np.linalg.lstsq(basis, trace[middle], rcond=None)
    misfit = math.sqrt(float(residual[0])) if residual.size else 0.0
    return math.hypot(*coeffs), misfit, int(middle.sum())


def test_quasimode_is_a_plane_wave_away_from_the_corners():
    # Corner corrections decay like exp(-sigma * distance); at k = 8 the
    # middle half of the surface should carry an almost pure wave.
    amplitude, misfit, n = _plane_wave_fit(2, 8, 1.0)
    assert misfit < 0.01 * amplitude * math.sqrt(n)


@pytest.mark.parametrize("q, k", [(3, 10), (7, 24)])
def test_quasimode_keeps_its_plane_wave_when_gamma_is_minus_one(q, k):
    # gamma = -1 makes the plane-wave pair exp(-ix) - exp(ix) purely
    # imaginary; the trace must still be that wave, carrying the whole
    # unit norm, not the corner terms alone
    assert gamma_xi(q) == -1
    amplitude, misfit, n = _plane_wave_fit(q, k, 1.0)
    assert misfit < 0.01 * amplitude * math.sqrt(n)
    assert amplitude > 0.95 * math.sqrt(2.0 / 1024)
