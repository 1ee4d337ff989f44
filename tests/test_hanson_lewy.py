"""Explicit wedge solutions: exactness identities and glued quasimodes."""

import cmath
import hashlib
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
    # hl_eval on real x is the surface trace: the same bits as at x + 0j
    sol = build_hanson_lewy(3)
    x = np.linspace(0.0, 4.0, 50)
    assert hl_eval(sol, x).tobytes() == hl_eval(sol, x + 0j).tobytes()


def _eval_term_by_term(sol, z):
    z = np.asarray(z, dtype=complex)
    out = np.zeros_like(z)
    for t in sol.terms:
        arg = np.conj(z) if t.conjugated else z
        out = out + t.coefficient * np.exp(-1j * t.rotation * arg)
    return out


def _gradient_term_by_term(sol, z):
    z = np.asarray(z, dtype=complex)
    dx = np.zeros_like(z)
    dy = np.zeros_like(z)
    for t in sol.terms:
        p = -1j * t.rotation
        arg = np.conj(z) if t.conjugated else z
        val = t.coefficient * np.exp(p * arg)
        dx = dx + p * val
        dy = dy + (-1j * p * val if t.conjugated else 1j * p * val)
    return dx, dy


@pytest.mark.parametrize("q", range(2, 9))
@pytest.mark.parametrize("condition", ["neumann", "dirichlet"])
def test_values_and_gradients_keep_the_bits_of_a_term_by_term_sum(q, condition):
    sol = build_hanson_lewy(q, condition)
    rng = np.random.default_rng(q)
    sector = rng.uniform(0.0, 6.0, 500) * np.exp(-1j * sol.alpha * rng.uniform(0.0, 1.0, 500))
    surface = np.linspace(0.0, 8.0, 2001) + 0j
    for z in (sector, surface, sector[7], complex(surface[3])):
        got, want = hl_eval(sol, z), _eval_term_by_term(sol, z)
        assert type(got) is type(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()
        for got, want in zip(hl_gradient(sol, z), _gradient_term_by_term(sol, z)):
            assert type(got) is type(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()


# the quasimode inputs of the benchmark's model workload at seed 1: q, surface length and sha256 of
# the trace at lattice index k = q + 2 on 2001 samples
QUASIMODE_DIGESTS = [
    (2, 1.1828974869817857, "ff2f27d4be484afefd22d1e0addbdbb6fe6504a5fc4affa185b591bbc2034b52"),
    (3, 0.9477455503667991, "5961fbb1f7eefb2a867ae7ba474538a4f99911056950d822803f7adc21c4cbcc"),
    (4, 1.0786102634123944, "fd614e8d07f28d4bdf666e8a9d15d30d714dd94050a7c1e19b00018a791a9bb9"),
]


@pytest.mark.parametrize("q, length, digest", QUASIMODE_DIGESTS)
def test_quasimode_trace_keeps_its_recorded_bytes(q, length, digest):
    sigma = (math.pi * (q + 1.5) - math.pi * q / 2.0) / length
    trace = quasimode_trace(q, sigma, np.linspace(0.0, length, 2001), length)
    assert hashlib.sha256(trace.tobytes()).hexdigest() == digest


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
