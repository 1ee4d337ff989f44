"""Higher-order Sturm-Liouville solver: spectra, duality, lattice approach."""

import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sloshspec import highord_sl
from sloshspec.highord_sl import (
    HighOrderSLProblem,
    SLEigenfunction,
    SLSolveError,
    ansatz_exponents,
    boundary_matrix,
    characteristic_smallest_singular_value,
    duality_map,
    eigenfunction_derivative,
    eigenfunction_eval,
    ode_asymptotic_prediction,
    roots_of_minus_one,
    solve_spectrum,
)

from _tables import BEAM_ROOTS


def log_linear_fit(ks, residuals):
    """Least-squares slope and R^2 of ln(residual) against k."""
    x = np.asarray(ks, dtype=float)
    y = np.log(np.asarray(residuals, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    return float(slope), 1.0 - ss_res / ss_tot


def positive_eigenvalues(q, condition, count):
    pad = q if condition == "neumann" else 0
    spectrum = solve_spectrum(HighOrderSLProblem(q, 1.0, condition), count + pad)
    values = [lam for lam in spectrum.eigenvalues if lam > 0]
    assert len(values) == count
    return values


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_ansatz_exponents_structure(q):
    w = ansatz_exponents(q)
    assert len(w) == 2 * q
    target = (-1.0) ** q
    assert np.allclose(w ** (2 * q), target, atol=1e-12)
    assert np.allclose(np.abs(w), 1.0, atol=1e-15)
    as_set = set(np.round(w, 12))
    assert set(np.round(np.conj(w), 12)) == as_set
    assert set(np.round(-w, 12)) == as_set
    assert any(abs(wk - 1j) < 1e-12 for wk in w)
    assert any(abs(wk + 1j) < 1e-12 for wk in w)


def test_roots_of_minus_one():
    for q in (1, 2, 3):
        w = roots_of_minus_one(q)
        assert np.allclose(w ** (2 * q), -1.0, atol=1e-12)
        assert np.all(np.diff(np.angle(w)) > 0)
    with pytest.raises(ValueError):
        roots_of_minus_one(0)


def test_frozen_beam_roots_satisfy_characteristic_equation():
    # Independent check of the frozen table: positive roots of
    # cos(x) cosh(x) = 1, written as cos(x) - sech(x) = 0 to stay bounded.
    for root in BEAM_ROOTS:
        assert abs(math.cos(root) - 1.0 / math.cosh(root)) < 1e-12


def test_beam_spectrum_with_double_zero():
    spectrum = solve_spectrum(HighOrderSLProblem(2, 1.0, "neumann"), 7)
    assert spectrum.eigenvalues[0] == 0.0
    assert spectrum.eigenvalues[1] == 0.0
    for lam, root in zip(spectrum.eigenvalues[2:], BEAM_ROOTS):
        assert lam == pytest.approx(root, abs=1e-6)
        assert abs(math.cos(lam) - 1.0 / math.cosh(lam)) < 1e-8


@pytest.mark.parametrize("q", [2, 3, 4])
def test_nonzero_spectra_agree_across_conditions(q):
    neumann = positive_eigenvalues(q, "neumann", 5)
    dirichlet = positive_eigenvalues(q, "dirichlet", 5)
    for a, b in zip(neumann, dirichlet):
        assert a == pytest.approx(b, abs=1e-8)


@pytest.mark.parametrize("q,condition", [(1, "neumann"), (3, "dirichlet")])
def test_zero_eigenvalue_multiplicity(q, condition):
    spectrum = solve_spectrum(HighOrderSLProblem(q, 1.0, condition), q + 2)
    zeros = [lam for lam in spectrum.eigenvalues if lam == 0.0]
    assert len(zeros) == (q if condition == "neumann" else 0)
    positives = [lam for lam in spectrum.eigenvalues if lam > 0]
    assert positives == sorted(positives)


def test_q1_reduces_to_the_classical_string():
    # q = 1 Neumann on [0, 1]: eigenvalues k pi with a simple zero first.
    spectrum = solve_spectrum(HighOrderSLProblem(1, 1.0, "neumann"), 5)
    assert spectrum.eigenvalues[0] == 0.0
    for k, lam in enumerate(spectrum.eigenvalues[1:], start=1):
        assert lam == pytest.approx(k * math.pi, abs=1e-9)


def test_lattice_prediction_closed_form():
    assert ode_asymptotic_prediction(2, 1.0, 4) == pytest.approx(
        math.pi * 3.5 - math.pi, abs=1e-14
    )
    assert ode_asymptotic_prediction(3, 2.0, 5) == pytest.approx(
        (math.pi * 4.5 - 1.5 * math.pi) / 2.0, abs=1e-14
    )
    with pytest.raises(ValueError, match="k >= q \\+ 1"):
        ode_asymptotic_prediction(2, 1.0, 2)
    with pytest.raises(ValueError):
        ode_asymptotic_prediction(0, 1.0, 3)
    with pytest.raises(ValueError):
        ode_asymptotic_prediction(2, -1.0, 3)


def test_lattice_approach_is_log_linear_for_q2():
    values = positive_eigenvalues(2, "neumann", 7)
    ks = range(3, 10)
    residuals = [
        abs(lam - ode_asymptotic_prediction(2, 1.0, k)) for k, lam in zip(ks, values)
    ]
    assert all(b < a for a, b in zip(residuals, residuals[1:]))
    slope, r2 = log_linear_fit(ks, residuals)
    assert r2 > 0.99
    assert slope == pytest.approx(-math.pi, abs=0.05)


def test_lattice_approach_interleaves_exact_hits_for_q3():
    # Odd q puts every even-k eigenvalue exactly on the lattice (the
    # oscillatory pair closes up over the interval); the odd-k residuals
    # decay geometrically on their own.
    values = positive_eigenvalues(3, "neumann", 8)
    ks = range(4, 12)
    residuals = [
        abs(lam - ode_asymptotic_prediction(3, 1.0, k)) for k, lam in zip(ks, values)
    ]
    exact = residuals[0::2]
    decaying = residuals[1::2]
    assert max(exact) < 1e-10
    assert all(b < a for a, b in zip(decaying, decaying[1:]))
    slope, r2 = log_linear_fit(range(5, 13, 2), decaying)
    assert r2 > 0.99
    assert slope < 0


def test_lattice_approach_q4_decays_despite_oscillation():
    # For q = 4 two decaying exponentials interfere, so the residuals are
    # modulated rather than monotone; the overall reduction still spans
    # several orders of magnitude.
    values = positive_eigenvalues(4, "neumann", 8)
    ks = range(5, 13)
    residuals = [
        abs(lam - ode_asymptotic_prediction(4, 1.0, k)) for k, lam in zip(ks, values)
    ]
    assert residuals[-1] < 1e-3 * residuals[0]
    assert max(residuals[4:]) < min(residuals[:2])


def test_boundary_matrix_is_overflow_free():
    problem = HighOrderSLProblem(3, 1.0, "neumann")
    matrix = boundary_matrix(problem, 500.0)
    assert np.all(np.isfinite(matrix))
    assert np.max(np.abs(matrix)) <= 1.0 + 1e-12
    with pytest.raises(ValueError):
        boundary_matrix(problem, 0.0)


@pytest.mark.parametrize("q", range(1, 9))
def test_boundary_determinant_is_purely_imaginary(q):
    # Conjugation permutes the ansatz columns by an odd number of swaps,
    # so det is imaginary and its computed real part is rounding.
    for condition in ("neumann", "dirichlet"):
        problem = HighOrderSLProblem(q, 1.0, condition)
        positives = [lam for lam in solve_spectrum(problem, 20).eigenvalues if lam > 0]
        lams = np.linspace(positives[0], positives[-1], 97)
        det = np.array([np.linalg.det(boundary_matrix(problem, lam)) for lam in lams])
        assert np.max(np.abs(det.real)) <= 1e-10 * np.max(np.abs(det.imag))


def test_rounding_level_determinant_does_not_seed_a_root():
    # At the first scan point pi/4 the q = 8 Dirichlet determinant is
    # ~1e-54, pure rounding; its sign must not open a bracket.
    spectrum = solve_spectrum(HighOrderSLProblem(8, 1.0, "dirichlet"), 20)
    assert min(spectrum.eigenvalues) == pytest.approx(13.87891982435006, rel=1e-10)


def test_root_on_a_scan_grid_point_is_found():
    # q = 1, L = 1: every root k pi lies on the scan grid j pi / 4.
    spectrum = solve_spectrum(HighOrderSLProblem(1, 1.0, "neumann"), 41)
    assert spectrum.eigenvalues[0] == 0.0
    expected = [k * math.pi for k in range(1, 41)]
    assert spectrum.eigenvalues[1:] == pytest.approx(expected, rel=1e-13)


FROZEN_SPECTRA = json.loads((Path(__file__).parent / "sl_spectra_kmax20.json").read_text())
LENGTHS = {"1": 1.0, "0.37": 0.37, "pi": math.pi}


@pytest.mark.parametrize("key", sorted(FROZEN_SPECTRA))
def test_spectra_match_frozen_golden_section_values(key):
    # Frozen from the golden-section minimization of sigma_min/sigma_max
    # that the bracketed root finder replaced.
    q, condition, length = key.split()
    spectrum = solve_spectrum(HighOrderSLProblem(int(q), LENGTHS[length], condition), 20)
    assert spectrum.eigenvalues == pytest.approx(FROZEN_SPECTRA[key], rel=1e-10, abs=0.0)


def test_refinement_evaluation_budget(monkeypatch):
    # counts abscissae, not calls: one call evaluates every open bracket
    evaluated = []
    original = highord_sl._det_imag

    def counted(problem, lams):
        evaluated.append(len(lams))
        return original(problem, lams)

    monkeypatch.setattr(highord_sl, "_det_imag", counted)
    positives = 0
    for q in range(2, 9):
        for condition in ("neumann", "dirichlet"):
            spectrum = solve_spectrum(HighOrderSLProblem(q, 1.0, condition), 20)
            positives += sum(lam > 0 for lam in spectrum.eigenvalues)
    assert evaluated
    assert sum(evaluated) <= 12 * positives


def _counting_brackets(monkeypatch, spoil_first_root=False):
    """Bracket counts of the `_illinois` calls made; optionally the first
    call's first root is replaced by its bracket's left end, no eigenvalue."""
    sizes = []
    original = highord_sl._illinois

    def counted(f, a, b, fa, fb):
        roots = original(f, a, b, fa, fb)
        if spoil_first_root and not sizes:
            roots[0] = a[0]
        sizes.append(len(a))
        return roots

    monkeypatch.setattr(highord_sl, "_illinois", counted)
    return sizes


def test_only_brackets_whose_roots_are_kept_are_refined(monkeypatch):
    sizes = _counting_brackets(monkeypatch)
    positives = 0
    for q in range(2, 9):
        for condition in ("neumann", "dirichlet"):
            spectrum = solve_spectrum(HighOrderSLProblem(q, 1.0, condition), 20)
            positives += sum(lam > 0 for lam in spectrum.eigenvalues)
    assert positives == 245
    assert sum(sizes) == positives


def test_a_spurious_root_sends_for_the_next_bracket(monkeypatch):
    # q = 1 Neumann on [0, 1]: eigenvalues k pi.  The scan chunk holds six
    # brackets, around pi .. 6 pi, and five positive eigenvalues are wanted.
    # The spoiled root near pi proves spurious, so the sixth bracket is
    # refined too.  Pi itself is then lost, and the density check refuses
    # the five found, 2 pi .. 6 pi, as one root short of the count
    sizes = _counting_brackets(monkeypatch, spoil_first_root=True)
    with pytest.raises(SLSolveError, match=r"5 eigenvalues located below 18\.8496 .* density predicts 6\.00"):
        solve_spectrum(HighOrderSLProblem(1, 1.0, "neumann"), 6)
    assert sizes == [5, 1]


@pytest.mark.parametrize("length", [0.37, 1.0, 3.0])
def test_high_orders_solve_and_neumann_equals_dirichlet_away_from_zero(length):
    # at small lam L and large q the boundary matrix is singular to rounding
    # over a range, and a sign change of Im det there is no eigenvalue:
    # q = 9 with Neumann walls on [0, 1] used to stop on such a root at pi/4,
    # counted four times
    for q in range(2, 21):
        neumann = solve_spectrum(HighOrderSLProblem(q, length, "neumann"), q + 12)
        dirichlet = solve_spectrum(HighOrderSLProblem(q, length, "dirichlet"), 12)
        assert neumann.eigenvalues[:q] == [0.0] * q
        np.testing.assert_allclose(neumann.eigenvalues[q:], dirichlet.eigenvalues, rtol=1e-8, err_msg=f"q={q}")


def scalar_reference_spectrum(problem, kmax):
    """solve_spectrum's scan with one scalar Illinois solve and one SVD per bracket."""
    q, L = problem.q, problem.interval_length
    matrix = lambda lam: highord_sl._boundary_matrices(problem, [lam])[0]

    def illinois(a, b, fa, fb):
        side = 0
        while b - a > 4.0 * np.finfo(float).eps * b:
            c = (a * fb - b * fa) / (fb - fa)
            fc = float(np.linalg.det(matrix(c)).imag) if a < c < b else 0.0
            if fc == 0.0:
                return c
            if (fc > 0) == (fb > 0):
                b, fb = c, fc
                if side == -1:
                    fa *= 0.5
                side = -1
            else:
                a, fa = c, fc
                if side == 1:
                    fb *= 0.5
                side = 1
        return 0.5 * (a + b)

    zeros = q if problem.condition == "neumann" else 0
    needed = kmax - zeros
    step, lam_lo = math.pi / (4.0 * L), 0.25 * math.pi / L
    ceiling = ode_asymptotic_prediction(q, L, q + needed + 1) + math.pi / (2.0 * L)
    chunk = int(math.ceil((ceiling - lam_lo) / step))
    found, prev, start = [], None, 0
    while len(found) < needed:
        grid = lam_lo + step * np.arange(start, start + chunk + 1)
        det = np.linalg.det(highord_sl._boundary_matrices(problem, grid))
        trusted = np.abs(det.imag) > 16.0 * np.abs(det.real)
        for lam, f in zip(grid[trusted], det.imag[trusted]):
            if prev is not None and (f > 0) != (prev[1] > 0) and len(found) < needed:
                root = illinois(prev[0], lam, prev[1], f)
                s = np.linalg.svd(matrix(root))[1]  # with vectors, as the solve used to take them
                found.extend([root] * int(np.sum(s / s[0] < highord_sl.SINGULAR_THRESHOLD)))
            prev = (lam, f)
        start += len(grid)
    return [0.0] * zeros + found[:needed]


@pytest.mark.parametrize("length", [0.37, 1.0, math.pi])
@pytest.mark.parametrize("condition", ["neumann", "dirichlet"])
def test_batched_refinement_matches_scalar_refinement_bit_for_bit(condition, length):
    for q in range(1, 9):
        problem = HighOrderSLProblem(q, length, condition)
        spectrum = solve_spectrum(problem, 20)
        eigenvalues = scalar_reference_spectrum(problem, 20)
        assert np.asarray(spectrum.eigenvalues).tobytes() == np.asarray(eigenvalues).tobytes()


def test_characteristic_ratio_dips_at_eigenvalues():
    problem = HighOrderSLProblem(2, 1.0, "neumann")
    at_root = characteristic_smallest_singular_value(problem, BEAM_ROOTS[0])
    nearby = characteristic_smallest_singular_value(problem, BEAM_ROOTS[0] + 0.3)
    assert at_root < 1e-6
    assert nearby > 1e-3


def test_eigenfunction_satisfies_ode_and_boundary_conditions():
    spectrum = solve_spectrum(HighOrderSLProblem(2, 1.0, "neumann"), 4)
    entry = spectrum.eigenfunction(2)
    lam = entry.lam
    x = np.linspace(0.05, 0.95, 7)
    lhs = eigenfunction_derivative(entry, x, 4)
    rhs = lam**4 * eigenfunction_eval(entry, x)
    assert np.allclose(lhs, rhs, rtol=1e-8, atol=1e-8 * lam**4)
    for order in (2, 3):
        scale = lam**order
        assert abs(eigenfunction_derivative(entry, 0.0, order)) < 1e-7 * scale
        assert abs(eigenfunction_derivative(entry, 1.0, order)) < 1e-7 * scale
    grid = np.linspace(0.0, 1.0, 20001)
    values = eigenfunction_eval(entry, grid)
    assert np.trapezoid(values**2, grid) == pytest.approx(1.0, abs=1e-5)


# sha256 over eigenvalues, scaled and plain coefficients, and eigenfunction
# values and second derivatives on 41 points, q = 1..8, both walls, three
# lengths, kmax 20; recorded when every solve stored its kernel vectors
EIGENFUNCTION_DIGEST = "1c16b9b8aa11b4793c9f833a6d66680d79e9ffc5e1a5d799794da68f5bf857f0"


def test_rendered_eigenfunctions_keep_their_bits():
    digest = hashlib.sha256()
    for q in range(1, 9):
        for condition in ("neumann", "dirichlet"):
            for length in (0.37, 1.0, 3.0):
                spectrum = solve_spectrum(HighOrderSLProblem(q, length, condition), 20)
                digest.update(np.asarray(spectrum.eigenvalues, dtype=float).tobytes())
                x = np.linspace(0.0, length, 41)
                for i, lam in enumerate(spectrum.eigenvalues):
                    if lam > 0:
                        entry = spectrum.eigenfunction(i)
                        for values in (
                            entry.scaled_coefficients,
                            entry.coefficients,
                            eigenfunction_eval(entry, x),
                            eigenfunction_derivative(entry, x, 2),
                        ):
                            digest.update(np.ascontiguousarray(values).tobytes())
    assert digest.hexdigest() == EIGENFUNCTION_DIGEST


def test_zero_mode_has_no_rendered_eigenfunction():
    spectrum = solve_spectrum(HighOrderSLProblem(2, 1.0, "neumann"), 3)
    with pytest.raises(ValueError, match="polynomial kernel"):
        spectrum.eigenfunction(0)


def test_duality_map_swaps_conditions():
    q = 2
    neumann = HighOrderSLProblem(q, 1.0, "neumann")
    dirichlet = HighOrderSLProblem(q, 1.0, "dirichlet")
    spectrum = solve_spectrum(neumann, 3)
    entry = spectrum.eigenfunction(2)
    mapped = SLEigenfunction(dirichlet, entry.lam, duality_map(entry.scaled_coefficients, q))
    for order in (0, 1):
        assert abs(eigenfunction_derivative(mapped, 0.0, order)) < 1e-7
        assert abs(eigenfunction_derivative(mapped, 1.0, order)) < 1e-7
    np.testing.assert_allclose(mapped.coefficients, duality_map(entry.coefficients, q), rtol=1e-14)
    twice = duality_map(duality_map(entry.coefficients, q), q)
    assert np.allclose(twice, (-1.0) ** q * entry.coefficients, atol=1e-14)


def test_problem_validation():
    with pytest.raises(ValueError):
        HighOrderSLProblem(0, 1.0, "neumann")
    with pytest.raises(ValueError):
        HighOrderSLProblem(2, 0.0, "neumann")
    with pytest.raises(ValueError):
        HighOrderSLProblem(2, 1.0, "robin")
    with pytest.raises(ValueError):
        solve_spectrum(HighOrderSLProblem(2, 1.0, "neumann"), 0)


def test_a_subnormal_length_is_a_solve_error():
    # pi / (4 L) overflows, and the scan's chunk count would be nan
    problem = HighOrderSLProblem(2, 1e-320, "neumann")
    with pytest.raises(SLSolveError, match="floating-point range"):
        solve_spectrum(problem, 8)
    assert solve_spectrum(problem, 2).eigenvalues == [0.0, 0.0]


@pytest.mark.parametrize("condition", ["neumann", "dirichlet"])
def test_q21_is_refused_rather_than_returned_one_index_off(condition):
    # at q = 21 the scan misses one root, so the positive count falls one
    # short of the one-per-pi/L density (by 0.77 to 1.0 on a grid of
    # lengths and counts); correct spectra up to q = 20 miss it by at most
    # 0.38, so the 0.5 band refuses the first and keeps the second
    zeros = 21 if condition == "neumann" else 0
    with pytest.raises(SLSolveError, match="density"):
        solve_spectrum(HighOrderSLProblem(21, 1.0, condition), zeros + 8)
    for count in (1, 30):
        spectrum = solve_spectrum(HighOrderSLProblem(20, 1.0, condition), count + (20 if condition == "neumann" else 0))
        positive = [lam for lam in spectrum.eigenvalues if lam > 0]
        assert len(positive) == count
        # the last value lies within half a lattice spacing (pi/2 on [0, 1]) of its own lattice point
        assert abs(positive[-1] - ode_asymptotic_prediction(20, 1.0, 20 + count)) < math.pi / 2


def test_a_scan_past_q_20_is_refused_before_it_allocates():
    # one scan chunk at q = 60 would stack hundreds of (120 x 120) complex matrices
    tracemalloc.start()
    try:
        with pytest.raises(SLSolveError, match="density"):
            solve_spectrum(HighOrderSLProblem(60, 1.0, "dirichlet"), 1)
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()


def test_zero_modes_of_a_huge_q_cost_only_the_zeros_asked_for():
    tracemalloc.start()
    try:
        spectrum = solve_spectrum(HighOrderSLProblem(10**7, 1.0, "neumann"), 3)
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()
    assert spectrum.eigenvalues == [0.0, 0.0, 0.0]
