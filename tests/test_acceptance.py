"""End-to-end accuracy gate.

Each numbered criterion gets one or more test functions named
test_criterion_<n>_*; the terminal summary hook in conftest.py folds
their outcomes into one PASS/FAIL line per criterion.  Tolerances here
are the advertised ones, asserted literally; module tests elsewhere pin
tighter measured behavior.
"""

import math
import time

import numpy as np
import pytest

from sloshspec.asymptotics import QuasiFrequencyModel, quasi_frequency
from sloshspec.fem_steklov import dtn_matrix, assemble, solve_steklov
from sloshspec.geometry.domain import (
    CornerSpec,
    build_curvilinear_example,
    build_triangle_domain,
)
from sloshspec.geometry.mesh import generate_mesh
from sloshspec.highord_sl import (
    HighOrderSLProblem,
    ode_asymptotic_prediction,
    solve_spectrum,
)
from sloshspec.model_solutions.contour import eval_J
from sloshspec.model_solutions.hanson_lewy import (
    build_hanson_lewy,
    gamma_xi,
    hl_derivative_at_origin,
    steklov_defect,
    wall_defect,
)

from _tables import BEAM_ROOTS, EX1_TABLE, EX2_TABLE, EX2_SURFACE_LENGTH


def wrap_angle(value):
    return (value + math.pi) % (2 * math.pi) - math.pi


def log_linear_r2(k, residuals):
    k = np.asarray(k, dtype=float)
    y = np.log(np.asarray(residuals, dtype=float))
    slope, intercept = np.polyfit(k, y, 1)
    fitted = slope * k + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return slope, 1.0 - ss_res / ss_tot


# ---------------------------------------------------------------------------
# criterion 1: closed-form quasi-frequencies against the reference columns
# ---------------------------------------------------------------------------

def test_criterion_1_sigma_columns_match_reference():
    length = build_curvilinear_example("+").surface_length

    def two_term(alpha, beta, length, wall_a, wall_b):
        return QuasiFrequencyModel(CornerSpec(alpha, wall_a), CornerSpec(beta, wall_b), length)

    cases = [
        (
            two_term(2 * math.pi / 5, math.pi / 6, 2.0, "neumann", "neumann"),
            [row[2] for row in EX1_TABLE],
        ),
        (
            two_term(2 * math.pi / 5, math.pi / 6, 2.0, "dirichlet", "dirichlet"),
            [row[4] for row in EX1_TABLE],
        ),
        (
            two_term(math.pi / 4, 3 * math.pi / 4, length, "dirichlet", "neumann"),
            [row[2] for row in EX2_TABLE],
        ),
        (
            two_term(3 * math.pi / 4, math.pi / 4, length, "dirichlet", "neumann"),
            [row[4] for row in EX2_TABLE],
        ),
    ]
    started = time.perf_counter()
    computed = [[quasi_frequency(model, k) for k in range(1, 11)] for model, _ in cases]
    elapsed = time.perf_counter() - started
    for (model, reference), sigmas in zip(cases, computed):
        for sigma, ref in zip(sigmas, reference):
            assert abs(sigma - ref) < 5e-4, model
    assert elapsed < 0.25


# ---------------------------------------------------------------------------
# criterion 2: triangle eigenvalue tables from the P1 solver
# ---------------------------------------------------------------------------

def test_criterion_2_triangle_tables(ex1_report):
    assert ex1_report.metadata["h"] <= 0.01 * 2.0
    assert ex1_report.metadata["grading_factor"] < 1.0
    neumann = ex1_report.block("neumann")
    dirichlet = ex1_report.block("dirichlet")
    lam5 = EX1_TABLE[4][1]
    lam5_d = EX1_TABLE[4][3]
    assert abs(neumann.computed[4] - lam5) / lam5 < 5e-3
    assert abs(dirichlet.computed[4] - lam5_d) / lam5_d < 5e-3
    for block, col in ((neumann, 1), (dirichlet, 3)):
        for i, row in enumerate(EX1_TABLE):
            ref = row[col]
            if ref == 0.0:
                assert abs(block.computed[i]) < 1e-10
            else:
                assert abs(block.computed[i] - ref) / ref < 1e-2
    assert ex1_report.metadata["runtime_seconds"] < 240.0


# ---------------------------------------------------------------------------
# criterion 3: curvilinear container tables and surface length
# ---------------------------------------------------------------------------

def test_criterion_3_curvilinear_tables(ex2_report):
    plus = ex2_report.block("omega_plus")
    minus = ex2_report.block("omega_minus")
    for block, col in ((plus, 1), (minus, 3)):
        for i, row in enumerate(EX2_TABLE):
            if row[0] >= 5:
                ref = row[col]
                assert abs(block.computed[i] - ref) / ref < 1e-2
    assert abs(plus.computed[9] - 25.5511) / 25.5511 < 1e-2
    assert abs(minus.computed[9] - 23.5873) / 23.5873 < 1e-2
    length = build_curvilinear_example("+").surface_length
    assert abs(length - EX2_SURFACE_LENGTH) < 1e-5


# ---------------------------------------------------------------------------
# criterion 4: fourth-order solver spectrum and lattice approach
# ---------------------------------------------------------------------------

def test_criterion_4_beam_spectrum(iso_sl_spectrum):
    expected = [0.0, 0.0] + list(BEAM_ROOTS[:3])
    for lam, ref in zip(iso_sl_spectrum.eigenvalues[:5], expected):
        assert abs(lam - ref) < 1e-6


def test_criterion_4_neumann_dirichlet_nonzero_equality():
    for q in (2, 3, 4):
        neumann = solve_spectrum(HighOrderSLProblem(q, 1.0, "neumann"), q + 6)
        dirichlet = solve_spectrum(HighOrderSLProblem(q, 1.0, "dirichlet"), 6)
        positive = [lam for lam in neumann.eigenvalues if lam > 1e-8]
        for lam_n, lam_d in zip(positive, dirichlet.eigenvalues):
            assert abs(lam_n - lam_d) < 1e-8, q


def test_criterion_4_lattice_approach_is_log_linear():
    spectrum = solve_spectrum(HighOrderSLProblem(2, 1.0, "neumann"), 9)
    ks = range(3, 10)
    residuals = [
        abs(spectrum.eigenvalues[k - 1] - ode_asymptotic_prediction(2, 1.0, k))
        for k in ks
    ]
    slope, r2 = log_linear_r2(list(ks), residuals)
    assert slope < 0
    assert r2 > 0.99


# ---------------------------------------------------------------------------
# criterion 5: contour integral real part
# ---------------------------------------------------------------------------

def test_criterion_5_contour_real_part():
    for mu in (0.75, 1.0, 1.5, 2.0, 3.0):
        closed_form = math.pi**2 * (1.0 - mu) / 4.0
        assert abs(eval_J(mu).real - closed_form) <= 1e-8, mu


# ---------------------------------------------------------------------------
# criterion 6: corner solutions
# ---------------------------------------------------------------------------

def test_criterion_6_derivative_vanishing():
    for q in (2, 3, 4):
        for condition, band in (("neumann", range(q, 2 * q)), ("dirichlet", range(0, q))):
            sol = build_hanson_lewy(q, condition)
            scale = max(
                abs(hl_derivative_at_origin(sol, m)) for m in range(2 * q)
            )
            assert scale > 0.1
            for m in band:
                assert abs(hl_derivative_at_origin(sol, m)) <= 1e-12 * scale, (q, condition, m)


def test_criterion_6_gluing_constant_is_exact():
    for q in range(1, 9):
        assert gamma_xi(q) == 1j ** (q - 1)


def test_criterion_6_boundary_defects():
    x = np.linspace(0.0, 5.0, 41)
    r = np.linspace(0.05, 3.0, 40)
    for q in (2, 3, 4):
        for condition in ("neumann", "dirichlet"):
            sol = build_hanson_lewy(q, condition)
            assert np.max(np.abs(steklov_defect(sol, x))) <= 1e-10, (q, condition)
            assert np.max(np.abs(wall_defect(sol, r))) <= 1e-10, (q, condition)


# ---------------------------------------------------------------------------
# criterion 7: sector far-field decay rates and phases
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("denominator", (3, 4, 5))
@pytest.mark.parametrize("condition", ("neumann", "dirichlet"))
def test_criterion_7_decay_rate(peters_fits, condition, denominator):
    params, fit = peters_fits[(condition, denominator)]
    target = -params.mu if condition == "neumann" else -2.0 * params.mu
    assert abs(fit.decay_exponent - target) < 0.3


@pytest.mark.parametrize("denominator", (3, 4, 5))
@pytest.mark.parametrize("condition", ("neumann", "dirichlet"))
def test_criterion_7_phase(peters_fits, condition, denominator):
    params, fit = peters_fits[(condition, denominator)]
    assert abs(wrap_angle(fit.phase - params.chi)) < 0.02


# ---------------------------------------------------------------------------
# criterion 8: property suites
# ---------------------------------------------------------------------------

def test_criterion_8_apex_deepening_monotonicity():
    shallow = build_triangle_domain(2 * math.pi / 5, math.pi / 6, 2.0)
    deep = build_triangle_domain(2 * math.pi / 5, math.pi / 4, 2.0)
    n_shallow = solve_steklov(generate_mesh(shallow, 0.02), 8).eigenvalues
    n_deep = solve_steklov(generate_mesh(deep, 0.02), 8).eigenvalues
    assert (n_deep >= n_shallow - 1e-10).all()

    shallow_d = build_triangle_domain(
        2 * math.pi / 5, math.pi / 6, 2.0, wall_conditions=("dirichlet", "dirichlet")
    )
    deep_d = build_triangle_domain(
        2 * math.pi / 5, math.pi / 4, 2.0, wall_conditions=("dirichlet", "dirichlet")
    )
    d_shallow = solve_steklov(generate_mesh(shallow_d, 0.02), 8).eigenvalues
    d_deep = solve_steklov(generate_mesh(deep_d, 0.02), 8).eigenvalues
    assert (d_deep <= d_shallow + 1e-10).all()


def test_criterion_8_dirichlet_walls_raise_every_eigenvalue(ex1_report):
    neumann = ex1_report.block("neumann").computed
    dirichlet = ex1_report.block("dirichlet").computed
    for lam_n, lam_d in zip(neumann, dirichlet):
        assert lam_d > lam_n


def test_criterion_8_weyl_counting_stays_within_bound(ex1_report):
    # the counting function is a step function; compare against the
    # linear law at its jumps (half count) and at gap midpoints
    for label in ("neumann", "dirichlet"):
        lam = np.asarray(ex1_report.block(label).computed)
        worst = 0.0
        for i, value in enumerate(lam, start=1):
            worst = max(worst, abs((i - 0.5) - 2.0 * value / math.pi))
        for i in range(1, len(lam)):
            mid = 0.5 * (lam[i - 1] + lam[i])
            worst = max(worst, abs(i - 2.0 * mid / math.pi))
        assert worst <= 1.5, label


def test_criterion_8_neumann_ground_state_and_simple_gaps(ex1_report):
    neumann = ex1_report.block("neumann").computed
    assert abs(neumann[0]) < 1e-10
    for block in ("neumann", "dirichlet"):
        values = ex1_report.block(block).computed
        gaps = np.diff(values)
        assert (gaps > 1e-3).all(), block


def test_criterion_8_dtn_matrix_symmetric_psd(iso_domain):
    system = assemble(generate_mesh(iso_domain, 0.05))
    dtn = dtn_matrix(system)
    assert np.array_equal(dtn.matrix, dtn.matrix.T)
    eigs = np.linalg.eigvalsh(dtn.matrix)
    assert eigs[0] >= -1e-10 * max(1.0, eigs[-1])


def test_criterion_8_reruns_are_byte_identical(iso_domain):
    mesh_a = generate_mesh(iso_domain, 0.05)
    mesh_b = generate_mesh(iso_domain, 0.05)
    assert mesh_a.nodes.tobytes() == mesh_b.nodes.tobytes()
    assert mesh_a.triangles.tobytes() == mesh_b.triangles.tobytes()
    spec_a = solve_steklov(mesh_a, 5)
    spec_b = solve_steklov(mesh_b, 5)
    assert spec_a.eigenvalues.tobytes() == spec_b.eigenvalues.tobytes()
    assert spec_a.traces.tobytes() == spec_b.traces.tobytes()


def test_criterion_8_two_term_law_in_the_refined_limit(iso_study):
    # Richardson limit of the tenth eigenvalue against the two-term
    # lattice value pi (k - 1/2) - pi
    lattice = math.pi * 8.5
    assert abs(iso_study.richardson[9] - lattice) < 0.02


# ---------------------------------------------------------------------------
# criterion 9: FEM spectrum approaches the ODE spectrum along the lattice
# ---------------------------------------------------------------------------

def test_criterion_9_ode_gap_closes_with_k(iso_study, iso_sl_spectrum):
    ks = range(3, 9)
    gaps = [
        abs(iso_study.values[-1, k - 1] - iso_sl_spectrum.eigenvalues[k - 1])
        for k in ks
    ]
    slope, _ = log_linear_r2(list(ks), gaps)
    assert slope < 0
    assert gaps[-1] < iso_study.errbar[7]
