"""Shared fixtures and the acceptance-criteria terminal summary.

The expensive finite element solves (the two reference tables, the
isosceles convergence study, the six far-field fits) are session-scoped
so the module tests and the acceptance gate share one computation.
"""

import math
import os
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import sloshspec
from sloshspec.fem_steklov import convergence_study
from sloshspec.geometry import CornerSpec, build_triangle_domain
from sloshspec.harness import reproduce_table
from sloshspec.highord_sl import HighOrderSLProblem, solve_spectrum
from sloshspec.model_solutions.peters import eval_peters, far_field_fit

settings.register_profile(
    "deterministic",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("deterministic")


@pytest.fixture(scope="session", autouse=True)
def subprocesses_import_this_package():
    """Point the CLI tests' `python -m sloshspec` subprocesses at the
    package this session imported, which pytest finds under src/ even in
    a checkout where it is not installed."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.path.dirname(os.path.dirname(sloshspec.__file__)), prepend=os.pathsep)
        yield


@pytest.fixture(scope="session")
def ex1_report():
    """Neumann and Dirichlet tables for the 2pi/5 / pi/6 triangle, L = 2."""
    return reproduce_table(1, 0.01)


@pytest.fixture(scope="session")
def ex2_report():
    """Tables for the two curvilinear mixed-condition containers."""
    return reproduce_table(2, 0.005)


@pytest.fixture(scope="session")
def iso_domain():
    return build_triangle_domain(math.pi / 4, math.pi / 4, 1.0)


@pytest.fixture(scope="session")
def iso_study(iso_domain):
    """Two-level convergence study on the right isosceles container."""
    return convergence_study(iso_domain, (0.005, 0.0025), tuple(range(1, 11)), grading_factor=0.25)


@pytest.fixture(scope="session")
def iso_sl_spectrum():
    """Fourth-order ODE spectrum matching the isosceles container."""
    return solve_spectrum(HighOrderSLProblem(2, 1.0, "neumann"), 10)


@pytest.fixture(scope="session")
def peters_fits():
    """Far-field fits for all six (angle, wall condition) sector configurations."""
    fits = {}
    x = np.linspace(40.0 / 200, 40.0, 200)
    for condition in ("neumann", "dirichlet"):
        for denominator in (3, 4, 5):
            params = CornerSpec(math.pi / denominator, condition)
            values = eval_peters(params, x)
            fits[(condition, denominator)] = (params, far_field_fit(params, x, values))
    return fits


CRITERIA = {
    1: "closed-form quasi-frequencies reproduce the reference sigma columns",
    2: "triangle eigenvalue tables from the P1 solver hit stated accuracy",
    3: "curvilinear container tables and surface length hit stated accuracy",
    4: "fourth-order solver: beam spectrum, N/D equality, lattice approach",
    5: "contour integral real part matches the closed form",
    6: "corner solutions: derivative vanishing, gluing constant, defects",
    7: "sector far fields: fitted decay exponents and phases",
    8: "property suites: monotonicity, ordering, Weyl, DtN, determinism",
    9: "FEM eigenvalues approach the ODE spectrum along the lattice",
}

_CRITERION_RE = re.compile(r"test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = {}
    for key, reps in terminalreporter.stats.items():
        for rep in reps:
            # "deselected" holds the dropped items themselves, not reports
            if not isinstance(rep, pytest.TestReport):
                continue
            nodeid = rep.nodeid
            if "test_acceptance.py" not in nodeid:
                continue
            match = _CRITERION_RE.search(nodeid)
            if not match:
                continue
            if getattr(rep, "when", "call") not in ("call", "setup"):
                continue
            number = int(match.group(1))
            passed, failed = outcomes.get(number, (0, 0))
            if rep.passed and rep.when == "call":
                outcomes[number] = (passed + 1, failed)
            elif rep.failed:
                outcomes[number] = (passed, failed + 1)
    if not outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(CRITERIA):
        if number not in outcomes:
            terminalreporter.write_line(f"criterion {number}: NOT RUN {CRITERIA[number]}")
            continue
        passed, failed = outcomes[number]
        if failed:
            verdict, markup = f"FAIL ({failed} of {passed + failed} checks)", {"red": True}
        else:
            verdict, markup = "PASS", {"green": True}
        terminalreporter.write_line(
            f"criterion {number}: {verdict}  {CRITERIA[number]}", **markup
        )
