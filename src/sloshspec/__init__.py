"""sloshspec: spectral computations for two-dimensional sloshing problems.

The package computes eigenvalues of the mixed Steklov problem modeling
free fluid oscillation in a two-dimensional container, together with
the closed-form objects that describe their asymptotics: quasi-frequency
lattices, higher-order Sturm-Liouville spectra, and explicit corner
model solutions.  A P1 finite element solver checks those asymptotics:
`solve_steklov` takes a domain or mesh to eigenpairs, and on demand to
the assembled system, whose Schur-complement Dirichlet-to-Neumann map
serves the residual checks and dumps.  A configuration-driven harness
reproduces the worked eigenvalue tables.
"""

from .asymptotics import (
    QuasiFrequencyModel,
    quasi_frequency,
    remainder_exponent,
    weyl_count_estimate,
)
from .fem_steklov import (
    AssembledSystem,
    ConvergenceStudy,
    DtNOperatorMatrix,
    SteklovSolveError,
    SteklovSpectrum,
    assemble,
    convergence_study,
    dtn_action,
    dtn_matrix,
    solve_steklov,
)
from .geometry import (
    BoundaryPiece,
    CircularArc,
    CornerSpec,
    LineSegment,
    MeshError,
    ParametricCurve,
    Polyline,
    SloshingDomain,
    TriangleMesh,
    build_curvilinear_example,
    build_rectangle_domain,
    build_triangle_domain,
    domain_from_json,
    domain_to_json,
    generate_mesh,
    read_mesh_text,
    write_mesh_text,
)
from .harness import (
    ComparisonReport,
    ConfigError,
    ExperimentConfig,
    ExperimentTable,
    ReportBlock,
    config_from_json,
    quasimode_residual_study,
    reproduce_table,
    run_experiment,
    sl_vs_sloshing,
)
from .highord_sl import (
    HighOrderSLProblem,
    SLEigenfunction,
    SLSolveError,
    SLSpectrum,
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

__version__ = "0.1.0"

__all__ = [
    "AssembledSystem",
    "BoundaryPiece",
    "CircularArc",
    "ComparisonReport",
    "ConfigError",
    "ConvergenceStudy",
    "CornerSpec",
    "DtNOperatorMatrix",
    "ExperimentConfig",
    "ExperimentTable",
    "HighOrderSLProblem",
    "LineSegment",
    "MeshError",
    "ParametricCurve",
    "Polyline",
    "QuasiFrequencyModel",
    "ReportBlock",
    "SLEigenfunction",
    "SLSolveError",
    "SLSpectrum",
    "SloshingDomain",
    "SteklovSolveError",
    "SteklovSpectrum",
    "TriangleMesh",
    "ansatz_exponents",
    "assemble",
    "boundary_matrix",
    "build_curvilinear_example",
    "build_rectangle_domain",
    "build_triangle_domain",
    "characteristic_smallest_singular_value",
    "config_from_json",
    "convergence_study",
    "domain_from_json",
    "domain_to_json",
    "dtn_action",
    "dtn_matrix",
    "duality_map",
    "eigenfunction_derivative",
    "eigenfunction_eval",
    "generate_mesh",
    "ode_asymptotic_prediction",
    "quasi_frequency",
    "quasimode_residual_study",
    "read_mesh_text",
    "remainder_exponent",
    "reproduce_table",
    "roots_of_minus_one",
    "run_experiment",
    "sl_vs_sloshing",
    "solve_steklov",
    "weyl_count_estimate",
    "write_mesh_text",
]
