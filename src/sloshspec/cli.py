"""Command-line interface.

Subcommands map one-to-one onto the computational modules:

    asymptotics   closed-form quasi-frequency lattices
    sl            higher-order Sturm-Liouville spectra
    peters        sector model solutions sampled along the surface
    fem           Steklov spectrum of a domain described in JSON
    reproduce     eigenvalue tables for the two worked examples
    residual      quasimode residuals against the discrete DtN map
    convergence   mesh-refinement study for selected eigenvalues
    run           execute an experiment config file

Results go to stdout, or to files under --out DIR.  Everything is
deterministic, also across BLAS thread counts (OPENBLAS_NUM_THREADS and
OMP_NUM_THREADS in the environment set them).  fem, peters, reproduce,
residual and convergence build the ExperimentConfig that `run` would
read and print the `text` of what harness.compute_experiment returns,
so they and `run` share one computation, one validation and one
renderer.  Their flags carry the config field names as argparse dests,
one `_experiment` builds every such config from them, and a config
error names the flag the user typed.
"""

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from .asymptotics import QuasiFrequencyModel, quasi_frequency
from .fem_steklov import SteklovSolveError, dtn_matrix
from .geometry import CornerSpec, MeshError, write_mesh_text
from .harness import (
    ConfigError,
    ExperimentConfig,
    ExperimentTable,
    compute_experiment,
    load_config,
    run_experiment,
    write_atomic,
)
from .highord_sl import HighOrderSLProblem, SLSolveError, ode_asymptotic_prediction, solve_spectrum
from .model_solutions.contour import QuadratureError


# the walls at corners A and B of each --regime; halfpi-* also fix alpha = pi/2
_REGIMES = {
    "nn": ("neumann", "neumann"),
    "dd": ("dirichlet", "dirichlet"),
    "mixed": ("dirichlet", "neumann"),
    "halfpi-neumann": ("neumann", "neumann"),
    "halfpi-dirichlet": ("dirichlet", "dirichlet"),
}


def _common_flags(parser, formats=True):
    if formats:
        parser.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    parser.add_argument("--out", metavar="DIR", default=None, help="write artifacts into DIR instead of stdout")


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="sloshspec", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("asymptotics", help="quasi-frequency lattice sigma_k")
    p.add_argument(
        "--regime", default="nn", choices=tuple(_REGIMES),
        help="walls at A and B: nn, dd, mixed (Dirichlet at A, Neumann at B); "
        "halfpi-neumann and halfpi-dirichlet are nn and dd with alpha = pi/2",
    )
    p.add_argument("--alpha", type=float, required=True, help="corner angle at A in radians")
    p.add_argument("--beta", type=float, required=True, help="corner angle at B in radians")
    p.add_argument("--length", type=float, default=1.0, help="sloshing surface length")
    p.add_argument("--kmax", type=int, default=10)
    _common_flags(p)

    p = sub.add_parser("sl", help="higher-order Sturm-Liouville spectrum")
    p.add_argument("--q", type=int, required=True, help="half the operator order")
    p.add_argument("--bc", default="neumann", choices=("neumann", "dirichlet"))
    p.add_argument("--length", type=float, default=1.0)
    p.add_argument("--kmax", type=int, default=8)
    _common_flags(p)

    p = sub.add_parser("peters", help="sector solution sampled along the surface ray")
    p.add_argument("--alpha", type=float, required=True, help="wedge angle in radians, below pi/2")
    p.add_argument("--bc", dest="condition", default="neumann", choices=("neumann", "dirichlet"))
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--xmax", type=float, default=40.0)
    _common_flags(p)

    p = sub.add_parser("fem", help="Steklov spectrum of a JSON-described domain")
    p.add_argument("--domain", required=True, metavar="FILE", help="domain JSON document")
    p.add_argument("--h", type=float, required=True, help="target mesh size")
    p.add_argument(
        "--neigs",
        dest="kmax",
        metavar="NEIGS",
        type=int,
        default=10,
        help="number of lowest eigenvalues; the mesh must put at least 4*neigs nodes on the surface",
    )
    p.add_argument(
        "--grading", dest="grading_factor", metavar="GRADING", type=float, default=0.25,
        help="corner grading factor in (0, 1]",
    )
    p.add_argument("--dump-mesh", metavar="FILE", default=None, help="write the mesh as plain text")
    p.add_argument("--dump-dtn", metavar="FILE", default=None, help="write the dense DtN matrix (binary)")
    _common_flags(p)

    p = sub.add_parser("reproduce", help="worked example eigenvalue tables")
    p.add_argument("--example", type=int, required=True, choices=(1, 2))
    p.add_argument("--h", type=float, default=0.01)
    p.add_argument("--grading", dest="grading_factor", metavar="GRADING", type=float, default=0.25)
    _common_flags(p)

    p = sub.add_parser("residual", help="quasimode residuals against the FEM DtN map")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--length", dest="surface_length", metavar="LENGTH", type=float, default=1.0)
    p.add_argument("--h", type=float, default=0.002)
    p.add_argument("--k", dest="k_list", metavar="K", default="4,6,8", help="comma-separated lattice indices")
    p.add_argument("--grading", dest="grading_factor", metavar="GRADING", type=float, default=1.0)
    _common_flags(p)

    p = sub.add_parser("convergence", help="mesh refinement study")
    p.add_argument("--domain", required=True, metavar="FILE")
    p.add_argument("--h", dest="h_list", metavar="H", required=True, help="comma-separated decreasing mesh sizes")
    p.add_argument("--k", dest="k_list", metavar="K", default="1,2,3", help="comma-separated eigenvalue indices")
    p.add_argument("--grading", dest="grading_factor", metavar="GRADING", type=float, default=0.25)
    _common_flags(p)

    p = sub.add_parser("run", help="execute an experiment configuration")
    p.add_argument("--config", required=True, metavar="FILE", help="experiment config JSON")
    _common_flags(p, formats=False)  # the config's out_format decides

    return parser


def _parse_list(text, name, number):
    try:
        values = tuple(number(part) for part in str(text).split(",") if part.strip())
    except ValueError:
        raise ConfigError(name, f"expected comma-separated {number.__name__} values, got {text!r}") from None
    if not values:
        raise ConfigError(name, "empty list")
    return values


def _emit(args, stem, result):
    """Print the result's table to stdout or write it as <stem>.<format> under --out."""
    text = result.text(args.format)
    if args.out is None:
        sys.stdout.write(text)
        return 0
    path = os.path.join(args.out, f"{stem}.{args.format}")
    write_atomic(path, text)
    print(path)
    return 0


def _positive(value, flag):
    if not (value > 0 and math.isfinite(value)):
        raise ConfigError(flag, f"must be positive and finite, got {value}")
    return value


def _cmd_asymptotics(args):
    if args.kmax < 1:
        raise ConfigError("kmax", f"kmax must be at least 1, got {args.kmax}")
    _positive(args.length, "length")
    corners = []
    for flag, angle, wall in zip(("alpha", "beta"), (args.alpha, args.beta), _REGIMES[args.regime]):
        try:
            corners.append(CornerSpec(angle, wall))
        except ValueError as exc:
            raise ConfigError(flag, str(exc)) from None
    if args.regime.startswith("halfpi") and abs(args.alpha - math.pi / 2) > 1e-15:
        raise ConfigError("alpha", "half-pi regimes require alpha = pi/2 exactly")
    model = QuasiFrequencyModel(*corners, args.length)
    rows = [(k, quasi_frequency(model, k)) for k in range(1, args.kmax + 1)]
    return _emit(args, "asymptotics", ExperimentTable(("k", "sigma"), rows))


def _cmd_sl(args):
    if args.kmax < 1:
        raise ConfigError("kmax", f"kmax must be at least 1, got {args.kmax}")
    _positive(args.length, "length")
    try:
        problem = HighOrderSLProblem(args.q, args.length, args.bc)
    except ValueError as exc:
        raise ConfigError("q", str(exc)) from None
    spectrum = solve_spectrum(problem, args.kmax)
    # Dirichlet has no zero modes: its row i is the Neumann row i + q
    shift = args.q if args.bc == "dirichlet" else 0
    rows = []
    for i, lam in enumerate(spectrum.eigenvalues, start=1):
        if i + shift > args.q:
            pred = ode_asymptotic_prediction(args.q, args.length, i + shift)
            rows.append((i, float(lam), pred, abs(float(lam) - pred)))
        else:
            rows.append((i, float(lam), None, None))
    return _emit(args, "sl", ExperimentTable(("k", "lambda", "prediction", "residual"), rows))


# the flag of each config field whose flag has another name
_FLAGS = {
    "kmax": "neigs", "grading_factor": "grading", "surface_length": "length",
    "condition": "bc", "k_list": "k", "h_list": "h",
}
_FIELDS = frozenset(field.name for field in dataclasses.fields(ExperimentConfig))


def _experiment(args, kind):
    """Compute experiment `kind` from the config fields the subcommand's flags set.

    Those flags take their field's name as dest.  A ConfigError is
    renamed through _FLAGS, so that it names the flag the user typed.
    """
    values = {name: value for name, value in vars(args).items() if name in _FIELDS}
    try:
        for name, number in (("h_list", float), ("k_list", int)):
            if name in values:
                values[name] = _parse_list(values[name], name, number)
        return compute_experiment(ExperimentConfig(kind=kind, **values))
    except ConfigError as exc:
        if exc.field not in _FLAGS:
            raise
        raise ConfigError(_FLAGS[exc.field], exc.reason) from None


def _cmd_fem(args):
    result = _experiment(args, "custom")
    if args.dump_mesh:
        write_mesh_text(result.spectrum.mesh, args.dump_mesh)
    if args.dump_dtn:
        dtn = dtn_matrix(result.spectrum.system).matrix
        size = np.asarray([dtn.shape[0]], dtype="<u8").tobytes()
        write_atomic(args.dump_dtn, size + np.ascontiguousarray(dtn, dtype="<f8").tobytes())
    return _emit(args, "fem", result)


def _cmd_reproduce(args):
    return _emit(args, f"example_{args.example}", _experiment(args, f"reproduce_example_{args.example}"))


def _cmd_run(args):
    config = load_config(args.config)
    out_dir = args.out if args.out is not None else "."
    for path in run_experiment(config, out_dir):
        print(path)
    return 0


_HANDLERS = {
    "asymptotics": _cmd_asymptotics,
    "sl": _cmd_sl,
    "peters": lambda args: _emit(args, "peters", _experiment(args, "peters_phase")),
    "fem": _cmd_fem,
    "reproduce": _cmd_reproduce,
    "residual": lambda args: _emit(args, "residual", _experiment(args, "quasimode_residual")),
    "convergence": lambda args: _emit(args, "convergence", _experiment(args, "convergence")),
    "run": _cmd_run,
}


def _error_json(kind, exc):
    doc = {"error": {"type": kind, "message": str(exc)}}
    if getattr(exc, "field", None):
        doc["error"]["field"] = exc.field
    return json.dumps(doc, sort_keys=True)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except Exception as exc:  # sort into the two documented exit codes
        if isinstance(exc, ConfigError):
            print(_error_json("config", exc))
            return 2
        if isinstance(exc, (MeshError, SteklovSolveError, SLSolveError, QuadratureError, ArithmeticError)):
            print(_error_json("numerical", exc))
            return 1
        raise


if __name__ == "__main__":
    sys.exit(main())
