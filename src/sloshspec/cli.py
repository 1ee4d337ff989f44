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
OMP_NUM_THREADS in the environment set them).  sl, fem, peters,
reproduce, residual and convergence build the ExperimentConfig that
`run` would read and print the `text` of what
harness.compute_experiment returns, so they and `run` share one
computation, one validation and one renderer.  Their flags carry the
config field names as argparse dests and their text unconverted: the
config converts it, so a malformed number is a config error.  One
`_experiment` builds every such config, and a config error names the
flag the user typed, read off the subcommand's parser.  A flag left
out leaves its field at ExperimentConfig's default, except sl's --kmax,
residual's --h, --k and --grading and convergence's --k, which keep
defaults of their own.  asymptotics, the one subcommand with no
experiment kind, converts its flags with the config's converter.
"""

import argparse
import contextlib
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
    converted,
    load_config,
    run_experiment,
    write_atomic,
)
from .highord_sl import SLSolveError
from .model_solutions.contour import QuadratureError


# the walls at corners A and B of each --regime; halfpi-* also fix alpha = pi/2
_REGIMES = {
    "nn": ("neumann", "neumann"),
    "dd": ("dirichlet", "dirichlet"),
    "mixed": ("dirichlet", "neumann"),
    "halfpi-neumann": ("neumann", "neumann"),
    "halfpi-dirichlet": ("dirichlet", "dirichlet"),
}


def _items(text):
    """The items of a comma-separated flag value; its config field converts them."""
    return [part for part in text.split(",") if part.strip()]


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
    p.add_argument("--alpha", required=True, help="corner angle at A in radians")
    p.add_argument("--beta", required=True, help="corner angle at B in radians")
    p.add_argument("--length", default=1.0, help="sloshing surface length")
    p.add_argument("--kmax", default=10)
    _common_flags(p)

    experiment = {"argument_default": argparse.SUPPRESS}

    p = sub.add_parser("sl", help="higher-order Sturm-Liouville spectrum", **experiment)
    p.add_argument("--q", required=True, help="half the operator order")
    p.add_argument("--bc", dest="condition", choices=("neumann", "dirichlet"))
    p.add_argument("--length", dest="surface_length", metavar="LENGTH")
    p.add_argument("--kmax", default=8)
    _common_flags(p)

    p = sub.add_parser("peters", help="sector solution sampled along the surface ray", **experiment)
    p.add_argument("--alpha", required=True, help="wedge angle in radians, below pi/2")
    p.add_argument("--bc", dest="condition", choices=("neumann", "dirichlet"))
    p.add_argument("--samples")
    p.add_argument("--xmax")
    _common_flags(p)

    p = sub.add_parser("fem", help="Steklov spectrum of a JSON-described domain", **experiment)
    p.add_argument("--domain", required=True, metavar="FILE", help="domain JSON document")
    p.add_argument("--h", required=True, help="target mesh size")
    p.add_argument(
        "--neigs",
        dest="kmax",
        metavar="NEIGS",
        help="number of lowest eigenvalues; the mesh must put at least 4*neigs nodes on the surface",
    )
    p.add_argument("--grading", dest="grading_factor", metavar="GRADING", help="corner grading factor in (0, 1]")
    p.add_argument("--dump-mesh", metavar="FILE", default=None, help="write the mesh as plain text")
    p.add_argument("--dump-dtn", metavar="FILE", default=None, help="write the dense DtN matrix (binary)")
    _common_flags(p)

    p = sub.add_parser("reproduce", help="worked example eigenvalue tables", **experiment)
    p.add_argument("--example", type=int, required=True, choices=(1, 2))
    p.add_argument("--h")
    p.add_argument("--grading", dest="grading_factor", metavar="GRADING")
    _common_flags(p)

    p = sub.add_parser("residual", help="quasimode residuals against the FEM DtN map", **experiment)
    p.add_argument("--q")
    p.add_argument("--length", dest="surface_length", metavar="LENGTH")
    p.add_argument("--h", default=0.002)
    p.add_argument(
        "--k", dest="k_list", metavar="K", type=_items, default="4,6,8", help="comma-separated lattice indices"
    )
    p.add_argument("--grading", dest="grading_factor", metavar="GRADING", default=1.0)
    _common_flags(p)

    p = sub.add_parser("convergence", help="mesh refinement study", **experiment)
    p.add_argument("--domain", required=True, metavar="FILE")
    p.add_argument(
        "--h", dest="h_list", metavar="H", type=_items, required=True, help="comma-separated decreasing mesh sizes"
    )
    p.add_argument(
        "--k", dest="k_list", metavar="K", type=_items, default="1,2,3", help="comma-separated eigenvalue indices"
    )
    p.add_argument("--grading", dest="grading_factor", metavar="GRADING")
    _common_flags(p)

    p = sub.add_parser("run", help="execute an experiment configuration")
    p.add_argument("--config", required=True, metavar="FILE", help="experiment config JSON")
    _common_flags(p, formats=False)  # the config's out_format decides

    for p in sub.choices.values():
        # the flag of each dest, so that a config error names the flag the user typed
        p.set_defaults(flags={a.dest: a.option_strings[-1].removeprefix("--") for a in p._actions})
    return parser


@contextlib.contextmanager
def _writing(flag, path):
    """Turn an OSError raised while writing `path` into a config error on `flag`.

    The message names the file the error names (a rename's target first),
    else `path`: a failed write(2) names none.
    """
    try:
        yield
    except OSError as exc:
        raise ConfigError(flag, f"cannot write {exc.filename2 or exc.filename or path}: {exc.strerror}") from None


def _emit(args, stem, result):
    """Print the result's table to stdout or write it as <stem>.<format> under --out."""
    text = result.text(args.format)
    if args.out is None:
        sys.stdout.write(text)
        return 0
    path = os.path.join(args.out, f"{stem}.{args.format}")
    with _writing("out", path):
        write_atomic(path, text)
    print(path)
    return 0


def _cmd_asymptotics(args):
    # the one subcommand with no experiment kind converts its flags as the config would
    alpha, beta, length = (converted(flag, getattr(args, flag), float) for flag in ("alpha", "beta", "length"))
    kmax = converted("kmax", args.kmax, int)
    if kmax < 1:
        raise ConfigError("kmax", f"must be at least 1, got {kmax}")
    if not (length > 0 and math.isfinite(length)):
        raise ConfigError("length", f"must be positive and finite, got {length}")
    corners = []
    for flag, angle, wall in zip(("alpha", "beta"), (alpha, beta), _REGIMES[args.regime]):
        try:
            corners.append(CornerSpec(angle, wall))
        except ValueError as exc:
            raise ConfigError(flag, str(exc)) from None
    if args.regime.startswith("halfpi") and abs(alpha - math.pi / 2) > 1e-15:
        raise ConfigError("alpha", "half-pi regimes require alpha = pi/2 exactly")
    model = QuasiFrequencyModel(*corners, length)
    rows = [(k, quasi_frequency(model, k)) for k in range(1, kmax + 1)]
    return _emit(args, "asymptotics", ExperimentTable(("k", "sigma"), rows))


_FIELDS = frozenset(field.name for field in dataclasses.fields(ExperimentConfig))


def _experiment(args, kind):
    """Compute experiment `kind` from the config fields the subcommand's flags set.

    Those flags take their field's name as dest.  A ConfigError is
    renamed through the parser's `flags`, so that it names the flag the
    user typed.
    """
    values = {name: value for name, value in vars(args).items() if name in _FIELDS}
    try:
        return compute_experiment(ExperimentConfig(kind=kind, **values))
    except ConfigError as exc:
        raise ConfigError(args.flags.get(exc.field, exc.field), exc.reason) from None


def _cmd_fem(args):
    result = _experiment(args, "custom")
    if args.dump_mesh:
        with _writing("dump-mesh", args.dump_mesh):
            write_mesh_text(result.spectrum.mesh, args.dump_mesh)
    if args.dump_dtn:
        dtn = dtn_matrix(result.spectrum.system).matrix
        size = np.asarray([dtn.shape[0]], dtype="<u8").tobytes()
        with _writing("dump-dtn", args.dump_dtn):
            write_atomic(args.dump_dtn, size + np.ascontiguousarray(dtn, dtype="<f8").tobytes())
    return _emit(args, "fem", result)


def _cmd_reproduce(args):
    return _emit(args, f"example_{args.example}", _experiment(args, f"reproduce_example_{args.example}"))


def _cmd_run(args):
    config = load_config(args.config)
    out_dir = args.out if args.out is not None else "."
    # the computation reads no file but the domain, whose errors are config errors already
    with _writing("out", out_dir):
        paths = run_experiment(config, out_dir)
    for path in paths:
        print(path)
    return 0


_HANDLERS = {
    "asymptotics": _cmd_asymptotics,
    "sl": lambda args: _emit(args, "sl", _experiment(args, "sl")),
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
