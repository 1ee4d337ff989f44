"""Experiment runner behind the command-line interface.

Bundles the cross-module computations that make up the reproduction
studies: eigenvalue tables for the two worked examples, the comparison
of the triangle sloshing spectrum with the higher-order ODE spectrum,
the order-2q ODE spectrum against its lattice, the Peters far-field
phase, quasimode residual measurements, mesh-refinement studies and
custom domains.  Each experiment is described by an ExperimentConfig (a
flat JSON document on disk), which converts and checks every field, and
computed by `compute_experiment`, a function of the config alone.
`converted` is that conversion, shared with the CLI flags that set no
config field.  Every result renders its main table through `text(fmt)`,
so `run_experiment`, which writes it as a deterministic CSV or JSON
artifact plus two-column plot-ready series, and the CLI subcommands sl,
fem, peters, residual, convergence and reproduce, which build the same
config from their flags, print or write the same bytes.

Runtime is recorded in the in-memory report metadata but never written
to disk, so repeated runs of the same config produce byte-identical
files.
"""

import contextlib
import errno
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np
import scipy.linalg

from .asymptotics import QuasiFrequencyModel, quasi_frequency
from .fem_steklov import assemble, convergence_study, dtn_action, half_system, solve_steklov
from .geometry import CornerSpec, build_curvilinear_example, build_triangle_domain, domain_from_json, generate_mesh
from .geometry.io import write_atomic
from .geometry.mesh import _MAX_NODES
from .highord_sl import HighOrderSLProblem, ode_asymptotic_prediction, solve_spectrum
from .model_solutions.hanson_lewy import quasimode_trace
from .model_solutions.peters import XMAX_LIMIT, eval_peters, far_field_fit

# sl's and asymptotics' kmax and peters' samples count the rows of a table, built
# whole before it is written at up to 2.5 kB a row (peters as JSON): 250 MB at most
_MAX_ROWS = 100_000


class ConfigError(ValueError):
    """Invalid experiment configuration; remembers the offending field."""

    def __init__(self, field_name, message):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name
        self.reason = message


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat description of one experiment run.

    Only the fields relevant to `kind` are consulted; the rest keep
    their defaults.  `domain` is either an inline domain document (a
    dict following the JSON schema in geometry.io) or a path to a JSON
    file holding one.  Each numeric field is converted to its declared
    type here, so a config built in code is checked like one read from
    JSON: booleans, values int() would truncate and floats that
    overflow are refused, a list field stores a tuple, and no `k_list`
    index may repeat.  Each kind's own limits are checked here too, so
    its computation checks none.
    """

    kind: str
    h: float = 0.01
    kmax: int = 10
    q: int = 2
    surface_length: float = 1.0
    domain: object = None
    alpha: float = math.pi / 3
    condition: str = "neumann"
    k_list: tuple[int, ...] = ()
    h_list: tuple[float, ...] = ()
    samples: int = 200
    xmax: float = 40.0
    grading_factor: float = 0.25
    out_format: str = "csv"
    label: str = ""

    def __post_init__(self):
        for f in fields(self):
            if f.type in _CONVERSIONS:
                object.__setattr__(self, f.name, converted(f.name, getattr(self, f.name), f.type))
        if not isinstance(self.kind, str) or self.kind not in _EXPERIMENTS:
            raise ConfigError("kind", f"unknown kind {self.kind!r}; expected one of {tuple(_EXPERIMENTS)}")
        if not 0 < self.h < math.inf:
            raise ConfigError("h", f"mesh size must be positive and finite, got {self.h}")
        if self.kmax < 1:
            raise ConfigError("kmax", f"must be at least 1, got {self.kmax}")
        if self.q < 1:
            raise ConfigError("q", f"must be a positive integer, got {self.q}")
        if not 0 < self.surface_length < math.inf:
            raise ConfigError("surface_length", f"must be positive and finite, got {self.surface_length}")
        if not 0 < self.grading_factor <= 1:
            raise ConfigError("grading_factor", "must lie in (0, 1]")
        if self.out_format not in ("csv", "json"):
            raise ConfigError("out_format", f"expected 'csv' or 'json', got {self.out_format!r}")
        if self.condition not in ("neumann", "dirichlet"):
            raise ConfigError("condition", f"expected 'neumann' or 'dirichlet', got {self.condition!r}")
        if self.kind in ("convergence", "custom") and self.domain is None:
            raise ConfigError("domain", f"kind {self.kind!r} requires a domain")
        if self.kind == "peters_phase":
            # the far-field fit reads the outer half of the samples and needs 12 there
            if self.samples < 23:
                raise ConfigError("samples", "need at least 23 samples for a far-field fit")
            if self.samples > _MAX_ROWS:
                raise ConfigError("samples", f"must be at most {_MAX_ROWS}, the rows a table may have, got {self.samples}")
            if not 0 < self.xmax < math.inf:
                raise ConfigError("xmax", f"must be positive and finite, got {self.xmax}")
        if self.kind == "convergence":
            if len(self.h_list) < 2:
                raise ConfigError("h_list", "need at least two mesh sizes")
            if not self.k_list:
                raise ConfigError("k_list", "need at least one eigenvalue index")
            if not all(math.inf > a > b > 0 for a, b in zip(self.h_list, self.h_list[1:])):
                raise ConfigError("h_list", "mesh sizes must be positive, finite and strictly decreasing")
            if min(self.k_list) < 1:
                raise ConfigError("k_list", "eigenvalue indices are 1-based")
        if len(set(self.k_list)) < len(self.k_list):
            raise ConfigError("k_list", f"indices must not repeat, got {self.k_list!r}")
        if self.kind == "quasimode_residual" and not self.k_list:
            raise ConfigError("k_list", "need at least one lattice index")
        if isinstance(self.domain, str) and not os.path.exists(self.domain):
            raise ConfigError("domain", f"referenced file does not exist: {self.domain}")
        # the label names every artifact, so it must stay one file name inside the output directory
        if not isinstance(self.label, str) or any(c and c in self.label for c in ("/", os.sep, os.altsep, "\0")):
            raise ConfigError("label", f"must be a string with no path separator or NUL, got {self.label!r}")
        if self.kind == "sl_vs_sloshing" and self.q == 1:
            raise ConfigError(
                "q",
                "q=1 gives corner angles pi/2 + pi/2 = pi, a degenerate triangle "
                "with no interior; use q >= 2",
            )
        if self.kind == "quasimode_residual":
            if self.q < 2:
                raise ConfigError("q", f"quasimode study needs q >= 2, got {self.q}")
            if min(self.k_list) < self.q + 1:
                raise ConfigError("k_list", f"lattice indices must be at least q+1 = {self.q + 1}")
        if self.kind == "peters_phase":
            # CornerSpec's range, the closed form, the contour's size, then the sector solution's range
            if not 0 < self.alpha < math.pi:
                raise ConfigError("alpha", "alpha must lie in (0, pi/2]")
            if CornerSpec(self.alpha, self.condition).closed_form:
                raise ConfigError(
                    "alpha", "at pi/2 the solution is the plane wave itself and leaves no remainder to fit"
                )
            if self.xmax > XMAX_LIMIT:
                raise ConfigError(
                    "xmax", f"must be at most {XMAX_LIMIT:.1f}; beyond it rounding in the contour exceeds 1e-8"
                )
            if self.alpha > math.pi / 2 + 1e-12:
                raise ConfigError("alpha", "alpha must lie in (0, pi/2]")
        # the FEM resolution guard wants 4 * kmax surface nodes, more than any mesh may have past this
        if self.kind in ("custom", "sl_vs_sloshing") and self.kmax > _MAX_NODES // 4:
            raise ConfigError("kmax", f"must be at most {_MAX_NODES // 4}; no mesh resolves more, got {self.kmax}")
        if self.kind == "sl" and self.kmax > _MAX_ROWS:
            raise ConfigError("kmax", f"must be at most {_MAX_ROWS}, the rows a table may have, got {self.kmax}")

    @property
    def stem(self):
        return self.label or self.kind


def _whole(value):
    """int(value), refusing values such as 2.7 that int() would truncate.

    The test is exact: int() reads integer text exactly, and Python
    compares an int with a float exactly, so no whole number is refused
    for being too large for a float to hold.  One beyond sys.maxsize,
    which no count or index can reach, raises OverflowError.
    """
    number = int(value)
    if not isinstance(value, str) and number != value:
        raise ValueError(value)
    if abs(number) > sys.maxsize:
        raise OverflowError(value)
    return number


def converted(name, value, declared):
    """`value` converted as ExperimentConfig converts a field of type `declared`, or a ConfigError on `name`.

    A list converts item by item, and a flag's text as int() or float()
    reads it.  Booleans are refused: JSON keeps them apart from numbers.
    A value whose conversion overflows (an integer beyond sys.maxsize, an
    infinite one, a float past the float range) is refused as out of
    range.
    """
    convert, is_list, noun = _CONVERSIONS[declared]
    try:
        items = value if is_list else (value,)
        if not isinstance(items, (list, tuple)) or any(isinstance(v, bool) for v in items):
            raise TypeError(value)
        converted = tuple(convert(v) for v in items)
    except (TypeError, ValueError):
        raise ConfigError(name, f"must be {noun}, got {value!r}") from None
    except OverflowError:
        raise ConfigError(name, f"out of range, got {value!r}") from None
    return converted if is_list else converted[0]


# how ExperimentConfig converts a field of each declared numeric type:
# (item conversion, whether the field is a list, the type as errors name it)
_CONVERSIONS = {
    int: (_whole, False, "an integer"),
    float: (float, False, "a number"),
    tuple[int, ...]: (_whole, True, "a list of integers"),
    tuple[float, ...]: (float, True, "a list of numbers"),
}


def config_from_json(obj):
    """Build an ExperimentConfig from a parsed JSON document.

    Only the document's shape is checked here: a JSON object with a
    `kind` and no unknown field.  ExperimentConfig converts and checks
    every value, as it does for a config built in code.
    """
    if not isinstance(obj, dict):
        raise ConfigError("config", "top-level document must be a JSON object")
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = set(obj) - known
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown configuration field")
    if "kind" not in obj:
        raise ConfigError("kind", "missing required field")
    return ExperimentConfig(**obj)


def load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ConfigError("config", f"not valid JSON: {exc}") from None
    return config_from_json(obj)


@dataclass(frozen=True)
class ReportBlock:
    """One (k, computed, predicted, deviation) table block.

    The deviation column is not stored: it is |predicted/computed - 1|
    of the stored values, None where computed is 0.
    """

    label: str
    k: tuple
    computed: tuple
    predicted: tuple

    def __post_init__(self):
        if not len(self.k) == len(self.computed) == len(self.predicted):
            raise ValueError("block columns must have equal length")

    @cached_property
    def deviation(self):
        return tuple(None if c == 0.0 else abs(p / c - 1.0) for c, p in zip(self.computed, self.predicted))


@dataclass(frozen=True)
class ComparisonReport:
    blocks: tuple
    metadata: dict = field(default_factory=dict)

    def block(self, label):
        for b in self.blocks:
            if b.label == label:
                return b
        raise KeyError(label)

    @property
    def series(self):
        """(name, k, values) of each block's computed and predicted columns."""
        return tuple(
            (f"{b.label}_{column}", b.k, values)
            for b in self.blocks
            for column, values in (("lambda", b.computed), ("sigma", b.predicted))
        )

    def text(self, fmt):
        """The report as CSV or JSON.

        CSV merges the blocks into one table keyed on k.  Column layout
        per block: computed eigenvalue, predicted lattice value, relative
        deviation, mirroring the printed tables this reproduces (value,
        prediction, |prediction/value - 1|, then the second block's
        triple).  JSON keeps the blocks apart and adds the metadata
        without its runtime.
        """
        if fmt == "csv":
            first = self.blocks[0]
            header = ["k"]
            for b in self.blocks:
                if b.k != first.k:
                    raise ValueError("blocks must share the k column to merge")
                suffix = "" if len(self.blocks) == 1 else "_" + b.label
                header += [f"lambda{suffix}", f"sigma{suffix}", f"deviation{suffix}"]
            rows = [
                [k] + [value for b in self.blocks for value in (b.computed[i], b.predicted[i], b.deviation[i])]
                for i, k in enumerate(first.k)
            ]
            return _csv_text(header, rows)
        doc = {
            "blocks": [
                {
                    "label": b.label,
                    "rows": [
                        {"k": int(k), "lambda": lam, "sigma": sigma, "deviation": dev}
                        for k, lam, sigma, dev in zip(b.k, b.computed, b.predicted, b.deviation)
                    ],
                }
                for b in self.blocks
            ],
            "metadata": _clean_metadata(self.metadata),
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _domain_description(domain):
    conds = [p.condition for p in domain.walls]
    return (
        f"surface length {domain.surface_length!r}, corner angles "
        f"({domain.corner_A.angle!r}, {domain.corner_B.angle!r}), walls {conds}"
    )


def _ladder(domain, h_list, grading_factor):
    """One mesh of `domain` per size in `h_list`, in that order, meshed finest first.

    Meshing the finest size first makes a meshing error name it, as the
    ladder solves it first too.
    """
    return [generate_mesh(domain, h, grading_factor) for h in reversed(h_list)][::-1]


def _comparison_report(config, cases, kmax):
    """FEM spectra against predictions at k = 1..kmax, one report block per case.

    `cases` yields (label, domain, predict, meshes), where predict(ks)
    gives the predicted values at the indices ks and meshes are the
    meshes at 2h and h.  Each case solves through convergence_study on
    that ladder: the block's computed column is the level h, and the
    metadata's error bar is 2 |lambda(h) - lambda(2h)| per k.
    """
    started = time.perf_counter()
    ks = tuple(range(1, kmax + 1))
    blocks = []
    meta = {"h": config.h, "grading_factor": config.grading_factor, "num_nodes": {}, "errbar": {}, "domain": {}}
    for label, domain, predict, meshes in cases:
        study = convergence_study(meshes, ks)
        blocks.append(
            ReportBlock(
                label=label,
                k=ks,
                computed=tuple(float(v) for v in study.values[-1]),
                predicted=tuple(float(v) for v in predict(ks)),
            )
        )
        meta["num_nodes"][label] = meshes[-1].num_nodes
        meta["errbar"][label] = [float(e) for e in study.errbar]
        meta["domain"][label] = _domain_description(domain)
    meta["runtime_seconds"] = time.perf_counter() - started
    return ComparisonReport(blocks=tuple(blocks), metadata=meta)


def _lattice(domain):
    """The two-term lattice of `domain`'s corners, as predict(ks)."""
    model = QuasiFrequencyModel(domain.corner_A, domain.corner_B, domain.surface_length)
    return lambda ks: [quasi_frequency(model, k) for k in ks]


def _with_walls(mesh, condition):
    """`mesh` with every wall edge tagged `condition`."""
    edges = tuple((i, j, tag if tag == "steklov" else condition) for i, j, tag in mesh.boundary_edges)
    return replace(mesh, boundary_edges=edges)


def _example_cases(config):
    ladder = (2.0 * config.h, config.h)
    if config.kind == "reproduce_example_1":
        angles = (2 * math.pi / 5, math.pi / 6, 2.0)
        # the wall conditions only tag the walls, so both cases solve on one mesh per level
        meshes = _ladder(build_triangle_domain(*angles), ladder, config.grading_factor)
        for label in ("neumann", "dirichlet"):
            domain = build_triangle_domain(*angles, wall_conditions=(label, label))
            yield label, domain, _lattice(domain), [_with_walls(mesh, label) for mesh in meshes]
    else:
        for label, sign in (("omega_plus", "+"), ("omega_minus", "-")):
            domain = build_curvilinear_example(sign)
            yield label, domain, _lattice(domain), _ladder(domain, ladder, config.grading_factor)


def reproduce_table(config):
    """Eigenvalue table, k = 1..10 whatever its kmax, of the worked example `config.kind` names.

    Example 1 is the (2pi/5, pi/6) triangle with surface length 2,
    solved once with Neumann walls and once with Dirichlet walls, each
    against its two-term quasi-frequency lattice.  Example 2 is the pair
    of curvilinear domains with a sinusoidal surface and one Neumann
    plus one Dirichlet circular wall, against the mixed-condition
    lattice pi(k - 1/6)/L and pi(k - 5/6)/L.
    """
    return _comparison_report(config, _example_cases(config), 10)


def sl_vs_sloshing(config):
    """FEM sloshing spectrum of the config's angle pi/2q isosceles
    triangle next to the order-2q ODE spectrum on the same interval.

    The two agree up to an error decaying exponentially in k, which is
    what makes the comparison interesting; the table shows the gap
    closing before FEM discretization error takes over.
    """
    angle = math.pi / (2 * config.q)
    domain = build_triangle_domain(angle, angle, config.surface_length)

    def ode(ks):
        return solve_spectrum(HighOrderSLProblem(config.q, config.surface_length, "neumann"), len(ks)).eigenvalues

    meshes = _ladder(domain, (2.0 * config.h, config.h), config.grading_factor)
    return _comparison_report(config, [("fem_vs_ode", domain, ode, meshes)], config.kmax)


def quasimode_residual_study(config):
    """Measure how well explicit corner quasimodes of the config's q annihilate the FEM DtN map.

    For each lattice index k the trace of the glued corner solution is
    sampled on the surface nodes, normalized in the surface mass inner
    product, and pushed through the Schur-complement DtN action; the
    residual r = D v - sigma M v is reported in the M^{-1} norm where it
    equals the eigenvector-coefficient-weighted distance to the discrete
    spectrum.  Rows are (k, sigma_k, residual / sigma, nearest_gap), the
    last being the distance from sigma_k to the nearest computed
    eigenvalue.

    The study meshes the triangle, solves the mesh and assembles it once
    more for the DtN action (the spectrum keeps no system).  Of the
    spectrum only its mirror rows and eigenvalues are kept, and of the
    mesh its node count: the mesh and the eigenvector traces are freed
    before the DtN action factors K_II, the largest allocation of the
    study on a fine mesh.  On a mesh that mirrors (`residual`'s grading
    1.0 meshes do, at most sizes), trace k is even for odd k and
    odd for even k, so it is pushed through the DtN action of that half
    system alone, and its residual norm taken with that half's surface
    mass: the same numbers to rounding, with K_II factored for one
    half, one half after the other when k_list mixes parities.  The
    traces are grouped by half as they are sampled, the halves built
    next, and the full system then goes, so no full stiffness is alive
    under a half's K_II factor.  A trace that does not match its parity
    times its mirror image to 1e-10, and every trace on a mesh that does
    not mirror, uses the full K_II.
    """
    started = time.perf_counter()
    q, surface_length, k_list = config.q, config.surface_length, config.k_list
    angle = math.pi / (2 * q)
    domain = build_triangle_domain(angle, angle, surface_length)
    mesh = generate_mesh(domain, config.h, config.grading_factor)
    spec = solve_steklov(mesh, max(k_list) + 2)
    system = assemble(mesh)
    mirror, eigenvalues, num_nodes = spec.mirror, spec.eigenvalues, mesh.num_nodes
    del spec, mesh  # frees the mesh and traces before K_II is factored
    mass, ni = system.surface_mass, system.interior_count
    groups = {}
    for k in sorted(k_list):
        sigma = ode_asymptotic_prediction(q, surface_length, k)
        trace = quasimode_trace(q, sigma, system.s_coords, surface_length)
        trace = trace / math.sqrt(float(trace @ (mass @ trace)))
        parity = 1 if k % 2 else -1
        if mirror is None or np.linalg.norm(trace - parity * trace[mirror[ni:] - ni]) > 1e-10 * np.linalg.norm(trace):
            parity = 0
        groups.setdefault(parity, []).append((k, sigma, trace))
    parts = [
        (group, *((system, None) if parity == 0 else half_system(system, mirror, parity)))
        for parity, group in groups.items()
    ]
    del system  # a half's K_II is factored without the full stiffness alive
    rows = []
    while parts:
        group, part, basis = parts.pop(0)
        apply_action = dtn_action(part)
        mass_factor = (part.surface_cholesky, False)
        for k, sigma, trace in group:
            if basis is not None:
                trace = basis.T @ trace
            resid = apply_action(trace) - sigma * (part.surface_mass @ trace)
            norm = math.sqrt(float(resid @ scipy.linalg.cho_solve_banded(mass_factor, resid)))
            nearest = float(np.min(np.abs(eigenvalues - sigma)))
            rows.append((k, sigma, norm / sigma, nearest))
        del part, apply_action  # one K_II factor alive at a time
    rows.sort()
    meta = {
        "h": config.h,
        "grading_factor": config.grading_factor,
        "num_nodes": num_nodes,
        "domain": _domain_description(domain),
        "runtime_seconds": time.perf_counter() - started,
    }
    return ExperimentTable(
        header=("k", "sigma", "residual", "nearest_gap"),
        rows=rows,
        metadata=meta,
        series=(("residual", [r[1] for r in rows], [r[2] for r in rows]),),
    )


def _float_cell(value):
    if value is None:
        return ""
    return repr(float(value))


def _csv_text(header, rows):
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, str):
                cells.append(cell)
            elif isinstance(cell, (int, np.integer)):
                cells.append(str(int(cell)))
            else:
                cells.append(_float_cell(cell))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _json_cell(value):
    """A table cell as JSON: non-finite floats become null, as strict parsers require."""
    if value is None or isinstance(value, (str, int)):
        return value
    value = float(value)
    return value if math.isfinite(value) else None


def _clean_metadata(metadata):
    return {key: value for key, value in metadata.items() if key != "runtime_seconds"}


@dataclass(frozen=True)
class ExperimentTable:
    """Main table of an experiment plus what run_experiment writes beside it.

    `metadata`, when set, becomes `<stem>_meta.json`; each series entry
    (name, xs, ys) becomes the two-column `<stem>_<name>.csv`.  A custom
    run also keeps its fine-level `mesh` for the CLI's mesh and DtN
    dumps; it is not part of an artifact.
    """

    header: tuple
    rows: list
    metadata: dict = None
    series: tuple = ()
    mesh: object = None

    def text(self, fmt):
        """The table as CSV, or as JSON: a list of row objects keyed by the header."""
        if fmt == "csv":
            return _csv_text(self.header, self.rows)
        doc = [{name: _json_cell(value) for name, value in zip(self.header, row)} for row in self.rows]
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _resolve_domain(domain):
    """Domain of a config: an inline document or a path to a JSON file holding one."""
    try:
        if isinstance(domain, str):
            with open(domain, encoding="utf-8") as fh:
                domain = json.load(fh)
        return domain_from_json(domain)
    except OSError as exc:
        raise ConfigError("domain", f"cannot read {domain}: {exc.strerror}") from None
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ConfigError("domain", f"not a valid domain document: {exc!r}") from None


def _peters_phase(config):
    corner = CornerSpec(config.alpha, config.condition)
    x = np.linspace(config.xmax / config.samples, config.xmax, config.samples)
    values = eval_peters(corner, x)
    fit = far_field_fit(corner, x, values)
    wave = fit.wave_coefficient * np.exp(-1j * x) + fit.offset
    remainder = np.abs(values - wave)
    summary = {
        "alpha": config.alpha,
        "condition": config.condition,
        "fitted_phase": fit.phase,
        "closed_form_phase": corner.chi,
        "decay_exponent": fit.decay_exponent,
        "amplitude": fit.amplitude,
    }
    return ExperimentTable(
        header=("x", "re_f", "im_f", "planewave_re", "residual"),
        rows=list(zip(x, values.real, values.imag, wave.real, remainder)),
        metadata=summary,
        series=(("remainder", x, remainder),),
    )


def _sl(config):
    """The order-2q ODE spectrum beside its lattice prediction, where that applies.

    Dirichlet has no zero modes: its row i is the Neumann row i + q.
    """
    q, length = config.q, config.surface_length
    shift = q if config.condition == "dirichlet" else 0
    spectrum = solve_spectrum(HighOrderSLProblem(q, length, config.condition), config.kmax)
    rows = []
    for i, lam in enumerate(map(float, spectrum.eigenvalues), start=1):
        pred = ode_asymptotic_prediction(q, length, i + shift) if i + shift > q else None
        rows.append((i, lam, pred, None if pred is None else abs(lam - pred)))
    return ExperimentTable(("k", "lambda", "prediction", "residual"), rows)


def _convergence(config):
    domain = _resolve_domain(config.domain)
    study = convergence_study(_ladder(domain, config.h_list, config.grading_factor), config.k_list)
    levels = range(len(study.h_values))
    rows = [
        (k, study.h_values[i], study.values[i][j], study.observed_order[j], study.richardson[j], study.errbar[j])
        for j, k in enumerate(study.k_values)
        for i in levels
    ]
    series = tuple(
        (f"k{k}_error", study.h_values, [abs(study.values[i][j] - study.richardson[j]) for i in levels])
        for j, k in enumerate(study.k_values)
    )
    return ExperimentTable(
        header=("k", "h", "lambda", "observed_order", "richardson", "errbar"), rows=rows, series=series
    )


def _custom(config):
    domain = _resolve_domain(config.domain)
    ks = list(range(1, config.kmax + 1))
    meshes = _ladder(domain, (2.0 * config.h, config.h), config.grading_factor)
    study = convergence_study(meshes, ks)
    return ExperimentTable(
        header=("k", "lambda", "errbar"),
        rows=list(zip(ks, study.values[-1], study.errbar)),
        series=(("lambda", ks, study.values[-1]),),
        mesh=meshes[-1],
    )


# one entry per experiment kind; ExperimentConfig accepts exactly these
# kinds and lists them in this order when it rejects one.  The lambdas look up
# the public kinds at each call, so a wrapper set on them (perfbench's tracer) runs.
_EXPERIMENTS = {
    "reproduce_example_1": lambda c: reproduce_table(c),
    "reproduce_example_2": lambda c: reproduce_table(c),
    "sl_vs_sloshing": lambda c: sl_vs_sloshing(c),
    "peters_phase": _peters_phase,
    "quasimode_residual": lambda c: quasimode_residual_study(c),
    "convergence": _convergence,
    "custom": _custom,
    "sl": _sl,
}


def compute_experiment(config):
    """Compute one configured experiment without writing anything.

    The library's one way to run an experiment.  Returns a
    ComparisonReport for the reproduce and sl_vs_sloshing kinds and an
    ExperimentTable for the others.
    """
    return _EXPERIMENTS[config.kind](config)


def _artifacts(config, result):
    """(file name, text) of every artifact of a result, main table first."""
    stem = config.stem
    files = [(f"{stem}.{config.out_format}", result.text(config.out_format))]
    if result.metadata is not None:
        meta = _clean_metadata(result.metadata)
        files.append((f"{stem}_meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n"))
    files += [(f"{stem}_{name}.csv", _csv_text(["x", "y"], list(zip(xs, ys)))) for name, xs, ys in result.series]
    return files


def run_experiment(config, out_dir="."):
    """Run one configured experiment and write its artifacts.

    Returns the list of file paths written.  The bytes depend only on
    the config and package version.  `out_dir` is made first, so a
    target that cannot be a directory fails before the computation.  A
    target that is a directory refuses the set (IsADirectoryError naming
    it) before any file is written.  The set is written all or nothing:
    each artifact goes first to its temp file `<path>.tmp` (through
    `write_atomic`), and only once all are written are they renamed into
    place.  A failed computation or write removes every temp file and
    every directory made for `out_dir`, deepest first, and re-raises,
    leaving `out_dir` as it was; only a rename failing part way would
    leave the files renamed before it.
    """
    made = []
    head = os.path.abspath(out_dir)
    while not os.path.exists(head):
        made.append(head)
        head = os.path.dirname(head)
    os.makedirs(out_dir, exist_ok=True)
    staged = []
    try:
        files = [(os.path.join(out_dir, name), text) for name, text in _artifacts(config, compute_experiment(config))]
        for path, _ in files:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        for path, text in files:
            write_atomic(path + ".tmp", text)
            staged.append(path + ".tmp")
        for path, _ in files:
            os.replace(path + ".tmp", path)
    except BaseException:
        for tmp in staged:
            with contextlib.suppress(FileNotFoundError):  # renamed already
                os.remove(tmp)
        for path in made:
            with contextlib.suppress(OSError):  # not empty: a rename went through
                os.rmdir(path)
        raise
    return [path for path, _ in files]
