"""Span tracing of sloshspec's layers from outside the package.

Nothing under ``src/`` changes.  `Tracer.install` replaces the public
functions of each layer, and the scipy entry points those layers reach
through module attributes, with wrappers that record spans; `restore`
puts every original back.  Spans stay in memory until the benchmark
writes them out at the end of the pass.

A span is ``(op, span_id, parent_id, name, start, end)``: the operation
it belongs to, its own id, the id of the span that was open when it
started, and perf_counter times.  Counters that are cheaper than a span
(calls per op) and sampled values (sizes) are kept beside the spans.
"""

import collections
import functools
import statistics
import sys
import time
import types

MARK = "_perfbench_span"

# span-name prefix -> layer, for the time shares
LAYERS = (
    "cli",
    "harness",
    "geometry",
    "backend",
    "fem_steklov",
    "highord_sl",
    "peters",
    "contour",
    "hanson_lewy",
)


class Tracer:
    def __init__(self):
        self.op = None
        self.spans = []
        self.counts = collections.Counter()  # (op, name) -> calls
        self.samples = []  # (op, name, value)
        self._stack = []
        self._next_id = 0
        self._patched = []  # (owner, attribute, original)

    # -- recording ----------------------------------------------------------

    def timed(self, name, fn, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((self.op, span_id, parent, name, start, end))

    def sample(self, name, value):
        self.samples.append((self.op, name, value))

    def span_wrapper(self, name, fn, after=None, caller=None):
        """Wrap fn in a span; `after(result, args)` may record samples.

        With `caller`, only calls made from that module are traced, so a
        scipy entry point is attributed to the layer that called it.
        """

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if caller is not None and sys._getframe(1).f_globals.get("__name__") != caller:
                return fn(*args, **kwargs)
            result = self.timed(name, fn, args, kwargs)
            if after is not None:
                after(result, args)
            return result

        setattr(wrapped, MARK, name)
        return wrapped

    def count_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            self.counts[(self.op, name)] += 1
            return fn(*args, **kwargs)

        setattr(wrapped, MARK, name)
        return wrapped

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attribute, replacement):
        self._patched.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def _patch_everywhere(self, original, replacement):
        """Replace every sloshspec module attribute bound to `original`.

        Modules import each other's functions by name, so one function
        can sit in several module namespaces.
        """
        for module in _sloshspec_modules():
            for attribute, value in sorted(vars(module).items()):
                if value is original:
                    self._patch(module, attribute, replacement)

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        for owner, attribute, make in _targets(self):
            original = getattr(owner, attribute)
            replacement = make(original)
            if isinstance(owner, type) or owner.__name__.startswith("scipy"):
                self._patch(owner, attribute, replacement)
            else:
                self._patch_everywhere(original, replacement)

    def restore(self):
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)


def _targets(tracer):
    """(owner, attribute, wrapper factory) for every traced entry point."""
    import scipy.linalg
    import scipy.sparse.linalg

    from sloshspec import _backend, cli, fem_steklov, harness, highord_sl
    from sloshspec.geometry import mesh
    from sloshspec.model_solutions import contour, hanson_lewy, peters

    span = tracer.span_wrapper

    def mesh_sizes(result, args):
        tracer.sample("geometry.mesh.nodes", result.num_nodes)
        tracer.sample("geometry.mesh.triangles", result.num_triangles)

    def lu_fill(result, args):
        tracer.sample("fem_steklov.lu_fill_nnz", int(result.L.nnz + result.U.nnz))

    def surface_nodes(result, args):
        tracer.sample("fem_steklov.surface_nodes", int(result.matrix.shape[0]))

    def eigenvalues_found(result, args):
        tracer.sample("highord_sl.eigenvalues", len(result.eigenvalues))

    def eval_points(result, args):
        tracer.sample("peters.points", int(getattr(result, "size", 1)))

    def decay_dev(result, args):
        params = args[0]
        target = -params.mu if params.condition == "neumann" else -2.0 * params.mu
        tracer.sample("peters.decay_exponent_dev", abs(result.decay_exponent - target))

    def dtn_action(original):
        traced = span("fem_steklov.dtn_action", original)

        @functools.wraps(original)
        def wrapped(*args, **kwargs):
            return span("fem_steklov.dtn_apply", traced(*args, **kwargs))

        setattr(wrapped, MARK, "fem_steklov.dtn_action")
        return wrapped

    def named(name, after=None, caller=None):
        return lambda original: span(name, original, after=after, caller=caller)

    targets = [
        (cli, "main", named("cli.main")),
        (harness, "reproduce_table", named("harness.reproduce_table")),
        (harness, "sl_vs_sloshing", named("harness.sl_vs_sloshing")),
        (harness, "quasimode_residual_study", named("harness.quasimode_residual_study")),
        (fem_steklov, "convergence_study", named("harness.convergence_study")),
        (harness, "write_atomic", named("harness.write_atomic")),
        (mesh, "generate_mesh", named("geometry.generate_mesh", after=mesh_sizes)),
        (mesh, "Delaunay", named("geometry.delaunay")),
        (fem_steklov, "assemble", named("fem_steklov.assemble")),
        (fem_steklov, "dtn_matrix", named("fem_steklov.dtn_matrix", after=surface_nodes)),
        (fem_steklov, "dtn_action", dtn_action),
        (fem_steklov, "solve_steklov", named("fem_steklov.solve_steklov")),
        (scipy.sparse.linalg, "splu", named("fem_steklov.splu", after=lu_fill, caller=fem_steklov.__name__)),
        (scipy.linalg, "eigh", named("fem_steklov.eigh", caller=fem_steklov.__name__)),
        (highord_sl, "solve_spectrum", named("highord_sl.solve_spectrum", after=eigenvalues_found)),
        (
            highord_sl,
            "characteristic_smallest_singular_value",
            lambda original: tracer.count_wrapper("highord_sl.det_evals", original),
        ),
        (peters.PetersEvaluator, "__init__", named("peters.build")),
        (peters, "eval_peters", named("peters.eval", after=eval_points)),
        (peters, "far_field_fit", named("peters.far_field_fit", after=decay_dev)),
        (contour, "exp_neg_I_continued", named("contour.g_continued")),
        (hanson_lewy, "quasimode_trace", named("hanson_lewy.quasimode_trace")),
    ]
    for kernel in ("stiffness_triplets", "edge_mass_triplets", "triangle_quality", "points_in_polygon"):
        targets.append((_backend, kernel, named("backend.kernel")))
    return targets


def _sloshspec_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "sloshspec" or name.startswith("sloshspec."))
    ]


def traced_owners():
    """Every namespace the tracer may patch."""
    import scipy.linalg
    import scipy.sparse.linalg

    from sloshspec.model_solutions import peters

    return _sloshspec_modules() + [scipy.linalg, scipy.sparse.linalg, peters.PetersEvaluator]


def wrapped_attributes():
    """Names of traced owners' attributes that currently hold a wrapper."""
    return sorted(
        f"{owner.__name__}.{attribute}"
        for owner in traced_owners()
        for attribute, value in vars(owner).items()
        if isinstance(value, types.FunctionType) and MARK in value.__dict__
    )


# -- aggregation ------------------------------------------------------------

PER_LAYER = {  # name: unit
    "geometry.generate_mesh.self_s": "s",
    "geometry.generate_mesh.calls": "count",
    "geometry.delaunay.s": "s",
    "geometry.delaunay.calls": "count",
    "geometry.mesh.nodes": "count",
    "geometry.mesh.triangles": "count",
    "backend.kernel.s": "s",
    "backend.kernel.calls": "count",
    "fem_steklov.assemble.s": "s",
    "fem_steklov.splu.s": "s",
    "fem_steklov.splu.calls": "count",
    "fem_steklov.lu_fill_nnz": "count",
    "fem_steklov.dtn_matrix.self_s": "s",
    "fem_steklov.dtn_apply.calls": "count",
    "fem_steklov.dtn_apply.s": "s",
    "fem_steklov.eigh.s": "s",
    "fem_steklov.solve_steklov.calls": "count",
    "fem_steklov.surface_nodes": "count",
    "fem_steklov.dtn_dense_bytes": "bytes",
    "highord_sl.solve_spectrum.s": "s",
    "highord_sl.det_evals": "count",
    "highord_sl.det_evals_per_eig": "ratio",
    "peters.build.s": "s",
    "peters.build.calls": "count",
    "peters.eval.s": "s",
    "peters.points": "count",
    "peters.cache_hit_ratio": "ratio",
    "peters.far_field_fit.s": "s",
    "peters.decay_exponent_dev": "exponent",
    "contour.g_continued.s": "s",
    "contour.g_continued.calls": "count",
    "hanson_lewy.quasimode_trace.s": "s",
    "harness.reproduce_table.self_s": "s",
    "harness.sl_vs_sloshing.self_s": "s",
    "harness.quasimode_residual_study.self_s": "s",
    "harness.convergence_study.self_s": "s",
    "harness.write_atomic.calls": "count",
    "cli.main.self_s": "s",
}
for _layer in LAYERS + ("bench",):
    PER_LAYER[f"share.{_layer}"] = "ratio"
PER_LAYER["trace.overhead_s"] = "s"

# metrics that must repeat exactly from one traced pass to the next
EXACT = tuple(name for name, unit in PER_LAYER.items() if unit in ("count", "bytes"))
EXACT += ("peters.cache_hit_ratio", "highord_sl.det_evals_per_eig")


def pass_layer_metrics(trace, op_seconds):
    """Per-layer metrics of one traced pass.

    `trace` is the dict a traced worker writes (spans, counts, samples);
    `op_seconds` is the summed wall time of the pass's operations.
    Times and call counts are summed over the pass; sizes that explain
    peak memory (LU fill, surface nodes, dense DtN bytes) are maxima.
    """
    child_time = collections.defaultdict(float)
    for _, _, parent, _, start, end in trace["spans"]:
        if parent is not None:
            child_time[parent] += end - start
    total = collections.defaultdict(float)
    self_time = collections.defaultdict(float)
    calls = collections.Counter()
    for _, span_id, _, name, start, end in trace["spans"]:
        total[name] += end - start
        self_time[name] += end - start - child_time[span_id]
        calls[name] += 1
    for (_, name), n in trace["counts"]:
        calls[name] += n
    sums = collections.defaultdict(float)
    maxima = collections.defaultdict(float)
    for _, name, value in trace["samples"]:
        sums[name] += value
        maxima[name] = max(maxima[name], value)

    m = {}
    for name in PER_LAYER:
        stem, _, kind = name.rpartition(".")
        if kind == "s":
            m[name] = total[stem]
        elif kind == "self_s":
            m[name] = self_time[stem]
        elif kind == "calls":
            m[name] = calls[stem]
    m["geometry.mesh.nodes"] = int(sums["geometry.mesh.nodes"])
    m["geometry.mesh.triangles"] = int(sums["geometry.mesh.triangles"])
    m["fem_steklov.lu_fill_nnz"] = int(maxima["fem_steklov.lu_fill_nnz"])
    ns = int(maxima["fem_steklov.surface_nodes"])
    m["fem_steklov.surface_nodes"] = ns
    m["fem_steklov.dtn_dense_bytes"] = 8 * ns * ns  # computed from ns, not measured
    m["highord_sl.det_evals"] = calls["highord_sl.det_evals"]
    eigs = sums["highord_sl.eigenvalues"]
    m["highord_sl.det_evals_per_eig"] = calls["highord_sl.det_evals"] / eigs if eigs else 0.0
    m["peters.points"] = int(sums["peters.points"])
    evals = calls["peters.eval"]
    m["peters.cache_hit_ratio"] = 1.0 - calls["peters.build"] / evals if evals else 0.0
    m["peters.decay_exponent_dev"] = maxima["peters.decay_exponent_dev"]

    spanned = 0.0
    for layer in LAYERS:
        layer_self = sum(t for name, t in self_time.items() if name.split(".")[0] == layer)
        m[f"share.{layer}"] = layer_self / op_seconds
        spanned += layer_self
    m["share.bench"] = max(0.0, 1.0 - spanned / op_seconds)
    return m


def combine_passes(per_pass, traced_pass_s, untraced_pass_s):
    """Median over traced passes; exact metrics must agree between passes.

    Returns (metrics, mismatches) where mismatches names every exact
    metric that differed between two traced passes.
    """
    mismatches = [
        name for name in EXACT if len({repr(p[name]) for p in per_pass}) > 1
    ]
    out = {}
    for name in PER_LAYER:
        if name == "trace.overhead_s":
            continue
        values = [p[name] for p in per_pass]
        out[name] = values[0] if name in EXACT else statistics.median(values)
    out["trace.overhead_s"] = statistics.median(traced_pass_s) - statistics.median(untraced_pass_s)
    return out, mismatches
