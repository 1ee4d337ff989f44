"""P1 Steklov solver: assembly, DtN operators, spectra, convergence."""

import gc
import math
import platform
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
import scipy.spatial
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from sloshspec import _backend, fem_steklov, harness
from sloshspec.fem_steklov import (
    SteklovSolveError,
    _factor,
    _pencil,
    _sloshing_pairs,
    assemble,
    convergence_study,
    dtn_action,
    dtn_matrix,
    half_system,
    solve_steklov,
)
from sloshspec.geometry.domain import (
    build_curvilinear_example,
    build_rectangle_domain,
    build_triangle_domain,
)
from sloshspec.geometry.io import read_mesh_text, write_mesh_text
from sloshspec.geometry.mesh import TriangleMesh, generate_mesh
from sloshspec.harness import ExperimentConfig, compute_experiment
from sloshspec.model_solutions.hanson_lewy import quasimode_trace

from _tables import EX1_TABLE


@pytest.fixture(scope="module")
def iso_mesh():
    domain = build_triangle_domain(math.pi / 4, math.pi / 4, 1.0)
    return generate_mesh(domain, 0.05)


@pytest.fixture(scope="module")
def iso_system(iso_mesh):
    return assemble(iso_mesh)


def _iso_walls_system(walls=("dirichlet", "dirichlet")):
    domain = build_triangle_domain(math.pi / 4, math.pi / 4, 1.0, wall_conditions=walls)
    mesh = generate_mesh(domain, 0.05)
    return mesh, assemble(mesh)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def _retagged(mesh, boundary_edges):
    return TriangleMesh(
        mesh.nodes, mesh.triangles, boundary_edges, mesh.mesh_size, mesh.grading_factor
    )


def test_assemble_requires_steklov_edges():
    domain = build_triangle_domain(math.pi / 4, math.pi / 4, 1.0)
    mesh = generate_mesh(domain, 0.2)
    stripped = _retagged(mesh, tuple((i, j, "neumann") for i, j, _ in mesh.boundary_edges))
    with pytest.raises(SteklovSolveError, match="steklov"):
        assemble(stripped)


def test_shuffled_boundary_edges_give_identical_eigenvalues():
    # an externally read mesh may list its boundary edges in any order;
    # the surface is re-chained from corner B either way
    domain = build_triangle_domain(
        2 * math.pi / 5, math.pi / 6, 2.0, wall_conditions=("neumann", "dirichlet")
    )
    mesh = generate_mesh(domain, 0.04)
    order = np.random.default_rng(3).permutation(len(mesh.boundary_edges))
    shuffled = _retagged(mesh, tuple(mesh.boundary_edges[i] for i in order))
    want = solve_steklov(mesh, 6)
    got = solve_steklov(shuffled, 6)
    assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
    assert assemble(shuffled).s_coords.tobytes() == assemble(mesh).s_coords.tobytes()


def test_surface_edges_off_a_single_open_path_are_rejected():
    domain = build_triangle_domain(math.pi / 4, math.pi / 4, 1.0)
    mesh = generate_mesh(domain, 0.1)
    surface = mesh.edges_with_tag("steklov")
    on_surface = set(surface.ravel().tolist())
    interior = [v for v in range(mesh.num_nodes) if v not in on_surface]
    mid = int(surface[len(surface) // 2, 0])
    branch = (mid, interior[-1], "steklov")
    a, b, c = interior[-4:-1]
    cycle = ((a, b, "steklov"), (b, c, "steklov"), (c, a, "steklov"))
    for extra in ((branch,), cycle):
        with pytest.raises(SteklovSolveError, match="single open path"):
            assemble(_retagged(mesh, mesh.boundary_edges + extra))


def test_surface_mass_matrix_structure(iso_system):
    mass = iso_system.surface_mass
    assert (mass != mass.T).nnz == 0
    # row sums reproduce the trapezoidal weights, so the total is the
    # exact (chordal) surface length
    assert mass.sum() == pytest.approx(1.0, abs=1e-12)
    assert (np.asarray(mass.sum(axis=1)).ravel() > 0).all()


def test_surface_arclength_runs_from_corner_a(iso_mesh, iso_system):
    s = iso_system.s_coords
    # all-Neumann walls: nothing is eliminated, so both corners stay on
    # the path (B first), and every mesh node owns a row; the surface
    # rows come last
    assert s[-1] == pytest.approx(0.0, abs=1e-15)
    assert s[0] == pytest.approx(1.0, abs=1e-12)
    assert iso_system.surface_length == pytest.approx(1.0, abs=1e-12)
    assert len(iso_system.row_nodes) == iso_mesh.num_nodes
    surface = np.unique(iso_mesh.edges_with_tag("steklov"))
    assert np.array_equal(np.sort(iso_system.row_nodes[iso_system.interior_count:]), surface)
    assert iso_system.interior_count > 0


def test_dirichlet_walls_eliminate_surface_endpoints():
    domain = build_triangle_domain(
        math.pi / 4, math.pi / 4, 1.0, wall_conditions=("dirichlet", "dirichlet")
    )
    mesh = generate_mesh(domain, 0.05)
    spec = solve_steklov(mesh, 3)
    system = assemble(mesh)
    dirichlet = np.unique(mesh.edges_with_tag("dirichlet"))
    assert len(dirichlet) > 0
    assert not np.isin(dirichlet, system.row_nodes).any()
    surface = mesh.edges_with_tag("steklov")
    s_nodes = system.row_nodes[system.interior_count:]
    assert len(s_nodes) == len(surface) + 1 - 2
    ends = np.setdiff1d(np.unique(surface), s_nodes)
    assert len(ends) == 2
    assert np.isin(ends, dirichlet).all()
    assert system.surface_mass.shape == (len(s_nodes),) * 2
    # the surface keeps its full length: sigma = -1/l must not shrink
    # to the span of the surviving nodes
    assert system.surface_length == pytest.approx(1.0, abs=1e-12)
    assert 0 < system.s_coords.min() and system.s_coords.max() < system.surface_length
    assert spec.eigenvalues[0] > 0.5


@pytest.mark.parametrize("walls", [("neumann", "neumann"), ("neumann", "dirichlet"), ("dirichlet", "dirichlet")])
def test_trailing_rows_are_the_surface_path_without_dirichlet_ends(walls):
    mesh, system = _iso_walls_system(walls)
    rows = system.row_nodes[system.interior_count:]
    surface = mesh.edges_with_tag("steklov")
    edges = {frozenset(e) for e in surface.tolist()}
    assert all(frozenset(pair) in edges for pair in zip(rows[:-1].tolist(), rows[1:].tolist()))
    dirichlet = np.unique(mesh.edges_with_tag("dirichlet"))
    assert np.array_equal(np.sort(rows), np.setdiff1d(np.unique(surface), dirichlet))
    # the path runs from corner B, so arc length from A falls row by row
    # by the length of each surface edge
    step = np.linalg.norm(np.diff(mesh.nodes[rows], axis=0), axis=1)
    np.testing.assert_allclose(-np.diff(system.s_coords), step, rtol=1e-12)


@pytest.mark.parametrize("walls", [("neumann", "neumann"), ("neumann", "dirichlet"), ("dirichlet", "dirichlet")])
def test_row_nodes_permute_the_non_dirichlet_nodes(walls):
    mesh, system = _iso_walls_system(walls)
    rows = system.row_nodes
    dirichlet = np.unique(mesh.edges_with_tag("dirichlet"))
    assert np.array_equal(np.sort(rows), np.setdiff1d(np.arange(mesh.num_nodes), dirichlet))
    ni = system.interior_count
    assert (np.diff(rows[:ni]) > 0).all()
    assert system.stiffness.shape == (len(rows),) * 2
    # the stiffness rows follow row_nodes: with nothing eliminated, the
    # energy of u = x is the domain's area (1/4 for this triangle)
    if not len(dirichlet):
        x = mesh.nodes[rows, 0]
        assert float(x @ (system.stiffness @ x)) == pytest.approx(0.25, rel=1e-12)


# ---------------------------------------------------------------------------
# DtN operators
# ---------------------------------------------------------------------------

def test_dtn_matrix_is_symmetric_psd_and_kills_constants(iso_system):
    dtn = dtn_matrix(iso_system)
    D = dtn.matrix
    assert np.array_equal(D, D.T)
    w = np.linalg.eigvalsh(D)
    assert w[0] > -1e-10 * max(1.0, w[-1])
    # all-Neumann tank: constants are exactly in the kernel
    ones = np.ones(D.shape[0])
    assert np.linalg.norm(D @ ones) < 1e-8 * np.linalg.norm(D)
    assert dtn.s_coords.shape == (D.shape[0],)
    assert np.all(np.diff(dtn.s_coords) != 0)


def test_dtn_action_matches_dtn_matrix(iso_system):
    dtn = dtn_matrix(iso_system)
    apply_schur = dtn_action(iso_system)
    rng = np.random.default_rng(0)
    for _ in range(3):
        trace = rng.standard_normal(dtn.matrix.shape[0])
        want = dtn.matrix @ trace
        got = apply_schur(trace)
        assert np.linalg.norm(got - want) < 1e-9 * np.linalg.norm(want)


def test_dtn_action_matches_dense_schur_complement(iso_system):
    # dtn_matrix and dtn_action share one interior solve, so the oracle
    # here is a dense K_SS - K_SI K_II^{-1} K_IS formed independently
    # from the interior-first, surface-last blocks
    for system in (iso_system, _iso_walls_system()[1]):
        ni = system.interior_count
        K = system.stiffness.toarray()
        dense = K[ni:, ni:] - K[ni:, :ni] @ np.linalg.solve(K[:ni, :ni], K[:ni, ni:])
        apply_schur = dtn_action(system)
        rng = np.random.default_rng(1)
        traces = rng.standard_normal((len(system.s_coords), 3))
        for trace in traces.T:
            want = dense @ trace
            assert np.linalg.norm(apply_schur(trace) - want) < 1e-10 * np.linalg.norm(want)
        block = apply_schur(traces)
        assert block.shape == traces.shape
        np.testing.assert_allclose(block, dense @ traces, rtol=0, atol=1e-10 * np.abs(dense).max())


def test_without_interior_nodes_the_dtn_matrix_is_the_stiffness():
    # a fan under five surface nodes whose apex and ends lie on Dirichlet
    # walls: the free nodes 1, 2, 3 are all on the surface, so there is no
    # interior block to eliminate
    nodes = np.array([[0.0, 0.0], [0.25, 0.0], [0.5, 0.0], [0.75, 0.0], [1.0, 0.0], [0.5, -0.5]])
    triangles = np.array([[i + 1, i, 5] for i in range(4)])
    edges = tuple((i, i + 1, "steklov") for i in range(4)) + ((4, 5, "dirichlet"), (5, 0, "dirichlet"))
    system = assemble(TriangleMesh(nodes, triangles, edges, 0.25, 1.0))
    assert system.interior_count == 0
    dense = system.stiffness.toarray()
    assert dense.shape == (3, 3)
    np.testing.assert_array_equal(dtn_matrix(system).matrix, dense)
    np.testing.assert_array_equal(dtn_action(system)(np.eye(3)), dense)


def test_failed_interior_factorization_raises_steklov_solve_error(iso_system, monkeypatch):
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(spla, "splu", singular)
    for build in (dtn_action, dtn_matrix):
        with pytest.raises(SteklovSolveError, match="interior factorization failed"):
            build(iso_system)


def _reference_stiffness_csr(nodes, triangles):
    """The whole-array int64 COO build that `_stiffness_csr` must match byte for byte."""
    p0, p1, p2 = (nodes[triangles[:, i]] for i in range(3))
    b = np.stack([p1[:, 1] - p2[:, 1], p2[:, 1] - p0[:, 1], p0[:, 1] - p1[:, 1]], axis=1)
    c = np.stack([p2[:, 0] - p1[:, 0], p0[:, 0] - p2[:, 0], p1[:, 0] - p0[:, 0]], axis=1)
    area2 = (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1]) - (p2[:, 0] - p0[:, 0]) * (p1[:, 1] - p0[:, 1])
    vals = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) / (2.0 * area2)[:, None, None]
    tris = triangles.astype(np.int64)
    rows = np.repeat(tris, 3, axis=1).reshape(-1)
    cols = np.tile(tris, (1, 3)).reshape(-1)
    return sp.coo_matrix((vals.reshape(-1), (rows, cols)), shape=(len(nodes), len(nodes))).tocsr()


@pytest.mark.parametrize(
    "build, h, grading",
    [
        (lambda: build_triangle_domain(math.pi / 4, math.pi / 4, 1.0), 0.01, 1.0),
        (lambda: build_triangle_domain(*EX1_ANGLES), 0.02, 0.25),
        (lambda: build_curvilinear_example("+"), 0.03, 0.25),
        (lambda: build_rectangle_domain(math.pi, 1.0), 0.05, 1.0),
    ],
    ids=["q2", "ex1", "ex2-plus", "rectangle"],
)
def test_stiffness_matches_the_int64_whole_array_build_byte_for_byte(build, h, grading):
    mesh = generate_mesh(build(), h, grading)
    rows, cols, _ = _backend.stiffness_triplets(mesh.nodes, mesh.triangles)
    assert rows.dtype == cols.dtype == np.int32
    got = fem_steklov._stiffness_csr(mesh.nodes, mesh.triangles)
    want = _reference_stiffness_csr(mesh.nodes, mesh.triangles)
    for name in ("data", "indices", "indptr"):
        assert getattr(got, name).dtype == getattr(want, name).dtype
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def test_stiffness_assembly_allocates_at_most_320_bytes_per_triangle():
    # the whole-array products with int64 triplets peaked at about 440
    mesh = generate_mesh(build_triangle_domain(math.pi / 4, math.pi / 4, 1.0), 0.01, 1.0)
    tracemalloc.start()
    try:
        fem_steklov._stiffness_csr(mesh.nodes, mesh.triangles)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 320 * mesh.num_triangles


# ---------------------------------------------------------------------------
# free heap handed back around each factorization
# ---------------------------------------------------------------------------

@pytest.fixture
def glibc_lookup():
    """Clears the cached libc lookup around a test that patches it."""
    fem_steklov._malloc_trim.cache_clear()
    yield
    fem_steklov._malloc_trim.cache_clear()


class _NoHeapCalls:
    """A C library without malloc_trim."""

    def __init__(self, name):
        pass

    def __getattr__(self, name):
        raise AttributeError(name)


def test_the_lookup_finds_no_heap_calls_where_libc_lacks_them(glibc_lookup, monkeypatch):
    monkeypatch.setattr(fem_steklov.ctypes, "CDLL", _NoHeapCalls)
    assert fem_steklov._malloc_trim() is None
    fem_steklov._release_free_heap()  # a no-op


def test_the_lookup_finds_malloc_trim_under_glibc():
    if platform.libc_ver()[0] == "glibc":
        assert fem_steklov._malloc_trim() is not None


@pytest.mark.parametrize("n", [fem_steklov._TRIM_NNZ - 1, fem_steklov._TRIM_NNZ])
def test_the_trim_gate_reads_only_the_matrix_being_factored(n, monkeypatch):
    # the heap goes back before and after the factorization of a matrix
    # of _TRIM_NNZ entries or more, never around a smaller one
    trims = []
    monkeypatch.setattr(fem_steklov, "_malloc_trim", lambda: trims.append)
    _factor(sp.diags(np.full(n, 4.0), format="csc"), "pencil")
    assert trims == ([0, 0] if n >= fem_steklov._TRIM_NNZ else [])


def test_handing_back_free_heap_leaves_every_bit_of_a_solve(glibc_lookup, monkeypatch):
    # with the gate at 0 the free heap goes back before and after the one
    # pencil factorization; the solve has the bytes it has with the gate
    # closed and without malloc_trim
    domain = build_triangle_domain(*EX1_ANGLES)

    def solve():
        spec = solve_steklov(generate_mesh(domain, 0.02), 8)
        return spec.eigenvalues.tobytes(), spec.traces.tobytes()

    default = solve()
    monkeypatch.setattr(fem_steklov, "_TRIM_NNZ", 0)
    trim = fem_steklov._malloc_trim()
    trims = []
    monkeypatch.setattr(fem_steklov, "_malloc_trim", lambda: lambda pad: trims.append(trim(pad)))
    assert solve() == default
    assert len(trims) == 2
    monkeypatch.undo()
    fem_steklov._malloc_trim.cache_clear()
    monkeypatch.setattr(fem_steklov.ctypes, "CDLL", _NoHeapCalls)
    assert solve() == default


# ---------------------------------------------------------------------------
# SPD factorization
# ---------------------------------------------------------------------------

def _recorded_factors(monkeypatch):
    """Route spla.splu through a recorder of (matrix, factor, keyword options)."""
    calls = []
    splu = spla.splu

    def recording(matrix, **kwargs):
        lu = splu(matrix, **kwargs)
        calls.append((matrix, lu, kwargs))
        return lu

    monkeypatch.setattr(spla, "splu", recording)
    return calls


def test_factorization_that_pivots_off_the_diagonal_is_rejected():
    # symmetric but indefinite, with a zero diagonal: only a row
    # interchange can factor it
    swap = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(SteklovSolveError, match="pencil factorization pivoted off the diagonal"):
        _factor(swap, "pencil")


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_triangle_domain(*EX1_ANGLES),
        lambda: build_triangle_domain(*EX1_ANGLES, wall_conditions=("dirichlet", "dirichlet")),
        lambda: build_curvilinear_example("-"),
    ],
    ids=["ex1-neumann", "ex1-dirichlet", "ex2-minus"],
)
def test_pencil_and_interior_factors_keep_their_pivots_on_the_diagonal(build, monkeypatch):
    calls = _recorded_factors(monkeypatch)
    mesh = generate_mesh(build(), 0.02)
    solve_steklov(mesh, 10)
    dtn_action(assemble(mesh))
    assert len(calls) == 2
    for _, lu, _ in calls:
        assert np.array_equal(lu.perm_r, lu.perm_c)


def test_symmetric_mode_fills_less_than_partial_pivoting(monkeypatch):
    calls = _recorded_factors(monkeypatch)
    solve_steklov(generate_mesh(build_curvilinear_example("-"), 0.02), 10)
    pencil = calls[0][0]
    monkeypatch.undo()
    partial = spla.splu(pencil.tocsc(), permc_spec="MMD_AT_PLUS_A")
    assert _factor(pencil, "pencil").nnz < partial.nnz


def test_factor_hands_splu_its_matrix_without_a_copy(iso_system, monkeypatch):
    # a CSR argument goes as its transpose, a CSC view of the same arrays;
    # a CSC argument goes unchanged
    calls = _recorded_factors(monkeypatch)
    stiffness = iso_system.stiffness.copy()  # _factor sorts a CSR's indices in place
    for matrix in (stiffness, stiffness.tocsc()):
        _factor(matrix, "pencil")
        assert calls[-1][0].format == "csc"
        assert np.shares_memory(calls[-1][0].data, matrix.data)


def _assert_factors_are_those_of_a_csc_copy(monkeypatch, mesh):
    """Solve and factor K_II; each matrix factored is exactly symmetric,
    its CSC view is entry for entry the tocsc() copy of its CSR, and the
    factors of the two solve a fixed right-hand side bit for bit."""
    calls = _recorded_factors(monkeypatch)
    solve_steklov(mesh, 6)
    system = assemble(mesh)
    dtn_action(system)
    monkeypatch.undo()
    stiffness = system.stiffness
    assert (stiffness != stiffness.T).nnz == 0
    assert len(calls) == 2  # the pencil, then K_II
    _assert_each_factor_is_that_of_a_csc_copy(calls)


def _assert_each_factor_is_that_of_a_csc_copy(calls):
    for view, lu, kwargs in calls:
        csr = view.T
        assert (csr != view).nnz == 0
        copy = csr.tocsc()
        for name in ("indptr", "indices", "data"):
            assert getattr(view, name).tobytes() == getattr(copy, name).tobytes()
        rhs = np.cos(np.arange(view.shape[0]))
        assert lu.solve(rhs).tobytes() == spla.splu(copy, **kwargs).solve(rhs).tobytes()


@pytest.mark.parametrize("h", [0.04, 0.02])
@pytest.mark.parametrize(
    "build",
    [
        lambda: build_rectangle_domain(1.0, 0.5, ("neumann", "dirichlet", "neumann")),
        lambda: build_rectangle_domain(1.0, 0.5),
        lambda: build_triangle_domain(1.0, 0.7, 1.0),
        lambda: build_curvilinear_example("-"),
        lambda: build_triangle_domain(math.pi / 4, math.pi / 4, 1.0),
    ],
    ids=["rectangle-ndn", "rectangle-n", "triangle-1.0-0.7", "ex2-minus", "iso"],
)
def test_pencil_and_interior_factors_are_those_of_a_csc_copy(build, h, monkeypatch):
    _assert_factors_are_those_of_a_csc_copy(monkeypatch, generate_mesh(build(), h))


def test_half_systems_are_exactly_symmetric_and_factor_as_their_csc_copies(monkeypatch):
    # each half pencil and half K_II goes to SuperLU as the transpose of
    # its CSR, which is the matrix itself only if it is exactly symmetric
    # and each half pencil factored is, byte for byte, the pencil of the
    # half that the mesh's system and the spectrum's mirror rebuild
    mesh = generate_mesh(build_triangle_domain(math.pi / 4, math.pi / 4, 1.0), 0.04, 1.0)
    calls = _recorded_factors(monkeypatch)
    spec = solve_steklov(mesh, 6)
    for (view, _, _), parity in zip(calls[:2], (1, -1)):
        half, _ = half_system(assemble(mesh), spec.mirror, parity)
        assert (half.stiffness != half.stiffness.T).nnz == 0
        assert (half.surface_mass != half.surface_mass.T).nnz == 0
        rebuilt = _pencil(half)[0]
        rebuilt.sort_indices()  # as `_factor` sorts the pencil it factors
        for name in ("data", "indices", "indptr"):
            assert getattr(view.T, name).tobytes() == getattr(rebuilt, name).tobytes()
        dtn_action(half)
    monkeypatch.undo()
    assert len(calls) == 4  # the two half pencils, then the two half K_II
    _assert_each_factor_is_that_of_a_csc_copy(calls)


def test_factors_of_a_mesh_read_from_a_dump_are_those_of_a_csc_copy(tmp_path, monkeypatch):
    domain = build_triangle_domain(*EX1_ANGLES, wall_conditions=("neumann", "dirichlet"))
    mesh = _dumped_with_shuffled_surface(generate_mesh(domain, 0.04), tmp_path / "mesh.txt")
    _assert_factors_are_those_of_a_csc_copy(monkeypatch, mesh)


@pytest.mark.parametrize("split", [True, False], ids=["split", "full"])
def test_every_factorization_of_the_residual_study_is_spd(split, monkeypatch):
    # pencil and interior block run in symmetric mode; the M^{-1} norm of
    # the residuals uses the banded surface-mass Cholesky.  The mesh
    # mirrors, so the split factors two half pencils and the odd half's
    # K_II (k = 4 and 6 are odd), and its residuals live in that half
    if not split:
        monkeypatch.setattr(fem_steklov, "_mirror_rows", lambda mesh, system: None)
    calls = _recorded_factors(monkeypatch)
    spectra = []
    solve = harness.solve_steklov

    def keep(mesh, n_eigs):
        spectra.append((mesh, solve(mesh, n_eigs)))
        return spectra[-1][1]

    residuals = []
    cho_solve_banded = scipy.linalg.cho_solve_banded

    def recording(factor, b, **kwargs):
        residuals.append(np.array(b))
        return cho_solve_banded(factor, b, **kwargs)

    monkeypatch.setattr(harness, "solve_steklov", keep)
    monkeypatch.setattr(scipy.linalg, "cho_solve_banded", recording)
    table = compute_experiment(ExperimentConfig(kind="quasimode_residual", h=0.02, k_list=(4, 6), grading_factor=1.0))
    assert len(calls) == (3 if split else 2)
    for _, lu, kwargs in calls:
        assert kwargs["diag_pivot_thresh"] == 0.0
        assert kwargs["options"] == {"SymmetricMode": True}
        assert np.array_equal(lu.perm_r, lu.perm_c)
    assert len(spectra) == 1 and len(residuals) == len(table.rows) == 2
    mesh, spec = spectra[0]
    system = assemble(mesh)
    mass = (half_system(system, spec.mirror, -1)[0] if split else system).surface_mass.toarray()
    for (_, sigma, relative, _), r in zip(table.rows, residuals):
        dense = float(r @ scipy.linalg.solve(mass, r))
        assert (relative * sigma) ** 2 == pytest.approx(dense, rel=1e-12)


@pytest.mark.parametrize("k_list", [(5,), (4, 5), (3, 4, 6)], ids=["odd-k", "mixed", "mixed-three"])
def test_the_residual_study_factors_only_the_halves_its_traces_need(k_list, monkeypatch):
    # trace k is even for odd k and odd for even k: an odd k factors only
    # the even half's K_II, and a mixed list builds both halves, each
    # factor gone before the next is made.  The rows match the full
    # path's to 1e-9, the rtol the recorded residuals are held to
    actions = []
    action = harness.dtn_action

    def recording(system):
        assert all(alive() is None for _, alive in actions)
        apply = action(system)
        actions.append((len(system.s_coords), weakref.ref(apply)))
        return apply

    monkeypatch.setattr(harness, "dtn_action", recording)
    table = compute_experiment(ExperimentConfig(kind="quasimode_residual", h=0.02, k_list=k_list, grading_factor=1.0))
    mesh = generate_mesh(_sector_triangle(2, ("neumann", "neumann")), 0.02, 1.0)
    spec = solve_steklov(mesh, 3)
    system = assemble(mesh)
    size = {parity: len(half_system(system, spec.mirror, parity)[0].s_coords) for parity in (1, -1)}
    parities = dict.fromkeys(1 if k % 2 else -1 for k in k_list)
    assert [n for n, _ in actions] == [size[parity] for parity in parities]
    monkeypatch.setattr(fem_steklov, "_mirror_rows", lambda mesh, system: None)
    full = compute_experiment(ExperimentConfig(kind="quasimode_residual", h=0.02, k_list=k_list, grading_factor=1.0))
    assert [n for n, _ in actions[len(parities):]] == [len(system.s_coords)]
    assert [row[:2] for row in table.rows] == [row[:2] for row in full.rows]
    np.testing.assert_allclose([row[2:] for row in table.rows], [row[2:] for row in full.rows], rtol=1e-9)


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def test_rectangle_matches_separated_solution():
    # [0, pi] x [-1, 0]: eigenfunctions cos(kx) cosh(k(y+1)) give
    # eigenvalues k tanh(k) below the constant mode at zero
    domain = build_rectangle_domain(math.pi, 1.0)
    spec = solve_steklov(generate_mesh(domain, 0.04), 5)
    true = np.array([0.0] + [k * math.tanh(k) for k in range(1, 5)])
    assert abs(spec.eigenvalues[0]) < 1e-10
    rel = np.abs(spec.eigenvalues[1:] - true[1:]) / true[1:]
    assert rel.max() < 6e-3
    assert rel[0] < 5e-4


@pytest.mark.parametrize(
    "walls, shift",
    [(("neumann", "neumann"), 1.0), (("dirichlet", "dirichlet"), 0.0), (("dirichlet", "neumann"), 0.5)],
    ids=["neumann", "dirichlet", "mixed"],
)
def test_p1_bounds_the_rectangle_spectrum_from_above_at_order_two(walls, shift):
    # [0, pi] x [-1, 0] with a Neumann bottom: eigenvalues n tanh(n) with
    # n = k - shift.  P1 is a conforming Rayleigh-Ritz method, so each
    # discrete eigenvalue lies above the exact one, and halving h divides
    # the error by about 4.
    domain = build_rectangle_domain(math.pi, 1.0, (walls[0], "neumann", walls[1]))
    n = np.arange(1, 11) - shift
    exact = n * np.tanh(n)
    tol = 1e-12 * np.maximum(1.0, exact)
    coarse, fine = (solve_steklov(generate_mesh(domain, h), 10).eigenvalues - exact for h in (0.04, 0.02))
    assert (coarse >= -tol).all() and (fine >= -tol).all()
    resolved = fine > tol
    assert 3.0 <= (coarse[resolved] / fine[resolved]).min()
    assert (coarse[resolved] / fine[resolved]).max() <= 6.0


def kirchhoff_v_canal_spectrum(length, count):
    """First `count` sloshing eigenvalues of the 90 degree V-canal with surface `length`.

    With the walls on y = +-x and the surface at y = a = length/2, the
    modes cosh kx cos ky + cos kx cosh ky and sinh kx sin ky + sin kx sinh ky
    meet both wall conditions (Kirchhoff); with z = ka the spectrum is
    {0, 2/length} u {z tanh z / a : tan z = -tanh z}
    u {z coth z / a : tan z = tanh z, z > 0}.
    """
    a = length / 2
    values = [0.0, 2.0 / length]
    z = np.linspace(0.5, 4.0 * count, 2000 * count)
    for sign, eigenvalue in ((1.0, lambda z: z * math.tanh(z) / a), (-1.0, lambda z: z / math.tanh(z) / a)):
        # tan z = -sign tanh z, written without the poles of tan
        f = lambda z: math.sin(z) + sign * math.cos(z) * math.tanh(z)
        fz = np.array([f(t) for t in z])
        for i in np.flatnonzero(np.sign(fz[:-1]) != np.sign(fz[1:])):
            values.append(eigenvalue(scipy.optimize.brentq(f, z[i], z[i + 1], xtol=1e-15)))
    return np.sort(values)[:count]


def test_p1_bounds_the_kirchhoff_v_canal_spectrum_from_above_at_order_two():
    # the pi/4 triangle with Neumann walls and L = 1 has an exact spectrum;
    # P1 is conforming Rayleigh-Ritz, so it lies above it, and halving h
    # divides the error by about 4
    exact = kirchhoff_v_canal_spectrum(1.0, 6)
    assert exact == pytest.approx([0.0, 2.0, 4.64727551, 7.85930901, 10.99523894, 14.13718599], abs=1e-8)
    domain = build_triangle_domain(math.pi / 4, math.pi / 4, 1.0)
    tol = 1e-12 * np.maximum(1.0, exact)
    coarse, fine = (solve_steklov(generate_mesh(domain, h), 6).eigenvalues - exact for h in (0.04, 0.02))
    assert (coarse >= -tol).all() and (fine >= -tol).all()
    resolved = fine > tol
    assert resolved.sum() == 5
    assert 3.0 <= (coarse[resolved] / fine[resolved]).min()
    assert (coarse[resolved] / fine[resolved]).max() <= 6.0


def test_traces_are_mass_orthonormal():
    domain = build_triangle_domain(math.pi / 4, math.pi / 4, 1.0)
    mesh = generate_mesh(domain, 0.05)
    spec = solve_steklov(mesh, 5)
    system = assemble(mesh)
    mass = system.surface_mass.toarray()
    gram = spec.traces.T @ mass @ spec.traces
    np.testing.assert_allclose(gram, np.eye(5), atol=1e-8)
    # the traces own their rows, so the spectrum does not keep the whole eigenvector block
    assert spec.traces.base is None
    assert spec.traces.shape == (len(system.s_coords), 5)


def test_resolution_guard_rejects_underresolved_requests():
    domain = build_rectangle_domain(math.pi, 1.0)
    with pytest.raises(SteklovSolveError, match="resolution guard"):
        solve_steklov(generate_mesh(domain, 0.5), 10)
    with pytest.raises(SteklovSolveError, match="at least 1"):
        solve_steklov(generate_mesh(domain, 0.1), 0)


EX1_ANGLES = (2 * math.pi / 5, math.pi / 6, 2.0)


@pytest.mark.parametrize(
    "walls, h",
    [
        (("neumann", "neumann"), 0.02),
        (("neumann", "neumann"), 0.01),
        (("neumann", "neumann"), 0.005),
        (("dirichlet", "dirichlet"), 0.02),
        (("neumann", "dirichlet"), 0.02),
    ],
)
def test_sparse_eigensolve_matches_dense_dtn_oracle(walls, h):
    # the sparse pencil and the dense Schur-complement DtN are the same
    # discrete problem, so eigenvalues agree to rounding and each trace
    # is the dense eigenvector up to sign
    mesh = generate_mesh(build_triangle_domain(*EX1_ANGLES, wall_conditions=walls), h)
    spec = solve_steklov(mesh, 10)
    system = assemble(mesh)
    mass = system.surface_mass.toarray()
    w, v = scipy.linalg.eigh(dtn_matrix(system).matrix, mass)
    w = w[:10]
    rel = np.abs(spec.eigenvalues - w) / np.maximum(np.abs(w), 1.0)
    assert rel.max() <= 1e-10
    overlap = np.abs(np.sum(spec.traces * (mass @ v[:, :10]), axis=0))
    np.testing.assert_allclose(overlap, 1.0, atol=1e-8)


def test_failed_factorization_raises_steklov_solve_error(monkeypatch):
    domain = build_rectangle_domain(math.pi, 1.0)

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(spla, "splu", singular)
    with pytest.raises(SteklovSolveError, match="pencil factorization failed"):
        solve_steklov(generate_mesh(domain, 0.1), 3)


def test_eigenpair_residual_check_rejects_inaccurate_pairs(monkeypatch):
    domain = build_rectangle_domain(math.pi, 1.0)
    eigsh = spla.eigsh

    def perturbed(*args, **kwargs):
        w, u = eigsh(*args, **kwargs)
        return w * (1.0 + 1e-6), u

    monkeypatch.setattr(spla, "eigsh", perturbed)
    with pytest.raises(SteklovSolveError, match="eigenpair residual"):
        solve_steklov(generate_mesh(domain, 0.1), 3)


def test_eigensolve_is_standard_lanczos_on_the_surface(monkeypatch):
    # ARPACK sees only the ns x ns surface operator, with no mass matrix
    # and no shift: every product it asks for is one pencil solve, and so
    # is each rebuilt eigenvector column
    calls = []
    eigsh = spla.eigsh

    def recording(A, **kwargs):
        products = []

        def matvec(y):
            products.append(y)
            return A.matvec(y)

        calls.append((A.shape, kwargs, products))
        return eigsh(spla.LinearOperator(A.shape, matvec=matvec, dtype=A.dtype), **kwargs)

    monkeypatch.setattr(spla, "eigsh", recording)
    for walls in (("neumann", "neumann"), ("dirichlet", "dirichlet")):
        mesh = generate_mesh(build_triangle_domain(*EX1_ANGLES, wall_conditions=walls), 0.04)
        spec = solve_steklov(mesh, 6)
        shape, kwargs, products = calls[-1]
        ns = len(assemble(mesh).s_coords)
        assert shape == (ns, ns)
        assert kwargs["k"] == 6
        assert kwargs.get("M") is None and kwargs.get("sigma") is None
        assert spec.pencil_solves == len(products) + 6
        assert 0.0 < spec.eigen_residual <= 1e-8
    assert len(calls) == 2


def _dumped_with_shuffled_surface(mesh, path):
    """`mesh` written as a text dump and read back, its Steklov edge lines permuted."""
    write_mesh_text(mesh, path)
    lines = path.read_text().splitlines()
    rows = [i for i, line in enumerate(lines) if line.endswith(" steklov")]
    shuffled = list(lines)
    for i, j in zip(rows, np.random.default_rng(5).permutation(rows)):
        shuffled[i] = lines[j]
    path.write_text("\n".join(shuffled) + "\n")
    return read_mesh_text(path)


@pytest.mark.parametrize(
    "walls, dump",
    [
        (("dirichlet", "dirichlet"), False),
        (("neumann", "dirichlet"), False),
        (("neumann", "neumann"), True),
    ],
    ids=["dirichlet", "mixed", "shuffled-dump"],
)
def test_surface_reduction_matches_dense_dtn_oracle(walls, dump, tmp_path):
    # the surface operator factors the surface mass as a tridiagonal
    # matrix in row order, which must hold with surface endpoints
    # eliminated and for a read mesh whose Steklov edges come in any order
    domain = build_triangle_domain(*EX1_ANGLES, wall_conditions=walls)
    mesh = generate_mesh(domain, 0.02)
    if dump:
        surface = mesh.edges_with_tag("steklov")
        mesh = _dumped_with_shuffled_surface(mesh, tmp_path / "mesh.txt")
        assert not np.array_equal(mesh.edges_with_tag("steklov"), surface)
    spec = solve_steklov(mesh, 10)
    system = assemble(mesh)
    surface_nodes = len(np.unique(mesh.edges_with_tag("steklov")))
    assert len(system.s_coords) == surface_nodes - walls.count("dirichlet")
    mass = system.surface_mass
    assert sp.triu(mass, 2).nnz == 0 and sp.tril(mass, -2).nnz == 0
    mass = mass.toarray()
    w, v = scipy.linalg.eigh(dtn_matrix(system).matrix, mass)
    w = w[:10]
    rel = np.abs(spec.eigenvalues - w) / np.maximum(np.abs(w), 1.0)
    assert rel.max() <= 1e-10
    overlap = np.abs(np.sum(spec.traces * (mass @ v[:, :10]), axis=0))
    np.testing.assert_allclose(overlap, 1.0, atol=1e-8)


# ---------------------------------------------------------------------------
# mirror-symmetric meshes
# ---------------------------------------------------------------------------

def _sector_triangle(q, walls):
    angle = math.pi / (2 * q)
    return build_triangle_domain(angle, angle, 1.0, wall_conditions=walls)


MIRRORED = [
    ("q2-h0.02", lambda w: _sector_triangle(2, (w, w)), 0.02),
    ("q2-h0.005", lambda w: _sector_triangle(2, (w, w)), 0.005),
    ("q3-h0.02", lambda w: _sector_triangle(3, (w, w)), 0.02),
    ("q4-h0.02", lambda w: _sector_triangle(4, (w, w)), 0.02),
    ("rectangle-h0.02", lambda w: build_rectangle_domain(1.0, 0.5, (w, w, w)), 0.02),
]


@pytest.mark.parametrize("wall", ["neumann", "dirichlet"])
@pytest.mark.parametrize("build, h", [case[1:] for case in MIRRORED], ids=[case[0] for case in MIRRORED])
def test_a_mirrored_mesh_splits_into_halves_with_the_full_spectrum(build, h, wall):
    # with grading 1.0 these meshes are their own mirror images; the two
    # half pencils give the full pencil's eigenvalues to 1e-10 and, up to
    # sign, its traces, each even or odd under the reflection
    mesh = generate_mesh(build(wall), h, 1.0)
    spec = solve_steklov(mesh, 10)
    assert spec.mirror is not None
    w, traces, _, _ = _sloshing_pairs(*_pencil(assemble(mesh)), 10)  # the full path
    rel = np.abs(spec.eigenvalues - w) / np.maximum(np.abs(w), 1.0)
    assert rel.max() <= 1e-10
    mass = assemble(mesh).surface_mass
    np.testing.assert_allclose(spec.traces.T @ (mass @ spec.traces), np.eye(10), atol=1e-10)
    np.testing.assert_allclose(np.abs(np.sum(spec.traces * (mass @ traces), axis=0)), 1.0, atol=1e-8)
    assert set(spec.parity.tolist()) == {1, -1}
    np.testing.assert_allclose(spec.traces[::-1] * spec.parity, spec.traces, atol=1e-12)
    assert 0.0 < spec.eigen_residual <= 1e-8


def _nodes_mirror(mesh):
    """Whether every node's reflection about the surface's midpoint normal lies on a node."""
    x = mesh.nodes[:, 0]
    reflected = np.column_stack([x.min() + x.max() - x, mesh.nodes[:, 1]])
    distance, _ = scipy.spatial.cKDTree(mesh.nodes).query(reflected)
    return distance.max() <= 1e-12


@pytest.mark.parametrize(
    "domain, h, grading",
    [(_sector_triangle(3, ("neumann", "neumann")), 0.005, 1.0), (_sector_triangle(2, ("neumann", "neumann")), 0.02, 0.25)],
    ids=["q3-h0.005-triangles-do-not-mirror", "q2-grading-0.25"],
)
def test_a_mesh_that_does_not_mirror_takes_the_full_pencil_bit_for_bit(domain, h, grading):
    mesh = generate_mesh(domain, h, grading)
    # the q = 3 mesh mirrors its nodes, but not its triangles
    assert _nodes_mirror(mesh) == (grading == 1.0)
    spec = solve_steklov(mesh, 10)
    assert spec.mirror is None
    w, traces, residual, solves = _sloshing_pairs(*_pencil(assemble(mesh)), 10)
    assert spec.eigenvalues.tobytes() == w.tobytes()
    assert spec.traces.tobytes() == traces.tobytes()
    assert (spec.eigen_residual, spec.pencil_solves) == (residual, solves)
    assert spec.parity.tolist() == [0] * 10


def test_a_mesh_with_one_edge_flipped_does_not_mirror():
    # flipping the shared edge of two triangles left of the axis keeps
    # every node's mirror image but not the triangles'
    mesh = generate_mesh(_sector_triangle(2, ("neumann", "neumann")), 0.02, 1.0)
    assert fem_steklov._mirror_rows(mesh, assemble(mesh)) is not None
    triangles = mesh.triangles.copy()
    left = np.flatnonzero((mesh.nodes[triangles, 0] < 0.4).all(axis=1))
    t = left[0]
    s = next(s for s in left[1:] if len(set(triangles[t]) & set(triangles[s])) == 2)
    c, d = set(triangles[t]) & set(triangles[s])
    (a,), (b,) = set(triangles[t]) - {c, d}, set(triangles[s]) - {c, d}
    flipped = np.array([[a, b, c], [a, b, d]])
    counterclockwise = _backend.signed_areas(mesh.nodes, flipped)[:, None] > 0
    triangles[[t, s]] = np.where(counterclockwise, flipped, flipped[:, ::-1])
    flipped_mesh = TriangleMesh(mesh.nodes, triangles, mesh.boundary_edges, mesh.mesh_size, mesh.grading_factor)
    assert _nodes_mirror(flipped_mesh)
    assert fem_steklov._mirror_rows(flipped_mesh, assemble(flipped_mesh)) is None


def test_a_half_that_fails_the_union_certificate_is_solved_again(monkeypatch):
    # each half's first solve returns only five pairs: the tenth lowest of
    # the ten is no lower than either half's largest, so each half may
    # hide a lower value and is solved again for eleven pairs, even half
    # first; the union then matches the full pencil
    mesh = generate_mesh(_sector_triangle(2, ("neumann", "neumann")), 0.02, 1.0)
    calls = []
    solve = fem_steklov._sloshing_pairs

    def short_first(A, system, n_eigs):
        calls.append((system.surface_mass.shape[0], n_eigs))
        return solve(A, system, 5 if len(calls) <= 2 else n_eigs)

    monkeypatch.setattr(fem_steklov, "_sloshing_pairs", short_first)
    spec = solve_steklov(mesh, 10)
    even, odd = (len(half_system(assemble(mesh), spec.mirror, parity)[0].s_coords) for parity in (1, -1))
    assert calls == [(even, 6), (odd, 6), (even, 11), (odd, 11)]
    w, _, _, _ = solve(*_pencil(assemble(mesh)), 10)
    assert (np.abs(spec.eigenvalues - w) / np.maximum(w, 1.0)).max() <= 1e-10
    assert set(spec.parity.tolist()) == {1, -1}


def test_a_split_too_small_for_its_pairs_takes_the_full_pencil():
    # four surface nodes allow one pair, but each half has only two
    # surface rows, too few for the two pairs asked of it: the spectrum
    # is the full pencil's, bit for bit, though the mesh mirrors
    mesh = generate_mesh(build_rectangle_domain(1.0, 0.5), 0.4, 1.0)
    spec = solve_steklov(mesh, 1)
    assert spec.mirror is not None and len(assemble(mesh).s_coords) == 4
    w, traces, _, _ = _sloshing_pairs(*_pencil(assemble(mesh)), 1)
    assert (spec.eigenvalues.tobytes(), spec.traces.tobytes()) == (w.tobytes(), traces.tobytes())
    assert spec.parity.tolist() == [0]


def test_a_half_still_uncertified_after_its_resolve_takes_the_full_pencil(monkeypatch):
    # as above, each half's first solve returns five pairs; on the
    # re-solve the even half's eleven values all tie at its lowest, so
    # the tenth lowest of the union is no lower than the even half's
    # largest, though it returned more than ten pairs: the split gives up
    # and the spectrum is the full pencil's, bit for bit
    mesh = generate_mesh(_sector_triangle(2, ("neumann", "neumann")), 0.02, 1.0)
    calls = []
    solve = fem_steklov._sloshing_pairs

    def tied_on_resolve(A, system, n_eigs):
        calls.append((system.surface_mass.shape[0], n_eigs))
        w, traces, residual, solves = solve(A, system, 5 if len(calls) <= 2 else n_eigs)
        if len(calls) == 3:
            w = np.full_like(w, w[0])
        return w, traces, residual, solves

    monkeypatch.setattr(fem_steklov, "_sloshing_pairs", tied_on_resolve)
    spec = solve_steklov(mesh, 10)
    even, odd = (len(half_system(assemble(mesh), spec.mirror, parity)[0].s_coords) for parity in (1, -1))
    assert calls == [(even, 6), (odd, 6), (even, 11), (odd, 11), (len(assemble(mesh).s_coords), 10)]
    w, traces, residual, solves = solve(*_pencil(assemble(mesh)), 10)
    assert (spec.eigenvalues.tobytes(), spec.traces.tobytes()) == (w.tobytes(), traces.tobytes())
    assert (spec.eigen_residual, spec.pencil_solves) == (residual, solves)
    assert spec.parity.tolist() == [0] * 10


def test_the_spectrum_reports_each_pair_parity(record_property, capsys):
    # k = 1 is the constant, which is even.  The alternation after it is
    # reported here, not gated: no proof that it must hold is cited
    spec = solve_steklov(generate_mesh(_sector_triangle(2, ("neumann", "neumann")), 0.005, 1.0), 10)
    assert spec.parity[0] == 1 and set(spec.parity.tolist()) == {1, -1}
    pattern = " ".join("even" if p == 1 else "odd" for p in spec.parity)
    record_property("parity_k1_to_k10", pattern)
    with capsys.disabled():
        print(f"\nparity of k = 1..10 on the q = 2 triangle, h = 0.005: {pattern}")


# ---------------------------------------------------------------------------
# what a factorization holds
# ---------------------------------------------------------------------------

def _large_matrices_alive_at_each_factor(monkeypatch, solve):
    """Run `solve()`; at each `_factor` call, list the nonzero counts of
    the sparse matrices made during `solve` that hold at least half as
    many nonzeros as the matrix factored, views sharing its memory aside."""
    before = [obj for obj in gc.get_objects() if sp.issparse(obj)]  # kept, so no id is reused
    ids = {id(obj) for obj in before}
    factor = fem_steklov._factor
    alive = []

    def checking(matrix, what):
        alive.append([
            obj.nnz
            for obj in gc.get_objects()
            if sp.issparse(obj)
            and id(obj) not in ids
            and obj.nnz >= matrix.nnz / 2
            and not np.shares_memory(obj.data, matrix.data)
        ])
        return factor(matrix, what)

    monkeypatch.setattr(fem_steklov, "_factor", checking)
    solve()
    return alive


@pytest.mark.parametrize(
    "domain, grading, factors",
    [(build_triangle_domain(*EX1_ANGLES), 0.25, 1), (_sector_triangle(2, ("neumann", "neumann")), 1.0, 2)],
    ids=["ex1-full-pencil", "q2-half-pencils"],
)
def test_each_factorization_of_a_solve_holds_only_its_pencil(domain, grading, factors, monkeypatch):
    # no stiffness, full or half, and no other pencil is alive while a
    # pencil is factored
    alive = _large_matrices_alive_at_each_factor(
        monkeypatch, lambda: solve_steklov(generate_mesh(domain, 0.02, grading), 10)
    )
    assert alive == [[]] * factors


@pytest.mark.parametrize(
    "domain, grading",
    [(build_triangle_domain(*EX1_ANGLES), 0.25), (_sector_triangle(2, ("neumann", "neumann")), 1.0)],
    ids=["ex1", "q2-mirrored"],
)
def test_assembly_repeats_byte_for_byte_and_the_spectrum_keeps_the_mirror_rows(domain, grading):
    # the spectrum keeps no system: a caller assembles the mesh again and
    # must get the bytes the solve factored, beside the solve's mirror rows
    mesh = generate_mesh(domain, 0.02, grading)
    spec = solve_steklov(mesh, 6)
    want = assemble(mesh)
    system = assemble(mesh)
    for got, ref in ((system.stiffness, want.stiffness), (system.surface_mass, want.surface_mass)):
        for name in ("data", "indices", "indptr"):
            assert getattr(got, name).tobytes() == getattr(ref, name).tobytes()
    for name in ("row_nodes", "s_coords"):
        assert getattr(system, name).tobytes() == getattr(want, name).tobytes()
    assert system.surface_length == want.surface_length
    mirror = fem_steklov._mirror_rows(mesh, want)
    assert (spec.mirror is None) == (mirror is None) == (grading != 1.0)
    if mirror is not None:
        assert spec.mirror.tobytes() == mirror.tobytes()


# ---------------------------------------------------------------------------
# fixed costs of a solve
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "domain, grading, layouts",
    [(build_triangle_domain(*EX1_ANGLES), 0.25, 1), (_sector_triangle(2, ("neumann", "neumann")), 1.0, 2)],
    ids=["ex1-full-pencil", "q2-half-pencils"],
)
def test_a_solve_lays_out_its_mesh_once_per_assembly_it_needs(domain, grading, layouts, monkeypatch):
    # the full path reads size and mirror off the assembly it factors; the
    # split path makes its first half from that assembly and assembles once
    # more for the second
    mesh = generate_mesh(domain, 0.02, grading)
    layout = fem_steklov._layout
    calls = []
    monkeypatch.setattr(fem_steklov, "_layout", lambda m: calls.append(m) or layout(m))
    spec = solve_steklov(mesh, 10)
    assert (spec.mirror is None) == (grading != 1.0)
    assert len(calls) == layouts


def _block_diag_pencil(system):
    """K - sigma B with B = diag(0, M) built by sp.block_diag."""
    ni = system.interior_count
    B = sp.block_diag((sp.csr_matrix((ni, ni)), system.surface_mass), format="csr")
    return system.stiffness - system.sigma * B


@pytest.mark.parametrize("case", ["neumann", "dirichlet-walls", "half"])
def test_the_pencil_matches_the_block_diagonal_one_array_for_array(case):
    if case == "half":
        mesh = generate_mesh(_sector_triangle(2, ("neumann", "neumann")), 0.02, 1.0)
        full = assemble(mesh)
        system = half_system(full, fem_steklov._mirror_rows(mesh, full), -1)[0]
    else:
        walls = ("neumann", "neumann") if case == "neumann" else ("dirichlet", "dirichlet")
        system = _iso_walls_system(walls)[1]
    got, want = _pencil(system)[0], _block_diag_pencil(system)
    for name in ("data", "indices", "indptr"):
        assert getattr(got, name).dtype == getattr(want, name).dtype
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


@pytest.mark.parametrize("walls, dropped", [(("dirichlet", "neumann"), 1), (("dirichlet", "dirichlet"), 2)])
def test_the_surface_mass_is_the_whole_path_mass_sliced_to_the_kept_rows(walls, dropped):
    mesh, system = _iso_walls_system(walls)
    s_edges = mesh.edges_with_tag("steklov")
    path = fem_steklov._chain_surface_path(s_edges)
    local = np.empty(mesh.num_nodes, dtype=np.int64)
    local[path] = np.arange(len(path))
    mr, mc, mv = _backend.edge_mass_triplets(np.ascontiguousarray(mesh.nodes[path]), local[s_edges])
    whole = sp.coo_matrix((mv, (mr, mc)), shape=(len(path), len(path))).tocsr()
    keep = np.flatnonzero(~np.isin(path, mesh.edges_with_tag("dirichlet")))
    assert len(path) - len(keep) == dropped
    want = whole[keep][:, keep]
    for name in ("data", "indices", "indptr"):
        got = getattr(system.surface_mass, name)
        assert got.dtype == getattr(want, name).dtype
        assert got.tobytes() == getattr(want, name).tobytes()


# ---------------------------------------------------------------------------
# convergence
# ---------------------------------------------------------------------------

def _meshes(domain, h_list, grading_factor=0.25):
    return [generate_mesh(domain, h, grading_factor) for h in h_list]


def test_rectangle_converges_at_second_order():
    domain = build_rectangle_domain(math.pi, 1.0)
    study = convergence_study(_meshes(domain, (0.08, 0.04, 0.02)), (2, 3, 4))
    assert study.h_values == (0.08, 0.04, 0.02)
    true = np.array([k * math.tanh(k) for k in (1, 2, 3)])
    assert study.values.shape == (3, 3)
    assert ((study.observed_order > 1.8) & (study.observed_order < 2.2)).all()
    fine_err = np.abs(study.values[-1] - true)
    rich_err = np.abs(study.richardson - true)
    assert (rich_err < 0.35 * fine_err).all()
    assert (fine_err < study.errbar).all()


def test_convergence_study_validates_inputs():
    domain = build_rectangle_domain(math.pi, 1.0)
    with pytest.raises(SteklovSolveError, match="1-based"):
        convergence_study(_meshes(domain, (0.1, 0.05)), (0, 1))


def test_the_ladder_refuses_sizes_that_do_not_strictly_decrease(tmp_path):
    # each level's size is its mesh's; a mesh read back from a dump
    # records none (nan), so no ladder can place it, though it solves alone
    domain = build_rectangle_domain(math.pi, 1.0)
    coarse, fine = _meshes(domain, (0.1, 0.05))
    write_mesh_text(fine, tmp_path / "mesh.txt")
    read = read_mesh_text(tmp_path / "mesh.txt")
    assert math.isnan(read.mesh_size)
    with pytest.raises(SteklovSolveError, match="at least one mesh"):
        convergence_study([], (1,))
    for meshes in ([coarse, coarse], [fine, coarse], [read], [coarse, read]):
        with pytest.raises(SteklovSolveError, match="strictly decreasing"):
            convergence_study(meshes, (1, 2))
    assert solve_steklov(read, 2).eigenvalues.tobytes() == solve_steklov(fine, 2).eigenvalues.tobytes()
    assert convergence_study([coarse, fine], (1, 2)).h_values == (0.1, 0.05)


def test_two_level_study_uses_order_two_fallback():
    domain = build_rectangle_domain(math.pi, 1.0)
    study = convergence_study(_meshes(domain, (0.08, 0.04)), (2,))
    assert math.isnan(study.observed_order[0])
    v_coarse, v_fine = study.values[:, 0]
    assert study.errbar[0] == pytest.approx(2.0 * abs(v_fine - v_coarse))
    expected = v_fine + (v_fine - v_coarse) / (2.0**2 - 1.0)
    assert study.richardson[0] == pytest.approx(expected, abs=1e-14)


def test_corner_grading_keeps_second_order_accuracy():
    # every corner of this tank is convex enough that P1 converges at
    # order two with or without grading; grading must not degrade the
    # fine-mesh eigenvalue
    domain = build_triangle_domain(2 * math.pi / 5, math.pi / 6, 2.0)
    ladder = (0.04, 0.02, 0.01)
    ks = (3, 5, 8)
    graded = convergence_study(_meshes(domain, ladder, 0.25), ks)
    uniform = convergence_study(_meshes(domain, ladder, 1.0), ks)
    for study in (graded, uniform):
        assert ((study.observed_order > 1.8) & (study.observed_order < 2.2)).all()
    true_5 = EX1_TABLE[4][1]
    err_graded = abs(graded.values[-1, 1] - true_5)
    err_uniform = abs(uniform.values[-1, 1] - true_5)
    assert err_graded < 5e-3
    assert err_uniform < 5e-3
    assert err_graded <= 1.05 * err_uniform


# ---------------------------------------------------------------------------
# quasimode interaction
# ---------------------------------------------------------------------------

def test_surface_beam_trace_is_a_near_eigenvector():
    # the order-2 wall-to-wall model trace at the quantized frequency
    # sigma = 2.5 pi nearly solves the discrete problem: its residual is
    # two orders of magnitude below the same trace tested off-lattice
    domain = build_triangle_domain(math.pi / 4, math.pi / 4, 1.0)
    sigma = 2.5 * math.pi

    def residuals(h):
        mesh = generate_mesh(domain, h, grading_factor=1.0)
        system = assemble(mesh)
        apply_schur = dtn_action(system)
        mass = system.surface_mass

        def m_norm(r):
            return math.sqrt(float(r @ (mass @ r)))

        trace = quasimode_trace(2, sigma, system.s_coords, 1.0)
        trace = trace / m_norm(trace)
        d_trace = apply_schur(trace)
        m_trace = mass @ trace

        def res(s):
            return m_norm(d_trace - s * m_trace)

        return res(sigma), res(sigma + math.pi / 2), res(sigma - math.pi / 2)

    res_fine, off_plus, off_minus = residuals(2e-3)
    assert off_plus / res_fine > 10.0
    assert off_minus / res_fine > 10.0
    assert res_fine < 1e-4
    res_coarse, _, _ = residuals(4e-3)
    assert res_fine < res_coarse


def test_quasimode_residuals_match_recorded_values():
    # residual column of `residual --q 2 --h 0.01 --k 4,6,8` as recorded
    # with an extended-precision refined interior solve; the plain LU
    # solve must stay within 1e-9 relative of it
    config = ExperimentConfig(kind="quasimode_residual", h=0.01, k_list=(4, 6, 8), grading_factor=1.0)
    study = compute_experiment(config)
    got = np.array([row[2] for row in study.rows])
    want = np.array([0.0030849311654817585, 0.0056586690159126365, 0.009779755378982425])
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)
