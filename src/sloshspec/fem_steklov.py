"""P1 finite elements for the mixed Steklov (sloshing) eigenproblem.

Pipeline: `solve_steklov` is the one entry from a domain or mesh to a
spectrum.  `assemble` builds the P1 stiffness matrix of the Laplacian,
eliminates Dirichlet-tagged boundary nodes symmetrically, and orders
the remaining (free) nodes in one block layout: interior nodes first,
by node id, then the surviving surface nodes in path order.  It builds
the 1D P1 mass matrix of the surface block once.  That mass is
tridiagonal in path order, and its banded Cholesky factor M = R^T R is
made once per system.  The sparse pencil K u = lambda B u,
B = diag(0, M), is solved for its lowest pairs by standard Lanczos on
an operator of surface size, which costs one sparse factorization of
the shifted pencil; the spectrum keeps its mesh and assembles its
system again when it is first read.  The surface traces of the
eigenvectors, the trailing rows of u, are the eigenvectors of the
discrete Dirichlet-to-Neumann (DtN) map, never formed on this path.

A mesh that is its own mirror image, under the reflection that swaps
the ends of the surface (the pi/(2q) triangle and the rectangle, meshed
with grading 1.0), has only even and odd eigenvectors.  Its pencil
splits exactly into two pencils of half the size, P^T K P and P^T B P
for the orthonormal even and odd bases P (`half_system`), in the same
block layout, so each half goes through the same Lanczos path, and the
union of the halves' pairs, once certified, is the spectrum, each pair
with its parity.  The symmetry is read off the mesh, never the domain;
any other mesh takes the full pencil.  The spectrum holds the mirror
rows (`SteklovSpectrum.mirror`); nothing else stores them.

The DtN map is still available as the Schur complement
D = K_SS - K_SI K_II^{-1} K_IS of the trailing block.  One path slices
the contiguous blocks and factors K_II once: `dtn_action` returns its
matrix-free action (for residuals on fine meshes), and `dtn_matrix`
applies that action to identity column blocks (for dumps and property
checks).

Every sparse factorization, of the pencil and of K_II, goes through
`_factor`.  Both matrices are symmetric positive definite, so `_factor`
runs SuperLU in symmetric mode with diagonal pivots only, which stores
and works through less supernode padding than the default mode, and
rejects a factor that pivoted off the diagonal anyway.  Both are also
exactly symmetric, so SuperLU reads each CSR in place through its
transpose, a CSC view, not a CSC copy.  All steps are deterministic for
a fixed mesh.

Memory: the factor and SuperLU's working arrays set the peak of a fine
solve, so each factorization of a solve starts with its pencil
A = K - sigma B the only matrix of its size alive.  The stiffness is
assembled only where a pencil is built and goes once A is formed:
`_pencil` returns A and the system without its stiffness, pairs are
checked against A, the spectrum keeps its mesh rather than its system,
and a mirrored mesh is assembled again for each half pencil, just
before that half is factored, and the pencil goes once its eigensolve
returns, so only one half factor, about half the full one's entries,
is alive at a time.  The spectrum keeps its surface traces as their
own (ns, k) array rather than a view
into all n rows of the eigenvectors.  A residual study lets the mesh
and the full system go before K_II is factored, and factors K_II of
only the halves its traces lie in.  Freed memory is not gone: glibc
keeps freed heap resident, and after one fine solve its threshold for
handing heap back has risen.  `_factor` therefore hands glibc's free
heap back to the OS (malloc_trim) before SuperLU allocates, so the
temporaries of the last assembly and mesh do not stay under the
factor, and again once SuperLU returns, so its freed working arrays do
not stay under the eigensolve.  The stiffness assembly keeps its own
transient small (int32 triplets, element products formed in place).
What binds a fine run is then the factor itself; of the fine runs
measured, example 1's full Neumann pencil at h = 0.005 (3.5M stored
factor entries) sets the peak.
"""

import ctypes
import math
from dataclasses import dataclass, replace
from functools import cache, cached_property

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import _backend
from .geometry import generate_mesh

_SCHUR_BLOCK_BYTES = 2 * 10**8

# `_factor` hands free heap back only around a matrix with at least this
# many stored entries.  The pencils of a fine solve hold 2.5e5 to 3.2e5
# and factor into 3M or more, more than the heap glibc keeps free, which
# would otherwise stay resident under the factor.  The matrices of coarse
# meshes (under 1.2e4 entries) factor inside that heap, and a trim around
# each only costs the page faults that take the memory back.
_TRIM_NNZ = 1 << 17

# ARPACK's relative accuracy target for the Ritz values of the surface
# operator.  Against tol=0 (machine precision) it saves about 8 of the
# ~50 pencil solves of a 10-pair eigensolve; eigenvalues move by at most
# 4.4e-15 and every pair still passes the 1e-8 residual gate with orders
# of magnitude to spare.
_ARPACK_TOL = 1e-10


class SteklovSolveError(RuntimeError):
    """Raised for assembly, factorization, eigensolve or resolution failures."""


@dataclass
class AssembledSystem:
    """Sparse pieces of the discrete problem, in the free-node space.

    `stiffness` acts on the free nodes (everything except eliminated
    Dirichlet nodes).  Row i belongs to mesh node `row_nodes[i]`: the
    first `interior_count` rows are the interior nodes by node id, the
    rest the surface nodes that survive elimination, in path order from
    corner B.  `s_coords` gives those surface rows' arc length from
    corner A, and `surface_mass` the 1D P1 mass matrix among them.
    `surface_length` is the length of the whole surface polyline,
    eliminated endpoints included.  `stiffness` is None on the system
    that `_pencil` returns beside its pencil.
    """

    stiffness: sp.csr_matrix
    row_nodes: np.ndarray
    s_coords: np.ndarray
    surface_mass: sp.csr_matrix
    surface_length: float

    @property
    def interior_count(self):
        return len(self.row_nodes) - len(self.s_coords)

    @property
    def sigma(self):
        """The pencil shift -1/l, below the spectrum (l the surface length)."""
        return -1.0 / self.surface_length

    @cached_property
    def surface_cholesky(self):
        """Upper factor R of M = R^T R, in `scipy.linalg.cholesky_banded` layout.

        Consecutive surface rows are the ends of one surface edge, so M
        is tridiagonal and R upper bidiagonal: row 0 holds R's
        superdiagonal (from column 1), row 1 its diagonal.  Made once
        per system; `scipy.linalg.cho_solve_banded((R, False), r)` solves
        with M.
        """
        mass = self.surface_mass
        ab = np.zeros((2, mass.shape[0]))
        ab[0, 1:] = mass.diagonal(1)
        ab[1] = mass.diagonal()
        try:
            return scipy.linalg.cholesky_banded(ab)
        except np.linalg.LinAlgError as exc:
            raise SteklovSolveError(f"surface mass factorization failed: {exc}") from exc


@dataclass
class DtNOperatorMatrix:
    """Dense discrete Dirichlet-to-Neumann matrix on the free S nodes.

    `s_coords` gives each row's arc-length position along the surface,
    measured from corner A; `s_nodes` the global mesh node ids.
    """

    matrix: np.ndarray
    s_coords: np.ndarray
    s_nodes: np.ndarray


@dataclass
class SteklovSpectrum:
    """Lowest eigenvalues with surface traces, and what produced them.

    Traces are columns, orthonormal in the surface mass inner product;
    their rows follow `s_coords`.  `eigen_residual` is the largest pair
    residual |K u - lambda B u| relative to max(1, lambda_max), and
    `pencil_solves` counts the solves with the pencil factor that the
    eigensolve made.  `parity` is +1 for an eigenvector that is even
    under the mesh's mirror reflection, -1 for an odd one, and 0 for
    every pair of a mesh that does not mirror.  `mirror` holds the
    mirror rows of a mesh that is its own mirror image (see
    `_mirror_rows`), else None: `half_system(spectrum.system,
    spectrum.mirror, parity)` rebuilds a half as the solve factored it.

    The spectrum keeps its mesh, not the assembled system: `system`
    assembles the mesh again on first use.  Assembly is deterministic,
    so the stiffness has the bytes the solve factored, and no stiffness
    stays alive under a later factorization of a caller that never
    reads it.
    """

    eigenvalues: np.ndarray
    traces: np.ndarray
    mesh: object
    eigen_residual: float
    pencil_solves: int
    parity: np.ndarray
    mirror: np.ndarray = None

    @cached_property
    def system(self):
        return assemble(self.mesh)

    @property
    def s_coords(self):
        return self.system.s_coords

    @property
    def num_nodes(self):
        return self.mesh.num_nodes


def _chain_surface_path(s_edges):
    """Order the Steklov edges into one open path of node ids.

    The path starts at the end node that begins an edge: corner B for the
    loop order that mesh generation stores.  Externally read meshes may
    list the edges in any order.
    """
    nbrs = {}
    for i, j in s_edges.tolist():
        nbrs.setdefault(i, []).append(j)
        nbrs.setdefault(j, []).append(i)
    ends = [n for n, v in nbrs.items() if len(v) == 1]
    if len(ends) != 2 or any(len(v) > 2 for v in nbrs.values()):
        raise SteklovSolveError("steklov edges do not form a single open path")
    path = [ends[0] if (s_edges[:, 0] == ends[0]).any() else ends[1]]
    prev = None
    while len(path) <= len(s_edges):
        step = [n for n in nbrs[path[-1]] if n != prev]
        if not step:  # the far end came early: other edges lie off the path
            raise SteklovSolveError("steklov edges do not form a single open path")
        prev = path[-1]
        path.append(step[0])
    return np.array(path, dtype=np.int64)


def _stiffness_csr(nodes, triangles):
    """P1 stiffness in CSR form, summed from all element triplets in one COO pass."""
    rows, cols, vals = _backend.stiffness_triplets(nodes, triangles)
    return sp.coo_matrix((vals, (rows, cols)), shape=(len(nodes), len(nodes))).tocsr()


def _layout(mesh):
    """Everything `assemble` returns but the stiffness, which stays None.

    The free-node rows, the surface coordinates and the surface mass
    cost a small part of an assembly, so `solve_steklov` reads the
    surface size and the mirror from this and assembles the stiffness
    only where it builds a pencil.
    """
    nodes = mesh.nodes
    n = len(nodes)
    s_edges = mesh.edges_with_tag("steklov")
    if len(s_edges) == 0:
        raise SteklovSolveError("mesh carries no steklov-tagged edges")
    free_mask = np.ones(n, dtype=bool)
    free_mask[mesh.edges_with_tag("dirichlet")] = False
    path = _chain_surface_path(s_edges)
    seg = np.linalg.norm(np.diff(nodes[path], axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    s_arclength = cum[-1] - cum  # loop order runs B -> A, so measure from A

    local = np.empty(n, dtype=np.int64)
    local[path] = np.arange(len(path))
    edges_local = local[s_edges]
    mr, mc, mv = _backend.edge_mass_triplets(np.ascontiguousarray(nodes[path]), edges_local)
    mass = sp.coo_matrix((mv, (mr, mc)), shape=(len(path), len(path))).tocsr()
    keep = np.where(free_mask[path])[0]  # a Dirichlet wall drops a surface endpoint

    interior_mask = free_mask.copy()
    interior_mask[path] = False
    return AssembledSystem(
        stiffness=None,
        row_nodes=np.concatenate([np.where(interior_mask)[0], path[keep]]),
        s_coords=s_arclength[keep],
        surface_mass=mass[keep][:, keep],
        surface_length=float(cum[-1]),
    )


def assemble(mesh):
    """Assemble stiffness and surface mass matrices for a mesh."""
    system = _layout(mesh)
    rows = system.row_nodes
    return replace(system, stiffness=_stiffness_csr(mesh.nodes, mesh.triangles)[rows][:, rows])


def _sorted_cells(cells):
    """Rows of `cells` with each row's nodes sorted, the rows in lexicographic order."""
    cells = np.sort(cells, axis=1)
    return cells[np.lexsort(cells.T[::-1])]


def _mirror_rows(mesh, system):
    """Row permutation of the mesh's mirror image, or None if the mesh does not mirror.

    The reflection is the one that swaps the two ends of the surface
    path.  Nodes are matched to the reflected nodes by sorting both on
    coordinates rounded to 1e-7 of the mesh's extent (its largest
    coordinate distance from that surface end), and each matched pair
    must agree to 1e-12 of it.  The triangles, and the boundary
    edges of each tag, must map onto themselves.  In the system's rows,
    the reflection then permutes the interior rows and reverses the
    surface rows.
    """
    nodes = mesh.nodes
    ends, uses = np.unique(mesh.edges_with_tag("steklov"), return_counts=True)
    a, b = nodes[ends[uses == 1]]
    axis = (b - a) / np.linalg.norm(b - a)
    image = nodes - np.outer(2.0 * ((nodes - 0.5 * (a + b)) @ axis), axis)
    extent = np.abs(nodes - a).max()

    def by_position(points):
        rounded = np.round(points / (1e-7 * extent))
        return np.lexsort((rounded[:, 1], rounded[:, 0]))

    mirror = np.empty(len(nodes), dtype=np.int64)
    mirror[by_position(image)] = by_position(nodes)
    if np.abs(image - nodes[mirror]).max() > 1e-12 * extent:
        return None
    cell_sets = [mesh.triangles] + [mesh.edges_with_tag(tag) for tag in ("steklov", "neumann", "dirichlet")]
    if not all(np.array_equal(_sorted_cells(c), _sorted_cells(mirror[c])) for c in cell_sets):
        return None
    row_of = np.full(len(nodes), -1)
    row_of[system.row_nodes] = np.arange(len(system.row_nodes))
    rows = row_of[mirror[system.row_nodes]]
    ni = system.interior_count
    if not (
        np.array_equal(np.sort(rows[:ni]), np.arange(ni))
        and np.array_equal(rows[ni:], np.arange(len(rows) - 1, ni - 1, -1))
    ):
        return None
    return rows


def _symmetric(matrix):
    """(A + A^T) / 2 in CSR: exactly symmetric, as `_factor` requires."""
    return (0.5 * (matrix + matrix.T)).tocsr()


def half_system(system, mirror, parity):
    """The even (`parity` 1) or odd (-1) half of a system whose mesh mirrors.

    The mesh's mirror rows `mirror` (see `_mirror_rows`) pair rows i and
    j = mirror[i].  The orthonormal basis P has one column per pair,
    (e_i + parity e_j) / sqrt(2) with i the smaller row, and for the
    even half one column e_i per row on the axis.  The columns keep the
    system's block layout: interior rows first, then the surface rows in
    path order, so the half surface mass P^T M P stays tridiagonal.
    Returns the half system, with stiffness and mass P^T K P and P^T M P
    made exactly symmetric, and the surface block of P, which maps a
    half trace back onto the surface rows.
    """
    rows = np.arange(len(mirror))
    keep = rows <= mirror if parity == 1 else rows < mirror
    first = rows[keep]
    second = mirror[keep]
    pairs = np.flatnonzero(first != second)
    weight = np.where(first == second, 1.0, math.sqrt(0.5))
    basis = sp.csr_matrix(
        (
            np.concatenate([weight, parity * weight[pairs]]),
            (np.concatenate([first, second[pairs]]), np.concatenate([np.arange(len(first)), pairs])),
        ),
        shape=(len(rows), len(first)),
    )
    ni, hi = system.interior_count, np.count_nonzero(first < system.interior_count)
    surface_basis = basis[ni:, hi:]
    half = AssembledSystem(
        stiffness=_symmetric(basis.T @ system.stiffness @ basis),
        row_nodes=system.row_nodes[first],
        s_coords=system.s_coords[first[hi:] - ni],
        surface_mass=_symmetric(surface_basis.T @ system.surface_mass @ surface_basis),
        surface_length=system.surface_length,
    )
    return half, surface_basis


@cache
def _malloc_trim():
    """glibc's malloc_trim in the running process, or None where it is missing."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


def _release_free_heap():
    """Hand glibc's free heap back to the OS; where libc lacks malloc_trim this does nothing."""
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


def _factor(matrix, what):
    """Sparse factorization of a symmetric positive definite `matrix`.

    SuperLU runs in symmetric mode on the minimum-degree ordering of
    A^T + A.  The factor has the same nonzeros as in the default mode,
    but SuperLU stores, factors and solves through fewer padding zeros
    in its supernodes: up to half of the stored entries on the example
    meshes.  A zero pivot threshold keeps every pivot on the diagonal.
    An SPD matrix needs no row interchange, so a factor whose row
    permutation differs from its column permutation pivoted off the
    diagonal, and is rejected.  `what` names the matrix in the error.

    For a matrix of _TRIM_NNZ or more entries, free heap that glibc
    kept is handed back (`_release_free_heap`) before SuperLU allocates
    anything, so the factor does not stack on memory the process no
    longer uses, and again once it returns, so its freed working arrays
    do not stay under the eigensolve.

    SuperLU reads CSC and copies nothing it gets in that form, so a CSC
    `matrix` goes to it unchanged.  A CSR `matrix` has its indices sorted
    in place and goes as its transpose, a CSC view of the same three
    arrays, with no copy.  That view is entry for entry what tocsc()
    would build, because every matrix factored here is exactly
    symmetric: each element matrix is symmetric, and the COO-to-CSR sum
    adds the duplicates of (i, j) and of (j, i) in the same triangle
    order.  With sorted indices, row j of the CSR lists column indices
    i ascending with values A[j, i] = A[i, j], which is column j of the
    CSC.  Unsorted, the order would differ and SuperLU's bits with it.
    The sort reorders the argument's storage, so callers pass a matrix
    built for the call: the pencil, or the sliced K_II.  Sorting the
    stored stiffness would move the bits of every sparse product that
    sums in its storage order.
    """
    large = matrix.nnz >= _TRIM_NNZ
    if large:
        _release_free_heap()
    if matrix.format == "csr":
        matrix.sort_indices()
        matrix = matrix.T
    try:
        lu = spla.splu(
            matrix,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise SteklovSolveError(f"{what} factorization failed: {exc}") from exc
    if large:
        _release_free_heap()
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SteklovSolveError(f"{what} factorization pivoted off the diagonal")
    return lu


def _schur(system):
    """Callable X -> D X for the Schur complement D = K_SS - K_SI K_II^{-1} K_IS.

    Slices the contiguous blocks and factors the interior block once; X
    is one surface trace or a block of trace columns, and each call
    costs one pair of sparse products and one interior solve.
    """
    ni = system.interior_count
    K = system.stiffness
    k_ss = K[ni:, ni:]
    if ni == 0:
        return lambda X: k_ss @ np.asarray(X, dtype=float)
    k_is = K[:ni, ni:]
    k_si = K[ni:, :ni]
    lu = _factor(K[:ni, :ni], "interior")

    def apply(X):
        X = np.asarray(X, dtype=float)
        return k_ss @ X - k_si @ lu.solve(k_is @ X)

    return apply


def dtn_action(system):
    """Callable applying the Schur-complement DtN without forming it.

    Factors the interior block once; each call then costs one interior
    solve.  Use this instead of dtn_matrix when only a few applications
    are needed on a fine mesh, where materializing all columns of the
    dense matrix would dominate memory and time.
    """
    return _schur(system)


def dtn_matrix(system):
    """Schur-complement DtN matrix D = K_SS - K_SI K_II^{-1} K_IS.

    The columns are the Schur action on identity column blocks, sized so
    one block of interior solutions stays within _SCHUR_BLOCK_BYTES.
    """
    apply = _schur(system)
    ns = len(system.s_coords)
    step = max(8, min(128, _SCHUR_BLOCK_BYTES // (8 * max(1, system.interior_count))))
    D = np.empty((ns, ns))
    for lo in range(0, ns, step):
        hi = min(lo + step, ns)
        D[:, lo:hi] = apply(np.eye(ns, hi - lo, -lo))
    sym_defect = np.linalg.norm(D - D.T)
    if sym_defect > 1e-10 * max(1.0, np.linalg.norm(D)):
        raise SteklovSolveError("DtN symmetry defect exceeds tolerance")
    D = 0.5 * (D + D.T)
    return DtNOperatorMatrix(
        matrix=D,
        s_coords=system.s_coords,
        s_nodes=system.row_nodes[system.interior_count:],
    )


def _pencil(system):
    """The shifted pencil A = K - sigma B of `system`, and the system without its stiffness.

    B = diag(0, M) for the surface mass M, and sigma (`system.sigma`)
    lies below the spectrum, so A is SPD for every wall condition.  K is
    not returned: pairs are checked against A, as K u - lambda B u =
    A u - (lambda - sigma) B u, so A is the only matrix of its size
    alive while it is factored.
    """
    ni = system.interior_count
    B = sp.block_diag((sp.csr_matrix((ni, ni)), system.surface_mass), format="csr")
    return system.stiffness - system.sigma * B, replace(system, stiffness=None)


def _sloshing_pairs(A, system, n_eigs):
    """Lowest n_eigs eigenpairs of the sparse pencil K u = lambda B u.

    K is the free-node stiffness and B = diag(0, M), the surface mass M
    in the trailing block, so B is only semidefinite.  A = K - sigma B
    and the stiffness-free `system` are what `_pencil` returns; the
    system gives the interior size, M, its banded Cholesky factor and
    sigma.  A is factored once.  With the surface Cholesky factor M = R^T R, the surface operator
    T y = R (A^{-1} [0; R^T y])_S is symmetric positive definite, and its
    eigenvalues theta = 1/(lambda - sigma) are those of the pencil's
    finite spectrum, the largest for the lowest lambda.  Standard
    Lanczos on T works with surface-length vectors only.  The start
    vector is fixed, so reruns are byte-identical.

    The eigenvectors come from one block solve u = A^{-1} [0; R^T Y] / theta;
    each pair is checked against the full pencil.  Returns the ascending
    eigenvalues, the surface traces (the trailing rows of u, orthonormal
    in the surface mass inner product because Y is orthonormal), the
    largest relative pair residual and the count of solves with A.
    """
    n = A.shape[0]
    ni = system.interior_count
    ns = n - ni
    mass = system.surface_mass
    cb = system.surface_cholesky
    R = sp.diags([cb[1], cb[0, 1:]], [0, 1], format="csr")
    Rt = R.T.tocsr()
    sigma = system.sigma
    lu = _factor(A, "pencil")
    solves = 0

    def lift_solve(Y):
        """A^{-1} [0; R^T Y], for one surface vector or a block of them."""
        nonlocal solves
        rhs = np.zeros((n,) + Y.shape[1:])
        rhs[ni:] = Rt @ Y
        solves += 1 if Y.ndim == 1 else Y.shape[1]
        return lu.solve(rhs)

    op = spla.LinearOperator(
        (ns, ns), matvec=lambda y: R @ lift_solve(y)[ni:], dtype=np.float64
    )
    try:
        theta, Y = spla.eigsh(op, k=n_eigs, which="LA", v0=np.ones(ns), tol=_ARPACK_TOL)
    except spla.ArpackError as exc:  # ArpackNoConvergence included
        raise SteklovSolveError(f"sparse eigensolve failed: {exc}") from exc
    w = sigma + 1.0 / theta
    order = np.argsort(w, kind="stable")
    w = w[order]
    u = lift_solve(Y[:, order]) / theta[order]
    scale = max(1.0, abs(w[-1]))
    resid = A @ u
    resid[ni:] -= (mass @ u[ni:]) * (w - sigma)
    residual = np.linalg.norm(resid, axis=0).max()
    if not residual <= 1e-8 * scale:
        raise SteklovSolveError(
            f"eigenpair residual {residual:.3e} exceeds {1e-8 * scale:.3e}"
        )
    if w[0] < -1e-8 * scale:
        raise SteklovSolveError(f"spurious negative eigenvalue {w[0]!r}")
    # a copy, not a view: the view would keep all n rows of u alive
    return np.clip(w, 0.0, None), u[ni:].copy(), residual / scale, solves


def _split_pairs(mesh, mirror, n_eigs):
    """Lowest n_eigs pairs of a mesh that mirrors, solved as its two halves.

    `mirror` holds the mesh's mirror rows (see `_mirror_rows`).  Each
    half (see `half_system`) goes through `_pencil` and `_sloshing_pairs`
    in turn, as the full system does, its pencil made from an assembly
    of the mesh just before it is factored and dropped once its
    eigensolve returns, so no stiffness and no other pencil is alive
    under a factorization; each is asked for ceil(n_eigs/2) + 1 pairs.
    The union is certified: every eigenvalue a half did not return lies
    at or above the largest it did, so the n_eigs-th lowest of the union
    must lie below the largest of each half.  A half that fails the
    check is solved again for n_eigs + 1 pairs, which suffices unless
    eigenvalues tie.  Returns the pairs as `_sloshing_pairs` does, the
    traces mapped back onto the surface rows by the half's surface basis
    (still orthonormal in the surface mass), with the parity of each
    pair; or None when a half is too small for the pairs asked of it or
    the union stays uncertified (a tie).
    """
    ask = dict.fromkeys((1, -1), n_eigs // 2 + n_eigs % 2 + 1)
    found = {}
    solves = 0
    while ask:
        for parity, count in ask.items():
            half, basis = half_system(assemble(mesh), mirror, parity)
            if count >= len(half.s_coords):  # beyond what Lanczos can return
                return None
            A, half = _pencil(half)
            w, traces, residual, used = _sloshing_pairs(A, half, count)
            del A  # its factor went with the call; the next half factors its own
            found[parity] = (w, basis @ traces, residual)
            solves += used
        values = np.concatenate([found[1][0], found[-1][0]])
        nth = np.sort(values)[n_eigs - 1] if len(values) >= n_eigs else math.inf
        uncertified = [parity for parity, (w, _, _) in found.items() if not nth < w[-1]]
        if any(len(found[parity][0]) > n_eigs for parity in uncertified):  # a tie
            return None
        ask = dict.fromkeys(uncertified, n_eigs + 1)
    order = np.argsort(values, kind="stable")[:n_eigs]
    traces = np.hstack([found[1][1], found[-1][1]])[:, order]
    parity = np.repeat([1, -1], [len(found[1][0]), len(found[-1][0])])[order]
    return values[order], traces, max(found[1][2], found[-1][2]), solves, parity


def solve_steklov(domain, h, n_eigs, grading_factor=0.25, mesh=None):
    """Lowest n_eigs sloshing eigenvalues of a domain at mesh size h.

    Meshes the domain unless `mesh` is given and solves the pencil
    K u = lambda B u of the stiffness and the embedded surface mass by
    Lanczos on a surface-size operator with one sparse factorization of
    the shifted pencil (see _sloshing_pairs), without forming the dense
    DtN matrix.  A mesh that is its own mirror image (see _mirror_rows)
    is solved as its even and odd halves instead, one half pencil after
    the other (see _split_pairs); any other mesh takes the full pencil.
    The surface size and the mirror are read off the mesh's layout
    (`_layout`), and the stiffness is assembled only where a pencil is
    built, so each factorization starts with its pencil the only matrix
    of its size alive.  Requires the surface to carry at least
    4 * n_eigs nodes so the top requested mode stays resolved; every
    returned pair passes an a posteriori residual check.  The returned
    spectrum keeps the mesh and the mirror; its `system` is assembled
    again on first use, so a DtN dump or a residual study pays one more
    assembly.
    """
    if n_eigs < 1:
        raise SteklovSolveError("n_eigs must be at least 1")
    if mesh is None:
        mesh = generate_mesh(domain, h, grading_factor)
    layout = _layout(mesh)
    ns = len(layout.s_coords)
    if ns < 4 * n_eigs:
        raise SteklovSolveError(
            f"surface carries {ns} nodes, below the 4*n_eigs={4 * n_eigs} "
            "resolution guard; decrease h"
        )
    mirror = _mirror_rows(mesh, layout)
    del layout  # the pencil's system keeps its own copy of these rows under the factor
    split = None if mirror is None else _split_pairs(mesh, mirror, n_eigs)
    if split is None:
        split = *_sloshing_pairs(*_pencil(assemble(mesh)), n_eigs), np.zeros(n_eigs, dtype=np.int64)
    eigenvalues, traces, eigen_residual, pencil_solves, parity = split
    return SteklovSpectrum(
        eigenvalues=eigenvalues,
        traces=traces,
        mesh=mesh,
        eigen_residual=eigen_residual,
        pencil_solves=pencil_solves,
        parity=parity,
        mirror=mirror,
    )


@dataclass
class ConvergenceStudy:
    """Eigenvalues across a decreasing mesh-size ladder.

    `values[i, j]` is eigenvalue k_values[j] at h_values[i].  Richardson
    limits extrapolate the two finest meshes with the observed order
    (default 2 when fewer than three meshes are available), and `errbar`
    is twice the last eigenvalue increment, per k.  `finest` is the
    finest level's spectrum, with its mesh; its `system` is assembled
    again on first use.
    """

    h_values: tuple
    k_values: tuple
    values: np.ndarray
    observed_order: np.ndarray
    richardson: np.ndarray
    errbar: np.ndarray
    finest: SteklovSpectrum


def convergence_study(domain, h_list, k_list, grading_factor=0.25, meshes=None):
    """Rerun solve_steklov on a ladder of mesh sizes, finest level first.

    Every FEM table reads its eigenvalues and error bar from here, the
    single-size ones on (2h, h).  `meshes`, if given, holds exactly one
    mesh per size, in the order of `h_list`.  Going finest first, a
    failure names the size asked for, and that level's spectrum (not its
    factor) is kept for the coarser ones.
    """
    h_list = [float(h) for h in h_list]
    if any(b >= a for a, b in zip(h_list[:-1], h_list[1:])):
        raise SteklovSolveError("h_list must be strictly decreasing")
    k_list = [int(k) for k in k_list]
    if min(k_list) < 1:
        raise SteklovSolveError("eigenvalue indices are 1-based")
    n_eigs = max(k_list)
    if meshes is None:
        meshes = [None] * len(h_list)
    elif len(meshes) != len(h_list):
        raise SteklovSolveError(f"need one mesh per mesh size: {len(meshes)} meshes for {len(h_list)} sizes")
    index = np.array(k_list) - 1
    values = np.empty((len(h_list), len(k_list)))
    finest = solve_steklov(domain, h_list[-1], n_eigs, grading_factor, mesh=meshes[-1])
    values[-1] = finest.eigenvalues[index]
    for i in range(len(h_list) - 2, -1, -1):
        values[i] = solve_steklov(domain, h_list[i], n_eigs, grading_factor, mesh=meshes[i]).eigenvalues[index]

    nk = len(k_list)
    order = np.full(nk, np.nan)
    richardson = np.full(nk, np.nan)
    errbar = np.full(nk, np.nan)
    if len(h_list) >= 2:
        ratio = h_list[-2] / h_list[-1]
        for j in range(nk):
            d_fine = values[-1, j] - values[-2, j]
            errbar[j] = 2.0 * abs(d_fine)
            p = 2.0
            if len(h_list) >= 3:
                d_coarse = values[-2, j] - values[-3, j]
                r0 = h_list[-3] / h_list[-2]
                if d_fine != 0 and d_coarse / d_fine > 0:
                    p = np.log(d_coarse / d_fine) / np.log(r0)
                    order[j] = p
                    p = min(max(p, 0.5), 4.0)
            richardson[j] = values[-1, j] + d_fine / (ratio ** p - 1.0)
    return ConvergenceStudy(
        h_values=tuple(h_list),
        k_values=tuple(k_list),
        values=values,
        observed_order=order,
        richardson=richardson,
        errbar=errbar,
        finest=finest,
    )
