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
the shifted pencil; the spectrum keeps its mesh and system.  The
surface traces of the eigenvectors, the trailing rows of u, are the
eigenvectors of the discrete Dirichlet-to-Neumann (DtN) map, never
formed on this path.

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
rejects a factor that pivoted off the diagonal anyway.  All steps are
deterministic for a fixed mesh.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import _backend
from .geometry import generate_mesh

_SCHUR_BLOCK_BYTES = 2 * 10**8

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
    eliminated endpoints included.
    """

    stiffness: sp.csr_matrix
    row_nodes: np.ndarray
    s_coords: np.ndarray
    surface_mass: sp.csr_matrix
    surface_length: float

    @property
    def interior_count(self):
        return len(self.row_nodes) - len(self.s_coords)

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
    their rows follow `system.s_coords`.  `eigen_residual` is the largest
    pair residual |K u - lambda B u| relative to max(1, lambda_max), and
    `pencil_solves` counts the solves with the pencil factor that the
    eigensolve made.
    """

    eigenvalues: np.ndarray
    traces: np.ndarray
    mesh: object
    system: AssembledSystem
    eigen_residual: float
    pencil_solves: int

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


def assemble(mesh):
    """Assemble stiffness and surface mass matrices for a mesh."""
    nodes = mesh.nodes
    n = len(nodes)
    s_edges = mesh.edges_with_tag("steklov")
    if len(s_edges) == 0:
        raise SteklovSolveError("mesh carries no steklov-tagged edges")
    stiffness = _stiffness_csr(nodes, mesh.triangles)

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
    row_nodes = np.concatenate([np.where(interior_mask)[0], path[keep]])
    return AssembledSystem(
        stiffness=stiffness[row_nodes][:, row_nodes],
        row_nodes=row_nodes,
        s_coords=s_arclength[keep],
        surface_mass=mass[keep][:, keep],
        surface_length=float(cum[-1]),
    )


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
    """
    try:
        lu = spla.splu(
            matrix.tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise SteklovSolveError(f"{what} factorization failed: {exc}") from exc
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


def _sloshing_pairs(system, n_eigs):
    """Lowest n_eigs eigenpairs of the sparse pencil K u = lambda B u.

    K is the free-node stiffness and B = diag(0, M), the surface mass M
    in the trailing block, so B is only semidefinite.  A shift
    sigma = -1/l below the spectrum (l the surface length) makes
    A = K - sigma B SPD for every wall condition, and A is factored once.
    With the surface Cholesky factor M = R^T R, the surface operator
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
    ns = len(system.s_coords)
    if ns < 4 * n_eigs:
        raise SteklovSolveError(
            f"surface carries {ns} nodes, below the 4*n_eigs={4 * n_eigs} "
            "resolution guard; decrease h"
        )
    K = system.stiffness
    n = K.shape[0]
    ni = system.interior_count
    mass = system.surface_mass
    cb = system.surface_cholesky
    R = sp.diags([cb[1], cb[0, 1:]], [0, 1], format="csr")
    Rt = R.T.tocsr()
    sigma = -1.0 / system.surface_length
    B = sp.block_diag((sp.csr_matrix((ni, ni)), mass), format="csr")
    lu = _factor(K - sigma * B, "pencil")
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
    resid = K @ u
    resid[ni:] -= (mass @ u[ni:]) * w
    residual = np.linalg.norm(resid, axis=0).max()
    if not residual <= 1e-8 * scale:
        raise SteklovSolveError(
            f"eigenpair residual {residual:.3e} exceeds {1e-8 * scale:.3e}"
        )
    if w[0] < -1e-8 * scale:
        raise SteklovSolveError(f"spurious negative eigenvalue {w[0]!r}")
    return np.clip(w, 0.0, None), u[ni:], residual / scale, solves


def solve_steklov(domain, h, n_eigs, grading_factor=0.25, mesh=None):
    """Lowest n_eigs sloshing eigenvalues of a domain at mesh size h.

    Meshes the domain unless `mesh` is given, assembles it once, and
    solves the pencil K u = lambda B u of the stiffness and the embedded
    surface mass by Lanczos on a surface-size operator with one sparse
    factorization of the shifted pencil (see _sloshing_pairs), without
    forming the dense DtN matrix.  Requires the surface to carry
    at least 4 * n_eigs nodes so the top requested mode stays resolved;
    every returned pair passes an a posteriori residual check.  The
    returned spectrum keeps the mesh and the assembled system, so a DtN
    dump or a residual study needs no second assembly.
    """
    if n_eigs < 1:
        raise SteklovSolveError("n_eigs must be at least 1")
    if mesh is None:
        mesh = generate_mesh(domain, h, grading_factor)
    system = assemble(mesh)
    eigenvalues, traces, eigen_residual, pencil_solves = _sloshing_pairs(system, n_eigs)
    return SteklovSpectrum(
        eigenvalues=eigenvalues,
        traces=traces,
        mesh=mesh,
        system=system,
        eigen_residual=eigen_residual,
        pencil_solves=pencil_solves,
    )


@dataclass
class ConvergenceStudy:
    """Eigenvalues across a decreasing mesh-size ladder.

    `values[i, j]` is eigenvalue k_values[j] at h_values[i].  Richardson
    limits extrapolate the two finest meshes with the observed order
    (default 2 when fewer than three meshes are available), and `errbar`
    is twice the last eigenvalue increment, per k.
    """

    h_values: tuple
    k_values: tuple
    values: np.ndarray
    observed_order: np.ndarray
    richardson: np.ndarray
    errbar: np.ndarray


def convergence_study(domain, h_list, k_list, grading_factor=0.25):
    """Rerun solve_steklov on a ladder of mesh sizes."""
    h_list = [float(h) for h in h_list]
    if any(b >= a for a, b in zip(h_list[:-1], h_list[1:])):
        raise SteklovSolveError("h_list must be strictly decreasing")
    k_list = [int(k) for k in k_list]
    if min(k_list) < 1:
        raise SteklovSolveError("eigenvalue indices are 1-based")
    n_eigs = max(k_list)
    values = np.empty((len(h_list), len(k_list)))
    for i, h in enumerate(h_list):
        eigenvalues = solve_steklov(domain, h, n_eigs, grading_factor=grading_factor).eigenvalues
        values[i] = eigenvalues[np.array(k_list) - 1]

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
            richardson[j] = values[-1, j] + (values[-1, j] - values[-2, j]) / (
                ratio ** p - 1.0
            )
    return ConvergenceStudy(
        h_values=tuple(h_list),
        k_values=tuple(k_list),
        values=values,
        observed_order=order,
        richardson=richardson,
        errbar=errbar,
    )
