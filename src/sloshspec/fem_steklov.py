"""P1 finite elements for the mixed Steklov (sloshing) eigenproblem.

Pipeline: assemble the P1 stiffness matrix of the Laplacian on the
triangulation, eliminate Dirichlet-tagged boundary nodes symmetrically,
place the 1D P1 mass matrix of the surface in the free-node space, and
solve the sparse pencil K u = lambda B u for its lowest pairs by
shift-invert Lanczos with one sparse factorization.  The surface traces
of the eigenvectors are the eigenvectors of the discrete
Dirichlet-to-Neumann (DtN) map, which is never formed on this path.

The DtN map is still available as a dense Schur complement
(`dtn_matrix`, for dumps and property checks) and as a matrix-free
action (`dtn_action`, for residuals on fine meshes).  All steps are
deterministic for a fixed mesh.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import _backend
from .geometry import generate_mesh

_SCHUR_BLOCK_BYTES = 2 * 10**8


class SteklovSolveError(RuntimeError):
    """Raised for assembly, factorization, eigensolve or resolution failures."""


@dataclass
class AssembledSystem:
    """Sparse pieces of the discrete problem.

    `stiffness` acts on the free nodes (everything except eliminated
    Dirichlet nodes), indexed by `free_nodes`.  `steklov_mass` is the 1D
    P1 mass matrix over all surface polyline nodes in `s_path_nodes`
    order, including any surface endpoints that a Dirichlet wall
    eliminates; `s_free_mask` marks the rows that survive elimination.
    `s_arclength` measures arc length along the surface polyline from
    corner A.
    """

    stiffness: sp.csr_matrix
    steklov_mass: sp.csr_matrix
    free_nodes: np.ndarray
    s_path_nodes: np.ndarray
    s_free_mask: np.ndarray
    s_arclength: np.ndarray
    dirichlet_nodes: np.ndarray

    @property
    def interior_count(self):
        return len(self.free_nodes) - int(self.s_free_mask.sum())

    def steklov_mass_free(self):
        """Surface mass restricted to non-eliminated surface nodes."""
        keep = np.where(self.s_free_mask)[0]
        return self.steklov_mass[keep][:, keep]


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
    """Lowest eigenvalues with surface traces.

    Traces are columns, orthonormal in the surface mass inner product.
    """

    eigenvalues: np.ndarray
    traces: np.ndarray
    s_coords: np.ndarray
    mesh_size: float
    grading_factor: float
    num_nodes: int


def _chain_surface_path(s_edges):
    """Order the Steklov edges into one open path of node ids.

    Mesh generation stores them consecutively from corner B to corner A,
    but re-chain defensively so externally read meshes work too.
    """
    s_edges = [(int(i), int(j)) for i, j in s_edges]
    consecutive = all(a[1] == b[0] for a, b in zip(s_edges[:-1], s_edges[1:]))
    if consecutive:
        return np.array([s_edges[0][0]] + [j for _, j in s_edges], dtype=np.int64)
    nbrs = {}
    for i, j in s_edges:
        nbrs.setdefault(i, []).append(j)
        nbrs.setdefault(j, []).append(i)
    ends = [n for n, v in nbrs.items() if len(v) == 1]
    if len(ends) != 2 or any(len(v) > 2 for v in nbrs.values()):
        raise SteklovSolveError("steklov edges do not form a single open path")
    start = ends[0] if ends[0] in dict(s_edges) else ends[1]
    path = [start]
    prev = None
    while len(path) < len(s_edges) + 1:
        cands = [n for n in nbrs[path[-1]] if n != prev]
        prev = path[-1]
        path.append(cands[0])
    return np.array(path, dtype=np.int64)


def _stiffness_csr(nodes, triangles):
    """P1 stiffness in CSR form, assembled in memory-bounded chunks."""
    n = len(nodes)
    chunk = 400_000
    parts = None
    for lo in range(0, len(triangles), chunk):
        rows, cols, vals = _backend.stiffness_triplets(nodes, triangles[lo:lo + chunk])
        block = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        parts = block if parts is None else parts + block
    return parts


def assemble(mesh):
    """Assemble stiffness and surface mass matrices for a mesh."""
    nodes = mesh.nodes
    n = len(nodes)
    s_edges = mesh.edges_with_tag("steklov")
    if len(s_edges) == 0:
        raise SteklovSolveError("mesh carries no steklov-tagged edges")
    stiffness = _stiffness_csr(nodes, mesh.triangles)

    dirichlet_nodes = np.unique(mesh.edges_with_tag("dirichlet"))
    free_mask = np.ones(n, dtype=bool)
    free_mask[dirichlet_nodes] = False
    free_nodes = np.where(free_mask)[0]
    k_free = stiffness[free_nodes][:, free_nodes].tocsr()

    path = _chain_surface_path(s_edges)
    seg = np.linalg.norm(np.diff(nodes[path], axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    s_arclength = cum[-1] - cum  # loop order runs B -> A, so measure from A

    local = {int(g): i for i, g in enumerate(path)}
    edges_local = np.array(
        [(local[int(i)], local[int(j)]) for i, j in s_edges], dtype=np.int64
    )
    mr, mc, mv = _backend.edge_mass_triplets(np.ascontiguousarray(nodes[path]), edges_local)
    mass = sp.coo_matrix((mv, (mr, mc)), shape=(len(path), len(path))).tocsr()

    return AssembledSystem(
        stiffness=k_free,
        steklov_mass=mass,
        free_nodes=free_nodes,
        s_path_nodes=path,
        s_free_mask=free_mask[path],
        s_arclength=s_arclength,
        dirichlet_nodes=dirichlet_nodes,
    )


def _split_blocks(system):
    """Index split of the free nodes into surface and interior blocks."""
    free = system.free_nodes
    s_glob = system.s_path_nodes[system.s_free_mask]
    s_pos = np.searchsorted(free, s_glob)
    s_mask = np.zeros(len(free), dtype=bool)
    s_mask[s_pos] = True
    i_pos = np.where(~s_mask)[0]
    return s_glob, s_pos, i_pos


def _interior_factor(system, k_ii):
    try:
        return spla.splu(k_ii, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise SteklovSolveError(f"interior factorization failed: {exc}") from exc


def _matvec_extended(csr, x):
    """CSR matrix-vector product accumulated in extended precision."""
    prod = csr.data.astype(np.longdouble) * x[csr.indices]
    out = np.zeros(csr.shape[0], dtype=np.longdouble)
    counts = np.diff(csr.indptr)
    nonempty = counts > 0
    out[nonempty] = np.add.reduceat(prod, csr.indptr[:-1][nonempty])
    return out


def dtn_action(system):
    """Callable applying the Schur-complement DtN without forming it.

    Factors the interior block once; each call then costs two sparse
    solves.  Use this instead of dtn_matrix when only a few applications
    are needed on a fine mesh, where materializing all columns of the
    dense matrix would dominate memory and time.

    The direct solve's forward error is amplified by the interior
    condition number (which grows like 1/h**2) and would otherwise floor
    the achievable residual, so one iterative-refinement step with the
    solve residual accumulated in extended precision is applied.
    """
    _, s_pos, i_pos = _split_blocks(system)
    K = system.stiffness
    k_ss = K[s_pos][:, s_pos].tocsr()
    if len(i_pos) == 0:
        return lambda trace: k_ss @ np.asarray(trace, dtype=float)
    k_ii = K[i_pos][:, i_pos].tocsr()
    k_is = K[i_pos][:, s_pos].tocsr()
    k_si = K[s_pos][:, i_pos].tocsr()
    lu = _interior_factor(system, k_ii.tocsc())

    def apply(trace):
        trace = np.asarray(trace, dtype=float)
        rhs = k_is @ trace
        x = lu.solve(rhs)
        resid = rhs.astype(np.longdouble) - _matvec_extended(k_ii, x.astype(np.longdouble))
        x = x + lu.solve(resid.astype(np.float64))
        return k_ss @ trace - k_si @ x

    return apply


def dtn_matrix(system):
    """Schur-complement DtN matrix D = K_SS - K_SI K_II^{-1} K_IS."""
    s_glob, s_pos, i_pos = _split_blocks(system)
    K = system.stiffness
    k_ss = K[s_pos][:, s_pos].toarray()
    if len(i_pos) == 0:
        D = k_ss
    else:
        k_ii = K[i_pos][:, i_pos].tocsc()
        k_is = K[i_pos][:, s_pos].tocsc()
        k_si = K[s_pos][:, i_pos].tocsr()
        lu = _interior_factor(system, k_ii)
        D = k_ss
        ns = len(s_pos)
        step = max(8, min(128, _SCHUR_BLOCK_BYTES // (8 * max(1, len(i_pos)))))
        for lo in range(0, ns, step):
            hi = min(lo + step, ns)
            block = lu.solve(k_is[:, lo:hi].toarray())
            D[:, lo:hi] -= k_si @ block
    sym_defect = np.linalg.norm(D - D.T)
    if sym_defect > 1e-10 * max(1.0, np.linalg.norm(D)):
        raise SteklovSolveError("DtN symmetry defect exceeds tolerance")
    D = 0.5 * (D + D.T)
    return DtNOperatorMatrix(
        matrix=D,
        s_coords=system.s_arclength[system.s_free_mask],
        s_nodes=s_glob,
    )


def apply_dtn(dtn, trace):
    """Apply the discrete DtN matrix to a surface trace vector."""
    trace = np.asarray(trace, dtype=float)
    if trace.shape[0] != dtn.matrix.shape[0]:
        raise SteklovSolveError(
            f"trace length {trace.shape[0]} does not match "
            f"{dtn.matrix.shape[0]} surface nodes"
        )
    return dtn.matrix @ trace


def _sloshing_pairs(system, n_eigs):
    """Lowest n_eigs eigenpairs of the sparse pencil K u = lambda B u.

    K is the free-node stiffness and B the surface mass placed in the
    free-node space, so B is only semidefinite.  Shift-invert Lanczos
    with a shift sigma = -1/l below the spectrum (l the surface length)
    factors K - sigma B once; that matrix is SPD for every wall
    condition, and the infinite eigenvalues of the pencil map to zero
    under the transformation, so only finite ones are returned.  The
    start vector is fixed, so reruns are byte-identical.

    Returns the ascending eigenvalues and the surface traces u[s_pos],
    orthonormal in the surface mass inner product because ARPACK returns
    B-orthonormal vectors.
    """
    _, s_pos, _ = _split_blocks(system)
    ns = len(s_pos)
    if ns < 4 * n_eigs:
        raise SteklovSolveError(
            f"surface carries {ns} nodes, below the 4*n_eigs={4 * n_eigs} "
            "resolution guard; decrease h"
        )
    K = system.stiffness
    n = K.shape[0]
    m = system.steklov_mass_free().tocoo()
    B = sp.csr_matrix((m.data, (s_pos[m.row], s_pos[m.col])), shape=(n, n))
    sigma = -1.0 / float(system.s_arclength.max())
    try:
        lu = spla.splu((K - sigma * B).tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise SteklovSolveError(f"pencil factorization failed: {exc}") from exc
    op_inv = spla.LinearOperator((n, n), matvec=lu.solve, dtype=np.float64)
    try:
        w, u = spla.eigsh(
            K, k=n_eigs, M=B, sigma=sigma, OPinv=op_inv, v0=np.ones(n)
        )
    except spla.ArpackError as exc:  # ArpackNoConvergence included
        raise SteklovSolveError(f"sparse eigensolve failed: {exc}") from exc
    order = np.argsort(w, kind="stable")
    w = w[order]
    u = u[:, order]
    scale = max(1.0, abs(w[-1]))
    residual = np.linalg.norm(K @ u - (B @ u) * w, axis=0).max()
    if not residual <= 1e-8 * scale:
        raise SteklovSolveError(
            f"eigenpair residual {residual:.3e} exceeds {1e-8 * scale:.3e}"
        )
    if w[0] < -1e-8 * scale:
        raise SteklovSolveError(f"spurious negative eigenvalue {w[0]!r}")
    return np.clip(w, 0.0, None), u[s_pos]


def _assembled_pairs(mesh, n_eigs):
    """Assemble a mesh and solve it: (system, eigenvalues, traces).

    Callers that need the assembled system after the eigensolve (for a
    DtN dump or residuals) take it from here instead of assembling the
    mesh again.
    """
    if n_eigs < 1:
        raise SteklovSolveError("n_eigs must be at least 1")
    system = assemble(mesh)
    eigenvalues, traces = _sloshing_pairs(system, n_eigs)
    return system, eigenvalues, traces


def solve_steklov(domain, h, n_eigs, grading_factor=0.25, mesh=None):
    """Lowest n_eigs sloshing eigenvalues of a domain at mesh size h.

    The pencil K u = lambda B u of the stiffness and the embedded surface
    mass is solved by sparse shift-invert Lanczos (see _sloshing_pairs),
    without forming the dense DtN matrix.  Requires the surface to carry
    at least 4 * n_eigs nodes so the top requested mode stays resolved;
    every returned pair passes an a posteriori residual check.
    """
    if mesh is None:
        mesh = generate_mesh(domain, h, grading_factor)
    system, eigenvalues, traces = _assembled_pairs(mesh, n_eigs)
    return SteklovSpectrum(
        eigenvalues=eigenvalues,
        traces=traces,
        s_coords=system.s_arclength[system.s_free_mask],
        mesh_size=float(h),
        grading_factor=float(grading_factor),
        num_nodes=mesh.num_nodes,
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
        spec = solve_steklov(domain, h, n_eigs, grading_factor=grading_factor)
        values[i] = spec.eigenvalues[np.array(k_list) - 1]

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
