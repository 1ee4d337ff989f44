"""P1 finite elements for the mixed Steklov (sloshing) eigenproblem.

Pipeline: `solve_steklov` is the one entry from a domain or mesh to a
spectrum.  `assemble` builds the P1 stiffness matrix of the Laplacian,
eliminates Dirichlet-tagged boundary nodes symmetrically, and builds
the 1D P1 mass matrix of the surviving surface nodes once, with their
rows in the free-node space.  The sparse pencil K u = lambda B u, B that
mass embedded, is solved for its lowest pairs by shift-invert Lanczos
with one sparse factorization; the spectrum keeps its mesh and system.
The surface traces of the eigenvectors are the eigenvectors of the
discrete Dirichlet-to-Neumann (DtN) map, never formed on this path.

The DtN map is still available as the Schur complement
D = K_SS - K_SI K_II^{-1} K_IS of the surface block.  One path slices
the blocks and factors K_II once: `dtn_action` returns its matrix-free
action (for residuals on fine meshes), and `dtn_matrix` applies that
action to identity column blocks (for dumps and property checks).  All
steps are deterministic for a fixed mesh.
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
    """Sparse pieces of the discrete problem, in the free-node space.

    `stiffness` acts on the free nodes (everything except eliminated
    Dirichlet nodes), indexed by `free_nodes`.  The surface nodes that
    survive elimination sit at rows `s_pos` of that space, in path order
    from corner B; `s_nodes` are their mesh node ids, `s_coords` their
    arc length from corner A, and `surface_mass` the 1D P1 mass matrix
    among them.  `surface_length` is the length of the whole surface
    polyline, eliminated endpoints included.
    """

    stiffness: sp.csr_matrix
    free_nodes: np.ndarray
    dirichlet_nodes: np.ndarray
    s_pos: np.ndarray
    s_nodes: np.ndarray
    s_coords: np.ndarray
    surface_mass: sp.csr_matrix
    surface_length: float

    @property
    def interior_count(self):
        return len(self.free_nodes) - len(self.s_pos)


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
    their rows follow `system.s_coords`.
    """

    eigenvalues: np.ndarray
    traces: np.ndarray
    mesh: object
    system: AssembledSystem

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

    local = np.empty(n, dtype=np.int64)
    local[path] = np.arange(len(path))
    edges_local = local[s_edges]
    mr, mc, mv = _backend.edge_mass_triplets(np.ascontiguousarray(nodes[path]), edges_local)
    mass = sp.coo_matrix((mv, (mr, mc)), shape=(len(path), len(path))).tocsr()
    keep = np.where(free_mask[path])[0]  # a Dirichlet wall drops a surface endpoint

    return AssembledSystem(
        stiffness=k_free,
        free_nodes=free_nodes,
        dirichlet_nodes=dirichlet_nodes,
        s_pos=np.searchsorted(free_nodes, path[keep]),
        s_nodes=path[keep],
        s_coords=s_arclength[keep],
        surface_mass=mass[keep][:, keep],
        surface_length=float(cum[-1]),
    )


def _schur(system):
    """Callable X -> D X for the Schur complement D = K_SS - K_SI K_II^{-1} K_IS.

    Slices the blocks and factors the interior block once; X is one
    surface trace or a block of trace columns, and each call costs one
    pair of sparse products and one interior solve.
    """
    s_pos = system.s_pos
    K = system.stiffness
    i_pos = np.delete(np.arange(K.shape[0]), s_pos)
    k_ss = K[s_pos][:, s_pos].tocsr()
    if len(i_pos) == 0:
        return lambda X: k_ss @ np.asarray(X, dtype=float)
    k_is = K[i_pos][:, s_pos].tocsr()
    k_si = K[s_pos][:, i_pos].tocsr()
    try:
        lu = spla.splu(K[i_pos][:, i_pos].tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise SteklovSolveError(f"interior factorization failed: {exc}") from exc

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
    ns = len(system.s_pos)
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
        s_nodes=system.s_nodes,
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
    s_pos = system.s_pos
    ns = len(s_pos)
    if ns < 4 * n_eigs:
        raise SteklovSolveError(
            f"surface carries {ns} nodes, below the 4*n_eigs={4 * n_eigs} "
            "resolution guard; decrease h"
        )
    K = system.stiffness
    n = K.shape[0]
    m = system.surface_mass.tocoo()
    B = sp.csr_matrix((m.data, (s_pos[m.row], s_pos[m.col])), shape=(n, n))
    sigma = -1.0 / system.surface_length
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


def solve_steklov(domain, h, n_eigs, grading_factor=0.25, mesh=None):
    """Lowest n_eigs sloshing eigenvalues of a domain at mesh size h.

    Meshes the domain unless `mesh` is given, assembles it once, and
    solves the pencil K u = lambda B u of the stiffness and the embedded
    surface mass by sparse shift-invert Lanczos (see _sloshing_pairs),
    without forming the dense DtN matrix.  Requires the surface to carry
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
    eigenvalues, traces = _sloshing_pairs(system, n_eigs)
    return SteklovSpectrum(eigenvalues=eigenvalues, traces=traces, mesh=mesh, system=system)


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
