"""Spectra of the higher-order Sturm-Liouville problem (-1)^q U^(2q) = S^(2q) U.

On an interval [0, L] with either the Neumann conditions
U^(m)(0) = U^(m)(L) = 0 for m = q..2q-1 or the Dirichlet conditions with
m = 0..q-1, the positive spectrum is located by root finding on the
determinant of a scaled 2q x 2q boundary matrix built from the
exponential ansatz U = sum_k c_k exp(w_k S x), where w_k runs over the
2q-th roots of -1.  Conjugation permutes the columns by an odd number of
swaps and leaves the positive scalings alone, so that determinant is
purely imaginary: Im det is a real, signed characteristic function and
the computed Re det measures its rounding.

Scaling keeps every matrix entry bounded: column k is divided by
exp(max(0, Re w_k) S L) and the row for a derivative of order m by S^m.
The Neumann problem additionally has the polynomial kernel
span{1, x, ..., x^(q-1)}, reported as a zero eigenvalue of multiplicity
exactly q.
"""

import math
from dataclasses import dataclass
from functools import cached_property
import numpy as np

from .geometry.domain import _panel_nodes

SINGULAR_THRESHOLD = 1e-9
_TRUST = 16.0  # a scanned sign counts only where |Im det| > _TRUST |Re det|
# The largest q whose spectra pass the density check in `solve_spectrum`:
# every q from 21 to 25 measured fails it after the scan.
_MAX_SCAN_Q = 20
# Grid points scanned at once, each one (2q)^2 complex matrix (25.6 kB at
# q = 20): under 7 MB a chunk, whatever kmax asks for
_SCAN_CHUNK = 256


class SLSolveError(RuntimeError):
    pass


@dataclass(frozen=True)
class HighOrderSLProblem:
    q: int
    interval_length: float
    condition: str

    def __post_init__(self):
        if self.q < 1 or int(self.q) != self.q:
            raise ValueError("q must be a positive integer")
        if not self.interval_length > 0:
            raise ValueError("interval_length must be positive")
        if self.condition not in ("neumann", "dirichlet"):
            raise ValueError("condition must be 'neumann' or 'dirichlet'")

    @cached_property
    def exponents(self):
        """ansatz_exponents(q), computed once per problem."""
        return ansatz_exponents(self.q)

    @property
    def derivative_orders(self):
        if self.condition == "neumann":
            return range(self.q, 2 * self.q)
        return range(0, self.q)


def roots_of_minus_one(q: int) -> np.ndarray:
    """The 2q complex roots of -1, sorted by increasing argument in (-pi, pi]."""
    if q < 1:
        raise ValueError("q must be a positive integer")
    m = np.arange(2 * q)
    args = (2 * m + 1) * math.pi / (2 * q)
    args = np.angle(np.exp(1j * args))  # wrap into (-pi, pi]
    args.sort()
    return np.exp(1j * args)


def ansatz_exponents(q: int) -> np.ndarray:
    """Exponent directions w_k with w^(2q) = (-1)^q, increasing argument.

    Substituting exp(w lam x) into (-1)^q U^(2q) = lam^(2q) U forces
    w^(2q) = (-1)^q: the 2q-th roots of -1 when q is odd and of +1 when q
    is even.  Either way the set contains the oscillatory pair +-i and is
    closed under conjugation and negation.
    """
    if q < 1:
        raise ValueError("q must be a positive integer")
    if q % 2:
        return roots_of_minus_one(q)
    m = np.arange(2 * q)
    args = np.angle(np.exp(1j * m * math.pi / q))
    args.sort()
    return np.exp(1j * args)


def _boundary_matrices(problem: HighOrderSLProblem, lams) -> np.ndarray:
    """boundary_matrix at each of lams > 0, stacked to shape (n, 2q, 2q)."""
    lams = np.asarray(lams, dtype=float)[:, None]
    if not np.all(lams > 0):
        raise ValueError("lam must be positive")
    L, w = problem.interval_length, problem.exponents
    shift = np.maximum(w.real, 0.0) * lams * L
    ends = np.stack([np.exp(-shift), np.exp(w * lams * L - shift)], axis=1)
    powers = np.array([w**m for m in problem.derivative_orders])
    n, q2 = len(lams), 2 * problem.q
    return (powers[None, :, None, :] * ends[:, None, :, :]).reshape(n, q2, q2)


def boundary_matrix(problem: HighOrderSLProblem, lam: float) -> np.ndarray:
    """Scaled boundary matrix whose kernel gives the ansatz coefficients.

    The true matrix M has rows w_k^m lam^m (at x=0) and
    w_k^m lam^m exp(w_k lam L) (at x=L); this returns D_r M D_c with the
    row/column scalings described in the module docstring, so a kernel
    vector v of the scaled matrix maps to coefficients c_k = v_k / s_k
    with s_k = exp(max(0, Re w_k) lam L).
    """
    return _boundary_matrices(problem, [lam])[0]


def _det_imag(problem, lams):
    """Im det of the scaled boundary matrix at each of lams: real, and zero at eigenvalues."""
    return np.linalg.det(_boundary_matrices(problem, lams)).imag


def characteristic_smallest_singular_value(problem: HighOrderSLProblem, lam: float) -> float:
    """sigma_min / sigma_max of the scaled boundary matrix at lam > 0."""
    s = np.linalg.svd(boundary_matrix(problem, lam), compute_uv=False)
    return s[-1] / s[0]


def ode_asymptotic_prediction(q: int, interval_length: float, k: int) -> float:
    """Lattice prediction (pi (k - 1/2) - pi q / 2) / L, valid for k >= q + 1."""
    if q < 1:
        raise ValueError("q must be a positive integer")
    if not interval_length > 0:
        raise ValueError("interval_length must be positive")
    if k <= q:
        raise ValueError(f"prediction applies to k >= q + 1 = {q + 1}, got k = {k}")
    return (math.pi * (k - 0.5) - math.pi * q / 2.0) / interval_length


def _illinois(f, a, b, fa, fb):
    """Roots of f in the sign-change brackets [a, b] by Illinois regula falsi.

    Every bracket follows the scalar iteration: step to the secant point c,
    keep the sub-bracket whose ends differ in sign, and halve the value at
    the end that stays when the other one moves twice running; stop at a zero of f, at c
    on an end (the root is within rounding of it), or at the midpoint once
    the bracket is narrower than 4 eps b.  The brackets step together: f
    is called once per step, on the array of the open brackets' secant
    points.
    """
    a, b, fa, fb = (np.array(v, dtype=float) for v in (a, b, fa, fb))
    side = np.zeros(a.shape, dtype=int)  # -1: b moved last, 1: a moved last
    index = np.arange(a.size)  # of the brackets still open
    roots = np.empty(a.shape)
    while index.size:
        wide = b - a > 4.0 * np.finfo(float).eps * b
        roots[index[~wide]] = 0.5 * (a + b)[~wide]
        c = (a * fb - b * fa) / (fb - fa)
        fc = np.zeros(c.shape)
        inside = wide & (a < c) & (c < b)  # c on an end: the root is within rounding of it
        if np.any(inside):
            fc[inside] = f(c[inside])
        hit = wide & (fc == 0.0)
        roots[index[hit]] = c[hit]
        moves_b = (fc > 0) == (fb > 0)
        # an end that moves twice running halves the other end's value (the Illinois step)
        fa = np.where(moves_b, np.where(side == -1, 0.5 * fa, fa), fc)
        fb = np.where(moves_b, fc, np.where(side == 1, 0.5 * fb, fb))
        a = np.where(moves_b, a, c)
        b = np.where(moves_b, c, b)
        side = np.where(moves_b, -1, 1)
        keep = wide & ~hit
        a, b, fa, fb, side, index = (v[keep] for v in (a, b, fa, fb, side, index))
    return roots


@dataclass(frozen=True)
class SLEigenfunction:
    """One positive eigenvalue with its render-ready ansatz coefficients.

    ``scaled_coefficients`` pair with the overflow-free exponents
    w_k lam x - max(0, Re w_k) lam L and are phase-aligned, sign-fixed,
    and L2-normalized on [0, L]; ``coefficients`` derives from them.
    """

    problem: HighOrderSLProblem
    lam: float
    scaled_coefficients: np.ndarray

    @property
    def coefficients(self):
        """The plain ansatz coefficients c_k (tiny for growing exponentials)."""
        shift = np.maximum(self.problem.exponents.real, 0.0) * self.lam * self.problem.interval_length
        return self.scaled_coefficients * np.exp(-shift)


def _eval_complex(entry: SLEigenfunction, x, order=0):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    L = entry.problem.interval_length
    lam = entry.lam
    w = entry.problem.exponents
    shift = np.maximum(w.real, 0.0) * lam * L
    expo = np.outer(x, w * lam) - shift[None, :]
    deriv = (w * lam) ** order if order else np.ones_like(w)
    return np.exp(expo) @ (entry.scaled_coefficients * deriv)


def eigenfunction_eval(entry: SLEigenfunction, x):
    """Real normalized eigenfunction evaluated at points x in [0, L]."""
    return eigenfunction_derivative(entry, x, 0)


def eigenfunction_derivative(entry: SLEigenfunction, x, order: int):
    """order-th derivative of the real normalized eigenfunction."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    out = _eval_complex(entry, x, order=order).real
    return float(out[0]) if np.asarray(x).ndim == 0 else out


def _finalize_eigenfunction(problem, lam, kernel):
    """The eigenfunction of the scaled kernel vector, phase-aligned, normalized and sign-fixed."""
    L = problem.interval_length
    panels = max(8, int(math.ceil(lam * L)) + 4)
    xq, wq = _panel_nodes(np.linspace(0.0, L, panels + 1), 12)
    u = _eval_complex(SLEigenfunction(problem, lam, kernel), xq)
    # rotate the arbitrary SVD phase so the real part carries maximal norm
    g2 = np.sum(wq * u * u)
    theta = -0.5 * np.angle(g2) if abs(g2) > 0 else 0.0
    u = u * np.exp(1j * theta)
    norm = math.sqrt(float(np.sum(wq * u.real**2)))
    if norm == 0.0:
        raise SLSolveError(f"degenerate null vector at lam = {lam}")
    entry = SLEigenfunction(problem, lam, kernel * np.exp(1j * theta) / norm)
    # fix the overall sign from the first nonvanishing derivative at 0+
    for order in range(0, 2 * problem.q + 1):
        v0 = eigenfunction_derivative(entry, 0.0, order)
        if abs(v0) > 1e-8 * max(1.0, lam) ** order:
            return SLEigenfunction(problem, lam, -entry.scaled_coefficients) if v0 < 0 else entry
    return entry


@dataclass
class SLSpectrum:
    """The first kmax eigenvalues of a problem with multiplicity, Neumann's q zeros first.

    eigenfunction(i) derives its coefficients from the problem and
    eigenvalue i: the kernel vector of the scaled boundary matrix there.
    """

    problem: HighOrderSLProblem
    eigenvalues: list

    def eigenfunction(self, index: int) -> SLEigenfunction:
        lam = self.eigenvalues[index]
        if lam <= 0:
            raise ValueError("the zero eigenvalue has the polynomial kernel 1, x, ..., x^(q-1)")
        kernel = np.linalg.svd(boundary_matrix(self.problem, lam))[2][-1].conj()
        return _finalize_eigenfunction(self.problem, lam, kernel)


def solve_spectrum(problem: HighOrderSLProblem, kmax: int) -> SLSpectrum:
    """First kmax eigenvalues (with multiplicity) by scan plus root finding.

    Im det of the scaled boundary matrix is evaluated on a grid of step
    pi / (4 L), _SCAN_CHUNK points at a time, up to four times past the
    lattice prediction of the last eigenvalue wanted; grid points where
    it does not exceed 16 |Re det| (rounding) are skipped.  The sign changes between
    consecutive trusted points of a chunk are refined together by Illinois
    regula falsi to 4 eps lam, one batched determinant per step, and their
    roots get one stacked SVD; a batch takes only the first brackets, as
    many as eigenvalues are still wanted, and the next ones follow only if
    some root proves spurious.  In order, until kmax are found, a root is
    accepted where exactly one normalized singular value is below 1e-9.
    A root with none is spurious.  So is a root with more: a sign change
    locates only a root of odd multiplicity, and where several singular
    values sit below 1e-9 the matrix is singular to rounding over a whole
    range, not at a point.
    That happens at small lam L for large q, where the columns
    exp(w_k lam x) are close to the kernel span{1, ..., x^(q-1)} of
    lam = 0, and the computed sign of Im det there means nothing.  A
    density check against the one-per-pi/L eigenvalue spacing guards
    against missed or spurious roots, and a length so small that the scan
    leaves the floating-point range is refused.  So is any positive
    eigenvalue asked of q > _MAX_SCAN_Q, before the scan allocates.
    """
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    q, L = problem.q, problem.interval_length
    zeros = q if problem.condition == "neumann" else 0
    needed = kmax - zeros
    if needed <= 0:
        return SLSpectrum(problem, [0.0] * kmax)
    if q > _MAX_SCAN_Q:
        raise SLSolveError(
            f"q = {q} is past the one-per-pi/L density range the scan is checked on (q <= {_MAX_SCAN_Q})"
        )
    eigenvalues = [0.0] * zeros

    step = math.pi / (4.0 * L)
    lam_lo = 0.25 * math.pi / L
    ceiling = ode_asymptotic_prediction(q, L, q + needed + 1) + math.pi / (2.0 * L)
    if not (math.isfinite(step) and math.isfinite(ceiling)):
        raise SLSolveError(f"interval length {L:.6g} puts the eigenvalues past the floating-point range")
    span = int(math.ceil((ceiling - lam_lo) / step))
    limit = 4 * span + 8
    chunk = min(span, _SCAN_CHUNK)
    found = []
    prev = None  # last trusted (lam, Im det)
    start = 0
    while len(found) < needed and start < limit:
        grid = lam_lo + step * np.arange(start, min(start + chunk + 1, limit))
        det = np.linalg.det(_boundary_matrices(problem, grid))
        trusted = np.abs(det.imag) > _TRUST * np.abs(det.real)
        brackets = []
        for lam, f in zip(grid[trusted], det.imag[trusted]):
            if prev is not None and (f > 0) != (prev[1] > 0):
                brackets.append(prev + (lam, f))
            prev = (lam, f)
        start += len(grid)
        # each bracket holds at least one root unless it proves spurious, so
        # refine only as many as are still needed and return for more after
        while brackets and len(found) < needed:
            batch, brackets = brackets[: needed - len(found)], brackets[needed - len(found) :]
            a, fa, b, fb = zip(*batch)
            roots = _illinois(lambda lams: _det_imag(problem, lams), a, b, fa, fb)
            s = np.linalg.svd(_boundary_matrices(problem, roots), compute_uv=False)
            for root, si in zip(roots, s):
                if len(found) < needed and np.sum(si / si[0] < SINGULAR_THRESHOLD) == 1:
                    found.append(float(root))
    if len(found) < needed:
        raise SLSolveError(
            f"located only {len(found)} of {needed} positive eigenvalues below lam = {grid[-1]:.6g}"
        )

    # density sanity: positive eigenvalues should sit one per pi/L near the lattice.
    # Correct spectra (q <= 20, L from 0.37 to 2.9, up to 30 positive values)
    # miss the count by -0.006 to 0.376; q = 21, one root short, by -1.0 to -0.77
    top = found[-1]
    expected = top * L / math.pi + q / 2.0 + 0.5 - q
    if abs(len(found) - expected) > 0.5:
        raise SLSolveError(
            f"{len(found)} eigenvalues located below {top:.6g} but the one-per-pi/L density predicts {expected:.2f}"
        )
    return SLSpectrum(problem, eigenvalues + found)


def duality_map(coefficients: np.ndarray, q: int) -> np.ndarray:
    """Map ansatz coefficients c_k to c_k w_k^q, swapping Neumann and Dirichlet.

    Shifting every derivative order by q turns one condition set into the
    other; applying the map twice multiplies by w_k^(2q) = (-1)^q.
    """
    w = ansatz_exponents(q)
    return np.asarray(coefficients) * w**q
