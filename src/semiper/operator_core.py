"""Finite-dimensional state spaces, generators and spectral calculus.

All states live in C^dim equipped with a Hermitian positive definite Gram
matrix G; every norm and operator norm in the package is the one induced
by G. A Gram is read only through an upper triangular R, G = R* R, so
operator norms are the largest singular value of R M R^{-1}: R is
G^{1/2} times a unitary factor, which no singular value sees. A state
Gram's R is the Cholesky factor that validates it; a Gram M* M is never
formed, and its R comes from the QR of M, whose condition number M* M
would square (Golub & Van Loan, section 5.3.7).
Generators are dense matrices whose dtype records their field: a real
model stays float64 and is factored and propagated in real arithmetic,
in its real eigenbasis (Golub & Van Loan, section 7.4). Propagation,
harmonic solves and fractional powers all read one cached
eigendecomposition per model and fall back to scaling-and-squaring,
dense solves or ``fractional_matrix_power`` when the eigenvector basis is
ill conditioned. A constantly damped wave A = [[0, I], [L, -a I]], with
or without a kernel, gets that eigendecomposition in closed form from one
symmetric eigh of L (:func:`_damped_wave_eig`); other models take LAPACK's
eig. Every path but the fallbacks uses numpy alone; scipy.linalg is
imported only inside those fallbacks, so it stays out of startup. A
model caches only data that depends on A alone; anything that depends
on a time, an exponent or a period is recomputed by the call that asks
for it.

Models with a nontrivial kernel carry a spectral projector ``pi0`` onto
the kernel; resolvents, fractional powers and domain norms are taken on
the complementary invariant block (the "deflated block").
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    NonFiniteInput,
    NonHermitian,
    NotPositiveDefinite,
    OnSpectrum,
    ResonantHarmonic,
    SpectrumOnCut,
)

# Eigenvector condition number above which propagation switches from the
# cached eigendecomposition to scaling-and-squaring.
EIG_COND_LIMIT = 1e8

# Backward propagation is allowed (matrix exponentials form a group) but a
# growth monitor warns when the realized amplification exceeds this.
BACKWARD_WARN_RATIO = 1e6

# Times per eigenbasis contraction in an array-valued propagate, which
# bounds its exponential factors and their products at dim x _PROPAGATE_BLOCK.
_PROPAGATE_BLOCK = 64

_HERMITIAN_RTOL = 1e-12


def _sigma_max(M: np.ndarray) -> float:
    """Largest singular value of M, as the root of the top eigenvalue of
    M* M (the last of ``np.linalg.eigvalsh``, which returns them in
    ascending order); M is first scaled by its largest entry, so the Gram
    can neither underflow nor overflow."""
    scale = float(np.max(np.abs(M)))
    if scale == 0.0:
        return 0.0
    M = M / scale
    top = np.linalg.eigvalsh(M.conj().T @ M)[-1]
    return scale * float(np.sqrt(max(top, 0.0)))


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


@dataclass
class StateSpace:
    """A Gram-normed coordinate space.

    Attributes
    ----------
    dim : int
        Coordinate dimension.
    gram : ndarray
        Hermitian positive definite Gram matrix, float64 or complex128;
        the squared norm of a state x is the real quadratic form x* gram x,
        taken in real arithmetic on a float64 Gram.
    gram_factor : ndarray
        The upper Cholesky factor R of G = R* R, of the Gram's dtype, taken
        as :func:`make_state_space` validates G; |R x| is the norm of x.
    """

    dim: int
    gram: np.ndarray
    gram_factor: np.ndarray

    def norm(self, x) -> float:
        x = np.asarray(x)
        q = np.vdot(x, apply_real(np.matmul, self.gram, x)).real
        return float(np.sqrt(max(q, 0.0)))

    def row_norms(self, X) -> np.ndarray:
        """Norm of each row of the state stack X, in one contraction; with
        a real Gram, x* G x = a^T G a + b^T G b for x = a + ib, and a real
        X is contracted alone. The parts are contracted contiguous, so a
        real X and its complex cast give the same bits."""
        X = np.asarray(X)
        G = self.gram
        if np.iscomplexobj(G):
            q = np.einsum("ij,ij->i", X.conj(), X @ G.T).real
        else:
            parts = (X.real, X.imag) if np.iscomplexobj(X) else (X,)
            q = sum(np.einsum("ij,ij->i", Y, Y @ G.T)
                    for Y in map(np.ascontiguousarray, parts))
        return np.sqrt(np.maximum(q, 0.0))

    def op_norm(self, M) -> float:
        """Operator norm of M as a map (X, gram) -> (X, gram), the 2-norm
        of R M R^{-1} for R = ``gram_factor``."""
        return float(np.linalg.norm(_similar(self.gram_factor, M), 2))


def _similar(R: np.ndarray, M) -> np.ndarray:
    """R M R^{-1} for an invertible R."""
    return R @ np.asarray(M) @ np.linalg.inv(R)


def make_state_space(dim: int, gram) -> StateSpace:
    """Validate a Gram matrix by its Cholesky factor and wrap both in a
    :class:`StateSpace`; a real Gram is kept as float64, a complex one as
    complex128.

    Raises
    ------
    NonFiniteInput
        If the Gram matrix contains NaN or infinity.
    NonHermitian
        If it deviates from its adjoint by more than 1e-12 in relative
        Frobenius norm.
    NotPositiveDefinite
        If the Cholesky factorization meets a pivot that is not positive.
    """
    G = _as_matrix(gram)
    G = G.astype(np.result_type(G, float))
    if G.shape != (dim, dim):
        raise ValueError(f"gram has shape {G.shape}, expected ({dim}, {dim})")
    if not np.all(np.isfinite(G)):
        raise NonFiniteInput("gram matrix has non-finite entries")
    scale = np.linalg.norm(G)
    if scale == 0 or np.linalg.norm(G - G.conj().T) > _HERMITIAN_RTOL * scale:
        raise NonHermitian("gram matrix is not Hermitian to 1e-12 relative")
    G = 0.5 * (G + G.conj().T)
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("gram matrix must be positive definite") from None
    return StateSpace(dim=dim, gram=G, gram_factor=L.conj().T)


class Block(NamedTuple):
    """A named coordinate range of the state.

    ``slice`` selects the block's rows of the flat state, ``xi`` holds its
    nodes normalized to [0, 1) (None for a modal block) and ``topology``
    ("interval", "circle" or "modal") says how spatial profiles wrap.
    """

    slice: slice
    xi: np.ndarray | None = None
    topology: str = "modal"


@dataclass
class Model:
    """A generator A on a state space, with optional kernel data.

    ``pi0`` is the spectral projector onto ker A (zero when the kernel is
    trivial); ``kernel_basis`` spans the same kernel. ``B`` is an optional
    input matrix for boundary-forced models. A, pi0, the kernel basis and
    B share one dtype, float64 on a real model and complex128 otherwise.
    ``blocks`` maps block names to the :class:`Block` layout the builder
    chose for the state; wave models name their first two
    ``displacement`` and ``velocity``. The instance is treated as
    immutable after construction. Its derived factorizations are cached
    on it, each computed on first use:

    ``kernel_rows``
        The r x dim rows K^+ pi0 (K the kernel basis as columns), so that
        pi0 = K K^+ pi0 and ker pi0 = ker K^+ pi0; None without a kernel.
    ``deflated``
        (A_r, Q): reduced coordinates of the invariant complement of the
        kernel. Q is a Euclidean-orthonormal basis of
        range(I - pi0) = ker pi0, the orthogonal complement of the r
        columns of (K^+ pi0)*: the last dim - r columns of their complete
        QR. A_r = Q* A Q is the reduced generator; the reduced Gram
        G_r = Q* G Q is never formed. For kernel-free models Q is None
        and A_r is A.
    ``deflated_eig``
        (w, V, Vinv, cond): eigenvalues and eigenvectors of A_r, the
        inverse eigenvector matrix (None if singular) and cond(V). This
        is the model's one spectral factorization; it is computed in
        real arithmetic when A_r is float64, and cast to complex. cond(V) is
        then that of the real basis (below), pair columns times sqrt(2).
        A = [[0, I], [L, -a I]] (L real symmetric, a a scalar: the
        interval and circle waves with constant damping) is factored in
        closed form by :func:`_damped_wave_eig`, one eigh of L and no
        eig, inv or SVD, in the layout of LAPACK's real driver; on a
        kernel model its full-space factor (V, Vinv) without the kernel
        roots enters as (Q* V, Vinv Q). It declines to the general route
        when a mode is critically damped to round-off, when the number
        of roots zero to round-off is not the kernel dimension, or when
        cond(V) would exceed EIG_COND_LIMIT.
    ``eig``
        The same four fields for A on the whole space. For kernel-free
        models this is ``deflated_eig`` itself; on kernel models it is
        assembled from it and the kernel basis, so that
        V e^{tw} Vinv = pi0 + Q e^{tA_r} Q* (I - pi0). ``cond`` is the
        deflated cond(V), which decides between the eigenbasis and the
        fallbacks (expm, dense solves, ``fractional_matrix_power``).
    ``real_eig``
        (first, X) if the model is real (A is float64) and ``eig``
        has exact conjugate pairs j, j + 1 (``first`` lists each j). X
        inverts the real basis (columns Re and Im of V[:, j] at j, j + 1).
    ``reduced_gram_factor``
        An upper triangular R with G_r = R* R: ``space.gram_factor`` on
        kernel-free models, else the triangular factor of the QR of
        ``space.gram_factor`` Q. |R x| is the Gram norm of x, and
        R = U G_r^{1/2} with U unitary, so every norm read through R
        is a singular value that G_r^{1/2} would give.
    ``weighted_generator``
        W = R A_r R^{-1}, the deflated generator in coordinates where the
        Gram norm is the Euclidean one.
    """

    space: StateSpace
    A: np.ndarray
    kernel_basis: tuple = ()
    pi0: np.ndarray | None = None
    B: np.ndarray | None = None
    label: str = ""
    blocks: dict | None = None

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def has_kernel(self) -> bool:
        return len(self.kernel_basis) > 0

    @cached_property
    def kernel_rows(self) -> np.ndarray | None:
        if not self.has_kernel:
            return None
        K = np.stack(self.kernel_basis, axis=1)
        return np.linalg.lstsq(K, self.pi0, rcond=None)[0]

    @cached_property
    def deflated(self) -> tuple:
        if not self.has_kernel:
            return self.A, None
        r = len(self.kernel_basis)
        Q = np.linalg.qr(self.kernel_rows.conj().T, mode="complete")[0][:, r:]
        return Q.conj().T @ self.A @ Q, Q

    @cached_property
    def deflated_eig(self) -> tuple:
        closed = _damped_wave_eig(self.A, len(self.kernel_basis))
        if closed is not None:
            w, V, Vinv, cond = closed
            _, Q = self.deflated
            if Q is None:
                return closed
            # Q real: Q^T V and (Q^T Vinv^T)^T in real products
            return (w, apply_real(np.matmul, Q.T, V),
                    apply_real(np.matmul, Q.T, Vinv.T).T, cond)
        w, V, first = _eig(self.deflated[0])
        try:
            Vinv = np.linalg.inv(V)
            # V = R D U with U unitary and D = sqrt(2) on R's pair columns
            cond = np.linalg.cond(V if first is None
                                  else _real_columns(V, first, np.sqrt(2.0)))
        except np.linalg.LinAlgError:
            Vinv, cond = None, np.inf
        return w, V, Vinv, cond

    @cached_property
    def eig(self) -> tuple:
        if not self.has_kernel:
            return self.deflated_eig
        w_r, V_r, Vinv_r, cond = self.deflated_eig
        _, Q = self.deflated
        K = np.stack(self.kernel_basis, axis=1)
        w = np.concatenate([np.zeros(K.shape[1], dtype=complex), w_r])
        V = np.concatenate([K, Q @ V_r], axis=1)
        if Vinv_r is None:
            return w, V, None, cond
        # pi0 = K K^+ pi0, and Q* (I - pi0) maps onto the block
        Qh = Q.conj().T
        Vinv = np.concatenate([self.kernel_rows, Vinv_r @ (Qh - Qh @ self.pi0)])
        return w, V, Vinv, cond

    @cached_property
    def real_eig(self) -> tuple | None:
        w, _, Vinv, _ = self.eig
        return None if np.iscomplexobj(self.A) else _real_inverse(w, Vinv)

    @cached_property
    def reduced_gram_factor(self) -> np.ndarray:
        _, Q = self.deflated
        R = self.space.gram_factor
        return R if Q is None else np.linalg.qr(R @ Q, mode="r")

    @cached_property
    def weighted_generator(self) -> np.ndarray:
        return _similar(self.reduced_gram_factor, self.deflated[0])


def build_model(space: StateSpace, A, kernel_basis=(), pi0=None, B=None,
                label: str = "", blocks: dict | None = None) -> Model:
    """Assemble a :class:`Model`, validating shapes and finiteness.

    When ``kernel_basis`` is nonempty and no projector is supplied, the
    spectral projector onto the kernel is computed from left and right
    eigenvectors of the eigenvalues nearest zero. Without ``blocks`` the
    whole state is one modal block named ``all``. A, pi0, the kernel
    basis and B are stored as float64 unless one of them is complex.
    """
    dtype = np.result_type(*(np.asarray(M) for M in (A, pi0, B, *kernel_basis)
                             if M is not None), float)
    A = _as_matrix(A).astype(dtype)
    if A.shape[0] != space.dim:
        raise ValueError("generator dimension does not match the state space")
    if not np.all(np.isfinite(A)):
        raise NonFiniteInput("generator has non-finite entries")
    kb = tuple(np.asarray(v, dtype=dtype) for v in kernel_basis)
    for v in kb:
        if v.shape != (space.dim,):
            raise ValueError("kernel basis vector has wrong shape")
    if pi0 is None:
        if kb:
            pi0 = _spectral_kernel_projector(A, len(kb))
        else:
            pi0 = np.zeros((space.dim, space.dim), dtype=dtype)
    else:
        pi0 = _as_matrix(pi0).astype(dtype)
    if B is not None:
        B = np.asarray(B, dtype=dtype)
        if B.ndim == 1:
            B = B[:, None]
        if B.shape[0] != space.dim:
            raise ValueError("input matrix B has wrong leading dimension")
    if blocks is None:
        blocks = {"all": Block(slice(0, space.dim))}
    return Model(space=space, A=A, kernel_basis=kb, pi0=pi0, B=B,
                 label=label, blocks=blocks)


def _eig(M: np.ndarray) -> tuple:
    """Eigenvalues and right eigenvectors of M as complex arrays, and
    :func:`_conjugate_pairs` of the eigenvalues (None unless M is real).

    A float64 matrix goes to the real LAPACK driver, which is faster and
    returns each pair x +- iy in adjacent columns.
    """
    w, V = np.linalg.eig(M)
    w, V = w.astype(complex, copy=False), V.astype(complex, copy=False)
    return w, V, _conjugate_pairs(w) if np.isrealobj(M) else None


def _second_order_blocks(A: np.ndarray) -> tuple | None:
    """(L, D) when A = [[0, I], [L, -D]] in n x n blocks, the first-order
    linearization of the quadratic pencil lambda^2 + lambda D - L
    (Tisseur & Meerbergen, SIAM Rev. 43, 2001, section 3.10), so that its
    eigenpairs and its resolvent reduce to n x n work; None otherwise."""
    n = len(A) // 2
    if n == 0 or len(A) % 2 or np.any(A[:n, :n]) or not np.array_equal(A[:n, n:], np.eye(n)):
        return None
    return A[n:, :n], -A[n:, n:]


def _damped_wave_eig(A: np.ndarray, r: int = 0) -> tuple | None:
    """(w, V, Vinv, cond) of A = [[0, I], [L, -a I]], L real symmetric and
    a a scalar, with an r-dimensional kernel ker L x {0}, in closed form
    from one eigh of L, without the r kernel roots. None when A is not of
    that form, when a mode is critically damped to round-off, when the
    number of modes with mu_k zero to round-off is not r, or when cond
    exceeds EIG_COND_LIMIT.

    With L = U diag(mu) U^T the eigenproblem splits into one quadratic
    lambda^2 + a lambda - mu_k = 0 per mode (Tisseur & Meerbergen, SIAM
    Rev. 43, 2001, section 3.10). Each root gives the unit column
    [u_k; lambda u_k] / sqrt(1 + |lambda|^2), and the two roots of a mode
    sit in adjacent columns as the real LAPACK driver lays them out: a
    complex pair has positive imaginary part first and its exact
    conjugate second. The rows of Vinv invert each mode's 2 x 2 block.
    The r modes whose mu_k lie in the round-off band of the discriminant
    are the kernel: their mu_k is set to zero, their roots are then 0 and
    -a, and only -a is kept, so V is dim x (dim - r) and Vinv its left
    inverse.
    cond is that of the real basis of ``Model.deflated_eig`` (pair
    columns Re, Im times sqrt(2)). blockdiag(U, U) is orthogonal, so it
    is the largest over the smallest singular value of the real 2 x 2
    blocks, and a kernel mode's one unit column counts as sigma = 1. A
    block has Frobenius norm sqrt(2) and |det| d =
    |lambda_1 - lambda_2| / (r_1 r_2), r_i = sqrt(1 + |lambda_i|^2), so
    sigma_max^2 = 1 + sqrt(1 - d^2) and sigma_min = d / sigma_max.
    """
    blocks = None if np.iscomplexobj(A) else _second_order_blocks(A)
    if blocks is None:
        return None
    L, D = blocks
    n = len(L)
    a = D[0, 0]
    if not np.array_equal(D, a * np.eye(n)) or not np.array_equal(L, L.T):
        return None
    mu, U = np.linalg.eigh(L)
    a2 = 0.25 * a * a
    # eigh's mu_k carry an absolute error of order n eps |L|; a discriminant
    # inside that band may be zero, a defective (critically damped) mode,
    # and a mu_k inside it a kernel mode with the root zero
    band = n * np.finfo(float).eps * (a2 + np.abs(mu).max())
    kernel = np.abs(mu) <= band
    if np.count_nonzero(kernel) != r:
        return None
    mu[kernel] = 0.0
    disc = a2 + mu
    if np.any(np.abs(disc) <= band):
        return None
    s = np.sqrt(np.abs(disc))
    under = disc < 0
    # real roots: the larger in magnitude first, the other from their product -mu
    big = np.where(under, 1.0, -(0.5 * a + np.copysign(s, a)))
    lam1 = np.where(under, -0.5 * a + 1j * s, big)
    lam2 = np.where(under, lam1.conj(), -mu / big)
    nrm = np.hypot(1.0, np.abs(np.stack([lam1, lam2])))
    d = np.abs(lam1 - lam2) / (nrm[0] * nrm[1])
    smax = np.sqrt(1.0 + np.sqrt(np.maximum(1.0 - d * d, 0.0)))
    smin = np.where(kernel, 1.0, d / smax)
    cond = float(np.where(kernel, 1.0, smax).max() / smin.min())
    if not cond <= EIG_COND_LIMIT:
        return None
    w = np.stack([lam1, lam2], axis=1).ravel()
    other = np.stack([lam2, lam1], axis=1).ravel()
    nrm = nrm.T.ravel()
    Ur = np.repeat(U, 2, axis=1)
    V = np.concatenate([Ur / nrm, Ur * (w / nrm)])
    c = nrm / (other - w)
    Vinv = np.concatenate([Ur.T * (c * other)[:, None], Ur.T * -c[:, None]], axis=1)
    if r:
        # lam2 = -mu / big = 0 is the kernel mode's second root
        keep = ~np.stack([np.zeros(n, dtype=bool), kernel], axis=1).ravel()
        w, V, Vinv = w[keep], V[:, keep], Vinv[keep]
    return w, V, Vinv, cond


def _conjugate_pairs(w: np.ndarray) -> np.ndarray | None:
    """Indices j with w[j + 1] == conj(w[j]) exactly, covering every w
    with nonzero imaginary part, or None when w is not laid out so."""
    nonreal = np.flatnonzero(w.imag)
    first = nonreal[::2]
    paired = np.array_equal(nonreal[1::2], first + 1)
    return first if paired and np.all(w[first + 1] == w[first].conj()) else None


def _real_inverse(w: np.ndarray, Vinv: np.ndarray) -> tuple | None:
    """(first, X) for the eigenvalues w of a real matrix and the inverse
    Vinv of their eigenvector matrix V, or None when w is not laid out
    in exact conjugate pairs j, j + 1 (``first`` lists each j).

    X inverts the real basis of V (columns Re and Im of V[:, j] at j,
    j + 1): for any E = V f(w) with f(conj w) = conj f(w),
    E Vinv = :func:`_real_columns` (E, first) X in real arithmetic.
    """
    first = _conjugate_pairs(w)
    if first is None:
        return None
    X = Vinv.real.copy()
    X[first] *= 2.0
    X[first + 1] = -2.0 * Vinv[first].imag
    return first, X


def _eig_product(E: np.ndarray, Vinv: np.ndarray, real: tuple | None) -> np.ndarray:
    """E Vinv for E = V f(w), taken in real arithmetic through
    ``real`` = :func:`_real_inverse` (w, Vinv) unless that is None."""
    if real is None:
        return E @ Vinv
    first, X = real
    return _real_columns(E, first) @ X


def _real_columns(E: np.ndarray, first: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Re E with column j + 1 of each pair replaced by Im E[:, j], and
    both columns of each pair times ``scale``."""
    R = E.real.copy()
    R[:, first + 1] = E[:, first].imag
    if scale != 1.0:
        R[:, np.r_[first, first + 1]] *= scale
    return R


def _spectral_kernel_projector(A: np.ndarray, kdim: int) -> np.ndarray:
    w, V, _ = _eig(A)
    idx = np.argsort(np.abs(w))[:kdim]
    # the rows of V^{-1} are the left eigenvectors dual to the columns of V
    P = V[:, idx] @ np.linalg.inv(V)[idx]
    return P if np.iscomplexobj(A) else P.real


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------

def propagator_matrix(model: Model, t: float) -> np.ndarray:
    """Dense matrix of e^{tA}, V e^{tw} V^{-1} from the cached eigenbasis.

    On a real model it is the float64 Y X (``Model.real_eig``), Y with
    columns Re and Im of e^{t w_j} V[:, j] at each pair j, j + 1. When
    cond(V) exceeds EIG_COND_LIMIT it is ``scipy.linalg.expm``
    (scaling-and-squaring) instead; scipy.linalg is imported on that
    branch only.
    """
    w, V, Vinv, cond = model.eig
    if cond <= EIG_COND_LIMIT:
        return _eig_product(V * np.exp(w * t), Vinv, model.real_eig)
    import scipy.linalg
    return scipy.linalg.expm(model.A * t)


def apply_real(op, M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """op(M, X) for an op linear in X, such as ``np.matmul`` or
    ``np.linalg.solve``; a real M takes a complex X's real and imaginary
    parts as the interleaved columns of one real array. A stack of states
    x as rows times a real M^T is ``apply_real(np.matmul, M, x.T).T``."""
    if np.iscomplexobj(M) or not np.iscomplexobj(X):
        return op(M, X)
    X = np.ascontiguousarray(X)
    Y = op(M, X.view(np.float64).reshape(len(X), -1))
    return np.ascontiguousarray(Y).view(complex).reshape(len(Y), *X.shape[1:])


def propagated_columns(model: Model, offsets, states, weights,
                       summed: bool = False) -> np.ndarray:
    """The terms weights[i] * e^{offsets[i] A} states[i] for all i.

    Returned as the columns of a dim x len(offsets) matrix, or summed
    over i when ``summed`` is set. On the eigendecomposition path every
    term comes from one contraction in the eigenbasis; when cond(V)
    exceeds EIG_COND_LIMIT each distinct offset takes one propagator_matrix.
    """
    states = np.asarray(states, dtype=complex)
    weights = np.asarray(weights, dtype=complex)
    w, V, Vinv, cond = model.eig
    if cond <= EIG_COND_LIMIT:
        Z = np.exp(np.outer(w, offsets)) * (Vinv @ states.T)
        return V @ (Z @ weights if summed else Z * weights)
    mats = {off: propagator_matrix(model, off) for off in set(offsets)}
    cols = np.stack([mats[off] @ st for off, st in zip(offsets, states)],
                    axis=1) * weights
    return cols.sum(axis=1) if summed else cols


def propagate(model: Model, t, x) -> np.ndarray:
    """Apply e^{tA} to the state x, at one time or at each of a 1-d array
    of times.

    A scalar t returns the state; an array of times returns the states
    as the columns of a dim x len(t) matrix, as in
    :func:`propagated_columns`. A scalar takes the array path as a
    one-time array. On the eigendecomposition path
    c = V^{-1} x is formed once and V (e^{w t} c) is built for at most
    _PROPAGATE_BLOCK times at a time, so the exponential factors and
    their products are never held for all times at once; when cond(V)
    exceeds EIG_COND_LIMIT each distinct time takes one
    :func:`propagator_matrix`.

    Negative times are allowed (matrix exponentials form a group). The
    realized backward amplification is checked by one
    :meth:`StateSpace.row_norms` over each block's states at negative
    times, and one warning names the first time at which it exceeds
    ``BACKWARD_WARN_RATIO``.
    """
    x = np.asarray(x, dtype=complex)
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput("state has non-finite entries")
    t = np.asarray(t, dtype=float)
    if t.ndim > 1:
        raise ValueError("t must be a time or a 1-d array of times")
    ts = np.atleast_1d(t)
    w, V, Vinv, cond = model.eig
    if cond > EIG_COND_LIMIT:
        mats = {s: propagator_matrix(model, s) for s in set(ts.tolist())}

        def columns(block):
            return np.stack([mats[s] @ x for s in block.tolist()], axis=1)
    else:
        c = (Vinv @ x)[:, None]

        def columns(block):
            return V @ (np.exp(np.outer(w, block)) * c)
    out = np.empty((len(x), ts.size), dtype=complex)
    checking = True
    for i in range(0, ts.size, _PROPAGATE_BLOCK):
        block = ts[i:i + _PROPAGATE_BLOCK]
        states = out[:, i:i + block.size]
        states[...] = columns(block)
        if checking and block.min() < 0:
            checking = not _warn_on_backward_growth(model, x, block, states)
    return out if t.ndim else out[:, 0]


def _warn_on_backward_growth(model: Model, x, times, states) -> bool:
    """Warn, naming the first negative time of ``times`` whose column of
    ``states`` is more than BACKWARD_WARN_RATIO times as large as x, and
    say whether it warned; the norms of those columns come from one
    :meth:`StateSpace.row_norms`."""
    back = times < 0
    limit = BACKWARD_WARN_RATIO * model.space.norm(x)
    grown = np.flatnonzero(model.space.row_norms(states[:, back].T) > limit)
    if grown.size:
        warnings.warn(f"backward propagation amplified the state by more "
                      f"than {BACKWARD_WARN_RATIO:.0e} at t = {times[back][grown[0]]}",
                      stacklevel=3)
    return bool(grown.size)


# ---------------------------------------------------------------------------
# deflation helpers
# ---------------------------------------------------------------------------

def to_block(model: Model, x) -> np.ndarray:
    """Reduced coordinates Q* (I - pi0) x on the deflated block.

    ``x`` is one state or a stack of states along the last axis; for
    kernel-free models it is returned unchanged.
    """
    _, Q = model.deflated
    if Q is None:
        return x
    x = np.asarray(x, dtype=complex)
    x = x - apply_real(np.matmul, model.pi0, x.T).T
    return apply_real(np.matmul, Q.conj().T, x.T).T


def from_block(model: Model, x_r) -> np.ndarray:
    """The state Q x_r for reduced coordinates x_r (inverse of to_block)."""
    _, Q = model.deflated
    return x_r if Q is None else apply_real(np.matmul, Q, x_r)


# ---------------------------------------------------------------------------
# resolvent and fractional calculus
# ---------------------------------------------------------------------------

def resolvent_norm(model: Model, eta: float) -> float:
    """Gram-weighted norm of (i eta I - A)^{-1} on the deflated block.

    Equal to 1 / sigma_min(i eta I - W) for the weighted generator W,
    one values-only SVD per eta. Raises OnSpectrum when that weighted
    sigma_min is below 1e-13, i.e. i*eta is numerically an eigenvalue.
    """
    W = model.weighted_generator
    smin = np.linalg.svd(1j * float(eta) * np.eye(len(W)) - W, compute_uv=False)[-1]
    if smin < 1e-13:
        raise OnSpectrum(f"i*{eta} lies on the spectrum (sigma_min = {smin:.3e})")
    return float(1.0 / smin)


def harmonic_solve(model: Model, harmonics, period: float, rhs) -> np.ndarray:
    """State rows x_k in range(I - pi0) solving
    (i omega_k I - A) x_k = (I - pi0) rhs[k], omega_k = 2 pi k / T.

    The rows of ``rhs`` are states; they are taken to the reduced
    coordinates of :func:`to_block`, solved on the deflated block and
    lifted back by :func:`from_block`. All harmonics are solved together
    in the cached eigenbasis of the deflated block,
    V (i omega_k - Lambda)^{-1} V^{-1} b_k, as one broadcast over the
    harmonics. When cond(V) exceeds EIG_COND_LIMIT they are solved by
    one batched dense solve of (i omega_k I - A_r) over all harmonics
    instead. Either way one step of iterative refinement is taken with
    the residual against A_r.

    Raises
    ------
    ResonantHarmonic
        Naming the first harmonic whose frequency i omega_k lies within
        1e-10 (relative to the spectral radius) of a deflated eigenvalue.
    """
    harmonics = np.asarray(harmonics)
    A_r = model.deflated[0]
    w, V, Vinv, cond = model.deflated_eig
    shifts = 2j * np.pi * harmonics / float(period)
    denom = shifts[:, None] - w[None, :]
    scale = max(1.0, float(np.max(np.abs(w), initial=1.0)))
    dist = np.min(np.abs(denom), axis=1, initial=np.inf)
    resonant = np.flatnonzero(dist < 1e-10 * scale)
    if resonant.size:
        raise ResonantHarmonic(
            f"harmonic k={harmonics[resonant[0]]} hits the spectrum of the deflated block")
    rhs = to_block(model, np.asarray(rhs, dtype=complex))

    if cond <= EIG_COND_LIMIT:
        def solve(B):
            return ((B @ Vinv.T) / denom) @ V.T
    else:
        M = shifts[:, None, None] * np.eye(len(w)) - A_r

        def solve(B):
            return np.linalg.solve(M, B[..., None])[..., 0]

    X = solve(rhs)
    residual = rhs - (shifts[:, None] * X - apply_real(np.matmul, A_r, X.T).T)
    return from_block(model, (X + solve(residual)).T).T


def fractional_power(model: Model, alpha: float) -> np.ndarray:
    """Principal matrix power (-A_r)^alpha on the deflated block.

    The matrix acts in the reduced coordinates of :func:`to_block`; the
    full-space operator Q F Q* (I - pi0) annihilates the kernel.

    Integer alpha is evaluated by exact matrix powers. Non-integer alpha
    reads the model's cached eigendecomposition of the deflated block
    (principal branch powers of the eigenvalues of -A) and falls back to
    ``scipy.linalg.fractional_matrix_power`` when the eigenvector basis
    is ill conditioned; scipy.linalg is imported on that branch only.
    When A_r is real the eigenbasis product is taken in its real basis,
    as :func:`propagator_matrix` does, and the result is float64.

    Raises
    ------
    SpectrumOnCut
        If -A has an eigenvalue on (-inf, 0], where the principal branch
        is not defined.
    """
    A_r = model.deflated[0]
    w, V, Vinv, cond = model.deflated_eig
    mu = -w
    scale = max(1.0, float(np.max(np.abs(mu))) if mu.size else 1.0)
    on_cut = (np.abs(mu.imag) <= 1e-12 * scale) & (mu.real <= 1e-12 * scale)
    if alpha != int(alpha) and np.any(on_cut):
        raise SpectrumOnCut("an eigenvalue of -A lies on (-inf, 0]")
    if alpha == int(alpha) and alpha >= 0:
        return np.linalg.matrix_power(-A_r, int(alpha))
    if cond <= EIG_COND_LIMIT:
        real = None if np.iscomplexobj(A_r) else _real_inverse(w, Vinv)
        return _eig_product(V * np.power(mu, alpha), Vinv, real)
    import scipy.linalg
    return scipy.linalg.fractional_matrix_power(-A_r, alpha)


def domain_inv_factor(model: Model, alpha: float) -> np.ndarray:
    """R_d^{-1}, in reduced coordinates, for R_d the triangular factor of
    the QR of [S; S F], S = ``Model.reduced_gram_factor``, F = (-A_r)^alpha.

    R_d* R_d = G_r + F* G_r F is the unformed domain Gram, whose norm
    |R_d x| is within [1/sqrt(2), 1] of |x| + |(-A)^alpha x|; R_d^{-1} is
    G_d^{-1/2} times a unitary factor on the right.
    """
    S = model.reduced_gram_factor
    F = fractional_power(model, alpha)
    return np.linalg.inv(np.linalg.qr(np.concatenate([S, S @ F]), mode="r"))


# ---------------------------------------------------------------------------
# contour projector and spectrum report
# ---------------------------------------------------------------------------

def contour_spectral_projector(model: Model, center: complex = 0.0,
                               radius: float | None = None) -> np.ndarray:
    """Spectral projector by a 64-node trapezoid contour integral of the
    resolvent.

    Used as an independent cross-check of closed-form projectors, so it
    solves at each node and never reads the eigenbasis. The default
    radius is half the distance from ``center`` to the nearest
    eigenvalue outside a 1e-8 neighborhood of it (the eigenvalues are
    read for that default only).

    On A = [[0, I], [L, -D]] each node z solves the n x n pencil once,
    Sigma = (z^2 I + z D - L)^{-1}; the resolvent is then
    [[Sigma (z + D), Sigma], [z Sigma (z + D) - I, z Sigma]]. With the
    node weights c_k = radius u_k / N (u_k the N-th roots of unity) and
    S_p = sum_k c_k z_k^p Sigma_k, the projector is
    [[S_1 + S_0 D, S_0], [S_2 + S_1 D, S_1]]: the identity term drops
    because sum_k u_k = 0. Other models solve z I - A, dim x dim.

    When A is float64 and ``center`` is real, node N - k is the
    conjugate of node k and so is its term; only the nodes k = 0..N/2 are
    solved and each term with 0 < k < N/2 enters as term + conj(term).
    Otherwise every node is solved.
    """
    w, _, _, _ = model.eig
    if radius is None:
        d = np.abs(w - center)
        outside = d[d > 1e-8]
        if outside.size == 0:
            raise ValueError("no eigenvalue away from the center to set a radius")
        radius = 0.5 * float(outside.min())
    n_nodes = 64
    theta = 2 * np.pi * np.arange(n_nodes) / n_nodes
    half = n_nodes // 2
    paired = complex(center).imag == 0 and np.isrealobj(model.A)

    def node_sums(pencil, eye, powers):
        """sum_k c_k z_k^p pencil(z_k)^{-1} for each p of ``powers``."""
        acc = np.zeros((len(powers), *eye.shape), dtype=complex)
        for k in range(half + 1 if paired else n_nodes):
            u = np.exp(1j * theta[k])
            z = center + radius * u
            inv = np.linalg.solve(pencil(z), eye)
            for p, S in zip(powers, acc):
                term = u * z**p * inv
                S += 2 * term.real if paired and 0 < k < half else term
        return radius * acc / n_nodes

    blocks = _second_order_blocks(model.A)
    if blocks is None:
        eye = np.eye(model.dim)
        return node_sums(lambda z: z * eye - model.A, eye, (0,))[0]
    L, D = blocks
    eye = np.eye(len(L))
    S0, S1, S2 = node_sums(lambda z: (z * z) * eye + z * D - L, eye, (0, 1, 2))
    return np.block([[S1 + S0 @ D, S0], [S2 + S1 @ D, S1]])


@dataclass
class SpectrumReport:
    label: str
    eigenvalues: np.ndarray
    abscissa: float
    deflated_abscissa: float
    distance_to_imaginary_axis: float
    kernel_dim: int
    assumptions_ok: bool


def spectrum_report(model: Model) -> SpectrumReport:
    """Eigenvalue summary and the bounded-plus-injective assumptions flag.

    ``assumptions_ok`` is true when no eigenvalue has real part above
    1e-10 and every eigenvalue of the deflated block lies strictly in
    the open left half plane.
    """
    w, _, _, _ = model.eig
    wr = model.deflated_eig[0]
    abscissa = float(np.max(w.real)) if w.size else -np.inf
    defl_abs = float(np.max(wr.real)) if wr.size else -np.inf
    dist = float(np.min(np.abs(wr.real))) if wr.size else np.inf
    ok = abscissa <= 1e-10 and defl_abs < 0
    # order by (real, imag) rounded to 1e-9 max|w|: parts that differ only
    # by round-off tie, and the stable sort keeps such ties in eig's order,
    # so a round-off change upstream does not reorder the rows
    step = 1e-9 * float(np.max(np.abs(w))) if w.size else 0.0
    keys = np.round(w / step) if step > 0 else w
    return SpectrumReport(
        label=model.label,
        eigenvalues=w[np.lexsort((keys.imag, keys.real))],
        abscissa=abscissa,
        deflated_abscissa=defl_abs,
        distance_to_imaginary_axis=dist,
        kernel_dim=len(model.kernel_basis),
        assumptions_ok=bool(ok),
    )

