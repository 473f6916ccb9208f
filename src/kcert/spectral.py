"""Numerical core: certified spectral norms of reweighted matrices, PSD margins,
and exact rational trace powers.

The spectral norm of Gamma^{-1/2} A Gamma^{-1/2} is computed by ARPACK
(scipy.sparse.linalg.eigsh, implicitly restarted Lanczos, so memory stays at a
few Krylov vectors) from a seeded start vector. The routine is deterministic
given the seed and reports the residual ||A~ v - theta v|| of the returned
eigenpair, recomputed from A itself; certificates must widen the returned value
by the residual before using it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from .core import CapacityError, KcertError

TRACE_DIM_LIMIT = 2000
TRACE_POWER_LIMIT = 12
PSD_DENSE_LIMIT = 4000


class NonConvergenceError(KcertError):
    """The eigensolver failed to converge; carries the best estimate found."""

    def __init__(self, message: str, best_value: float, best_residual: float):
        super().__init__(message)
        self.best_value = best_value
        self.best_residual = best_residual


def _as_csr(a) -> sp.csr_matrix:
    if sp.issparse(a):
        return a.tocsr()
    return sp.csr_matrix(np.asarray(a, dtype=np.float64))


def spectral_norm_reweighted(a, gamma, tol: float = 1e-9, seed: int = 0) -> tuple[float, float]:
    """Spectral norm of Gamma^{-1/2} A Gamma^{-1/2} with a certified residual.

    a      : symmetric matrix (dense or scipy sparse); left unmodified
    gamma  : positive diagonal entries (Fractions or floats)
    returns (lambda, residual) where residual = ||A~ v - lambda_signed v|| for
    the returned eigenvector v; deterministic for a fixed seed.
    """
    A = _as_csr(a)
    nv = A.shape[0]
    if nv == 0 or not A.data.any():
        return 0.0, 0.0
    skew = A - A.T
    if skew.nnz and float(np.max(np.abs(skew.data))) > 0.0:
        raise ValueError("matrix must be symmetric")
    gf = np.asarray(gamma, dtype=np.float64)
    if gf.shape != (nv,):
        raise ValueError("gamma length must match matrix dimension")
    if np.any(gf <= 0):
        raise ValueError("gamma must be strictly positive when A is nonzero")
    isq = 1.0 / np.sqrt(gf)

    # A~ as a scaled copy: _as_csr hands back the caller's own CSR matrix
    m = A.astype(np.float64, copy=True)
    m.data *= isq[np.repeat(np.arange(nv), np.diff(m.indptr))] * isq[m.indices]
    m.eliminate_zeros()
    converged = True
    if nv == 1:
        # eigsh needs k < N
        vals, vecs = m.toarray()[0], np.ones((1, 1))
    else:
        # ARPACK draws a fresh start vector from rng whenever the Krylov space
        # turns invariant; left unset, that generator is seeded by the OS
        rng = np.random.default_rng(seed)
        try:
            vals, vecs = eigsh(m, k=1, which="LM", v0=rng.standard_normal(nv), tol=tol, rng=rng)
        except ArpackNoConvergence as exc:
            vals, vecs, converged = exc.eigenvalues, exc.eigenvectors, False
    if len(vals) == 0:
        raise NonConvergenceError("ARPACK converged to no eigenpair", best_value=math.nan,
                                  best_residual=math.inf)
    theta, y = float(vals[0]), vecs[:, 0]
    residual = float(np.linalg.norm(isq * (A @ (isq * y)) - theta * y))
    # widen by a rounding allowance so lambda + residual stays a one-sided
    # margin even when the Ritz value lands a few ulps under the true norm
    eps = float(np.finfo(np.float64).eps)
    residual += 64.0 * eps * max(1.0, abs(theta)) * max(1.0, math.sqrt(nv))
    if not converged:
        raise NonConvergenceError(
            f"ARPACK did not converge (best value {abs(theta)}, residual {residual})",
            best_value=abs(theta),
            best_residual=residual,
        )
    return abs(theta), residual


def psd_margin(m, tol: float = 1e-9) -> float:
    """Minimum eigenvalue of a symmetric matrix (negative means not PSD)."""
    if sp.issparse(m):
        m = m.toarray()
    dense = np.asarray(m, dtype=np.float64)
    if dense.shape[0] != dense.shape[1]:
        raise ValueError("matrix must be square")
    if dense.shape[0] > PSD_DENSE_LIMIT:
        raise CapacityError(f"psd_margin supports dimension <= {PSD_DENSE_LIMIT}")
    if dense.size == 0:
        return 0.0
    if not np.allclose(dense, dense.T, atol=tol * max(1.0, float(np.abs(dense).max()))):
        raise ValueError("matrix must be symmetric")
    w = np.linalg.eigvalsh(dense)
    return float(w[0])


def _lcm_many(values) -> int:
    out = 1
    for v in values:
        out = math.lcm(out, v)
    return out


def exact_trace_power(a, gamma, ell: int) -> Fraction:
    """Exact tr((Gamma^{-1} A)^ell) for an integer matrix A and rational Gamma.

    Scaled to a single integer matrix: with q the common denominator of Gamma
    and L = lcm of the integer diagonal, tr = q^ell * tr(B^ell) / L^ell where
    B = (L * D^{-1}) A is integral.
    """
    A = np.asarray(a, dtype=object)
    nv = A.shape[0]
    if nv > TRACE_DIM_LIMIT:
        raise CapacityError(f"exact trace power supports dimension <= {TRACE_DIM_LIMIT}")
    if ell > TRACE_POWER_LIMIT:
        raise CapacityError(f"exact trace power supports exponent <= {TRACE_POWER_LIMIT}")
    if ell < 0:
        raise ValueError("exponent must be nonnegative")
    if ell == 0:
        return Fraction(nv)
    gam = [Fraction(g) for g in gamma]
    if len(gam) != nv:
        raise ValueError("gamma length must match matrix dimension")
    if any(g <= 0 for g in gam):
        raise ValueError("gamma must be strictly positive")
    q = _lcm_many(g.denominator for g in gam)
    dint = [int(g * q) for g in gam]
    L = _lcm_many(set(dint))
    B = np.empty((nv, nv), dtype=object)
    for i in range(nv):
        scale = L // dint[i]
        for jj in range(nv):
            B[i, jj] = int(A[i, jj]) * scale

    # binary powering over exact integers
    result = None
    base = B
    e = ell
    while e:
        if e & 1:
            result = base if result is None else result @ base
        e >>= 1
        if e:
            base = base @ base
    tr = sum(int(result[i, i]) for i in range(nv))
    return Fraction(q**ell * tr, L**ell)


def trace_bound_rhs(n: int, r: int, ell: int, d, eta=None, colored: bool = False) -> Fraction:
    """Closed-walk count bound 2^ell * min(n^r, C(N, r)) * (ell/d)^{ell/2},
    with (2*eta*ell/d) replacing (ell/d) in the typed-degree (odd) form.

    N is n for the plain Kikuchi graph and 2n for the colored one; the binomial
    replaces n^r whenever it is tighter.
    """
    if ell <= 0 or ell % 2 != 0:
        raise ValueError("ell must be a positive even integer")
    d = Fraction(d)
    if d <= 0:
        raise ValueError("average degree must be positive")
    ground = 2 * n if colored else n
    count = min(n**r, comb(ground, r))
    if eta is None:
        inner = Fraction(ell) / d
    else:
        if eta < 1:
            raise ValueError("eta must be >= 1")
        inner = Fraction(2 * eta * ell) / d
    return Fraction(2**ell) * count * inner ** (ell // 2)
