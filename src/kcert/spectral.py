"""Numerical core: certified spectral norms of reweighted matrices and exact
rational trace powers.

The spectral norm of Gamma^{-1/2} A Gamma^{-1/2} is computed by ARPACK
(scipy.sparse.linalg.eigsh, implicitly restarted Lanczos, so memory stays at a
few Krylov vectors) from a seeded start vector. The routine is deterministic
given the seed and reports the residual ||A~ v - theta v|| of the returned
eigenpair, recomputed from A itself; certificates must widen the returned value
by the residual before using it.

SciPy is imported on the first norm (and by the first Kikuchi adjacency), not
with the module, so `import kcert` and the CLI start without it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb

import numpy as np

from .core import CapacityError, KcertError

TRACE_DIM_LIMIT = 2000
TRACE_POWER_LIMIT = 12


class NonConvergenceError(KcertError):
    """The eigensolver failed to converge; the message gives the best value and
    residual found, if any."""


def spectral_norm_reweighted(a, gamma, tol: float = 1e-9, seed: int = 0) -> tuple[float, float]:
    """Spectral norm of Gamma^{-1/2} A Gamma^{-1/2} with a certified residual.

    a      : symmetric matrix (dense or scipy sparse) with finite entries; left unmodified
    gamma  : finite positive diagonal entries (Fractions or floats)
    returns (lambda, residual) where residual = ||A~ v - lambda_signed v|| for
    the returned eigenvector v; deterministic for a fixed seed.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    A = a.tocsr() if sp.issparse(a) else sp.csr_matrix(np.asarray(a, dtype=np.float64))
    nv = A.shape[0]
    # every comparison with NaN is False and inf - inf is NaN, so non-finite
    # entries would pass the symmetry and positivity tests and reach ARPACK
    if not np.isfinite(A.data).all():
        raise ValueError("matrix entries must be finite")
    if nv == 0 or not A.data.any():
        return 0.0, 0.0
    skew = A - A.T
    if skew.nnz and float(np.max(np.abs(skew.data))) > 0.0:
        raise ValueError("matrix must be symmetric")
    gf = np.asarray(gamma, dtype=np.float64)
    if gf.shape != (nv,):
        raise ValueError("gamma length must match matrix dimension")
    if not np.isfinite(gf).all():
        raise ValueError("gamma must be finite")
    if np.any(gf <= 0):
        raise ValueError("gamma must be strictly positive when A is nonzero")
    isq = 1.0 / np.sqrt(gf)

    # A~ as a scaled copy: tocsr hands back the caller's own CSR matrix
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
        raise NonConvergenceError("ARPACK converged to no eigenpair")
    theta, y = float(vals[0]), vecs[:, 0]
    residual = float(np.linalg.norm(isq * (A @ (isq * y)) - theta * y))
    # widen by a rounding allowance so lambda + residual stays a one-sided
    # margin even when the Ritz value lands a few ulps under the true norm
    eps = float(np.finfo(np.float64).eps)
    residual += 64.0 * eps * max(1.0, abs(theta)) * max(1.0, math.sqrt(nv))
    if not converged:
        raise NonConvergenceError(
            f"ARPACK did not converge (best value {abs(theta)}, residual {residual})")
    return abs(theta), residual


def exact_trace_power(a, gamma, ell: int) -> Fraction:
    """Exact tr((Gamma^{-1} A)^ell) for an integer matrix A and rational Gamma.

    Scaled to a single integer matrix: with q the common denominator of Gamma
    and L = lcm of the integer diagonal, tr = q^ell * tr(B^ell) / L^ell where
    B = (L * D^{-1}) A is integral.
    """
    A = np.asarray(a, dtype=object)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
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
    q = math.lcm(*(g.denominator for g in gam))
    dint = [int(g * q) for g in gam]
    L = math.lcm(*dint)
    scale = np.array([L // x for x in dint], dtype=object)
    B = np.frompyfunc(int, 1, 1)(A) * scale[:, None]
    # object arrays multiply exactly, by binary powering
    tr = int(np.linalg.matrix_power(B, ell).trace())
    return Fraction(q**ell * tr, L**ell)


def trace_bound_rhs(n: int, r: int, ell: int, d) -> Fraction:
    """Closed-walk count bound 2^ell * C(n, r) * (ell/d)^{ell/2} for the Kikuchi
    graph of level r over n vertices with average degree d. Its C(n, r) vertices
    stand in for the n^r of the paper's statement, never larger.
    """
    if ell <= 0 or ell % 2 != 0:
        raise ValueError("ell must be a positive even integer")
    d = Fraction(d)
    if d <= 0:
        raise ValueError("average degree must be positive")
    return Fraction(2**ell) * comb(n, r) * (Fraction(ell) / d) ** (ell // 2)
