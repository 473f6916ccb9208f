"""Numerical core: reweighted spectral norms and exact rational trace powers.

Two routines compute the spectral norm of Gamma^{-1/2} A Gamma^{-1/2}, both on
one scaled CSR copy from one set of input checks (_reweighted), and both by one
recurrence (_lanczos): plain three-term Lanczos from a seeded random start,
with no restart and no reorthogonalization, so each is deterministic given its
seed and holds a few vectors at any size:

* ritz_norm_reweighted, the verifier's: one values-only pass. It returns the
  largest |Ritz value|, which in floating point too lies inside the spectrum
  up to rounding (Paige, 1980; recalled).
* spectral_norm_reweighted, the prover's: the same pass, then a second run of
  the recurrence from the same start with the recorded coefficients, which
  rebuilds the Ritz vector without storing the basis. It reports the Rayleigh
  quotient of that vector and its residual ||A~ y - theta y||, recomputed from
  A itself; certificates must widen the returned value by the residual before
  using it.

Neither is a proof: a start vector nearly orthogonal to the top eigenvector
leaves the top of the spectrum out of the Krylov space, and then both read an
eigenvalue below the norm.

SciPy is imported on the first norm (and by the first Kikuchi adjacency), not
with the module, so `import kcert` and the CLI start without it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from math import comb

import numpy as np

from .core import CapacityError, KcertError

TRACE_DIM_LIMIT = 2000
TRACE_POWER_LIMIT = 12


class NonConvergenceError(KcertError):
    """The eigensolver failed: its recurrence overflowed, or LAPACK found no
    eigenpair of its tridiagonal."""


# the Lanczos pass solves for the ends of its tridiagonal's spectrum once every
# this many steps, as ARPACK tests once per restart: at 150 steps on 5,456
# vertices one test took about 0.2 ms and one step 0.1-0.15 ms (2-CPU x86-64)
RITZ_TEST_STEPS = 10


def _reweighted(a, gamma):
    """The checked inputs of a reweighted norm: (A, isq, M), A as CSR (the
    caller's own matrix when it is one), isq = diag(Gamma)^{-1/2} as float64
    and M = Gamma^{-1/2} A Gamma^{-1/2} as a scaled CSR copy without explicit
    zeros; None when A is empty or all zero, whose norm is 0.
    """
    import scipy.sparse as sp

    A = a.tocsr() if sp.issparse(a) else sp.csr_matrix(np.asarray(a, dtype=np.float64))
    nv = A.shape[0]
    # every comparison with NaN is False and inf - inf is NaN, so non-finite
    # entries would pass the symmetry and positivity tests and reach the solver
    if not np.isfinite(A.data).all():
        raise ValueError("matrix entries must be finite")
    if nv == 0 or not A.data.any():
        return None
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
    # a copy: tocsr hands back the caller's own CSR matrix
    m = A.astype(np.float64, copy=True)
    m.data *= isq[np.repeat(np.arange(nv), np.diff(m.indptr))] * isq[m.indices]
    m.eliminate_zeros()
    return A, isq, m


def _start(nv: int, seed: int) -> np.ndarray:
    """The recurrence's unit start vector, from default_rng(seed).standard_normal."""
    v = np.random.default_rng(seed).standard_normal(nv)
    v /= np.linalg.norm(v)
    return v


def _extreme_ritz(alpha: list[float], beta: list[float]) -> tuple[float, np.ndarray]:
    """The Ritz value of largest |theta| of the Lanczos tridiagonal (diagonal
    alpha, off-diagonal beta) and its unit eigenvector s: LAPACK's bisection for
    the least and the greatest eigenvalue, then its inverse iteration for the
    one of larger |theta|. scipy.linalg.eigh_tridiagonal runs the same routines,
    but its input checks and selection took longer than the solve itself on
    short tridiagonals (4 times as long at 20 steps)."""
    from scipy.linalg.lapack import dstebz, dstein

    if len(alpha) == 1:
        return alpha[0], np.ones(1)
    d, e = np.array(alpha), np.array(beta)
    ends = [dstebz(d, e, 2, 0.0, 0.0, i, i, 0.0, "B") for i in (1, len(d))]
    _, w, block, split, _ = max(ends, key=lambda end: abs(end[1][0]))
    y, info = dstein(d, e, w[:1], block, split)
    if info or any(end[4] for end in ends):
        raise NonConvergenceError("LAPACK found no eigenpair of the Lanczos tridiagonal")
    return float(w[0]), y[:, 0]


def _lanczos(m, tol: float, seed: int) -> tuple[float, np.ndarray, list[float], list[float]]:
    """One pass of plain three-term Lanczos on the symmetric CSR matrix m, from
    _start(N, seed), to its stop test: (theta, s, alpha, beta), the largest-|theta|
    Ritz value and its unit eigenvector s of the tridiagonal with diagonal
    alpha and off-diagonal beta (one entry shorter).

    The pass holds three vectors and neither restarts nor reorthogonalizes. It
    stops when ARPACK's test passes, the Ritz estimate beta_j |s_j| at or below
    max(tol, eps) * max(eps^(2/3), |theta|) (tested every RITZ_TEST_STEPS
    steps; tol = 0 means machine precision, as in ARPACK), at breakdown
    (beta_j = 0), or after N steps, when the Krylov space is the whole space.
    A recurrence that overflows raises NonConvergenceError.
    """
    nv = m.shape[0]
    eps = float(np.finfo(np.float64).eps)
    tol, floor = max(tol, eps), eps ** (2 / 3)
    v, v_prev, b = _start(nv, seed), np.zeros(nv), 0.0
    alpha: list[float] = []
    beta: list[float] = []
    for step in itertools.count(1):
        w = m @ v
        w -= b * v_prev
        alpha.append(float(v @ w))
        w -= alpha[-1] * v
        b = float(np.linalg.norm(w))
        if not math.isfinite(b):
            raise NonConvergenceError("the Lanczos recurrence overflowed")
        last = b == 0.0 or step == nv
        if last or step % RITZ_TEST_STEPS == 0:
            theta, s = _extreme_ritz(alpha, beta)
            if last or b * abs(s[-1]) <= tol * max(floor, abs(theta)):
                return theta, s, alpha, beta
        beta.append(b)
        w /= b
        v_prev, v = v, w


def _lanczos_vectors(m, seed: int, alpha: list[float], beta: list[float]):
    """The Lanczos vectors v_1 .. v_len(alpha) of the pass _lanczos(m, tol, seed)
    that recorded alpha and beta, rebuilt one at a time by the same floating-point
    steps with the recorded coefficients in place of its dot products and
    norms, so each comes out bit for bit as the pass made it."""
    v, v_prev = _start(m.shape[0], seed), np.zeros(m.shape[0])
    yield v
    for a, b_prev, b in zip(alpha, [0.0, *beta], beta):
        w = m @ v
        w -= b_prev * v_prev
        w -= a * v
        w /= b
        v_prev, v = v, w
        yield v


def spectral_norm_reweighted(a, gamma, tol: float = 1e-9, seed: int = 0) -> tuple[float, float]:
    """Spectral norm of Gamma^{-1/2} A Gamma^{-1/2} with a certified residual.

    a      : symmetric matrix (dense or scipy sparse) with finite entries; left unmodified
    gamma  : finite positive diagonal entries (Fractions or floats)
    returns (lambda, residual): lambda = |y'A~y| for the unit Ritz vector y of
    the largest |Ritz value| of _lanczos(A~, tol, seed), rebuilt by a second
    run of the recurrence as sum_i s_i v_i, and residual = ||A~ y - y'A~y y||
    recomputed from A itself and widened by a rounding allowance, so that an
    eigenvalue of A~ lies within residual of +-lambda however far the basis has
    lost orthogonality. Deterministic for a fixed seed. A recurrence that
    overflows raises NonConvergenceError.
    """
    checked = _reweighted(a, gamma)
    if checked is None:
        return 0.0, 0.0
    A, isq, m = checked
    _, s, alpha, beta = _lanczos(m, tol, seed)
    y = sum(s_i * v for s_i, v in zip(s, _lanczos_vectors(m, seed, alpha, beta)))
    y /= np.linalg.norm(y)
    ay = isq * (A @ (isq * y))
    theta = float(y @ ay)
    residual = float(np.linalg.norm(ay - theta * y))
    # widen by a rounding allowance so lambda + residual stays a one-sided
    # margin even when the Rayleigh quotient lands a few ulps under the true norm
    eps = float(np.finfo(np.float64).eps)
    residual += 64.0 * eps * max(1.0, abs(theta)) * max(1.0, math.sqrt(m.shape[0]))
    return abs(theta), residual


def ritz_norm_reweighted(a, gamma, tol: float = 1e-9, seed: int = 0) -> float:
    """The largest |Ritz value| of one plain Lanczos pass on Gamma^{-1/2} A Gamma^{-1/2}.

    Same inputs and checks as spectral_norm_reweighted, and the same pass
    (_lanczos) that it runs first. Without reorthogonalization, copies of a
    converged Ritz value may appear, but no Ritz value leaves the spectrum by
    more than rounding. Deterministic for a fixed seed; no eigenvector and no
    residual. A recurrence that overflows raises NonConvergenceError.
    """
    checked = _reweighted(a, gamma)
    if checked is None:
        return 0.0
    return abs(_lanczos(checked[2], tol, seed)[0])


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
