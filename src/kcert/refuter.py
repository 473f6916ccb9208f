"""End-to-end refutation certificates for semirandom k-XOR instances.

Every step of the certified chain holds pointwise in the assignment, so a
certificate is sound unconditionally:

even k:  psi(x) = (x^r)' A_b (x^r) / (C(n,r) d)  <=  lambda_cert * tr(Gamma) / (C(n,r) d)
         which collapses to exactly 2 * lambda_cert.

odd k:   decompose, then per level t (via Cauchy-Schwarz over the p_t groups)
         psi_t(x)^2 <= k^2 p_t m_t / m^2 + (k^2 p_t / (2 alpha m^2)) (x^r)' A_b (x^r)
         with alpha the measured per-ordered-pair edge count; deletion plus
         equalization rescales the quadratic form by exactly (1 - rho), so the
         surviving-graph spectral bound divides back through (1 - rho). The
         final bound is (1/k) * sum_t psi_t_bound, each level falling back to
         the trivial bound k m_t / m when its spectral route degenerates.

All certificate arithmetic is exact rationals except lambda_cert, which is a
float carrying its Lanczos residual (already added in as a safety margin).
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from math import comb
from typing import Optional

import numpy as np

from .core import KcertError, XorInstance
from .decomposition import decompose_for_refutation
from .io import serialize_xor
from .kikuchi_even import Caps, DEFAULT_CAPS, signed_even_kikuchi
from .kikuchi_odd import build_colored_kikuchi, delete_heavy_edges, equalize_deletion
from .spectral import spectral_norm_reweighted

VERIFY_SEED_OFFSET = 1_000_003
# the verifier recomputes every norm at its own tolerance, whatever tol a
# certificate records, and allows recorded norms this relative shortfall
VERIFY_TOL = 1e-9
NORM_ALLOWANCE = 10 * VERIFY_TOL


class CertificateError(KcertError):
    """Raised when a certificate cannot be checked against its instance."""


def _frac_str(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _parse_frac(s: str) -> Fraction:
    num, den = s.split("/")
    return Fraction(int(num), int(den))


def _sqrt_upper(x: Fraction) -> Fraction:
    """A float-representable upper bound on sqrt(x), exact as a Fraction."""
    if x < 0:
        raise ValueError("negative radicand")
    if x == 0:
        return Fraction(0)
    f = math.sqrt(x.numerator / x.denominator)
    while Fraction(f) * Fraction(f) < x:
        f = math.nextafter(f, math.inf)
    return Fraction(f)


def instance_digest(inst: XorInstance) -> str:
    return hashlib.sha256(serialize_xor(inst).encode()).hexdigest()


def default_eta(k: int, eps: Fraction) -> int:
    """max{1, ceil(4^k / eps^2)}: keeps the predicted deletion fraction <= 1/2
    under the decomposition's caps."""
    eps = Fraction(eps)
    val = Fraction(4**k) / (eps * eps)
    return max(1, int(-((-val) // 1)))


def refute_even(inst: XorInstance, r: int, caps: Caps = DEFAULT_CAPS,
                tol: float = 1e-9, seed: int = 0) -> dict:
    """Certificate that psi(x) <= 2 * lambda_cert for all x, k even."""
    h = inst.hypergraph
    if h.k % 2 != 0:
        raise ValueError("refute_even requires even k")
    if h.m == 0:
        raise ValueError("cannot refute an empty instance")
    skg = signed_even_kikuchi(inst, r, caps)
    g = skg.graph
    if g.num_edges == 0:
        raise ValueError(
            f"the Kikuchi graph at r = {r} has no edges (alpha = 0); increase r"
        )
    d = g.average_degree
    gamma = g.gamma_diagonal()
    a_signed = g.adjacency(signs=list(inst.signs))
    lam, resid = spectral_norm_reweighted(a_signed, gamma, tol=tol, seed=seed)
    lam_cert = lam + resid
    tr_gamma = Fraction(2 * comb(h.n, r)) * d
    assert tr_gamma == Fraction(4 * g.num_edges)
    certified = Fraction(lam_cert) * tr_gamma / (Fraction(comb(h.n, r)) * d)
    assert certified == 2 * Fraction(lam_cert)
    return {
        "format": "kcert-certificate-v1",
        "mode": "even",
        "digest": instance_digest(inst),
        "n": h.n,
        "k": h.k,
        "m": h.m,
        "r": r,
        "eps": None,
        "eta": None,
        "seed": seed,
        "tol": tol,
        "even": {
            "vertices": g.num_vertices,
            "edges": g.num_edges,
            "alpha": g.alpha,
            "d": _frac_str(d),
            "tr_gamma": _frac_str(tr_gamma),
            "lambda": lam,
            "residual": resid,
            "lambda_cert": lam_cert,
        },
        "certified_bound": _frac_str(certified),
    }


_LEVEL_KEYS = ("t", "tau", "p", "m_t", "pairs", "alpha", "alpha_closed", "vertices", "edges",
               "surviving_edges", "kappa", "rho", "d", "tr_gamma", "lambda", "residual",
               "lambda_cert", "first_term", "fhat_bound", "psi_bound", "method")


def _level_record(t: int, tau: int, p: int, m_t: int) -> dict:
    return {**dict.fromkeys(_LEVEL_KEYS), "t": t, "tau": tau, "p": p, "m_t": m_t, "pairs": 0,
            "psi_bound": "0/1", "method": "empty"}


def _spectral_level_bound(k: int, m: int, p: int, alpha: int, m_t: int, lam_cert: float,
                          tr_gamma: Fraction, rho: Fraction, first_term: Fraction
                          ) -> tuple[Fraction, Fraction]:
    """fhat and the level's psi bound from lambda_cert, in exact arithmetic."""
    fhat = Fraction(k * k * p, 2 * alpha * m * m) * Fraction(lam_cert) * tr_gamma
    return fhat, min(_sqrt_upper(first_term + fhat / (1 - rho)), Fraction(k * m_t, m))


def _settle(rec: dict, bound: Fraction, method: str) -> dict:
    rec["psi_bound"] = _frac_str(bound)
    rec["method"] = method
    return rec


def _odd_level(inst: XorInstance, decomp, t: int, r: int, eta, caps: Caps, tol: float,
               seed: int) -> dict:
    """The certificate record of level t; its psi_bound bounds psi_t."""
    h, k, m = inst.hypergraph, inst.k, inst.m
    groups, p, m_t = decomp.groups_at(t), decomp.p(t), decomp.m_t(t)
    rec = _level_record(t, decomp.thresholds[t], p, m_t)
    if m_t == 0:
        return rec
    trivial = Fraction(k * m_t, m)
    first_term = Fraction(k * k * p * m_t, m * m)
    rec["first_term"] = _frac_str(first_term)
    rec["pairs"] = sum(len(g.clause_indices) * (len(g.clause_indices) - 1) for g in groups)
    if rec["pairs"] == 0:
        return _settle(rec, min(_sqrt_upper(first_term), trivial), "first-term")

    g = build_colored_kikuchi(h, decomp, t, r, caps)
    rec.update({"alpha_closed": g.alpha_closed_form, "vertices": g.num_vertices,
                "alpha": g.alpha, "edges": g.num_edges})
    if not g.alpha:
        # geometry cannot carry the quadratic form at this r
        return _settle(rec, trivial, "trivial")

    result = equalize_deletion(g, delete_heavy_edges(g, eta))
    rec.update({"kappa": result.kappa, "rho": _frac_str(result.rho),
                "surviving_edges": result.num_surviving})
    if result.degenerate or result.rho > Fraction(1, 2):
        return _settle(rec, trivial, "trivial")

    sub_deg = g.subgraph_degrees(result.surviving)
    gamma = g.gamma_diagonal(sub_deg)
    a_hat = g.adjacency(signs=list(inst.signs), keep=result.surviving)
    lam, resid = spectral_norm_reweighted(a_hat, gamma, tol=tol, seed=seed + t)
    lam_cert = lam + resid
    tr_gamma = Fraction(2 * int(np.sum(sub_deg)))
    fhat, bound = _spectral_level_bound(k, m, p, g.alpha, m_t, lam_cert, tr_gamma, result.rho,
                                        first_term)
    rec.update({"d": _frac_str(Fraction(int(np.sum(sub_deg)), g.num_vertices)),
                "tr_gamma": _frac_str(tr_gamma), "lambda": lam, "residual": resid,
                "lambda_cert": lam_cert, "fhat_bound": _frac_str(fhat)})
    return _settle(rec, bound, "spectral")


def refute_odd(inst: XorInstance, r: int, eps, eta: Optional[int] = None,
               caps: Caps = DEFAULT_CAPS, tol: float = 1e-9, seed: int = 0,
               relax_r_range: bool = False) -> dict:
    """Certificate that psi(x) <= (1/k) sum_t psi_t_bound for all x, k odd.

    The r-range precondition 2k <= r <= n/8 can be relaxed for small instances;
    soundness never depends on it (levels whose colored graph cannot carry the
    quadratic form fall back to the trivial bound).
    """
    h = inst.hypergraph
    if h.k % 2 != 1:
        raise ValueError("refute_odd requires odd k")
    if h.m == 0:
        raise ValueError("cannot refute an empty instance")
    eps = Fraction(eps)
    if eta is None:
        eta = default_eta(h.k, eps)
    if eta != math.inf and eta < 1:
        raise ValueError("eta must be >= 1")
    decomp = decompose_for_refutation(h, r, eps, enforce_ranges=not relax_r_range)

    k, m = h.k, h.m
    levels = [_odd_level(inst, decomp, t, r, eta, caps, tol, seed) for t in range(1, k)]
    certified = sum((_parse_frac(rec["psi_bound"]) for rec in levels), Fraction(0)) / k
    return {
        "format": "kcert-certificate-v1",
        "mode": "odd",
        "digest": instance_digest(inst),
        "n": h.n,
        "k": k,
        "m": m,
        "r": r,
        "eps": _frac_str(eps),
        "eta": eta,
        "seed": seed,
        "tol": tol,
        "relaxed_r_range": relax_r_range,
        "levels": levels,
        "certified_bound": _frac_str(certified),
    }


def certificate_to_json(cert: dict) -> str:
    """Canonical serialization: sorted keys, compact separators, one trailing LF."""
    return json.dumps(cert, sort_keys=True, separators=(",", ":")) + "\n"


def certificate_from_json(text: str) -> dict:
    return json.loads(text)


_TOP_KEYS = ("mode", "r", "seed", "tol", "certified_bound")
_EVEN_EXACT = ("vertices", "edges", "alpha", "d", "tr_gamma")
_LEVEL_EXACT = ("tau", "p", "m_t", "pairs", "alpha", "alpha_closed", "vertices", "edges",
                "surviving_edges", "kappa", "rho", "d", "tr_gamma", "first_term", "method")
_NORM_KEYS = ("lambda", "residual", "lambda_cert")


def _missing(record, keys, where: str) -> list[str]:
    if not isinstance(record, dict):
        return [f"{where} is not an object"]
    return [f"{where} has no key {key!r}" for key in keys if key not in record]


def _mismatches(where: str, rec: dict, new: dict, keys) -> list[str]:
    return [f"{where} {key}: recorded {rec[key]!r} != recomputed {new[key]!r}"
            for key in keys if rec[key] != new[key]]


def _check_norm(where: str, rec: dict, fresh_lambda: float) -> list[str]:
    """lambda and residual must be finite, non-negative and add up to lambda_cert,
    which may fall below the recomputed Ritz value (a lower bound on the norm)
    by NORM_ALLOWANCE at most: no recorded float widens this check."""
    if not all(type(rec[key]) in (int, float) and math.isfinite(rec[key]) and rec[key] >= 0
               for key in _NORM_KEYS):
        return [f"{where}: lambda, residual and lambda_cert must be finite and non-negative"]
    reasons = []
    if float(rec["lambda_cert"]) != float(rec["lambda"]) + float(rec["residual"]):
        reasons.append(f"{where}: lambda_cert != lambda + residual")
    if rec["lambda_cert"] < fresh_lambda - NORM_ALLOWANCE * max(1.0, fresh_lambda):
        reasons.append(f"{where}: lambda_cert {rec['lambda_cert']} is below the recomputed "
                       f"norm {fresh_lambda}")
    return reasons


def verify_certificate(inst: XorInstance, cert: dict,
                       caps: Caps = DEFAULT_CAPS) -> tuple[bool, list[str]]:
    """Recompute every certified quantity from scratch and compare.

    Missing keys fail. Exact fields must match exactly, level by level. lambda
    is recomputed with an independent seed at VERIFY_TOL and bounds the
    recorded lambda_cert from below (see _check_norm); the arithmetic chain
    down to certified_bound is rechecked exactly from the recorded lambda_cert.
    Returns (ok, list of failure reasons).
    """
    if cert.get("digest") != instance_digest(inst):
        raise CertificateError("certificate digest does not match the instance")
    mode = cert.get("mode")
    if mode not in ("even", "odd"):
        raise CertificateError(f"unknown certificate mode {mode!r}")
    keys = _TOP_KEYS + (("even",) if mode == "even" else ("eps", "eta", "levels"))
    reasons = _missing(cert, keys, "certificate")
    if mode == "even" and not reasons:
        reasons = _missing(cert["even"], _EVEN_EXACT + _NORM_KEYS, "even")
    if mode == "odd" and not reasons:
        records = cert["levels"] if isinstance(cert["levels"], list) else [None]
        reasons = [msg for i, rec in enumerate(records)
                   for msg in _missing(rec, _LEVEL_KEYS, f"level record {i}")]
    if reasons:
        return False, reasons
    seed, r = int(cert["seed"]) + VERIFY_SEED_OFFSET, int(cert["r"])

    if mode == "even":
        rec = cert["even"]
        new = refute_even(inst, r, caps=caps, tol=VERIFY_TOL, seed=seed)["even"]
        norm = _check_norm("even", rec, new["lambda"])
        reasons = _mismatches("even", rec, new, _EVEN_EXACT) + norm
        if not norm and _parse_frac(cert["certified_bound"]) != 2 * Fraction(rec["lambda_cert"]):
            reasons.append("certified_bound does not equal 2 * lambda_cert")
        return not reasons, reasons

    fresh = refute_odd(inst, r, _parse_frac(cert["eps"]), eta=cert["eta"], caps=caps,
                       tol=VERIFY_TOL, seed=seed,
                       relax_r_range=bool(cert.get("relaxed_r_range", False)))["levels"]
    if [rec["t"] for rec in records] != [new["t"] for new in fresh]:
        return False, [f"levels: recorded t = {[rec['t'] for rec in records]} != recomputed "
                       f"{[new['t'] for new in fresh]}"]
    k, m = inst.k, inst.m
    psi_total = Fraction(0)
    for rec, new in zip(records, fresh):
        where = f"level {rec['t']}"
        reasons += _mismatches(where, rec, new, _LEVEL_EXACT)
        if rec["method"] == new["method"] == "spectral":
            norm = _check_norm(where, rec, new["lambda"])
            reasons += norm
            if norm:
                continue
            # the exact chain from the recorded lambda_cert, on recomputed exact fields
            exact = [_parse_frac(new[key]) for key in ("tr_gamma", "rho", "first_term")]
            fhat, expect = _spectral_level_bound(k, m, new["p"], new["alpha"], new["m_t"],
                                                 rec["lambda_cert"], *exact)
            if _parse_frac(rec["fhat_bound"]) != fhat:
                reasons.append(f"{where} fhat_bound does not recompute from lambda_cert")
            if _parse_frac(rec["psi_bound"]) != expect:
                reasons.append(f"{where} psi_bound does not recompute")
        else:
            reasons += _mismatches(where, rec, new, ("psi_bound",))
        psi_total += _parse_frac(rec["psi_bound"])
    if _parse_frac(cert["certified_bound"]) != psi_total / k:
        reasons.append("certified_bound does not equal (1/k) * sum of level bounds")
    return not reasons, reasons
