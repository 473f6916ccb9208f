"""End-to-end refutation certificates for semirandom k-XOR instances.

Every step of the certified chain holds pointwise in the assignment, and each
is exact except the spectral norm: lambda_cert is the Rayleigh quotient of the
prover's Lanczos Ritz vector plus its residual, which bounds the norm only
numerically (a Ritz vector that missed the top of the spectrum would undercount
it). The verifier's recomputation, one values-only pass of the same Lanczos
recurrence from its own random start, shares that blind spot, so an accepted
certificate is still only numerically sound. The chain:

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
float carrying its eigenpair residual (already added in as a safety margin).

One builder per arity writes the certificate on a shared head (_head), given the
instance digest by its caller, which computes it once. Both run
one spectral step (_spectral_step: degrees, Gamma, signed adjacency, norm), the
even builder on its whole graph, each odd level on its surviving edges. A
level that deletion and equalization leave whole is stepped as built, on its
distinct edges (see kikuchi_odd), so its pair grid is never built; a level
they cut is stepped as built with the equalized mask (deletion's mask, cut to
kappa per pair) over its pair grid, and its per-pair edges are never made
either.
The reweighted spectral norm, the only numerical step, is passed in as a
function: refute_even/refute_odd pass spectral_norm_reweighted at their tol
(two Lanczos passes, the second rebuilding the Ritz vector). verify_certificate
replays the same builder from the recorded parameters with a step that
recomputes each norm with one values-only Lanczos pass (ritz_norm_reweighted),
checks the recorded norm against it and carries the recorded one on; the
certificate must then equal the replay, field for field and type for type.
"""

from __future__ import annotations

import hashlib
import json
import math
import reprlib
from fractions import Fraction
from typing import Optional

from .core import CapacityError, KcertError, XorInstance
from .decomposition import decompose_for_refutation
from .io import serialize_xor
from .kikuchi_even import Caps, DEFAULT_CAPS, signed_even_kikuchi
from .kikuchi_odd import build_colored_kikuchi, delete_heavy_edges, equalize_deletion
from .spectral import ritz_norm_reweighted, spectral_norm_reweighted

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
    return max(1, math.ceil(Fraction(4**k) / (eps * eps)))


def _ritz_pair(tol: float):
    """The prover's norm step: spectral_norm_reweighted at tol, whose second
    Lanczos pass rebuilds the Ritz vector that its residual is taken on."""
    return lambda key, a, gamma, seed: spectral_norm_reweighted(a, gamma, tol=tol, seed=seed)


def _head(inst: XorInstance, digest: str, mode: str, r: int, seed: int, tol: float) -> dict:
    """The fields both certificate kinds open with, once mode fits k's parity
    and the instance has clauses; digest is instance_digest(inst), which the
    caller computes once (the verifier checks it before the replay)."""
    h = inst.hypergraph
    if h.k % 2 != (mode == "odd"):
        raise ValueError(f"refute_{mode} requires {mode} k")
    # the verifier's own tests, so every r, seed and tol the prover records replays
    params = {"r": r, "seed": seed, "tol": float(tol)}
    for key, value in params.items():
        fault = _param_fault(key, value)
        if fault:
            raise ValueError(fault)
    if h.m == 0:
        raise ValueError("cannot refute an empty instance")
    return {"format": "kcert-certificate-v1", "mode": mode, "digest": digest,
            "n": h.n, "k": h.k, "m": h.m, **params}


def _spectral_step(g, inst: XorInstance, norm, key, seed: int) -> dict:
    """The reweighted spectral step on g: Gamma = D + d*Id from its degrees, d
    its average degree, its signed adjacency A and one call norm(key, A,
    gamma, seed) -> (lambda, residual). Returns the record fields d, tr_gamma
    (g.tr_gamma), lambda, residual and lambda_cert."""
    a_signed = g.adjacency(signs=list(inst.signs))
    lam, resid = norm(key, a_signed, g.gamma_floats(), seed)
    return {"d": _frac_str(g.average_degree), "tr_gamma": _frac_str(g.tr_gamma),
            "lambda": lam, "residual": resid, "lambda_cert": lam + resid}


def _even_certificate(inst: XorInstance, digest: str, r: int, caps: Caps, tol: float, seed: int,
                      norm) -> dict:
    """The even certificate; norm(key, A, gamma, seed) -> (lambda, residual) is
    called once, with key "even"."""
    head = _head(inst, digest, "even", r, seed, tol)
    g = signed_even_kikuchi(inst, r, caps)
    if g.num_edges == 0:
        raise ValueError(f"the Kikuchi graph at r = {r} has no edges (alpha = 0); increase r")
    step = _spectral_step(g, inst, norm, "even", seed)
    # psi <= lambda_cert * tr(Gamma) / (C(n,r) d), and tr(Gamma) = 2 C(n,r) d,
    # so the bound is exactly 2 * lambda_cert
    certified = Fraction(step["lambda_cert"]) * g.tr_gamma / (g.num_vertices * g.average_degree)
    return {**head, "eps": None, "eta": None,
            "even": {"vertices": g.num_vertices, "edges": g.num_edges, "alpha": g.alpha, **step},
            "certified_bound": _frac_str(certified)}


def refute_even(inst: XorInstance, r: int, caps: Caps = DEFAULT_CAPS,
                tol: float = 1e-9, seed: int = 0) -> dict:
    """Certificate that psi(x) <= 2 * lambda_cert for all x, k even."""
    return _even_certificate(inst, instance_digest(inst), r, caps, tol, seed, _ritz_pair(tol))


_LEVEL_KEYS = ("t", "tau", "p", "m_t", "pairs", "alpha", "alpha_closed", "vertices", "edges",
               "surviving_edges", "kappa", "rho", "d", "tr_gamma", "lambda", "residual",
               "lambda_cert", "first_term", "fhat_bound", "psi_bound", "method")


def _level_record(t: int, tau: int, p: int, m_t: int) -> dict:
    return {**dict.fromkeys(_LEVEL_KEYS), "t": t, "tau": tau, "p": p, "m_t": m_t, "pairs": 0,
            "psi_bound": "0/1", "method": "empty"}


def _settle(rec: dict, bound: Fraction, method: str) -> dict:
    rec["psi_bound"] = _frac_str(bound)
    rec["method"] = method
    return rec


def _odd_level(inst: XorInstance, decomp, t: int, r: int, eta, caps: Caps, seed: int,
               norm) -> dict:
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
    if result.rho > Fraction(1, 2):
        return _settle(rec, trivial, "trivial")

    if result.num_surviving < g.num_edges:
        # a whole level is stepped without building its pair grid
        g = g.cut(result.surviving)
    rec.update(_spectral_step(g, inst, norm, t, seed + t))
    fhat = (Fraction(k * k * p, 2 * g.alpha * m * m) * Fraction(rec["lambda_cert"])
            * _parse_frac(rec["tr_gamma"]))
    square = first_term + fhat / (1 - result.rho)
    # min(sqrt(square), trivial); a huge lambda_cert never reaches the float sqrt
    bound = trivial if square >= trivial * trivial else min(_sqrt_upper(square), trivial)
    rec["fhat_bound"] = _frac_str(fhat)
    return _settle(rec, bound, "spectral")


def _odd_certificate(inst: XorInstance, digest: str, r: int, eps, eta: Optional[int],
                     caps: Caps, tol: float, seed: int, relax_r_range: bool, norm) -> dict:
    """The odd certificate; norm(key, A, gamma, seed) -> (lambda, residual) is
    called once per spectral level, with key t."""
    head = _head(inst, digest, "odd", r, seed, tol)
    h = inst.hypergraph
    eps = Fraction(eps)
    # the decomposition rejects an eps outside (0, 1/2) before default_eta divides by it
    decomp = decompose_for_refutation(h, r, eps, enforce_ranges=not relax_r_range)
    if eta is None:
        eta = default_eta(h.k, eps)
    # the verifier's own test, so every eta the prover records replays
    if _param_fault("eta", eta) or eta < 1:
        raise ValueError(f"eta must be an integer >= 1 or None, got {_SHOW.repr(eta)}")

    levels = [_odd_level(inst, decomp, t, r, eta, caps, seed, norm) for t in range(1, h.k)]
    certified = sum((_parse_frac(rec["psi_bound"]) for rec in levels), Fraction(0)) / h.k
    return {**head, "eps": _frac_str(eps), "eta": eta, "relaxed_r_range": bool(relax_r_range),
            "levels": levels, "certified_bound": _frac_str(certified)}


def refute_odd(inst: XorInstance, r: int, eps, eta: Optional[int] = None,
               caps: Caps = DEFAULT_CAPS, tol: float = 1e-9, seed: int = 0,
               relax_r_range: bool = False) -> dict:
    """Certificate that psi(x) <= (1/k) sum_t psi_t_bound for all x, k odd.

    The r-range precondition 2k <= r <= n/8 can be relaxed for small instances;
    soundness never depends on it (levels whose colored graph cannot carry the
    quadratic form fall back to the trivial bound).
    """
    return _odd_certificate(inst, instance_digest(inst), r, eps, eta, caps, tol, seed,
                            relax_r_range, _ritz_pair(tol))


def certificate_to_json(cert: dict) -> str:
    """Canonical serialization: sorted keys, compact separators, one trailing LF;
    a non-finite float is an error, since JSON has no spelling for it."""
    return json.dumps(cert, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def certificate_from_json(text: str) -> dict:
    try:
        return json.loads(text)
    except RecursionError:
        raise CertificateError("certificate JSON is nested too deeply") from None


def _rational(s) -> Optional[Fraction]:
    """The value of a recorded "p/q" field, or None when it is malformed."""
    try:
        return _parse_frac(s)
    except (AttributeError, ValueError, ZeroDivisionError):
        return None


# the parameters a replay starts from, each with (what it must be, test) pairs
# tried in order; bool is no integer here, a float r would be truncated, a seed
# must be one numpy's generators take, tol must be a Lanczos stop tolerance,
# and relaxed_r_range is only echoed, so its type is all there is to check
_INTEGER = ("an integer", lambda v: type(v) is int)
_PARAMS = {"r": (_INTEGER,),
           "seed": (_INTEGER, ("an integer >= 0", lambda v: v >= 0)),
           "tol": (("a float, finite and >= 0",
                    lambda v: type(v) is float and math.isfinite(v) and v >= 0),),
           "eps": (('a rational "p/q"', lambda v: _rational(v) is not None),),
           "eta": (("an integer or null", lambda v: v is None or type(v) is int),),
           "relaxed_r_range": (("a bool", lambda v: type(v) is bool),)}
_REPLAYED = {"even": ("r", "seed", "tol"), "odd": tuple(_PARAMS)}
_NORM_KEYS = ("lambda", "residual", "lambda_cert")

# recorded values in messages, cut short in length and depth whatever the JSON holds
_SHOW = reprlib.Repr()
_SHOW.maxstring = _SHOW.maxother = 100


def _param_fault(key: str, value) -> Optional[str]:
    """What is wrong with value as parameter key, from the first test it fails; None if nothing."""
    return next((f"{key} must be {what}, got {_SHOW.repr(value)}"
                 for what, test in _PARAMS[key] if not test(value)), None)


def _scalar_reasons(cert: dict, mode: str) -> list[str]:
    """Presence and type of each parameter the replay of mode starts from."""
    faults = (_param_fault(key, cert[key]) if key in cert else f"has no key {key!r}"
              for key in _REPLAYED[mode])
    return [f"certificate {fault}" for fault in faults if fault]


def _check_norm(where: str, rec: dict, fresh_lambda: float) -> list[str]:
    """lambda and residual must be finite, non-negative and add up to lambda_cert,
    which may fall below the recomputed Ritz value (a lower bound on the norm)
    by NORM_ALLOWANCE at most: no recorded float widens this check."""
    if not all(type(rec[key]) is float and math.isfinite(rec[key]) and rec[key] >= 0
               for key in _NORM_KEYS):
        return [f"{where}: lambda, residual and lambda_cert must be finite and non-negative"]
    reasons = []
    if rec["lambda_cert"] != rec["lambda"] + rec["residual"]:
        reasons.append(f"{where}: lambda_cert != lambda + residual")
    if rec["lambda_cert"] < fresh_lambda - NORM_ALLOWANCE * max(1.0, fresh_lambda):
        reasons.append(f"{where}: lambda_cert {rec['lambda_cert']} is below the recomputed "
                       f"norm {fresh_lambda}")
    return reasons


def _differences(where: str, recorded, replayed) -> list[str]:
    """Every path at which recorded differs from replayed in type or value, is
    missing or is unexpected."""
    if type(recorded) is not type(replayed) or not isinstance(replayed, (dict, list)):
        if type(recorded) is type(replayed) and recorded == replayed:
            return []
        return [f"{where}: recorded {_SHOW.repr(recorded)} != replayed {_SHOW.repr(replayed)}"]
    if isinstance(replayed, list):
        recorded, replayed = dict(enumerate(recorded)), dict(enumerate(replayed))
    out = [f"{where}[{key!r}] is unexpected" for key in recorded if key not in replayed]
    for key, value in replayed.items():
        out += (_differences(f"{where}[{key!r}]", recorded[key], value) if key in recorded
                else [f"{where}[{key!r}] is missing"])
    return out


def verify_certificate(inst: XorInstance, cert: dict,
                       caps: Caps = DEFAULT_CAPS) -> tuple[bool, list[str]]:
    """Replay the prover from the recorded parameters and compare.

    The replay runs the prover's own builder. Its norm step recomputes each norm
    with one values-only Lanczos pass (ritz_norm_reweighted) from an independent
    seed at VERIFY_TOL, checks the recorded norm against it (see _check_norm) and
    carries the recorded one on, so every exact field down to certified_bound is
    recomputed from the recorded lambda_cert. Like the prover's passes, this
    one can miss the top of the spectrum from an unlucky start, so acceptance
    is numerical evidence, not a proof. The
    certificate must equal the replay: each path that differs in type or value,
    is missing or is unexpected is a reason. Missing or ill-typed parameters and
    parameters the builder refuses fail too. Returns (ok, list of failure reasons).
    """
    if not isinstance(cert, dict):
        raise CertificateError("certificate is not a JSON object")
    digest = instance_digest(inst)
    if cert.get("digest") != digest:
        raise CertificateError("certificate digest does not match the instance")
    mode = cert.get("mode")
    if mode not in ("even", "odd"):
        raise CertificateError(f"unknown certificate mode {_SHOW.repr(mode)}")
    reasons = _scalar_reasons(cert, mode)
    if reasons:
        return False, reasons

    def replay(key, a, gamma, seed):
        fresh = ritz_norm_reweighted(a, gamma, tol=VERIFY_TOL, seed=seed + VERIFY_SEED_OFFSET)
        levels = cert.get("levels")
        rec = cert.get("even") if key == "even" else (
            levels[key - 1] if isinstance(levels, list) and key <= len(levels) else None)
        if not (isinstance(rec, dict) and all(name in rec for name in _NORM_KEYS)):
            return fresh, 0.0   # the comparison reports the record
        norm = _check_norm("even" if key == "even" else f"level {key}", rec, fresh)
        reasons.extend(norm)
        return (fresh, 0.0) if norm else (rec["lambda"], rec["residual"])

    try:
        if mode == "even":
            replayed = _even_certificate(inst, digest, cert["r"], caps, cert["tol"], cert["seed"],
                                         replay)
        else:
            replayed = _odd_certificate(inst, digest, cert["r"], _parse_frac(cert["eps"]),
                                        cert["eta"], caps, cert["tol"], cert["seed"],
                                        cert["relaxed_r_range"], replay)
    except (ValueError, CapacityError) as exc:
        return False, [f"the recorded parameters do not recompute: {exc}"]
    reasons += _differences("certificate", cert, replayed)
    return not reasons, reasons
