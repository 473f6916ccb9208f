import copy
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kcert import (Hypergraph, XorInstance, brute_force_max_xor, gen_random, refute_even,
                   refute_odd, verify_certificate)
from kcert import refuter
from kcert.io import serialize_xor
from kcert.kikuchi_even import signed_even_kikuchi
from kcert.refuter import (CertificateError, certificate_from_json, certificate_to_json,
                           default_eta, instance_digest)


def _bound(cert) -> Fraction:
    num, den = cert["certified_bound"].split("/")
    return Fraction(int(num), int(den))


SINGLE = XorInstance(hypergraph=Hypergraph(n=2, k=2, edges=((0, 1),)), signs=(1,))


@given(st.fractions(0, 10**12, max_denominator=10**12))
@example(Fraction(0))
@settings(max_examples=300, deadline=None)
def test_sqrt_upper_is_a_float_at_most_one_ulp_above_the_float_root(x):
    f = refuter._sqrt_upper(x)
    assert Fraction(float(f)) == f and f * f >= x
    assert f <= math.nextafter(math.sqrt(x.numerator / x.denominator), math.inf)


def test_even_single_clause_tight():
    cert = refute_even(SINGLE, 1)
    assert cert["even"]["vertices"] == 2
    assert cert["even"]["d"] == "1/1"
    assert cert["even"]["tr_gamma"] == "4/1"
    assert abs(cert["even"]["lambda"] - 0.5) < 1e-9
    b = _bound(cert)
    assert b >= 1 and abs(float(b) - 1.0) < 1e-8
    assert b >= brute_force_max_xor(SINGLE)


def test_even_bound_is_twice_lambda_cert():
    inst = gen_random(8, 2, 30, seed=2, mode="xor-multi")
    cert = refute_even(inst, 1)
    assert _bound(cert) == 2 * Fraction(cert["even"]["lambda_cert"])


def test_even_contradictory_pair_sound():
    inst = XorInstance(hypergraph=Hypergraph(n=2, k=2, edges=((0, 1), (0, 1))),
                       signs=(1, -1))
    cert = refute_even(inst, 1)
    b = _bound(cert)
    assert b >= 0 == brute_force_max_xor(inst)
    assert float(b) < 1e-6      # the signed forms cancel


def test_even_oracle_comparison_random():
    inst = gen_random(10, 4, 120, seed=2, mode="xor-multi")
    cert = refute_even(inst, 2)
    assert _bound(cert) >= brute_force_max_xor(inst)


def test_even_rejects_bad_inputs():
    odd = gen_random(7, 3, 5, seed=0, mode="xor")
    with pytest.raises(ValueError):
        refute_even(odd, 2)
    empty = XorInstance(hypergraph=Hypergraph(n=4, k=2, edges=()), signs=())
    with pytest.raises(ValueError):
        refute_even(empty, 1)


def test_odd_r_range_enforced():
    inst = gen_random(12, 3, 10, seed=1, mode="xor")
    with pytest.raises(ValueError):
        refute_odd(inst, 6, Fraction(1, 4))      # violates r <= n/8
    cert = refute_odd(inst, 2, Fraction(1, 4), relax_r_range=True)
    assert _bound(cert) >= brute_force_max_xor(inst)


def test_odd_singleton_groups_first_term_only():
    # pairwise-disjoint clauses: every group is a singleton, cross terms vanish
    h = Hypergraph(n=9, k=3, edges=((0, 1, 2), (3, 4, 5), (6, 7, 8)))
    inst = XorInstance(hypergraph=h, signs=(1, 1, -1))
    cert = refute_odd(inst, 2, Fraction(1, 4), relax_r_range=True)
    rec = cert["levels"][0]
    assert rec["t"] == 1 and rec["pairs"] == 0 and rec["method"] == "first-term"
    k, p, m_t, m = 3, rec["p"], rec["m_t"], 3
    first = Fraction(k * k * p * m_t, m * m)
    assert Fraction(*map(int, rec["first_term"].split("/"))) == first
    assert _bound(cert) >= brute_force_max_xor(inst)
    # three satisfiable disjoint clauses: the first-term bound is exactly tight
    assert _bound(cert) == 1 == brute_force_max_xor(inst)


def test_odd_desk_scale_override_instance():
    inst = gen_random(10, 3, 60, seed=9, mode="xor-multi")
    cert = refute_odd(inst, 2, Fraction(1, 4), relax_r_range=True, seed=9)
    assert _bound(cert) >= brute_force_max_xor(inst)


def test_odd_level_falls_back_to_trivial_past_half_deleted():
    # at eta 6 deletion drops every edge of level 1 (rho 1 > 1/2), so the
    # level takes the trivial bound k m_t / m and runs no spectral step
    inst = gen_random(9, 3, 30, seed=4, mode="xor-multi")
    cert = refute_odd(inst, 2, Fraction(1, 3), eta=6, relax_r_range=True, seed=7)
    rec = cert["levels"][0]
    assert (rec["t"], rec["surviving_edges"], rec["kappa"], rec["rho"], rec["psi_bound"],
            rec["method"], rec["lambda"]) == (1, 0, 0, "1/1", "3/1", "trivial", None)
    ok, reasons = verify_certificate(inst, cert)
    assert ok, reasons
    assert _bound(cert) == 1 >= brute_force_max_xor(inst) == Fraction(2, 5)


def test_even_refuses_a_level_with_no_edges():
    # r - k/2 = 2 exceeds the n - k = 1 vertices outside a clause
    inst = gen_random(5, 4, 3, seed=0, mode="xor")
    with pytest.raises(ValueError, match=r"has no edges \(alpha = 0\); increase r$"):
        refute_even(inst, 4)


def test_odd_default_eta():
    assert default_eta(3, Fraction(1, 2)) == 256
    assert default_eta(3, Fraction(2, 5)) == 400


@given(st.integers(1, 12), st.integers(1, 10**9), st.integers(1, 10**9))
@settings(max_examples=200, deadline=None)
def test_default_eta_is_the_least_integer_at_least_4k_over_eps_squared(k, num, den):
    eps = Fraction(num, den)
    x = Fraction(4**k) / (eps * eps)
    eta = default_eta(k, eps)
    assert eta >= 1 and eta >= x and (eta == 1 or eta - 1 < x)


@pytest.mark.parametrize("eta", [math.inf, 2.5, True])
def test_odd_rejects_eta_the_verifier_rejects(eta):
    # each of these used to yield a certificate that verify_certificate refuses
    inst = gen_random(9, 3, 30, seed=4, mode="xor-multi")
    with pytest.raises(ValueError, match="eta must be an integer >= 1 or None"):
        refute_odd(inst, 2, Fraction(1, 3), eta=eta, relax_r_range=True, seed=7)


def test_odd_duplication_monotonicity():
    base = gen_random(8, 3, 12, seed=6, mode="xor")
    doubled = XorInstance(
        hypergraph=Hypergraph(n=8, k=3, edges=base.hypergraph.edges * 2),
        signs=base.signs * 2)
    assert brute_force_max_xor(doubled) == brute_force_max_xor(base)
    cert = refute_odd(doubled, 2, Fraction(1, 4), relax_r_range=True)
    assert _bound(cert) >= brute_force_max_xor(doubled)


def test_odd_soundness_sweep_small():
    rng = random.Random(0)
    for trial in range(12):
        k = rng.choice([3, 5])
        n = rng.randrange(k + 2, 11)
        m = rng.randrange(4, 40)
        inst = gen_random(n, k, m, seed=trial + 500, mode="xor-multi")
        r = rng.choice([1, 2, 3])
        cert = refute_odd(inst, r, Fraction(2, 5), relax_r_range=True, seed=trial)
        assert _bound(cert) >= brute_force_max_xor(inst), (trial, k, n, m, r)


def test_verify_fresh_certificates():
    inst = gen_random(9, 2, 40, seed=3, mode="xor-multi")
    cert = refute_even(inst, 1, seed=11)
    ok, reasons = verify_certificate(inst, cert)
    assert ok, reasons

    inst3 = gen_random(9, 3, 30, seed=4, mode="xor-multi")
    cert3 = refute_odd(inst3, 2, Fraction(1, 3), relax_r_range=True, seed=7)
    ok3, reasons3 = verify_certificate(inst3, cert3)
    assert ok3, reasons3


def test_verify_accepts_int_tol_and_truthy_relax():
    # the prover records tol as a float and relaxed_r_range as a bool, the types
    # the verifier demands
    inst = gen_random(9, 2, 40, seed=3, mode="xor-multi")
    cert = refute_even(inst, 1, tol=1)
    assert cert["tol"] == 1.0 and verify_certificate(inst, cert) == (True, [])
    inst3 = gen_random(9, 3, 30, seed=4, mode="xor-multi")
    cert3 = refute_odd(inst3, 2, Fraction(1, 3), relax_r_range=1, seed=7)
    assert cert3["relaxed_r_range"] is True and verify_certificate(inst3, cert3) == (True, [])


def test_verify_rejects_lowered_lambda():
    inst = gen_random(9, 2, 40, seed=3, mode="xor-multi")
    cert = refute_even(inst, 1, seed=11)
    tampered = copy.deepcopy(cert)
    tampered["even"]["lambda_cert"] *= 0.9
    ok, reasons = verify_certificate(inst, tampered)
    assert not ok and reasons


def _odd_workload_like(seed):
    """A semirandom 3-XOR instance shaped like the odd benchmark workload: 200
    random clauses on 10 vertices plus 55 on the pair center {0, 1}, so both
    levels are spectral at r = 2."""
    rng = random.Random(seed)
    base = gen_random(10, 3, 200, seed=seed, mode="xor-multi")
    planted = tuple((0, 1, rng.randrange(2, 10)) for _ in range(55))
    return XorInstance(hypergraph=Hypergraph(n=10, k=3, edges=base.hypergraph.edges + planted),
                       signs=base.signs + tuple(rng.choice((1, -1)) for _ in planted))


_SHARP = [
    (lambda: gen_random(33, 4, 250, seed=0, mode="xor-multi"), lambda inst: refute_even(inst, 3)),
    (lambda: _odd_workload_like(0),
     lambda inst: refute_odd(inst, 2, Fraction(49, 100), relax_r_range=True)),
]


def _prove_with(monkeypatch, prove, inst, norm):
    """The certificate the prover writes when its norm step is norm(lambda,
    residual) -> (lambda, residual) applied to its own result: every field is
    consistent with the norms it records, right or wrong."""
    own = refuter.spectral_norm_reweighted
    with monkeypatch.context() as patch:
        patch.setattr(refuter, "spectral_norm_reweighted",
                      lambda a, gamma, tol, seed: norm(*own(a, gamma, tol=tol, seed=seed)))
        return prove(inst)


@pytest.mark.parametrize("instance, prove", _SHARP, ids=["even-k4-like", "odd-workload-like"])
def test_verify_rejects_a_norm_ten_allowances_low(monkeypatch, instance, prove):
    # lambda_cert = lambda + residual stays consistent and every exact field
    # follows it, so the only fault is a norm below the verifier's own, by ten
    # times the allowance on the check's scale max(1, lambda)
    inst = instance()
    lowered = _prove_with(monkeypatch, prove, inst, lambda lam, resid: (
        lam - 10 * refuter.NORM_ALLOWANCE * max(1.0, lam), resid))
    assert verify_certificate(inst, prove(inst)) == (True, [])
    ok, reasons = verify_certificate(inst, lowered)
    records = [lowered["even"]] if "even" in lowered else [
        rec for rec in lowered["levels"] if rec["method"] == "spectral"]
    assert records and all(rec["lambda_cert"] == rec["lambda"] + rec["residual"]
                           for rec in records)
    # the replay carries a rejected norm on as its own, so the fields that
    # follow it are reported too
    assert not ok and sum("below the recomputed norm" in reason for reason in reasons) == len(
        records)


def test_verify_accepts_the_exact_norm_with_no_residual(monkeypatch):
    # lambda is the dense norm (on 120 Kikuchi vertices) and residual is 0: the
    # verifier's pass must not read above the true norm by the allowance
    inst = gen_random(10, 4, 30, seed=6, mode="xor-multi")

    def dense(lam, resid):
        return exact[0], 0.0

    g = signed_even_kikuchi(inst, 3)
    isq = 1 / np.sqrt(g.gamma_floats())
    m = isq[:, None] * g.adjacency(signs=list(inst.signs)).toarray() * isq
    exact = [float(np.max(np.abs(np.linalg.eigvalsh(m))))]
    assert g.num_vertices == 120
    cert = _prove_with(monkeypatch, lambda x: refute_even(x, 3), inst, dense)
    assert (cert["even"]["lambda"], cert["even"]["residual"]) == (exact[0], 0.0)
    assert verify_certificate(inst, cert) == (True, [])


@pytest.mark.parametrize("instance, prove", [
    ("gen_random(9, 2, 40, seed=3, mode='xor-multi')", "refute_even(inst, 1)"),
    ("gen_random(9, 3, 30, seed=4, mode='xor-multi')",
     "refute_odd(inst, 2, Fraction(1, 3), relax_r_range=True, seed=7)"),
], ids=["even", "odd"])
def test_verify_runs_no_arpack(instance, prove):
    # neither norm imports scipy.sparse.linalg (ARPACK and its 35 modules),
    # so neither a refute nor a verify pays for them in time or memory
    code = ("import sys; from fractions import Fraction; "
            "from kcert import gen_random, refute_even, refute_odd, verify_certificate; "
            f"inst = {instance}; cert = {prove}; "
            "steps = [cert['even']] if 'even' in cert else cert['levels']; "
            "print(verify_certificate(inst, cert) == (True, []), "
            "sum(rec['lambda'] is not None for rec in steps)); "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse.linalg')))")
    env = {**os.environ, "PYTHONPATH": str(Path(refuter.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout.splitlines()
    verified, spectral_steps = out[0].split()
    assert verified == "True" and int(spectral_steps) > 0
    assert out[1] == "[]"


def test_verify_rejects_tampered_rho():
    inst3 = gen_random(9, 3, 60, seed=8, mode="xor-multi")
    cert3 = refute_odd(inst3, 2, Fraction(2, 5), relax_r_range=True, seed=7)
    spectral_levels = [rec for rec in cert3["levels"] if rec["method"] == "spectral"]
    assert spectral_levels, "fixture must exercise the spectral route"
    tampered = copy.deepcopy(cert3)
    for rec in tampered["levels"]:
        if rec["method"] == "spectral":
            num, den = rec["rho"].split("/")
            rec["rho"] = f"{int(num) + 1}/{int(den) + 2}"
            break
    ok, reasons = verify_certificate(inst3, tampered)
    assert not ok


def test_verify_digest_mismatch_errors():
    inst = gen_random(9, 2, 40, seed=3, mode="xor-multi")
    cert = refute_even(inst, 1)
    other = gen_random(9, 2, 40, seed=4, mode="xor-multi")
    with pytest.raises(CertificateError):
        verify_certificate(other, cert)


@pytest.mark.parametrize("mode", ["even", "odd"])
def test_the_instance_is_serialized_once_per_refute_and_per_verify(monkeypatch, mode):
    inst = gen_random(9, 3 if mode == "odd" else 2, 30, seed=4, mode="xor-multi")
    calls = []

    def counted(x):
        calls.append(x)
        return serialize_xor(x)

    monkeypatch.setattr(refuter, "serialize_xor", counted)
    cert = (refute_odd(inst, 2, Fraction(1, 3), relax_r_range=True) if mode == "odd"
            else refute_even(inst, 1))
    assert len(calls) == 1
    assert verify_certificate(inst, cert) == (True, [])
    assert len(calls) == 2
    with pytest.raises(CertificateError):
        verify_certificate(inst, {**cert, "digest": "0" * 64})
    assert len(calls) == 3


def test_certificate_json_roundtrip_and_canonical():
    inst = gen_random(8, 2, 20, seed=5, mode="xor-multi")
    cert = refute_even(inst, 1, seed=2)
    text = certificate_to_json(cert)
    assert text.endswith("\n")
    again = certificate_to_json(certificate_from_json(text))
    assert text == again
    assert instance_digest(inst) == cert["digest"]


def test_even_duplication_monotonicity():
    base = gen_random(8, 4, 15, seed=13, mode="xor")
    doubled = XorInstance(
        hypergraph=Hypergraph(n=8, k=4, edges=base.hypergraph.edges * 2),
        signs=base.signs * 2)
    assert brute_force_max_xor(doubled) == brute_force_max_xor(base)
    cert = refute_even(doubled, 2)
    assert _bound(cert) >= brute_force_max_xor(doubled)


def test_odd_dense_instance_certifies_nontrivial_bound():
    # dense enough that both levels run the spectral route and beat trivial
    inst = gen_random(16, 3, 1500, seed=3, mode="xor-multi")
    cert = refute_odd(inst, 2, Fraction(49, 100), seed=0, relax_r_range=True)
    assert all(rec["method"] in ("spectral", "empty") for rec in cert["levels"])
    bound = _bound(cert)
    assert bound <= Fraction(1, 2)
    assert bound >= brute_force_max_xor(inst)


def test_verify_rejects_dropped_odd_levels():
    inst = gen_random(16, 3, 1500, seed=3, mode="xor-multi")
    cert = refute_odd(inst, 2, Fraction(1, 4), relax_r_range=True)
    assert verify_certificate(inst, cert)[0]
    tampered = copy.deepcopy(cert)
    tampered["levels"] = []
    tampered["certified_bound"] = "0/1"
    ok, reasons = verify_certificate(inst, tampered)
    assert not ok and any("levels" in reason for reason in reasons)


def test_verify_rejects_residual_widening_its_own_band():
    inst = gen_random(20, 2, 60, seed=5, mode="xor-multi")
    cert = refute_even(inst, 1)
    assert brute_force_max_xor(inst) == Fraction(17, 30)
    tampered = copy.deepcopy(cert)
    rec = tampered["even"]
    rec["residual"] = rec["lambda_cert"]
    rec["lambda"] = -rec["residual"]
    rec["lambda_cert"] = 0.0
    tampered["certified_bound"] = "0/1"
    ok, reasons = verify_certificate(inst, tampered)
    assert not ok and reasons


def test_verify_ignores_recorded_tolerance():
    # a large recorded tol must neither loosen the recomputation nor the check
    inst = gen_random(20, 2, 60, seed=5, mode="xor-multi")
    tampered = refute_even(inst, 1)
    rec = tampered["even"]
    rec["lambda"] = rec["lambda_cert"] = rec["lambda_cert"] / 2
    rec["residual"] = 0.0
    tampered["tol"] = 0.9
    bound = 2 * Fraction(rec["lambda_cert"])
    tampered["certified_bound"] = f"{bound.numerator}/{bound.denominator}"
    ok, reasons = verify_certificate(inst, tampered)
    assert not ok and any("below the recomputed norm" in reason for reason in reasons)


@pytest.mark.parametrize("value", [float("nan"), -0.25, None])
def test_verify_rejects_bad_norm_floats(value):
    inst = gen_random(9, 2, 40, seed=3, mode="xor-multi")
    cert = refute_even(inst, 1, seed=11)
    for key in ("lambda", "residual"):
        tampered = copy.deepcopy(cert)
        tampered["even"][key] = value
        ok, reasons = verify_certificate(inst, tampered)
        assert not ok and reasons


def test_verify_rejects_missing_keys():
    inst = gen_random(9, 2, 40, seed=3, mode="xor-multi")
    cert = refute_even(inst, 1, seed=11)
    for path in (("even", "residual"), ("certified_bound",), ("even",)):
        tampered = copy.deepcopy(cert)
        record = tampered
        for key in path[:-1]:
            record = record[key]
        del record[path[-1]]
        ok, reasons = verify_certificate(inst, tampered)
        assert not ok and any(repr(path[-1]) in reason for reason in reasons)

    inst3 = gen_random(9, 3, 30, seed=4, mode="xor-multi")
    cert3 = refute_odd(inst3, 2, Fraction(1, 3), relax_r_range=True, seed=7)
    tampered = copy.deepcopy(cert3)
    del tampered["levels"][0]["lambda_cert"]
    ok, reasons = verify_certificate(inst3, tampered)
    assert not ok and any("'lambda_cert'" in reason for reason in reasons)


def _odd_fixture():
    inst = gen_random(9, 3, 30, seed=4, mode="xor-multi")
    return inst, refute_odd(inst, 2, Fraction(1, 3), relax_r_range=True, seed=7)


def _even_fixture():
    inst = gen_random(9, 2, 40, seed=3, mode="xor-multi")
    return inst, refute_even(inst, 1, seed=11)


_DELETED = object()


def _edited(cert, path, value):
    """A copy of cert with the field at path (a tuple of keys) set to value, or
    deleted when value is _DELETED."""
    tampered = copy.deepcopy(cert)
    *parents, last = path
    record = tampered
    for key in parents:
        record = record[key]
    if value is _DELETED:
        del record[last]
    else:
        record[last] = value
    return tampered


def _rejected(inst, cert, key, value, needle):
    path = key if isinstance(key, tuple) else (key,)
    ok, reasons = verify_certificate(inst, _edited(cert, path, value))
    assert not ok and any(needle in reason for reason in reasons), reasons


def test_verify_rejects_malformed_eps():
    inst, cert = _odd_fixture()
    _rejected(inst, cert, "eps", "x", "eps")


def test_verify_rejects_non_integer_seed():
    inst, cert = _odd_fixture()
    _rejected(inst, cert, "seed", "abc", "seed")
    _rejected(inst, cert, "seed", True, "seed")


def test_seed_must_be_non_negative():
    # a seed edited to -1 used to verify, though the prover could never write it
    inst, cert = _even_fixture()
    _rejected(inst, cert, "seed", -1, "certificate seed must be an integer >= 0, got -1")
    odd_inst, odd_cert = _odd_fixture()
    _rejected(odd_inst, odd_cert, "seed", -1, "certificate seed must be an integer >= 0, got -1")
    with pytest.raises(ValueError, match="^seed must be an integer >= 0, got -1$"):
        refute_even(inst, 1, seed=-1)
    with pytest.raises(ValueError, match="^seed must be an integer >= 0, got -1$"):
        refute_odd(odd_inst, 2, Fraction(1, 3), relax_r_range=True, seed=-1)


def test_verify_rejects_non_integer_eta():
    inst, cert = _odd_fixture()
    _rejected(inst, cert, "eta", "x", "eta")


def test_verify_rejects_fractional_r():
    # r = 2.5 used to be truncated to the recorded graph's r = 2 and accepted
    inst, cert = _odd_fixture()
    assert cert["r"] == 2 and verify_certificate(inst, cert)[0]
    _rejected(inst, cert, "r", 2.5, "r must be an integer")


@pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0])
def test_tol_must_be_finite_and_non_negative(tol):
    # inf was written as the non-JSON token Infinity and verified, -1 was
    # recorded and verified, and nan ended in an ARPACK error
    needle = "tol must be a float, finite and >= 0"
    even_inst, even_cert = _even_fixture()
    odd_inst, odd_cert = _odd_fixture()
    with pytest.raises(ValueError, match=needle):
        refute_even(even_inst, 1, seed=11, tol=tol)
    with pytest.raises(ValueError, match=needle):
        refute_odd(odd_inst, 2, Fraction(1, 3), relax_r_range=True, seed=7, tol=tol)
    _rejected(even_inst, even_cert, "tol", tol, needle)
    _rejected(odd_inst, odd_cert, "tol", tol, needle)


@pytest.mark.parametrize("prove", [
    lambda r, seed: refute_even(gen_random(9, 2, 40, seed=3, mode="xor-multi"), r, seed=seed),
    lambda r, seed: refute_odd(gen_random(9, 3, 30, seed=4, mode="xor-multi"), r,
                               Fraction(1, 3), relax_r_range=True, seed=seed),
], ids=["even", "odd"])
@pytest.mark.parametrize("key, value", [("seed", True), ("seed", np.int64(3)),
                                        ("r", True), ("r", np.int64(2))],
                         ids=["seed-bool", "seed-int64", "r-bool", "r-int64"])
def test_prover_rejects_an_r_or_seed_the_verifier_rejects(prove, key, value):
    # these were recorded as given: the verifier then rejected the certificate,
    # and certificate_to_json could not write a numpy integer
    with pytest.raises(ValueError, match=f"^{key} must be an integer, got "):
        prove(**{"r": 2, "seed": 0, key: value})


def test_certificate_json_refuses_non_finite_floats():
    _, cert = _even_fixture()
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            certificate_to_json({**cert, "tol": value})


def test_verify_rejects_out_of_domain_fields():
    inst, cert = _odd_fixture()
    _rejected(inst, cert, "r", 0, "do not recompute")
    _rejected(inst, cert, "eps", "3/1", "do not recompute")
    _rejected(inst, cert, "certified_bound", "1/0", "certified_bound")
    even_inst = gen_random(9, 2, 40, seed=3, mode="xor-multi")
    _rejected(even_inst, refute_even(even_inst, 1), "certified_bound", None, "certified_bound")


@pytest.mark.parametrize("fixture, key, value, needle", [
    (_even_fixture, "format", "garbage", "['format']"),
    (_even_fixture, "n", 999, "['n']"),
    (_even_fixture, "k", 7, "['k']"),
    (_even_fixture, "m", 1, "['m']"),
    (_even_fixture, "eps", "1/3", "['eps']"),
    (_even_fixture, "eta", 256, "['eta']"),
    (_even_fixture, "extra", 1, "['extra'] is unexpected"),
    (_even_fixture, "tol", "x", "tol must be a float"),
    (_odd_fixture, "format", "garbage", "['format']"),
    (_odd_fixture, "k", 7, "['k']"),
    (_odd_fixture, "extra", 1, "['extra'] is unexpected"),
    (_odd_fixture, ("levels", 1, "lambda"), 123.0, "['levels'][1]['lambda']"),
    (_odd_fixture, ("levels", 1, "fhat_bound"), "5/1", "['levels'][1]['fhat_bound']"),
    (_odd_fixture, "relaxed_r_range", "yes", "relaxed_r_range must be a bool"),
    (_odd_fixture, "tol", "x", "tol must be a float"),
])
def test_verify_rejects_unlisted_fields(fixture, key, value, needle):
    inst, cert = fixture()
    if isinstance(key, tuple):
        assert cert["levels"][1]["method"] == "empty"
    _rejected(inst, cert, key, value, needle)


def _single_edits(record, path=()):
    """(path, value) for every one-leaf edit below record: each leaf takes another
    value of its type and a value of another type, and each key is deleted."""
    items = record.items() if isinstance(record, dict) else enumerate(record)
    for key, value in items:
        here = path + (key,)
        if isinstance(record, dict):
            yield here, _DELETED
        if isinstance(value, (dict, list)):
            yield from _single_edits(value, here)
            continue
        if isinstance(value, bool):
            yield here, not value
        elif isinstance(value, (int, float)):
            yield here, value * 2 + 1
        elif isinstance(value, str):
            yield here, value + "0"
        yield here, "0/1" if value is None else None


@pytest.mark.parametrize("fixture, replayed", [
    (_even_fixture, {"r", "seed", "tol"}),
    (_odd_fixture, {"r", "seed", "tol", "eps", "eta", "relaxed_r_range"}),
])
def test_verify_rejects_every_single_edit(fixture, replayed):
    # every field but the parameters the verifier replays from is pinned
    inst, cert = fixture()
    assert verify_certificate(inst, cert) == (True, [])
    edits = [(path, value) for path, value in _single_edits(cert) if path[0] not in replayed]
    assert len(edits) > 40
    for path, value in edits:
        tampered = _edited(cert, path, value)
        if path[0] in ("digest", "mode"):
            with pytest.raises(CertificateError):
                verify_certificate(inst, tampered)
        else:
            ok, reasons = verify_certificate(inst, tampered)
            assert not ok and reasons, (path, value)


def _nested(depth):
    value = []
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize("key, value, needle", [
    ("levels", 5, "['levels']"),
    ("levels", {"0": {}}, "['levels']"),
    ("levels", [1, 2], "['levels'][0]"),
    ("levels", [None, None], "['levels'][1]"),
    (("levels", 0, "t"), [1], "['levels'][0]['t']"),
    (("levels", 0, "t"), {"t": 1}, "['levels'][0]['t']"),
    (("levels", 0, "lambda"), 10**400, "level 1"),
    (("levels", 0, "vertices"), _nested(10_000), "['levels'][0]['vertices']"),
    ("n", _nested(10_000), "['n']"),
], ids=["levels-int", "levels-object", "records-int", "records-null", "t-list", "t-object",
        "lambda-huge-int", "vertices-deep", "n-deep"])
def test_verify_rejects_malformed_records(key, value, needle):
    # never an exception: non-list levels, non-object records, unhashable or
    # huge values, nesting deeper than repr can print
    inst, cert = _odd_fixture()
    _rejected(inst, cert, key, value, needle)


def test_verify_rejects_spectral_bound_past_trivial():
    # a huge but finite lambda_cert: the level falls back to the trivial bound
    # instead of overflowing the float square root
    inst, cert = _odd_fixture()
    tampered = copy.deepcopy(cert)
    rec = tampered["levels"][0]
    assert rec["method"] == "spectral"
    rec["lambda"] = rec["lambda_cert"] = 1.5e308
    rec["residual"] = 0.0
    ok, reasons = verify_certificate(inst, tampered)
    assert not ok and any("['psi_bound']" in reason for reason in reasons), reasons


def test_verify_non_object_certificate_errors():
    inst, _ = _even_fixture()
    for cert in ([], "cert", None):
        with pytest.raises(CertificateError, match="not a JSON object"):
            verify_certificate(inst, cert)
