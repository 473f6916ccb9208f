import copy
import random
from fractions import Fraction

import pytest

from kcert import (Hypergraph, XorInstance, brute_force_max_xor, gen_random, refute_even,
                   refute_odd, verify_certificate)
from kcert.refuter import (CertificateError, certificate_from_json, certificate_to_json,
                           default_eta, instance_digest)


def _bound(cert) -> Fraction:
    num, den = cert["certified_bound"].split("/")
    return Fraction(int(num), int(den))


SINGLE = XorInstance(hypergraph=Hypergraph(n=2, k=2, edges=((0, 1),)), signs=(1,))


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


def test_odd_default_eta():
    assert default_eta(3, Fraction(1, 2)) == 256
    assert default_eta(3, Fraction(2, 5)) == 400


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


def test_verify_rejects_lowered_lambda():
    inst = gen_random(9, 2, 40, seed=3, mode="xor-multi")
    cert = refute_even(inst, 1, seed=11)
    tampered = copy.deepcopy(cert)
    tampered["even"]["lambda_cert"] *= 0.9
    ok, reasons = verify_certificate(inst, tampered)
    assert not ok and reasons


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


def _rejected(inst, cert, key, value, needle):
    tampered = copy.deepcopy(cert)
    tampered[key] = value
    ok, reasons = verify_certificate(inst, tampered)
    assert not ok and any(needle in reason for reason in reasons), reasons


def test_verify_rejects_malformed_eps():
    inst, cert = _odd_fixture()
    _rejected(inst, cert, "eps", "x", "eps")


def test_verify_rejects_non_integer_seed():
    inst, cert = _odd_fixture()
    _rejected(inst, cert, "seed", "abc", "seed")
    _rejected(inst, cert, "seed", True, "seed")


def test_verify_rejects_non_integer_eta():
    inst, cert = _odd_fixture()
    _rejected(inst, cert, "eta", "x", "eta")


def test_verify_rejects_fractional_r():
    # r = 2.5 used to be truncated to the recorded graph's r = 2 and accepted
    inst, cert = _odd_fixture()
    assert cert["r"] == 2 and verify_certificate(inst, cert)[0]
    _rejected(inst, cert, "r", 2.5, "r must be an integer")


def test_verify_rejects_out_of_domain_fields():
    inst, cert = _odd_fixture()
    _rejected(inst, cert, "r", 0, "do not recompute")
    _rejected(inst, cert, "eps", "3/1", "do not recompute")
    _rejected(inst, cert, "certified_bound", "1/0", "certified_bound")
    even_inst = gen_random(9, 2, 40, seed=3, mode="xor-multi")
    _rejected(even_inst, refute_even(even_inst, 1), "certified_bound", None, "certified_bound")
