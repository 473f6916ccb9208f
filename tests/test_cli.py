import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kcert
from kcert import parse_hypergraph, parse_xor
from kcert.cli import main
from kcert.io import ParseError, serialize_hypergraph, serialize_xor

TRIANGLE_TEXT = "hyg 3 3 2\n1 2\n2 3\n1 3\n"
SINGLE_XOR_TEXT = "xor 2 1 2\n+1 1 2\n"


def test_parse_hypergraph_triangle():
    h = parse_hypergraph(TRIANGLE_TEXT)
    assert h.n == 3 and h.m == 3 and h.k == 2
    assert h.edges == ((0, 1), (1, 2), (0, 2))


def test_parse_xor_single():
    inst = parse_xor(SINGLE_XOR_TEXT)
    assert inst.signs == (1,) and inst.hypergraph.edges == ((0, 1),)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        parse_hypergraph("hyg 3 1 2\n1 1\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_hypergraph("hyg 3 1 2\n1 4\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_hypergraph("hyg 3 1 2\n1 2 3\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_hypergraph("hug 3 1 2\n1 2\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_xor("xor 3 1 2\n+2 1 2\n")


def test_roundtrip():
    h = parse_hypergraph(TRIANGLE_TEXT)
    assert serialize_hypergraph(h) == TRIANGLE_TEXT
    inst = parse_xor(SINGLE_XOR_TEXT)
    assert serialize_xor(inst) == SINGLE_XOR_TEXT
    assert parse_xor(serialize_xor(inst)) == inst


def test_cli_gen_deterministic(tmp_path):
    out1 = tmp_path / "a.xor"
    out2 = tmp_path / "b.xor"
    args = ["gen", "--type", "xor", "--n", "8", "--k", "3", "--m", "10", "--seed", "5"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    inst = parse_xor(out1.read_text())
    assert inst.m == 10


def test_cli_cover_oracle_triangle(tmp_path, capsys):
    f = tmp_path / "tri.hyg"
    f.write_text(TRIANGLE_TEXT)
    assert main(["cover", "oracle", str(f), "--cap", "5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "3" and out[1] == "0 1 2"


def test_cli_cover_verify(tmp_path, capsys):
    f = tmp_path / "tri.hyg"
    f.write_text(TRIANGLE_TEXT)
    assert main(["cover", "verify", str(f), "--indices", "0,1,2"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["cover", "verify", str(f), "--indices", "0,1"]) == 1


def test_cli_cover_verify_index_out_of_range(tmp_path, capsys):
    f = tmp_path / "cycle.hyg"
    f.write_text("hyg 12 12 2\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 12)) + "1 12\n")
    assert main(["cover", "verify", str(f), "--indices", "99"]) == 1
    assert capsys.readouterr().err == "error: edge index 99 out of range 0..11\n"


def test_import_loads_no_scipy():
    # SciPy loads on the first adjacency or norm, not with the package
    code = ("import sys, kcert, kcert.io, kcert.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(Path(kcert.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout == "[]\n"


def test_cli_cover_find(tmp_path, capsys):
    f = tmp_path / "tri.hyg"
    f.write_text(TRIANGLE_TEXT)
    assert main(["cover", "find", str(f), "--r", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "3"


def test_cli_refute_even_and_verify(tmp_path, capsys):
    inst_path = tmp_path / "one.xor"
    inst_path.write_text(SINGLE_XOR_TEXT)
    cert_path = tmp_path / "cert.json"
    rc = main(["refute", str(inst_path), "--r", "1", "--seed", "0", "--out", str(cert_path)])
    assert rc == 0
    cert = json.loads(cert_path.read_text())
    num, den = map(int, cert["certified_bound"].split("/"))
    assert abs(num / den - 1.0) < 1e-8
    assert main(["verify-cert", str(inst_path), str(cert_path)]) == 0

    tampered = dict(cert)
    tampered["even"] = dict(cert["even"])
    tampered["even"]["lambda_cert"] = cert["even"]["lambda_cert"] * 0.5
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(tampered, sort_keys=True))
    assert main(["verify-cert", str(inst_path), str(bad_path)]) == 2


@pytest.mark.parametrize("knob", [["--eps", "1/4"], ["--eta", "5"], ["--relax-r-range"]])
def test_cli_refute_even_rejects_odd_knobs(tmp_path, capsys, knob):
    inst_path = tmp_path / "one.xor"
    inst_path.write_text(SINGLE_XOR_TEXT)
    out_path = tmp_path / "cert.json"
    assert main(["refute", str(inst_path), "--r", "1", "--seed", "0", "--out", str(out_path)]
                + knob) == 1
    assert capsys.readouterr().err == \
        "error: --eps, --eta and --relax-r-range apply to odd k only\n"
    assert not out_path.exists()


def test_cli_verify_cert_takes_caps(tmp_path, capsys):
    # r = 2 on n = 9 vertices: the Kikuchi graph has C(9, 2) = 36 vertices
    inst_path = tmp_path / "even.xor"
    assert main(["gen", "--type", "xor", "--n", "9", "--k", "2", "--m", "40", "--multi",
                 "--seed", "3", "--out", str(inst_path)]) == 0
    cert_path = tmp_path / "cert.json"
    assert main(["refute", str(inst_path), "--r", "2", "--seed", "0", "--out", str(cert_path)]) == 0
    assert json.loads(cert_path.read_text())["even"]["vertices"] == 36
    capsys.readouterr()
    assert main(["verify-cert", str(inst_path), str(cert_path), "--max-vertices", "35"]) == 2
    assert "exceeds cap 35" in capsys.readouterr().err
    assert main(["verify-cert", str(inst_path), str(cert_path), "--max-vertices", "36"]) == 0


def test_cli_refute_odd_and_verify(tmp_path, capsys):
    inst_path = tmp_path / "odd.xor"
    assert main(["gen", "--type", "xor", "--n", "9", "--k", "3", "--m", "30", "--multi",
                 "--seed", "4", "--out", str(inst_path)]) == 0
    cert_path = tmp_path / "cert.json"
    assert main(["refute", str(inst_path), "--r", "2", "--seed", "7", "--eps", "1/3",
                 "--relax-r-range", "--out", str(cert_path)]) == 0
    cert = json.loads(cert_path.read_text())
    assert cert["relaxed_r_range"] is True
    assert any(rec["method"] == "spectral" for rec in cert["levels"])
    assert main(["verify-cert", str(inst_path), str(cert_path)]) == 0

    cert["levels"][0]["psi_bound"] = "0/1"
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(cert, sort_keys=True))
    capsys.readouterr()
    assert main(["verify-cert", str(inst_path), str(bad_path)]) == 2
    assert "mismatch: certificate['levels'][0]['psi_bound']" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("[]", "certificate is not a JSON object"),
    ("[" * 100_000 + "]" * 100_000, "certificate JSON is nested too deeply"),
], ids=["array", "deep"])
def test_cli_verify_cert_malformed_json(tmp_path, capsys, text, message):
    inst_path = tmp_path / "one.xor"
    inst_path.write_text(SINGLE_XOR_TEXT)
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(text + "\n")
    assert main(["verify-cert", str(inst_path), str(cert_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_refute_deterministic_bytes(tmp_path):
    inst_path = tmp_path / "i.xor"
    assert main(["gen", "--type", "xor", "--n", "9", "--k", "3", "--m", "20",
                 "--seed", "3", "--out", str(inst_path)]) == 0
    c1, c2 = tmp_path / "c1.json", tmp_path / "c2.json"
    args = ["refute", str(inst_path), "--r", "2", "--seed", "4", "--eps", "1/3",
            "--relax-r-range"]
    assert main(args + ["--out", str(c1)]) == 0
    assert main(args + ["--out", str(c2)]) == 0
    assert c1.read_bytes() == c2.read_bytes()


def test_cli_capacity_exit_code(tmp_path):
    inst_path = tmp_path / "big.xor"
    assert main(["gen", "--type", "xor", "--n", "40", "--k", "4", "--m", "30",
                 "--seed", "1", "--out", str(inst_path)]) == 0
    rc = main(["refute", str(inst_path), "--r", "4", "--seed", "0",
               "--max-vertices", "100"])
    assert rc == 3


def test_cli_kikuchi_stats_and_dump(tmp_path, capsys):
    f = tmp_path / "tri.hyg"
    f.write_text(TRIANGLE_TEXT)
    assert main(["kikuchi", "stats", str(f), "--r", "1"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["alpha"] == 1 and stats["vertices"] == 3
    assert main(["kikuchi", "dump", str(f), "--r", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "kikuchi-even 3 1 3"

    odd = tmp_path / "odd.hyg"
    odd.write_text("hyg 5 2 3\n1 2 3\n1 4 5\n")
    assert main(["kikuchi", "dump", str(odd), "--r", "2", "--odd", "--level", "1",
                 "--relax-r-range"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "kikuchi-odd 5 2 1 1"
    assert len(out) == 5


def test_cli_decompose(tmp_path, capsys):
    f = tmp_path / "h.hyg"
    f.write_text("hyg 16 2 3\n1 2 3\n1 2 4\n")
    assert main(["decompose", str(f), "--mode", "cover", "--r", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is True
    assert payload["levels"]["2"][0]["center"] == [0, 1]


def test_cli_audit(tmp_path, capsys):
    f = tmp_path / "tri.hyg"
    f.write_text(TRIANGLE_TEXT)
    assert main(["audit", "girth", str(f)]) == 0
    assert capsys.readouterr().out.strip() == "3"
    assert main(["audit", "moore", str(f)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["girth"] == 3

    c8 = tmp_path / "c8.hyg"
    c8.write_text("hyg 8 8 2\n" + "\n".join(
        " ".join(map(str, sorted((i + 1, ((i + 1) % 8) + 1)))) for i in range(8)) + "\n")
    assert main(["audit", "trace", str(c8), "--r", "1", "--ell", "4"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out
