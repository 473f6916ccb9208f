import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import kcert
from kcert import cli, parse_hypergraph, parse_xor
from kcert.cli import main
from kcert.io import ParseError, serialize_hypergraph, serialize_xor

README = Path(__file__).resolve().parents[1] / "README.md"
TRIANGLE_TEXT = "hyg 3 3 2\n1 2\n2 3\n1 3\n"
C8_TEXT = "hyg 8 8 2\n" + "\n".join(
    " ".join(map(str, sorted((i + 1, ((i + 1) % 8) + 1)))) for i in range(8)) + "\n"
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
    with pytest.raises(ParseError, match="^line 1: header fields must be integers"):
        parse_hypergraph("hyg 4 x 2\n")
    with pytest.raises(ParseError, match="^line 1: header values out of range: n=4, m=2, k=1$"):
        parse_hypergraph("hyg 4 2 1\n")
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


def test_cli_cover_verify_rejects_a_repeated_index(tmp_path, capsys):
    # clauses 0 and 1 are equal, so {0, 1} is a cover; read as uses, 0,1,0
    # xors to clause 1 alone, which is none
    f = tmp_path / "twice.hyg"
    f.write_text("hyg 3 2 2\n1 2\n1 2\n")
    assert main(["cover", "verify", str(f), "--indices", "0,1"]) == 0
    assert capsys.readouterr().out == "true\n"
    assert main(["cover", "verify", str(f), "--indices", "0,1,0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --indices repeats clause index 0\n"


def test_cli_cover_verify_names_the_option_of_a_malformed_index(tmp_path, capsys):
    f = tmp_path / "twice.hyg"
    f.write_text("hyg 3 2 2\n1 2\n1 2\n")
    assert main(["cover", "verify", str(f), "--indices", "0,x"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --indices takes comma-separated clause indices\n"


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


def test_cover_find_loads_no_scipy(tmp_path):
    # the closed-walk search builds its neighbour lists with numpy alone
    f = tmp_path / "tri.hyg"
    f.write_text(TRIANGLE_TEXT)
    code = ("import sys; from kcert.cli import main; "
            f"main(['cover', 'find', {str(f)!r}, '--r', '1']); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(Path(kcert.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.splitlines() == ["3", "0 1 2", "[]"]


def test_cli_cover_find(tmp_path, capsys):
    f = tmp_path / "tri.hyg"
    f.write_text(TRIANGLE_TEXT)
    assert main(["cover", "find", str(f), "--r", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "3"


@pytest.mark.parametrize("action", [["oracle"], ["find", "--r", "1"]])
def test_cli_cover_rejects_a_negative_cap(tmp_path, capsys, action):
    # a negative cap used to print "none" and exit 0, as if it were a search
    f = tmp_path / "tri.hyg"
    f.write_text(TRIANGLE_TEXT)
    assert main(["cover", *action, str(f), "--cap", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --cap must be an integer >= 0, got -1\n"
    assert main(["cover", *action, str(f), "--cap", "0"]) == 0
    assert capsys.readouterr().out == "none\n"


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


def test_cli_refute_odd_requires_eps(tmp_path, capsys):
    inst_path = tmp_path / "odd.xor"
    inst_path.write_text("xor 5 2 3\n+1 1 2 3\n-1 1 4 5\n")
    out_path = tmp_path / "cert.json"
    assert main(["refute", str(inst_path), "--r", "2", "--seed", "0", "--out", str(out_path)]) == 1
    assert capsys.readouterr().err == "error: odd k requires --eps\n"
    assert not out_path.exists()


@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
def test_cli_refute_rejects_bad_tol(tmp_path, capsys, tol):
    inst_path = tmp_path / "one.xor"
    inst_path.write_text(SINGLE_XOR_TEXT)
    out_path = tmp_path / "cert.json"
    assert main(["refute", str(inst_path), "--r", "1", "--seed", "0", "--tol", tol,
                 "--out", str(out_path)]) == 1
    assert capsys.readouterr().err.startswith("error: tol must be a float, finite and >= 0")
    assert not out_path.exists()

    # a certificate edited to such a tol, as JSON text, is rejected
    assert main(["refute", str(inst_path), "--r", "1", "--seed", "0", "--out", str(out_path)]) == 0
    text = out_path.read_text()
    spelled = {"inf": "Infinity", "nan": "NaN"}.get(tol, tol)      # as json.loads reads them
    assert text.endswith('"tol":1e-09}\n')
    out_path.write_text(text.replace('"tol":1e-09}', '"tol":%s}' % spelled))
    capsys.readouterr()
    assert main(["verify-cert", str(inst_path), str(out_path)]) == 2
    assert "mismatch: certificate tol must be a float, finite and >= 0" in capsys.readouterr().err


def test_cli_refute_rejects_negative_seed(tmp_path, capsys):
    # numpy used to stop it with a bare "expected non-negative integer"
    inst_path = tmp_path / "one.xor"
    inst_path.write_text(SINGLE_XOR_TEXT)
    out_path = tmp_path / "cert.json"
    assert main(["refute", str(inst_path), "--r", "1", "--seed", "-1",
                 "--out", str(out_path)]) == 1
    assert capsys.readouterr().err == "error: seed must be an integer >= 0, got -1\n"
    assert not out_path.exists()


@pytest.mark.parametrize("argv", [
    ["refute", "{xor}", "--r", "2", "--seed", "0", "--eps", "1/0"],
    ["decompose", "{hyg}", "--mode", "refute", "--r", "2", "--eps", "1/0"],
    ["kikuchi", "stats", "{hyg}", "--r", "2", "--eps", "1/0"],
], ids=["refute", "decompose", "kikuchi"])
def test_cli_eps_with_zero_denominator_is_a_usage_error(tmp_path, capsys, argv):
    paths = {"xor": tmp_path / "odd.xor", "hyg": tmp_path / "odd.hyg"}
    paths["xor"].write_text("xor 5 2 3\n+1 1 2 3\n-1 1 4 5\n")
    paths["hyg"].write_text("hyg 5 2 3\n1 2 3\n1 4 5\n")
    assert main([arg.format(**paths) for arg in argv]) == 1
    assert capsys.readouterr().err == "error: --eps 1/0 has a zero denominator\n"


@pytest.mark.parametrize("r", ["0", "7"])
@pytest.mark.parametrize("argv", [
    ["refute", "{xor}", "--seed", "0", "--eps", "1/4"],
    ["decompose", "{hyg}", "--mode", "refute"],
    ["kikuchi", "stats", "{hyg}"],
], ids=["refute", "decompose", "kikuchi"])
def test_cli_relaxed_r_outside_one_to_n_is_a_usage_error(tmp_path, capsys, argv, r):
    # n = 6: the relaxed range still needs 1 <= r <= n before any threshold
    paths = {"xor": tmp_path / "odd.xor", "hyg": tmp_path / "odd.hyg"}
    paths["xor"].write_text("xor 6 2 3\n+1 1 2 3\n-1 1 4 5\n")
    paths["hyg"].write_text("hyg 6 2 3\n1 2 3\n1 4 5\n")
    argv = [arg.format(**paths) for arg in argv] + ["--r", r, "--relax-r-range"]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: r must satisfy 1 <= r <= n, got r = {r}\n"


@pytest.mark.parametrize("argv, message", [
    (["decompose", "{hyg}", "--mode", "cover", "--r", "2", "--eps", "1/4"],
     "--eps and --relax-r-range apply to --mode refute only"),
    (["decompose", "{hyg}", "--r", "2", "--relax-r-range"],
     "--eps and --relax-r-range apply to --mode refute only"),
    (["kikuchi", "stats", "{even}", "--r", "2", "--level", "1"],
     "--level, --eps and --relax-r-range apply to odd k only"),
    (["kikuchi", "dump", "{even}", "--r", "2", "--eps", "1/4"],
     "--level, --eps and --relax-r-range apply to odd k only"),
    (["kikuchi", "dump", "{even}", "--r", "2", "--relax-r-range"],
     "--level, --eps and --relax-r-range apply to odd k only"),
], ids=["cover-eps", "cover-relax", "even-level", "even-eps", "even-relax"])
def test_cli_rejects_odd_only_knobs_where_they_do_nothing(tmp_path, capsys, argv, message):
    hyg, even = tmp_path / "h.hyg", tmp_path / "even.hyg"
    hyg.write_text("hyg 5 2 3\n1 2 3\n1 4 5\n")
    even.write_text("hyg 5 2 4\n1 2 3 4\n1 2 3 5\n")
    out_path = tmp_path / "out.txt"
    assert main([arg.format(hyg=hyg, even=even) for arg in argv] + ["--out", str(out_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_path.exists()


def test_cli_odd_knob_defaults(tmp_path, capsys):
    # --level 1 and --eps 1/4 stay the defaults where they apply
    hyg = tmp_path / "h.hyg"
    hyg.write_text("hyg 9 4 3\n1 2 3\n1 4 5\n1 6 7\n2 8 9\n")
    for cmd in (["decompose", str(hyg), "--mode", "refute"], ["kikuchi", "dump", str(hyg)]):
        outputs = []
        for extra in ([], ["--eps", "1/4"] + (["--level", "1"] if cmd[0] == "kikuchi" else [])):
            assert main(cmd + ["--r", "2", "--relax-r-range"] + extra) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] and outputs[0]


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
    assert stats["alpha"] == 1 and stats["vertices"] == 3 and stats["edges"] == 3
    assert stats["average_degree"] == "2"
    assert stats["degree_histogram"] == {"2": 3} and stats["degenerate"] is False
    assert main(["kikuchi", "dump", str(f), "--r", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "kikuchi-even 3 1 3"

    odd = tmp_path / "odd.hyg"
    odd.write_text("hyg 5 2 3\n1 2 3\n1 4 5\n")
    assert main(["kikuchi", "dump", str(odd), "--r", "2", "--level", "1",
                 "--relax-r-range"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "kikuchi-odd 5 2 1 1"
    assert len(out) == 5


def test_cli_kikuchi_stats_odd_on_the_ci_instance(tmp_path, capsys):
    f = tmp_path / "odd.hyg"
    assert main(["gen", "--type", "hyg", "--n", "9", "--k", "3", "--m", "30", "--seed", "4",
                 "--multi", "-o", str(f)]) == 0
    assert main(["kikuchi", "stats", str(f), "--r", "2", "--level", "1",
                 "--eps", "1/3", "--relax-r-range"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "alpha_closed_form": 4, "alpha_measured": 2, "average_degree": "536/153",
        "edges": 268, "groups": 6, "vertices": 153}


def test_cli_kikuchi_has_no_odd_option(tmp_path, capsys):
    # k picks the construction: odd k the colored level, even k the even one
    odd = tmp_path / "odd.hyg"
    odd.write_text("hyg 5 2 3\n1 2 3\n1 4 5\n")
    assert main(["kikuchi", "dump", str(odd), "--r", "2", "--relax-r-range", "--odd"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments: --odd" in err


def test_cli_level_defaults_to_half_k(tmp_path, capsys):
    # cover find and audit trace default to r = k/2, the least level
    square, c8 = tmp_path / "square.hyg", tmp_path / "c8.hyg"
    assert main(["gen", "--type", "hyg", "--n", "36", "--k", "4", "--m", "240", "--seed", "10",
                 "-o", str(square)]) == 0
    c8.write_text(C8_TEXT)
    for argv, r in ((["cover", "find", str(square)], "2"),
                    (["audit", "trace", str(c8), "--ell", "4"], "1")):
        assert main(argv) == 0
        default = capsys.readouterr().out
        assert main(argv + ["--r", r]) == 0
        assert capsys.readouterr().out == default
    assert default.endswith("ok\n")
    assert main(["cover", "find", str(square)]) == 0
    assert capsys.readouterr().out == "4\n23 102 167 178\n"


def _readme_cli_block() -> list[list[str]]:
    block = re.search(r"^## CLI\n\n```sh\n(.*?)^```", README.read_text(), re.S | re.M).group(1)
    return [shlex.split(line, comments=True) for line in block.splitlines() if line.strip()]


def test_cli_readme_block_runs_as_written(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lines = _readme_cli_block()
    assert sum(argv[0] == "kcert" for argv in lines) >= 10
    for argv in lines:
        if argv[0] == "printf":
            # printf FORMAT > FILE, the format's one escape a newline
            assert argv[2:3] == [">"] and len(argv) == 4 and "%" not in argv[1]
            Path(argv[3]).write_text(argv[1].replace("\\n", "\n"))
            continue
        assert argv[0] == "kcert"
        assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)


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
    c8.write_text(C8_TEXT)
    assert main(["audit", "trace", str(c8), "--r", "1", "--ell", "4"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out


# (action, option) pairs the cover and audit actions do not take
IGNORED_OPTIONS = [
    (("cover", "verify"), ["--cap", "3"]), (("cover", "verify"), ["--r", "2"]),
    (("cover", "verify"), ["--max-vertices", "10"]), (("cover", "verify"), ["--max-edges", "10"]),
    (("cover", "oracle"), ["--indices", "0,1"]), (("cover", "oracle"), ["--r", "2"]),
    (("cover", "oracle"), ["--max-vertices", "10"]), (("cover", "oracle"), ["--max-edges", "10"]),
    (("cover", "find"), ["--indices", "0,1"]),
    (("audit", "trace"), ["--max-vertices", "10"]), (("audit", "trace"), ["--max-edges", "10"]),
] + [(("audit", action), option) for action in ("girth", "moore")
     for option in (["--r", "2"], ["--ell", "4"], ["--max-vertices", "10"], ["--max-edges", "10"])]


@pytest.mark.parametrize("action, option", IGNORED_OPTIONS,
                         ids=[" ".join(a + (o[0],)) for a, o in IGNORED_OPTIONS])
def test_cli_rejects_options_an_action_does_not_use(tmp_path, capsys, monkeypatch, action, option):
    f = tmp_path / "tri.hyg"
    f.write_text(TRIANGLE_TEXT)
    monkeypatch.chdir(tmp_path)
    assert main([*action, str(f), *option]) == 1
    out, err = capsys.readouterr()
    assert out == "" and f"unrecognized arguments: {' '.join(option)}" in err
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["tri.hyg"]


@pytest.mark.parametrize("action, options", [
    (("cover", "verify"), {"--indices"}),
    (("cover", "oracle"), {"--cap"}),
    (("cover", "find"), {"--cap", "--r", "--max-vertices", "--max-edges"}),
    (("audit", "girth"), set()),
    (("audit", "moore"), set()),
    (("audit", "trace"), {"--r", "--ell"}),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
def test_cli_action_help_lists_only_its_options(capsys, action, options):
    assert main([*action, "--help"]) == 0
    assert set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) == options | {"--help"}


# both graphs have more than 44 edges, so the oracle would exit 3 if it ran
TRACE_AUDIT_GRAPHS = {
    "k12": "hyg 12 66 2\n" + "".join(f"{a} {b}\n" for a in range(1, 13) for b in range(a + 1, 13)),
    # C(70, 2) = 2,415 Kikuchi vertices at r = 2
    "path70": "hyg 70 45 2\n" + "".join(f"{a} {a + 1}\n" for a in range(1, 46)),
}


@pytest.mark.parametrize("graph, options, status, message", [
    pytest.param("k12", ["--ell", ell], 1, f"error: --ell {ell} is not a positive even integer\n",
                 id=ell)
    for ell in ("3", "0", "-2")
] + [
    pytest.param("k12", ["--ell", "14"], 3, "capacity error: exact trace audit supports "
                 "exponent <= 12, got --ell 14\n", id="14"),
    pytest.param("path70", ["--r", "2"], 3, "capacity error: exact trace audit supports at "
                 "most 2000 Kikuchi vertices, got 2415\n", id="path70-r2"),
] + [
    pytest.param("path70", ["--r", r], 1, "error: level parameter must satisfy k/2 <= r <= n, "
                 f"got r = {r}\n", id=f"path70-r{r}")
    for r in ("0", "71")
])
def test_cli_audit_trace_rejects_a_bad_ell_first(tmp_path, capsys, graph, options, status,
                                                 message):
    f = tmp_path / f"{graph}.hyg"
    f.write_text(TRACE_AUDIT_GRAPHS[graph])
    assert main(["audit", "trace", str(f), *options]) == status
    out, err = capsys.readouterr()
    assert (out, err) == ("", message)
    assert main(["audit", "trace", str(f), "--ell", "4"]) == 3
    assert "even-cover oracle supports at most 44 hyperedges" in capsys.readouterr().err


def _oracle_must_not_run(h, size_cap):
    raise AssertionError("the exact oracle ran")


def _build_must_not_run(h, r, caps=None):
    raise AssertionError("the Kikuchi graph was built")


@pytest.mark.parametrize("m", [10, 50])
def test_cli_audit_trace_rejects_odd_k_before_the_oracle(tmp_path, capsys, monkeypatch, m):
    # at m = 50 the oracle would exit 3 on its 44-edge limit; at m = 10 it
    # would run, and only the Kikuchi build would then refuse k = 3
    f = tmp_path / "odd.hyg"
    assert main(["gen", "--type", "hyg", "--n", "20", "--k", "3", "--m", str(m), "--seed", "1",
                 "-o", str(f)]) == 0
    monkeypatch.setattr(cli, "min_even_cover_oracle", _oracle_must_not_run)
    assert main(["audit", "trace", str(f), "--r", "2"]) == 1
    assert capsys.readouterr() == ("", "error: k = 3 is odd; the trace audit needs even k\n")


def test_cli_audit_trace_refuses_an_instance_with_a_short_cover(tmp_path, capsys, monkeypatch):
    # the 4-cycle is its own even cover of size 4 <= ell, so no Kikuchi graph is built
    f = tmp_path / "c4.hyg"
    f.write_text("hyg 4 4 2\n1 2\n2 3\n3 4\n1 4\n")
    monkeypatch.setattr(cli, "build_even_kikuchi", _build_must_not_run)
    assert main(["audit", "trace", str(f), "--ell", "4"]) == 1
    assert capsys.readouterr() == ("", "instance has an even cover of size 4 <= ell = 4; "
                                       "trace bound precondition fails\n")


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_cli_audit_moore_on_a_forest_prints_strict_json(tmp_path, capsys):
    # a forest's girth is infinite; it was printed as the non-JSON Infinity
    path = tmp_path / "path.hyg"
    path.write_text("hyg 4 3 2\n1 2\n2 3\n3 4\n")
    assert main(["audit", "moore", str(path)]) == 0
    rep = json.loads(capsys.readouterr().out, parse_constant=_no_constant)
    assert rep["girth"] is None and rep["exact_bound"] is None


def test_cli_fewer_vertices_than_arity(tmp_path, capsys):
    f = tmp_path / "small.hyg"
    f.write_text("hyg 3 0 4\n")
    assert main(["kikuchi", "stats", str(f), "--r", "2"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert (stats["vertices"], stats["edges"], stats["alpha"]) == (3, 0, 0)
    assert stats["degenerate"] is True
    assert main(["cover", "find", str(f), "--r", "2"]) == 0
    assert capsys.readouterr().out == "none\n"
    assert main(["audit", "trace", str(f), "--r", "2"]) == 1
    assert "Kikuchi graph has no edges" in capsys.readouterr().err


def test_cli_usage_error_is_not_a_verification_failure(tmp_path, capsys):
    # exit 2 means a rejected certificate; a bad command line is a usage error
    inst_path = tmp_path / "one.xor"
    inst_path.write_text(SINGLE_XOR_TEXT)
    assert main(["verify-cert", str(inst_path), str(tmp_path / "c.json"), "--bogus"]) == 1
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: kcert")
