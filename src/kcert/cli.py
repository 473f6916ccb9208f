"""Command-line surface tying the modules into reproducible runs.

Exit codes: 0 success, 1 usage/domain error, 2 certificate verification
failure, 3 capacity limit exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np

from .core import CapacityError, KcertError, gen_random, min_even_cover_oracle, verify_even_cover
from .decomposition import decompose_for_cover, decompose_for_refutation, validate_decomposition
from .io import ParseError, load_hypergraph, load_xor, serialize_hypergraph, serialize_xor
from .kikuchi_even import Caps, build_even_kikuchi, dump_even, shortest_even_cover_via_kikuchi
from .kikuchi_odd import build_colored_kikuchi, dump_colored
from .moore import graph_girth, moore_bound_audit
from .refuter import (certificate_from_json, certificate_to_json, refute_even, refute_odd,
                      verify_certificate)
from .spectral import TRACE_DIM_LIMIT, TRACE_POWER_LIMIT, exact_trace_power, trace_bound_rhs


def _write_output(text: str, path) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)


def _caps(args) -> Caps:
    return Caps(max_vertices=args.max_vertices, max_edges=args.max_edges)


def _add_caps(parser) -> None:
    parser.add_argument("--max-vertices", type=int, default=Caps().max_vertices)
    parser.add_argument("--max-edges", type=int, default=Caps().max_edges)


def _eps(text) -> Fraction:
    """--eps as an exact rational; a malformed value or a zero denominator is a
    usage error, not a traceback."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"--eps {text} has a zero denominator") from None


def _refutation_decomposition(h, args):
    """The refutation decomposition of decompose --mode refute and of kikuchi on odd k."""
    eps = _eps("1/4" if args.eps is None else args.eps)
    return decompose_for_refutation(h, args.r, eps, enforce_ranges=not args.relax_r_range)


def _cmd_gen(args) -> int:
    mode = args.type + ("-multi" if args.multi else "")
    obj = gen_random(args.n, args.k, args.m, args.seed, mode=mode)
    text = serialize_hypergraph(obj) if args.type == "hyg" else serialize_xor(obj)
    _write_output(text, args.out)
    return 0


def _cmd_cover(args) -> int:
    h = load_hypergraph(args.file)
    if args.action == "verify":
        try:
            indices = [int(t) for t in args.indices.split(",") if t]
        except ValueError:
            raise ValueError("--indices takes comma-separated clause indices") from None
        # a cover is a set of clauses; read as uses, a repeated index cancels out
        seen: set[int] = set()
        for i in indices:
            if i in seen:
                raise ValueError(f"--indices repeats clause index {i}")
            seen.add(i)
        try:
            ok = verify_even_cover(h, indices) and len(indices) > 0
        except IndexError as exc:
            raise ValueError(exc) from None
        print("true" if ok else "false")
        return 0 if ok else 1
    if args.cap is not None and args.cap < 0:
        raise KcertError(f"--cap must be an integer >= 0, got {args.cap}")
    if args.action == "oracle":
        res = min_even_cover_oracle(h, args.cap if args.cap is not None else h.m)
    else:
        r = h.k // 2 if args.r is None else args.r
        res = shortest_even_cover_via_kikuchi(h, r, caps=_caps(args), max_len=args.cap)
    if res is None:
        print("none")
    else:
        indices = sorted(res[1].edge_indices)
        print(len(indices))
        print(" ".join(map(str, indices)))
    return 0


def _cmd_decompose(args) -> int:
    h = load_hypergraph(args.file)
    if args.mode == "cover":
        if args.eps is not None or args.relax_r_range:
            raise KcertError("--eps and --relax-r-range apply to --mode refute only")
        d = decompose_for_cover(h, args.r)
    else:
        d = _refutation_decomposition(h, args)
    failures = validate_decomposition(h, d)
    payload = d.to_json_dict()
    payload["valid"] = not failures
    _write_output(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    for f in failures:
        print(f"invalid: {f}", file=sys.stderr)
    return 1 if failures else 0


def _even_stats(g) -> dict:
    degree, count = np.unique(g.degrees, return_counts=True)
    return {"alpha": g.alpha, "degenerate": g.num_edges == 0,
            "degree_histogram": dict(zip(map(str, degree.tolist()), count.tolist()))}


def _colored_stats(g) -> dict:
    return {"alpha_measured": g.alpha, "alpha_closed_form": g.alpha_closed_form, "groups": g.p}


def _cmd_kikuchi(args) -> int:
    h = load_hypergraph(args.file)
    if h.k % 2:
        g = build_colored_kikuchi(h, _refutation_decomposition(h, args),
                                  1 if args.level is None else args.level, args.r, caps=_caps(args))
        dump, kind_stats = dump_colored, _colored_stats
    else:
        if args.level is not None or args.eps is not None or args.relax_r_range:
            raise KcertError("--level, --eps and --relax-r-range apply to odd k only")
        g = build_even_kikuchi(h, args.r, caps=_caps(args))
        dump, kind_stats = dump_even, _even_stats
    if args.action == "dump":
        text = dump(g)
    else:
        stats = {"vertices": g.num_vertices, "edges": g.num_edges,
                 "average_degree": str(g.average_degree), **kind_stats(g)}
        text = json.dumps(stats, sort_keys=True, indent=2) + "\n"
    _write_output(text, args.out)
    return 0


def _cmd_refute(args) -> int:
    inst = load_xor(args.file)
    if inst.k % 2 == 0:
        if args.eps is not None or args.eta is not None or args.relax_r_range:
            raise KcertError("--eps, --eta and --relax-r-range apply to odd k only")
        cert = refute_even(inst, args.r, caps=_caps(args), tol=args.tol, seed=args.seed)
    else:
        if args.eps is None:
            raise KcertError("odd k requires --eps")
        cert = refute_odd(inst, args.r, _eps(args.eps), eta=args.eta,
                          caps=_caps(args), tol=args.tol, seed=args.seed,
                          relax_r_range=args.relax_r_range)
    text = certificate_to_json(cert)
    _write_output(text, args.out)
    if args.out is not None:
        print(f"certified_bound = {cert['certified_bound']}")
    return 0


def _cmd_verify_cert(args) -> int:
    inst = load_xor(args.file)
    with open(args.cert, "r", encoding="ascii") as fh:
        cert = certificate_from_json(fh.read())
    ok, reasons = verify_certificate(inst, cert, caps=_caps(args))
    if ok:
        print("certificate ok")
        return 0
    for reason in reasons:
        print(f"mismatch: {reason}", file=sys.stderr)
    return 2


def _cmd_audit(args) -> int:
    h = load_hypergraph(args.file)
    if args.action == "girth":
        g = graph_girth(h)
        print("inf" if g == float("inf") else g)
        return 0
    if args.action == "moore":
        rep = moore_bound_audit(h)
        printable = {k: (str(v) if isinstance(v, Fraction) else v) for k, v in rep.items()}
        if printable["girth"] == math.inf:
            printable["girth"] = None        # a forest: JSON has no infinity
        print(json.dumps(printable, sort_keys=True, indent=2, allow_nan=False))
        if rep["girth_le_exact"] is False or rep["girth_le_weak"] is False:
            return 1
        return 0
    # trace audit: requires the instance to be oracle-certified cover-free at ell
    if args.ell <= 0 or args.ell % 2:
        raise KcertError(f"--ell {args.ell} is not a positive even integer")
    if args.ell > TRACE_POWER_LIMIT:
        raise CapacityError(f"exact trace audit supports exponent <= {TRACE_POWER_LIMIT}, "
                            f"got --ell {args.ell}")
    if h.k % 2:
        raise KcertError(f"k = {h.k} is odd; the trace audit needs even k")
    r = h.k // 2 if args.r is None else args.r
    if not h.k // 2 <= r <= h.n:
        raise KcertError(f"level parameter must satisfy k/2 <= r <= n, got r = {r}")
    if math.comb(h.n, r) > TRACE_DIM_LIMIT:
        raise CapacityError(f"exact trace audit supports at most {TRACE_DIM_LIMIT} Kikuchi "
                            f"vertices, got {math.comb(h.n, r)}")
    res = min_even_cover_oracle(h, args.ell)
    if res is not None:
        print(f"instance has an even cover of size {res[0]} <= ell = {args.ell}; "
              "trace bound precondition fails", file=sys.stderr)
        return 1
    g = build_even_kikuchi(h, r)
    if g.num_edges == 0:
        raise KcertError("Kikuchi graph has no edges; increase r")
    tr = exact_trace_power(g.adjacency().toarray(), g.gamma_diagonal(), args.ell)
    rhs = trace_bound_rhs(h.n, r, args.ell, g.average_degree)
    ok = tr <= rhs
    print(f"trace = {tr}")
    print(f"bound = {rhs}")
    print("ok" if ok else "VIOLATION")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="kcert",
                                 description="even covers and spectral k-XOR refutation certificates")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a seeded random instance")
    g.add_argument("--type", choices=("hyg", "xor"), default="xor")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--multi", action="store_true", help="sample hyperedges with replacement")
    g.add_argument("--out", "-o", default=None)
    g.set_defaults(func=_cmd_gen)

    c = sub.add_parser("cover", help="find / verify / exactly minimize even covers")
    c.set_defaults(func=_cmd_cover)
    cover = c.add_subparsers(dest="action", required=True)
    cf = cover.add_parser("find", help="Kikuchi closed-walk search")
    cf.add_argument("file")
    cf.add_argument("--cap", type=int, default=None, help="longest closed walk searched")
    cf.add_argument("--r", type=int, default=None, help="Kikuchi level (default k/2)")
    _add_caps(cf)
    cv = cover.add_parser("verify", help="check that clause indices form an even cover")
    cv.add_argument("file")
    cv.add_argument("--indices", default="", help="comma-separated distinct clause indices")
    co = cover.add_parser("oracle", help="exact minimum even cover")
    co.add_argument("file")
    co.add_argument("--cap", type=int, default=None, help="largest cover size (default m)")

    d = sub.add_parser("decompose", help="partition a hypergraph (cover or refutation mode)")
    d.add_argument("file")
    d.add_argument("--mode", choices=("cover", "refute"), default="cover")
    d.add_argument("--r", type=int, required=True)
    d.add_argument("--eps", default=None, help="refute mode only (default 1/4)")
    d.add_argument("--relax-r-range", action="store_true", help="refute mode only")
    d.add_argument("--out", "-o", default=None)
    d.set_defaults(func=_cmd_decompose)

    kk = sub.add_parser("kikuchi", help="build a Kikuchi level (colored for odd k): stats or edge dump")
    kk.add_argument("action", choices=("stats", "dump"))
    kk.add_argument("file")
    kk.add_argument("--r", type=int, required=True)
    kk.add_argument("--level", type=int, default=None, help="odd k only (default 1)")
    kk.add_argument("--eps", default=None, help="odd k only (default 1/4)")
    kk.add_argument("--relax-r-range", action="store_true", help="odd k only")
    kk.add_argument("--out", "-o", default=None)
    _add_caps(kk)
    kk.set_defaults(func=_cmd_kikuchi)

    rf = sub.add_parser("refute", help="emit a refutation certificate (JSON)")
    rf.add_argument("file")
    rf.add_argument("--r", type=int, required=True)
    rf.add_argument("--seed", type=int, required=True)
    rf.add_argument("--eps", default=None)
    rf.add_argument("--eta", type=int, default=None)
    rf.add_argument("--tol", type=float, default=1e-9)
    rf.add_argument("--relax-r-range", action="store_true")
    rf.add_argument("--out", "-o", default=None)
    _add_caps(rf)
    rf.set_defaults(func=_cmd_refute)

    vc = sub.add_parser("verify-cert", help="recheck a certificate against its instance")
    vc.add_argument("file")
    vc.add_argument("cert")
    _add_caps(vc)
    vc.set_defaults(func=_cmd_verify_cert)

    au = sub.add_parser("audit", help="girth, Moore-bound and trace-bound audits")
    au.set_defaults(func=_cmd_audit)
    audit = au.add_subparsers(dest="action", required=True)
    audit.add_parser("moore", help="girth against the Moore bounds (JSON)").add_argument("file")
    audit.add_parser("girth", help="girth of the graph").add_argument("file")
    at = audit.add_parser("trace", help="exact trace power against the closed-walk bound")
    at.add_argument("file")
    at.add_argument("--r", type=int, default=None, help="Kikuchi level (default k/2)")
    at.add_argument("--ell", type=int, default=4, help="walk length, a positive even integer")

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error; here 2 means a rejected certificate
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except (KcertError, ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
