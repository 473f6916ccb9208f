"""Command-line surface tying the modules into reproducible runs.

Exit codes: 0 success, 1 usage/domain error, 2 certificate verification
failure, 3 capacity limit exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .core import (CapacityError, KcertError, gen_random, graph_girth,
                   min_even_cover_oracle, verify_even_cover)
from .decomposition import decompose_for_cover, decompose_for_refutation, validate_decomposition
from .io import ParseError, load_hypergraph, load_xor, serialize_hypergraph, serialize_xor
from .kikuchi_even import (Caps, build_even_kikuchi, dump_even, kikuchi_stats,
                           shortest_even_cover_via_kikuchi)
from .kikuchi_odd import build_colored_kikuchi, dump_colored
from .moore import moore_bound_audit
from .refuter import (certificate_from_json, certificate_to_json, refute_even, refute_odd,
                      verify_certificate)
from .spectral import exact_trace_power, trace_bound_rhs


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


def _cmd_gen(args) -> int:
    mode = args.type + ("-multi" if args.multi else "")
    obj = gen_random(args.n, args.k, args.m, args.seed, mode=mode)
    text = serialize_hypergraph(obj) if args.type == "hyg" else serialize_xor(obj)
    _write_output(text, args.out)
    return 0


def _cmd_cover(args) -> int:
    h = load_hypergraph(args.file)
    if args.action == "verify":
        indices = [int(t) for t in args.indices.split(",") if t]
        try:
            ok = verify_even_cover(h, indices) and len(indices) > 0
        except IndexError as exc:
            raise ValueError(exc) from None
        print("true" if ok else "false")
        return 0 if ok else 1
    if args.action == "oracle":
        cap = args.cap if args.cap is not None else h.m
        res = min_even_cover_oracle(h, cap)
        if res is None:
            print("none")
            return 0
        size, cover = res
        print(size)
        print(" ".join(str(i) for i in sorted(cover.edge_indices)))
        return 0
    res = shortest_even_cover_via_kikuchi(h, args.r, caps=_caps(args), max_len=args.cap)
    if res is None:
        print("none")
        return 0
    length, cover = res
    print(len(cover.edge_indices))
    print(" ".join(str(i) for i in sorted(cover.edge_indices)))
    return 0


def _cmd_decompose(args) -> int:
    h = load_hypergraph(args.file)
    if args.mode == "cover":
        d = decompose_for_cover(h, args.r)
    else:
        d = decompose_for_refutation(h, args.r, Fraction(args.eps),
                                     enforce_ranges=not args.relax_r_range)
    report = validate_decomposition(h, d)
    payload = d.to_json_dict()
    payload["valid"] = report.passed
    _write_output(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    if not report.passed:
        for f in report.failures:
            print(f"invalid: {f}", file=sys.stderr)
        return 1
    return 0


def _cmd_kikuchi(args) -> int:
    h = load_hypergraph(args.file)
    if args.odd:
        d = decompose_for_refutation(h, args.r, Fraction(args.eps),
                                     enforce_ranges=not args.relax_r_range)
        g = build_colored_kikuchi(h, d, args.level, args.r, caps=_caps(args))
        if args.action == "dump":
            _write_output(dump_colored(g), args.out)
        else:
            stats = {
                "vertices": g.num_vertices,
                "edges": g.num_edges,
                "alpha_measured": g.alpha,
                "alpha_closed_form": g.alpha_closed_form,
                "average_degree": str(g.average_degree),
                "groups": g.p,
            }
            _write_output(json.dumps(stats, sort_keys=True, indent=2) + "\n", args.out)
        return 0
    g = build_even_kikuchi(h, args.r, caps=_caps(args))
    if args.action == "dump":
        _write_output(dump_even(g), args.out)
    else:
        st = kikuchi_stats(g)
        payload = {
            "alpha": st["alpha"],
            "vertices": st["num_vertices"],
            "edges": st["num_edges"],
            "average_degree": str(st["average_degree"]),
            "degree_histogram": {str(k): v for k, v in st["degree_histogram"].items()},
            "degenerate": st["degenerate"],
        }
        _write_output(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
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
        cert = refute_odd(inst, args.r, Fraction(args.eps), eta=args.eta,
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
        print(json.dumps(printable, sort_keys=True, indent=2))
        if rep["girth_le_exact"] is False or rep["girth_le_weak"] is False:
            return 1
        return 0
    # trace audit: requires the instance to be oracle-certified cover-free at ell
    res = min_even_cover_oracle(h, args.ell)
    if res is not None:
        print(f"instance has an even cover of size {res[0]} <= ell = {args.ell}; "
              "trace bound precondition fails", file=sys.stderr)
        return 1
    g = build_even_kikuchi(h, args.r, caps=_caps(args))
    if g.num_edges == 0:
        raise KcertError("Kikuchi graph has no edges; increase r")
    if g.num_vertices > 2000:
        raise CapacityError(
            f"exact trace audit supports at most 2000 Kikuchi vertices, got {g.num_vertices}"
        )
    tr = exact_trace_power(g.adjacency().toarray(), g.gamma_diagonal(), args.ell)
    rhs = trace_bound_rhs(h.n, args.r, args.ell, g.average_degree)
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
    c.add_argument("action", choices=("find", "verify", "oracle"))
    c.add_argument("file")
    c.add_argument("--indices", default="", help="comma-separated clause indices (verify)")
    c.add_argument("--cap", type=int, default=None)
    c.add_argument("--r", type=int, default=1)
    _add_caps(c)
    c.set_defaults(func=_cmd_cover)

    d = sub.add_parser("decompose", help="partition a hypergraph (cover or refutation mode)")
    d.add_argument("file")
    d.add_argument("--mode", choices=("cover", "refute"), default="cover")
    d.add_argument("--r", type=int, required=True)
    d.add_argument("--eps", default="1/4")
    d.add_argument("--relax-r-range", action="store_true")
    d.add_argument("--out", "-o", default=None)
    d.set_defaults(func=_cmd_decompose)

    kk = sub.add_parser("kikuchi", help="build Kikuchi graphs: stats or edge dumps")
    kk.add_argument("action", choices=("stats", "dump"))
    kk.add_argument("file")
    kk.add_argument("--r", type=int, required=True)
    kk.add_argument("--odd", action="store_true", help="colored construction from a refutation decomposition")
    kk.add_argument("--level", type=int, default=1)
    kk.add_argument("--eps", default="1/4")
    kk.add_argument("--relax-r-range", action="store_true")
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
    au.add_argument("action", choices=("moore", "girth", "trace"))
    au.add_argument("file")
    au.add_argument("--r", type=int, default=1)
    au.add_argument("--ell", type=int, default=4)
    _add_caps(au)
    au.set_defaults(func=_cmd_audit)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
