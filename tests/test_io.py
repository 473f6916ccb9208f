"""The one-pass readers of kcert.io and the edge check of Hypergraph, each
against a copy of the line-by-line code before them: the same object for every
valid input, the same error (type, message, line) for every faulty one."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcert import Hypergraph, XorInstance, parse_hypergraph, parse_xor
from kcert.io import ParseError


# --- reference: the line-by-line parser, as it was before the one-pass reader --

def _ref_header(line, tag):
    parts = line.split()
    if len(parts) != 4 or parts[0] != tag:
        raise ParseError(1, f"expected header '{tag} <n> <m> <k>', got {line!r}")
    try:
        n, m, k = int(parts[1]), int(parts[2]), int(parts[3])
    except ValueError:
        raise ParseError(1, f"header fields must be integers, got {line!r}") from None
    if n < 1 or m < 0 or k < 2:
        raise ParseError(1, f"header values out of range: n={n}, m={m}, k={k}")
    return n, m, k


def _ref_vertices(tokens, n, k, lineno):
    if len(tokens) != k:
        raise ParseError(lineno, f"expected {k} vertex ids, got {len(tokens)}")
    try:
        verts = [int(t) for t in tokens]
    except ValueError:
        raise ParseError(lineno, f"vertex ids must be integers: {tokens!r}") from None
    for v in verts:
        if not 1 <= v <= n:
            raise ParseError(lineno, f"vertex {v} out of range 1..{n}")
    if len(set(verts)) != k:
        raise ParseError(lineno, f"duplicate vertex within a clause: {tokens!r}")
    if verts != sorted(verts):
        raise ParseError(lineno, f"vertex ids must be sorted ascending: {tokens!r}")
    return tuple(v - 1 for v in verts)


def _ref_data_lines(text, m, tag):
    raw = text.split("\n")
    if raw and raw[-1] == "":
        raw.pop()
    if len(raw) != m + 1:
        raise ParseError(len(raw), f"{tag} file must have {m + 1} lines, found {len(raw)}")
    return [(i + 2, line) for i, line in enumerate(raw[1:])]


def ref_parse_hypergraph(text):
    n, m, k = _ref_header(text.split("\n", 1)[0], "hyg")
    edges = [_ref_vertices(line.split(), n, k, lineno)
             for lineno, line in _ref_data_lines(text, m, "hyg")]
    return Hypergraph(n=n, k=k, edges=tuple(edges))


def ref_parse_xor(text):
    n, m, k = _ref_header(text.split("\n", 1)[0], "xor")
    edges, signs = [], []
    for lineno, line in _ref_data_lines(text, m, "xor"):
        tokens = line.split()
        if not tokens:
            raise ParseError(lineno, "empty clause line")
        if tokens[0] not in ("+1", "-1"):
            raise ParseError(lineno, f"sign must be +1 or -1, got {tokens[0]!r}")
        signs.append(1 if tokens[0] == "+1" else -1)
        edges.append(_ref_vertices(tokens[1:], n, k, lineno))
    return XorInstance(hypergraph=Hypergraph(n=n, k=k, edges=tuple(edges)),
                       signs=tuple(signs))


def _outcome(parse, text):
    try:
        obj = parse(text)
    except ParseError as exc:
        return "ParseError", str(exc), exc.line
    h = obj if isinstance(obj, Hypergraph) else obj.hypergraph
    assert all(type(v) is int for e in h.edges for v in e)
    return obj


# --- mutations of a valid body, one line each ----------------------------------

_BAD_TOKENS = ("x", "1.5", ";", "1e2", "0x1", "--1")
_INT_SPELLINGS = ("+{v}", "0{v}", "{v}_0")     # int() takes each of these


def _bad_token(rng, row, n, signed):
    row[rng.randrange(signed, len(row))] = rng.choice(_BAD_TOKENS)


def _int_spelling(rng, row, n, signed):
    j = rng.randrange(signed, len(row))
    row[j] = rng.choice(_INT_SPELLINGS).format(v=row[j])


def _extra_id(rng, row, n, signed):
    row.insert(rng.randrange(signed, len(row) + 1), str(rng.randint(1, n)))


def _missing_id(rng, row, n, signed):
    row.pop(rng.randrange(signed, len(row)))


def _unsorted(rng, row, n, signed):
    j = rng.randrange(signed, len(row) - 1)
    row[j], row[j + 1] = row[j + 1], row[j]


def _duplicate(rng, row, n, signed):
    j = rng.randrange(signed + 1, len(row))
    row[j] = row[j - 1]


def _out_of_range(rng, row, n, signed):
    # at the row's low or high end, so the ids stay ascending
    if rng.random() < 0.5:
        row[signed] = rng.choice(("0", "-1"))
    else:
        row[-1] = rng.choice((str(n + 1), str(10**30)))


def _bad_sign(rng, row, n, signed):
    if signed:
        row[0] = rng.choice(("1", "+2", "+", "+01", "x", ";"))
    else:
        row.insert(0, "+1")


def _blank(rng, row, n, signed):
    row.clear()


LINE_MUTATIONS = (_bad_token, _int_spelling, _extra_id, _missing_id, _unsorted, _duplicate,
                  _out_of_range, _bad_sign, _blank)


def _body(rng, n, m, k, signed):
    rows = []
    for _ in range(m):
        row = [str(v) for v in sorted(rng.sample(range(1, n + 1), k))]
        rows.append(([rng.choice(("+1", "-1"))] if signed else []) + row)
    return rows


@given(seed=st.integers(0, 2**32 - 1), signed=st.booleans(), k=st.integers(2, 5),
       spare=st.integers(0, 36), m=st.integers(1, 300),
       faults=st.lists(st.sampled_from(LINE_MUTATIONS), max_size=2),
       lines=st.sampled_from(("same", "missing", "extra", "shifted")),
       final_newline=st.booleans())
@settings(max_examples=300, deadline=None)
def test_parse_matches_line_by_line_reference(seed, signed, k, spare, m, faults, lines,
                                              final_newline):
    rng = random.Random(seed)
    n = k + spare
    rows = _body(rng, n, m, k, signed)
    for mutate, i in zip(faults, rng.sample(range(m), min(len(faults), m))):
        mutate(rng, rows[i], n, signed)         # two faults land on different lines
    if lines == "shifted" and m > 1:          # token counts off on two lines, total kept
        i = rng.randrange(m - 1)
        if rows[i]:                           # a blanked line has no token to move
            rows[i + 1].insert(0, rows[i].pop())
    body = [" ".join(row) for row in rows]
    if lines == "missing":
        body.pop(rng.randrange(m))
    elif lines == "extra":
        body.insert(rng.randrange(m + 1), rng.choice(body))
    tag = "xor" if signed else "hyg"
    text = "\n".join([f"{tag} {n} {m} {k}"] + body) + ("\n" if final_newline else "")
    parse, ref = (parse_xor, ref_parse_xor) if signed else (parse_hypergraph, ref_parse_hypergraph)
    assert _outcome(parse, text) == _outcome(ref, text)


def test_file_faults_name_the_first_faulty_line():
    text = "hyg 9 4 3\n1 2 3\n4 5 x\n2 2 3\n1 2\n"
    message = r"^line 3: vertex ids must be integers: \['4', '5', 'x'\]$"
    with pytest.raises(ParseError, match=message):
        parse_hypergraph(text)
    assert _outcome(parse_hypergraph, text) == _outcome(ref_parse_hypergraph, text)


def test_a_token_moved_to_the_next_line_is_a_fault():
    with pytest.raises(ParseError, match=r"^line 2: expected 2 vertex ids, got 3$"):
        parse_hypergraph("hyg 9 2 2\n1 2 3\n4\n")
    with pytest.raises(ParseError, match=r"^line 2: expected 2 vertex ids, got 3$"):
        parse_xor("xor 9 2 2\n+1 1 2 3\n-1 4\n")


def test_separators_and_line_ends_do_not_change_the_parse():
    plain_xor = "xor 9 3 3\n+1 1 2 3\n-1 2 5 9\n+1 4 7 8\n"
    plain_hyg = "hyg 9 3 3\n1 2 3\n2 5 9\n4 7 8\n"
    for plain, parse in ((plain_xor, parse_xor), (plain_hyg, parse_hypergraph)):
        expected = parse(plain)
        for text in (plain.replace(" ", "\t"), plain.replace(" ", "   "),
                     plain.replace(" ", " \t "), plain.replace("\n", "\r\n"),
                     plain.replace("\n", " \t\r\n"), plain.rstrip("\n")):
            assert parse(text) == expected, repr(text)


def test_header_only_file_parses():
    h = parse_hypergraph("hyg 3 0 4\n")
    assert (h.n, h.k, h.edges) == (3, 4, ())
    assert parse_hypergraph("hyg 3 0 4") == h
    assert parse_xor("xor 3 0 4\n") == XorInstance(hypergraph=h, signs=())


def test_ids_beyond_int64_parse_as_before():
    text = f"hyg {2**70} 1 2\n1 {2**69}\n"
    h = parse_hypergraph(text)
    assert h.edges == ((0, 2**69 - 1),) and h == ref_parse_hypergraph(text)


# --- Hypergraph: Python and numpy integer rows against the per-edge loop ------

def _ref_edges(n, k, edges):
    norm = []
    for e in edges:
        t = tuple(sorted(e))
        if len(t) != k or len(set(t)) != k:
            raise ValueError(f"hyperedge {e!r} must have exactly {k} distinct vertices")
        if t[0] < 0 or t[-1] >= n:
            raise ValueError(f"hyperedge {e!r} has a vertex outside 0..{n - 1}")
        norm.append(t)
    return tuple(norm)


def _hypergraph_outcome(make, n, k, edges):
    try:
        return make(n, k, edges)
    except ValueError as exc:
        return "ValueError", str(exc)


@st.composite
def _edge_rows(draw):
    """n, k and rows of k distinct vertices in 0..n-1, up to two of them faulty."""
    n = draw(st.integers(2, 12))
    k = draw(st.integers(2, min(n, 4)))
    rows = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True),
                         max_size=8))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        rows[draw(st.integers(0, len(rows) - 1))] = draw(
            st.lists(st.integers(-2, n + 1), min_size=1, max_size=5))
    return n, k, rows


@given(case=_edge_rows(), as_numpy=st.booleans())
@settings(max_examples=300, deadline=None)
def test_hypergraph_check_matches_per_edge_loop(case, as_numpy):
    n, k, rows = case
    if as_numpy and len({len(row) for row in rows}) == 1:
        edges = tuple(map(tuple, np.array(rows)))
    else:
        edges = tuple(map(tuple, rows))
    got = _hypergraph_outcome(lambda n, k, e: Hypergraph(n=n, k=k, edges=e).edges, n, k, edges)
    assert got == _hypergraph_outcome(_ref_edges, n, k, edges)
    if got[:1] != ("ValueError",):
        assert all(type(v) is int for e in got for v in e)
