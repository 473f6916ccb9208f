"""Text file formats. Vertex ids are 1-based on disk, 0-based in memory.

Hypergraph:  line 1 "hyg <n> <m> <k>", then m lines of k vertex ids.
XOR:         line 1 "xor <n> <m> <k>", then m lines "<+1|-1> v1 .. vk".

Within a line the vertex ids are strictly ascending, and any whitespace
separates tokens (tabs, runs of spaces and CRLF line ends included). Parsed
instances store their vertices as Python ints. A malformed file raises a
ParseError that names its first faulty line (a wrong line count is found
first, and names the file's last line).

Both formats share one writer and one body reader. The reader splits the
body once and checks every hyperedge in whole-array numpy passes. Only a body
that fails those checks (or holds ids beyond int64) is read again line by
line, to name the first fault.
"""

from __future__ import annotations

import numpy as np

from .core import Hypergraph, KcertError, XorInstance

_END = ";"                        # closes each body line in the token stream; int() rejects it
_SIGNS = {"+1": 1, "-1": -1}


class ParseError(KcertError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _parse_header(line: str, tag: str) -> tuple[int, int, int]:
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


def _parse_vertices(tokens: list[str], n: int, k: int, lineno: int) -> tuple[int, ...]:
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


def _rows_at_once(body: str, n: int, m: int, k: int, signed: bool):
    """(rows, signs) of a body of m lines, or None if any line is faulty.

    A sentinel closes each line, so one split yields the whole token stream,
    and int() converts each token. Read as an (m, w+1) array, w = k plus the
    sign column, it proves that every line has w tokens: the sentinel reads 0
    and is no sign, so with signs and ids in 1..n in the first w columns, each
    of the m sentinels must sit in the last column.
    Strict ascent of each row then also proves its ids sorted and distinct.
    """
    tokens = body.replace("\n", f" {_END} ").split()
    if not body.endswith("\n"):
        tokens.append(_END)
    width = k + signed
    if len(tokens) != m * (width + 1):
        return None
    try:
        grid = np.fromiter((0 if t == _END else int(t) for t in tokens), np.int64, len(tokens))
        signs = tuple(map(_SIGNS.__getitem__, tokens[::width + 1])) if signed else ()
    except (KeyError, ValueError, OverflowError):
        return None
    grid = grid.reshape(m, width + 1)
    ids = grid[:, signed:width]
    if not ((ids[:, 1:] > ids[:, :-1]).all() and ids[:, 0].min() >= 1
            and ids[:, -1].max() <= n):
        return None
    return tuple(zip(*(ids - 1).T.tolist())), signs


def _rows_by_line(body: str, n: int, m: int, k: int, signed: bool):
    """(rows, signs) of a body of m lines, checked line by line from line 2 down;
    raises ParseError at the first faulty line."""
    rows, signs = [], []
    for lineno, line in enumerate(body.split("\n")[:m], start=2):
        tokens = line.split()
        if signed:
            if not tokens:
                raise ParseError(lineno, "empty clause line")
            if tokens[0] not in _SIGNS:
                raise ParseError(lineno, f"sign must be +1 or -1, got {tokens[0]!r}")
            signs.append(_SIGNS[tokens.pop(0)])
        rows.append(_parse_vertices(tokens, n, k, lineno))
    return tuple(rows), tuple(signs)


def _parse(text: str, tag: str) -> tuple[Hypergraph, tuple[int, ...]]:
    """The hypergraph of a hyg or xor file and its signs (empty for hyg)."""
    first, _, body = text.partition("\n")
    n, m, k = _parse_header(first, tag)
    lines = text.count("\n") + 1 - text.endswith("\n")
    if lines != m + 1:
        raise ParseError(lines, f"{tag} file must have {m + 1} lines, found {lines}")
    signed = tag == "xor"
    rows, signs = _rows_at_once(body, n, m, k, signed) or _rows_by_line(body, n, m, k, signed)
    return Hypergraph._of_valid_rows(n, k, rows), signs


def parse_hypergraph(text: str) -> Hypergraph:
    return _parse(text, "hyg")[0]


def parse_xor(text: str) -> XorInstance:
    h, signs = _parse(text, "xor")
    return XorInstance(hypergraph=h, signs=signs)


def _serialize(tag: str, h: Hypergraph, heads) -> str:
    """The header, then one line per clause: its head and its 1-based ids."""
    lines = [f"{tag} {h.n} {h.m} {h.k}"]
    lines += [head + " ".join(str(v + 1) for v in edge) for head, edge in zip(heads, h.edges)]
    return "\n".join(lines) + "\n"


def serialize_hypergraph(h: Hypergraph) -> str:
    return _serialize("hyg", h, [""] * h.m)


def serialize_xor(inst: XorInstance) -> str:
    return _serialize("xor", inst.hypergraph, ["+1 " if s == 1 else "-1 " for s in inst.signs])


def load_hypergraph(path) -> Hypergraph:
    with open(path, "r", encoding="ascii") as fh:
        return parse_hypergraph(fh.read())


def load_xor(path) -> XorInstance:
    with open(path, "r", encoding="ascii") as fh:
        return parse_xor(fh.read())
