"""Readers and writers: native edge-list text, graph6, and sparse6.

graph6 encodes simple graphs only; sparse6 carries multigraphs and is
the interchange format for catalogs with parallel edges. Byte layouts
follow the published format specification.
"""

from __future__ import annotations

import os
import re
from functools import partial
from itertools import compress
from typing import IO, Callable, Iterable, Iterator

from .multigraph import MultiGraph

EDGE_LIST = "edge_list"
GRAPH6 = "graph6"
SPARSE6 = "sparse6"


class ParseError(ValueError):
    """Malformed input; carries a human-readable position."""

    def __init__(self, message: str, position: str):
        super().__init__(f"{message} ({position})")
        self.position = position


# --------------------------------------------------------------------------
# edge_list: first line "n m", then m lines "u v", 0-based; graphs may be
# concatenated in one stream
# --------------------------------------------------------------------------


def write_edge_list(g: MultiGraph) -> str:
    lines = [f"{g.vertex_count} {len(g.edges)}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


# an edge-list field: an optional '-' and ASCII digits
_INTEGER = re.compile("-?[0-9]+")


def _int_pair(fields: list[str], at: int, shape: str, kind: str) -> tuple[int, int]:
    """The two integers of an edge-list line's fields, the line at ``at``.
    A line must have two fields (else "expected ``shape``"), each an
    optional '-' and ASCII digits (else "non-integer ``kind``"), so the
    '+', '_' and non-ASCII digits that int() reads are refused."""
    if len(fields) != 2:
        raise ParseError(f"expected {shape}", f"line {at}")
    try:
        if all(map(_INTEGER.fullmatch, fields)):
            return int(fields[0]), int(fields[1])
    except ValueError:  # a field past int()'s digit limit
        pass
    raise ParseError(f"non-integer {kind}", f"line {at}")


def _parse_edge_list(lines: list[str]) -> Iterator[MultiGraph]:
    # the fields of every non-blank line, beside its line number
    numbered = ((i, fields) for i, fields in enumerate(map(str.split, lines), 1) if fields)
    for at, header in numbered:
        n, m = _int_pair(header, at, "header 'n m'", "header fields")
        if m < 0:
            raise ParseError(f"negative edge count {m}", f"line {at}")
        pairs = []
        # range first, so zip stops before it reads a line past the m-th
        for _, (at, fields) in zip(range(m), numbered):
            pairs.append(_int_pair(fields, at, "edge line 'u v'", "edge endpoints"))
        if len(pairs) < m:
            raise ParseError(f"expected {m} edges, found {len(pairs)}", f"line {len(lines)}")
        try:
            yield MultiGraph(n, tuple(pairs))
        except ValueError as exc:
            raise ParseError(str(exc), f"graph ending at line {at}")


# --------------------------------------------------------------------------
# graph6 / sparse6 byte helpers
# --------------------------------------------------------------------------


# the vertex count's forms, by their number of leading 63s: the six-bit
# groups that follow, and the largest count the form holds
_COUNT_FORMS = ((1, 62), (3, 258047), (6, 68719476735))


def _n_to_data(n: int) -> list[int]:
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    for lead, (groups, top) in enumerate(_COUNT_FORMS):
        if n <= top:
            return [63] * lead + [(n >> 6 * i) & 63 for i in reversed(range(groups))]
    raise ValueError("vertex count too large for graph6/sparse6")


def _data_to_n(data: bytes, start: int, where: str) -> tuple[int, bytes]:
    """The vertex count at the head of ``data`` (payload bytes less 63) and
    the bytes after it. An error names the first missing byte by its index
    in the line, where the payload starts at ``start``."""
    # the count's form: its 0, 1 or 2 leading values 63
    lead = (data[:1] == b"\x3f") + (data[:2] == b"\x3f\x3f")
    end = lead + _COUNT_FORMS[lead][0]
    if len(data) < end:
        problem = "truncated" if data else "missing"
        raise ParseError(f"{problem} vertex count", f"{where}, byte {start + len(data)}")
    return int(_bit_string(data[lead:end]), 2), data[end:]


def _bit_string(data: bytes) -> str:
    """The six bits of each payload value in ``data``, high bit first, as
    one string of '0' and '1'."""
    return "".join(format(d, "06b") for d in data)


def _id_bits(n: int) -> int:
    """k, the bits of a vertex id in sparse6: the least k >= 1 with
    2^k >= n."""
    return max(1, (n - 1).bit_length())


# a payload byte outside 63..126, and the table that takes each byte to
# itself less 63
_INVALID_BYTE = re.compile(b"[^?-~]")
_LESS_63 = bytes((b - 63) % 256 for b in range(256))


def _payload(line: str | bytes, header: bytes, lead: bytes, where: str) -> tuple[bytes, int]:
    """The payload values of a graph6 or sparse6 line (its bytes less 63)
    and the index in the line of the first of them. The line is stripped,
    its optional ``header`` dropped, and ``lead`` (``:`` for sparse6) must
    come next. Errors name a character or byte by its index in the line."""
    if isinstance(line, str):
        try:
            line = line.encode("ascii")
        except UnicodeEncodeError as exc:
            raise ParseError("non-ASCII character", f"{where}, character {exc.start}")
    start = len(line) - len(line.lstrip())
    if line.startswith(header, start):
        start += len(header)
    if not line.startswith(lead, start):
        fmt = header.strip(b"<>").decode()
        raise ParseError(f"{fmt} line must start with {lead.decode()!r}", f"{where}, byte {start}")
    start += len(lead)
    payload = line[start:].rstrip()
    bad = _INVALID_BYTE.search(payload)
    if bad:
        raise ParseError(f"invalid byte {bad.group()[0]!r}", f"{where}, byte {start + bad.start()}")
    return payload.translate(_LESS_63), start


# --------------------------------------------------------------------------
# graph6 (simple graphs)
# --------------------------------------------------------------------------


def write_graph6(g: MultiGraph) -> str:
    if not g.is_simple():
        raise ValueError("graph6 cannot encode parallel edges; use sparse6")
    n = g.vertex_count
    present = set(g.edges)
    # the upper triangle column by column, as parse_graph6 reads it
    bits = "".join("1" if (i, j) in present else "0" for j in range(1, n) for i in range(j))
    bits += "0" * (-len(bits) % 6)
    data = _n_to_data(n) + [int(bits[k:k + 6], 2) for k in range(0, len(bits), 6)]
    return bytes(d + 63 for d in data).decode("ascii")


def parse_graph6(line: str | bytes, where: str = "graph6") -> MultiGraph:
    data, start = _payload(line, b">>graph6<<", b"", where)
    n, rest = _data_to_n(data, start, where)
    need = n * (n - 1) // 2
    # the bits fill whole bytes; padding bits may be anything
    size = -(-need // 6)
    if len(rest) != size:
        # the position in the line of the first missing or extra byte
        at = start + len(data) - len(rest) + min(len(rest), size)
        raise ParseError(
            f"expected {size} adjacency bytes for {n} vertices, found {len(rest)}",
            f"{where}, byte {at}",
        )
    # the upper triangle column by column; padding bits are not read
    pairs = ((i, j) for j in range(1, n) for i in range(j))
    return MultiGraph(n, tuple(compress(pairs, map("1".__eq__, _bit_string(rest)))))


# --------------------------------------------------------------------------
# sparse6 (multigraphs)
# --------------------------------------------------------------------------


def write_sparse6(g: MultiGraph) -> str:
    """The sparse6 line of g, without header or newline.

    Each edge's bits are packed into one int, and every complete group of
    six is emitted as soon as it is there, so the int never holds more
    than one edge's bits plus five."""
    n = g.vertex_count
    k = _id_bits(n)
    out = bytearray(b":")
    out += bytes(d + 63 for d in _n_to_data(n))
    stream = length = curv = 0
    for v, u in sorted((max(u, v), min(u, v)) for u, v in g.edges):
        if v == curv:
            # bit 0, then u
            bits, width = u, k + 1
        elif v == curv + 1:
            # bit 1 moves to v, then u
            bits, width = (1 << k) | u, k + 1
        else:
            # bit 1 and v set the current vertex, then bit 0 and u
            bits, width = (1 << (2 * k + 1)) | (v << (k + 1)) | u, 2 * k + 2
        curv = v
        stream = (stream << width) | bits
        length += width
        while length >= 6:
            length -= 6
            out.append(((stream >> length) & 63) + 63)
        stream &= (1 << length) - 1
    if length:
        pad = 6 - length
        # padding with all 1s would decode as an edge at vertex n-1 when n
        # is a power of two and enough bits remain; lead with a 0 bit then
        if k < 6 and n == (1 << k) and pad >= k and curv < n - 1:
            pad -= 1
            stream <<= 1
        out.append(((stream << pad) | ((1 << pad) - 1)) + 63)
    return out.decode("ascii")


def parse_sparse6(line: str | bytes, where: str = "sparse6") -> MultiGraph:
    data, start = _payload(line, b">>sparse6<<", b":", where)
    n, rest = _data_to_n(data, start, where)
    k = _id_bits(n)
    bits = _bit_string(rest)
    edges = []
    v = 0
    # each step is one bit b and a k-bit id x; trailing bits too few for a
    # step are padding
    for pos in range(0, len(bits) - k, k + 1):
        if bits[pos] == "1":
            v += 1
        x = int(bits[pos + 1:pos + 1 + k], 2)
        if x >= n or v >= n:
            break
        if x > v:
            v = x
        else:
            edges.append((x, v))
    try:
        return MultiGraph(n, tuple(edges))
    except ValueError as exc:
        raise ParseError(str(exc), where)


# --------------------------------------------------------------------------
# front door
# --------------------------------------------------------------------------


def parse(source: str | os.PathLike | IO[str], fmt: str = EDGE_LIST) -> Iterator[MultiGraph]:
    """The graphs in ``source``, a path or an open text stream.

    A path (a ``str`` or an ``os.PathLike``) is always opened as a file;
    a string is never read as graph text, so text already in hand goes
    through ``io.StringIO``. An OSError from opening the path is raised
    unchanged. Files and streams take one ASCII rule: a non-ASCII byte in
    a file raises ParseError naming its index, and a non-ASCII character
    in a stream names its line and its index in that line, as the graph6
    and sparse6 readers name one in a line passed to them.
    """
    read_lines = _codec(fmt)[1]
    path = isinstance(source, (str, os.PathLike))
    if path:
        with open(source, "rb") as handle:
            # one character per byte, so a character's index is its byte's
            text = handle.read().decode("latin-1")
    else:
        text = source.read()
    if not text.isascii():
        at = next(i for i, c in enumerate(text) if not c.isascii())
        if path:
            raise ParseError("non-ASCII byte", f"{source}, byte {at}")
        # the text up to the character, a "?" in its place, in the readers' lines
        head = (text[:at] + "?").splitlines()
        raise ParseError("non-ASCII character", f"line {len(head)}, character {len(head[-1]) - 1}")
    yield from read_lines(text.splitlines())


def _each_line(parse_line: Callable[..., MultiGraph], lines: list[str]) -> Iterator[MultiGraph]:
    """One graph per non-blank line, each error naming its line."""
    for i, line in enumerate(lines):
        if line.strip():
            yield parse_line(line, where=f"line {i + 1}")


# each format's writer of one graph's text, newline included, and its
# reader of a text's lines; FORMATS, write and parse all read it
_CODECS = {
    EDGE_LIST: (write_edge_list, _parse_edge_list),
    GRAPH6: (lambda g: write_graph6(g) + "\n", partial(_each_line, parse_graph6)),
    SPARSE6: (lambda g: write_sparse6(g) + "\n", partial(_each_line, parse_sparse6)),
}
FORMATS = tuple(_CODECS)


def _codec(fmt: str) -> tuple[Callable, Callable]:
    """The (writer, reader) pair of fmt."""
    if fmt not in _CODECS:
        raise ValueError(f"unknown format {fmt!r}")
    return _CODECS[fmt]


def write(graphs: Iterable[MultiGraph], fmt: str = EDGE_LIST) -> str:
    return "".join(map(_codec(fmt)[0], graphs))
