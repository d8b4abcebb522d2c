"""Readers and writers: native edge-list text, graph6, and sparse6.

graph6 encodes simple graphs only; sparse6 carries multigraphs and is
the interchange format for catalogs with parallel edges. Byte layouts
follow the published format specification.
"""

from __future__ import annotations

import os
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


def _parse_edge_list(lines: list[str]) -> Iterator[MultiGraph]:
    # the fields of every non-blank line, beside its line number
    numbered = ((i, fields) for i, fields in enumerate(map(str.split, lines), 1) if fields)
    for at, header in numbered:
        if len(header) != 2:
            raise ParseError("expected header 'n m'", f"line {at}")
        try:
            n, m = int(header[0]), int(header[1])
        except ValueError:
            raise ParseError("non-integer header fields", f"line {at}")
        if m < 0:
            raise ParseError(f"negative edge count {m}", f"line {at}")
        pairs = []
        # range first, so zip stops before it reads a line past the m-th
        for _, (at, fields) in zip(range(m), numbered):
            if len(fields) != 2:
                raise ParseError("expected edge line 'u v'", f"line {at}")
            try:
                pairs.append((int(fields[0]), int(fields[1])))
            except ValueError:
                raise ParseError("non-integer edge endpoints", f"line {at}")
        if len(pairs) < m:
            raise ParseError(f"expected {m} edges, found {len(pairs)}", f"line {len(lines)}")
        try:
            yield MultiGraph(n, tuple(pairs))
        except ValueError as exc:
            raise ParseError(str(exc), f"graph ending at line {at}")


# --------------------------------------------------------------------------
# graph6 / sparse6 byte helpers
# --------------------------------------------------------------------------


def _n_to_data(n: int) -> list[int]:
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if n <= 62:
        return [n]
    if n <= 258047:
        return [63, (n >> 12) & 63, (n >> 6) & 63, n & 63]
    if n <= 68719476735:
        return [63, 63,
                (n >> 30) & 63, (n >> 24) & 63, (n >> 18) & 63,
                (n >> 12) & 63, (n >> 6) & 63, n & 63]
    raise ValueError("vertex count too large for graph6/sparse6")


def _data_to_n(data: list[int], start: int, where: str) -> tuple[int, list[int]]:
    """The vertex count at the head of ``data`` (payload bytes less 63) and
    the bytes after it. An error names the first missing byte by its index
    in the line, where the payload starts at ``start``."""
    if not data:
        raise ParseError("missing vertex count", f"{where}, byte {start}")
    if data[0] <= 62:
        return data[0], data[1:]
    if len(data) >= 4 and data[1] <= 62:
        return (data[1] << 12) + (data[2] << 6) + data[3], data[4:]
    if len(data) >= 8:
        n = 0
        for d in data[2:8]:
            n = (n << 6) + d
        return n, data[8:]
    raise ParseError("truncated vertex count", f"{where}, byte {start + len(data)}")


def _bits(data: list[int]) -> str:
    """The six bits of each payload value in ``data``, high bit first, as
    one string of '0' and '1'."""
    return "".join(format(d, "06b") for d in data)


def _id_bits(n: int) -> int:
    """k, the bits of a vertex id in sparse6: the least k >= 1 with
    2^k >= n."""
    return max(1, (n - 1).bit_length())


def _payload(line: str | bytes, header: bytes, where: str) -> tuple[bytes, int]:
    """The line as stripped ASCII bytes, without its optional header, and
    the index in the line of the payload's first byte."""
    if isinstance(line, str):
        try:
            line = line.encode("ascii")
        except UnicodeEncodeError as exc:
            raise ParseError("non-ASCII character", f"{where}, character {exc.start}")
    start = len(line) - len(line.lstrip())
    if line.startswith(header, start):
        start += len(header)
    return line[start:].rstrip(), start


def _check_bytes(payload: bytes, start: int, where: str) -> list[int]:
    """The payload's bytes less 63; an error names the index in the line,
    where the payload starts at ``start``."""
    data = []
    for pos, byte in enumerate(payload):
        if not 63 <= byte <= 126:
            raise ParseError(f"invalid byte {byte!r}", f"{where}, byte {start + pos}")
        data.append(byte - 63)
    return data


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
    raw, start = _payload(line, b">>graph6<<", where)
    data = _check_bytes(raw, start, where)
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
    return MultiGraph(n, tuple(compress(pairs, map("1".__eq__, _bits(rest)))))


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
            stream = (stream << (k + 1)) | u
            length += k + 1
        elif v == curv + 1:
            # bit 1 moves to v, then u
            curv = v
            stream = (stream << (k + 1)) | (1 << k) | u
            length += k + 1
        else:
            # bit 1 and v set the current vertex, then bit 0 and u
            curv = v
            stream = (stream << (2 * k + 2)) | (1 << (2 * k + 1)) | (v << (k + 1)) | u
            length += 2 * k + 2
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
    raw, start = _payload(line, b">>sparse6<<", where)
    if not raw.startswith(b":"):
        raise ParseError("sparse6 line must start with ':'", f"{where}, byte {start}")
    data = _check_bytes(raw[1:], start + 1, where)
    n, rest = _data_to_n(data, start + 1, where)
    k = _id_bits(n)
    bits = _bits(rest)
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
    unchanged, and a non-ASCII byte in the file raises ParseError naming
    its index.
    """
    read_lines = _codec(fmt)[1]
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as handle:
            raw = handle.read()
        try:
            text = raw.decode("ascii")
        except UnicodeDecodeError as exc:
            raise ParseError("non-ASCII byte", f"{source}, byte {exc.start}")
    else:
        text = source.read()
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
