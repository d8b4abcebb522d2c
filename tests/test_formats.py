import errno
import io
import random

import networkx as nx
import pytest

from cubicmatch.formats import (
    EDGE_LIST,
    FORMATS,
    GRAPH6,
    SPARSE6,
    ParseError,
    _n_to_data,
    parse,
    parse_graph6,
    parse_sparse6,
    write,
    write_edge_list,
    write_graph6,
    write_sparse6,
)
from cubicmatch.harness import bridgeless_cubic_catalog
from cubicmatch.klee import enumerate_klee
from cubicmatch.multigraph import MultiGraph
from cubicmatch.named_graphs import k4, petersen, three_bond


def random_multigraph(rnd, max_n=14):
    n = rnd.randint(2, max_n)
    edges = []
    for _ in range(rnd.randint(1, 2 * n)):
        u, v = rnd.sample(range(n), 2)
        edges.append((u, v))
    return MultiGraph(n, tuple(edges))


class TestEdgeList:
    def test_three_bond(self):
        gs = list(parse(io.StringIO("2 3\n0 1\n0 1\n0 1\n"), EDGE_LIST))
        assert len(gs) == 1 and gs[0].multiplicity(0, 1) == 3

    def test_roundtrip_stream(self):
        text = write_edge_list(k4()) + write_edge_list(petersen())
        gs = list(parse(io.StringIO(text), EDGE_LIST))
        assert [g.vertex_count for g in gs] == [4, 10]
        assert gs[1].edges == petersen().edges

    def test_truncated(self):
        with pytest.raises(ParseError):
            list(parse(io.StringIO("4 3\n0 1\n1 2\n"), EDGE_LIST))

    def test_bad_header(self):
        with pytest.raises(ParseError) as err:
            list(parse(io.StringIO("4\n"), EDGE_LIST))
        assert "line 1" in str(err.value)

    def test_loop_reported_with_position(self):
        with pytest.raises(ParseError):
            list(parse(io.StringIO("2 1\n1 1\n"), EDGE_LIST))

    @pytest.mark.parametrize("text, line", [("4 -1\n", 1), ("2 0\n\n4 -3\n0 1\n", 3)])
    def test_negative_edge_count(self, text, line):
        # "4 -1" used to read no edges and give the empty graph on 4 vertices
        with pytest.raises(ParseError, match="negative edge count") as err:
            list(parse(io.StringIO(text), EDGE_LIST))
        assert err.value.position == f"line {line}"

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("4 3\n0 1\n1 2\n", "expected 3 edges, found 2", "line 3"),
            # a truncated graph names the last line of the input, even a
            # blank one
            ("4 3\n0 1\n1 2\n\n\n", "expected 3 edges, found 2", "line 5"),
            ("4 2\n\n\n", "expected 2 edges, found 0", "line 3"),
            ("1 99999999999999999999999\n", "found 0", "line 1"),
            # a graph that MultiGraph refuses names its last line read
            ("2 1\n\n1 1\n\n", "loop edge", "graph ending at line 3"),
            ("2 0\n\n\n-1 0\n\n", "vertex_count", "graph ending at line 4"),
        ],
    )
    def test_error_positions(self, text, message, position):
        with pytest.raises(ParseError, match=message) as err:
            list(parse(io.StringIO(text), EDGE_LIST))
        assert err.value.position == position


class TestGraph6:
    def test_k4_is_c_tilde(self):
        assert write_graph6(k4()) == "C~"
        g = parse_graph6("C~")
        assert g.vertex_count == 4 and len(g.edges) == 6

    def test_header_accepted(self):
        g = parse_graph6(">>graph6<<C~")
        assert g.vertex_count == 4

    def test_rejects_multigraph(self):
        with pytest.raises(ValueError):
            write_graph6(three_bond())

    def test_roundtrip_vs_networkx(self):
        rnd = random.Random(97)
        for _ in range(150):
            g = random_multigraph(rnd)
            simple = MultiGraph(g.vertex_count, tuple(sorted(set(g.edges))))
            mine = write_graph6(simple)
            G = nx.Graph()
            G.add_nodes_from(range(simple.vertex_count))
            G.add_edges_from(simple.edges)
            theirs = nx.to_graph6_bytes(G, header=False).decode().strip()
            assert mine == theirs
            back = parse_graph6(mine)
            assert sorted(back.edges) == sorted(simple.edges)

    def test_truncated_bits(self):
        with pytest.raises(ParseError):
            parse_graph6("I")  # header says n=10, no adjacency bytes

    @pytest.mark.parametrize("line, byte", [("C~~", 2), ("C~?", 2), ("@?", 1), ("~??C~~", 5)])
    def test_trailing_bytes(self, line, byte):
        # "C~~" and "C~?" used to parse as K4
        with pytest.raises(ParseError, match="adjacency bytes") as err:
            parse_graph6(line)
        assert err.value.position == f"graph6, byte {byte}"

    @pytest.mark.parametrize(
        "line, byte",
        [(">>graph6<<C~~", 12), ("  C~~", 4), (b" >>graph6<<C~?", 13), ("\tC\x01~", 2)],
    )
    def test_byte_positions_count_from_the_line_as_passed(self, line, byte):
        # leading blanks and the header are counted, not skipped
        with pytest.raises(ParseError) as err:
            parse_graph6(line)
        assert err.value.position == f"graph6, byte {byte}"

    @pytest.mark.parametrize(
        "line, message, byte",
        [
            ("  ~?", "truncated vertex count", 4),
            (" >>graph6<<~~??", "truncated vertex count", 15),
            ("  >>graph6<<", "missing vertex count", 12),
        ],
    )
    def test_vertex_count_errors_name_the_first_missing_byte(self, line, message, byte):
        with pytest.raises(ParseError, match=message) as err:
            parse_graph6(line)
        assert err.value.position == f"graph6, byte {byte}"

    def test_padding_bits_are_ignored(self):
        # as in networkx: K2 is "A_", and "A~" sets its five padding bits
        assert parse_graph6("A~").edges == parse_graph6("A_").edges == ((0, 1),)

    def test_catalog_lines_agree_with_networkx(self, catalogs):
        # a simple graph's line, and the line one byte longer or shorter
        graphs = [g for n in range(2, 11, 2) for g in catalogs(n) if g.is_simple()]
        graphs += [k4(), petersen(), MultiGraph(0, ()), MultiGraph(1, ())]
        for g in graphs:
            line = write_graph6(g)
            assert sorted(parse_graph6(line).edges) == sorted(networkx_graph6(line))
            for wrong in (line + "?", line[:-1]):
                assert graph6_verdicts(wrong) == (False, False)


def networkx_graph6(line):
    """networkx's reading of a graph6 line, as sorted (u, v) pairs with u < v."""
    return sorted(tuple(sorted(e)) for e in nx.from_graph6_bytes(line.encode()).edges())


def graph6_verdicts(line):
    """Whether parse_graph6 and networkx each accept the line."""
    try:
        parse_graph6(line)
        mine = True
    except ParseError:
        mine = False
    try:
        networkx_graph6(line)
        theirs = True
    except (nx.NetworkXError, ValueError, IndexError):
        theirs = False
    return mine, theirs


def bit_list_sparse6(g):
    """sparse6 by a list of single bits, six of them per output byte: the
    writer before it packed its bits into an int."""
    n = g.vertex_count
    k = 1
    while (1 << k) < n:
        k += 1

    def enc(x):
        return [(x >> (k - 1 - i)) & 1 for i in range(k)]

    edges = sorted((max(u, v), min(u, v)) for u, v in g.edges)
    bits = []
    curv = 0
    for v, u in edges:
        if v == curv:
            bits.append(0)
            bits.extend(enc(u))
        elif v == curv + 1:
            curv += 1
            bits.append(1)
            bits.extend(enc(u))
        else:
            curv = v
            bits.append(1)
            bits.extend(enc(v))
            bits.append(0)
            bits.extend(enc(u))
    pad = (-len(bits)) % 6
    if k < 6 and n == (1 << k) and pad >= k and curv < n - 1:
        bits.append(0)
        pad = (-len(bits)) % 6
    bits.extend([1] * pad)
    out = b":" + bytes(d + 63 for d in _n_to_data(n))
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i:i + 6]:
            val = (val << 1) | b
        out += bytes([val + 63])
    return out.decode("ascii")


def takes_padding_branch(g):
    """Whether writing g leads its padding with a 0 bit: n = 2^k with
    k < 6, at least k padding bits, and no edge at vertex n - 1."""
    n = g.vertex_count
    k = max(1, (n - 1).bit_length())
    edges = sorted((max(u, v), min(u, v)) for u, v in g.edges)
    length = curv = 0
    for v, _ in edges:
        length += k + 1 if v - curv in (0, 1) else 2 * k + 2
        curv = v
    return k < 6 and n == 1 << k and (-length) % 6 >= k and curv < n - 1


class TestSparse6:
    def test_three_bond(self):
        s = write_sparse6(three_bond())
        assert s == ":A_"
        assert parse_sparse6(s).multiplicity(0, 1) == 3

    def test_missing_colon(self):
        with pytest.raises(ParseError):
            parse_sparse6("A_")

    @pytest.mark.parametrize(
        "line, byte",
        [(":A\x01", 2), (">>sparse6<<:A\x01", 13), ("  :A\x01", 4), (b"\t:\x01", 2)],
    )
    def test_byte_positions_count_from_the_line_as_passed(self, line, byte):
        # the ':', the header and leading blanks are counted, not skipped
        with pytest.raises(ParseError, match="invalid byte") as err:
            parse_sparse6(line)
        assert err.value.position == f"sparse6, byte {byte}"

    @pytest.mark.parametrize(
        "line, message, byte",
        [
            ("  A_", "must start with ':'", 2),
            (" >>sparse6<<A_", "must start with ':'", 12),
            ("  :", "missing vertex count", 3),
            (" >>sparse6<<:", "missing vertex count", 13),
            ("  :~?", "truncated vertex count", 5),
            (" >>sparse6<<:~~???", "truncated vertex count", 18),
        ],
    )
    def test_header_and_count_errors_name_a_byte(self, line, message, byte):
        # the byte where ':' was expected, or the first missing count byte
        with pytest.raises(ParseError, match=message) as err:
            parse_sparse6(line)
        assert err.value.position == f"sparse6, byte {byte}"

    def test_stream_position_names_line_and_byte(self):
        with pytest.raises(ParseError) as err:
            list(parse(io.StringIO(":A_\n >>sparse6<<:A\x01\n"), SPARSE6))
        assert err.value.position == "line 2, byte 14"

    def test_roundtrip_vs_networkx(self):
        rnd = random.Random(101)
        for _ in range(300):
            g = random_multigraph(rnd)
            mine = write_sparse6(g)
            G = nx.MultiGraph()
            G.add_nodes_from(range(g.vertex_count))
            G.add_edges_from(g.edges)
            theirs = nx.to_sparse6_bytes(G, header=False).decode().strip()
            assert mine == theirs
            back = parse_sparse6(mine)
            assert sorted(back.edges) == sorted(g.edges)
            via_nx = nx.from_sparse6_bytes(mine.encode())
            assert sorted(tuple(sorted(e)) for e in via_nx.edges()) == sorted(g.edges)

    def test_power_of_two_padding_case(self):
        # orders 2, 4, 8, 16 exercise the special padding rule
        rnd = random.Random(103)
        for n in (2, 4, 8, 16):
            for _ in range(40):
                edges = []
                for _ in range(rnd.randint(1, n)):
                    u, v = rnd.sample(range(n), 2)
                    edges.append((u, v))
                g = MultiGraph(n, tuple(edges))
                G = nx.MultiGraph()
                G.add_nodes_from(range(n))
                G.add_edges_from(g.edges)
                assert write_sparse6(g) == nx.to_sparse6_bytes(G, header=False).decode().strip()
                assert sorted(parse_sparse6(write_sparse6(g)).edges) == sorted(g.edges)

    def test_packed_writer_equals_bit_list_writer(self):
        graphs = [g for n in range(2, 13, 2) for g in bridgeless_cubic_catalog(n)]
        graphs += [g for n in range(4, 17, 2) for g in enumerate_klee(n)]
        rnd = random.Random(211)
        graphs += [random_multigraph(rnd, 40) for _ in range(300)]
        graphs += [MultiGraph(0, ()), MultiGraph(1, ())]
        for g in graphs:
            assert write_sparse6(g) == bit_list_sparse6(g)

    def test_packed_writer_takes_the_padding_branch(self):
        # at n = 2 every edge ends at vertex 1 = n - 1, so no graph of
        # order 2 takes the branch; those below check the plain padding
        plain = [
            MultiGraph(2, ()),
            MultiGraph(2, ((0, 1),)),
            MultiGraph(2, ((0, 1), (0, 1), (0, 1))),
        ]
        branch = [
            MultiGraph(4, ((0, 1),)),
            MultiGraph(4, ((0, 2), (1, 2))),
            MultiGraph(8, ((0, 1), (1, 2))),
            MultiGraph(8, ((0, 3), (1, 3), (2, 3), (0, 4))),
            MultiGraph(16, ((0, 1), (1, 2), (2, 3), (3, 4))),
            MultiGraph(16, ((0, 9), (0, 9), (3, 14))),
        ]
        assert not any(takes_padding_branch(g) for g in plain)
        assert all(takes_padding_branch(g) for g in branch)
        for g in plain + branch:
            assert write_sparse6(g) == bit_list_sparse6(g)
            assert sorted(parse_sparse6(write_sparse6(g)).edges) == sorted(g.edges)


class TestWideOrders:
    """Orders past the one-byte vertex count, where sparse6 ids take more
    than six bits."""

    @pytest.mark.parametrize(
        "n, count_bytes, k",
        [(62, 1, 6), (63, 4, 6), (64, 4, 6), (65, 4, 7), (258047, 4, 18), (258048, 8, 18)],
    )
    def test_sparse6_roundtrip_across_count_forms_and_id_widths(self, n, count_bytes, k):
        g = MultiGraph(n, ((0, 1), (0, 1), (1, n - 1), (n - 2, n - 1), (n // 2, n - 3)))
        line = write_sparse6(g)
        # two jumps of 2k + 2 bits and three edges of k + 1, padded to bytes
        assert len(line) == 1 + count_bytes + -(-7 * (k + 1) // 6)
        assert line == bit_list_sparse6(g)
        assert sorted(parse_sparse6(line).edges) == sorted(g.edges)

    @pytest.mark.parametrize("n", [61, 62, 63, 64, 65, 100, 127, 128, 129, 130])
    def test_graph6_and_sparse6_vs_networkx(self, n):
        rnd = random.Random(n)
        for _ in range(4):
            edges = tuple(tuple(rnd.sample(range(n), 2)) for _ in range(rnd.randint(1, 2 * n)))
            g = MultiGraph(n, edges)
            simple = MultiGraph(n, tuple(sorted(set(g.edges))))
            G = nx.MultiGraph()
            G.add_nodes_from(range(n))
            G.add_edges_from(g.edges)
            sparse = nx.to_sparse6_bytes(G, header=False).decode().strip()
            dense = nx.to_graph6_bytes(nx.Graph(G), header=False).decode().strip()
            assert write_sparse6(g) == sparse
            assert write_graph6(simple) == dense
            assert sorted(parse_sparse6(sparse).edges) == sorted(g.edges)
            assert sorted(parse_graph6(dense).edges) == sorted(simple.edges)


class TestFrontDoor:
    def test_write_parse_all_formats(self):
        # write and parse read one table, whose keys FORMATS lists in order
        assert FORMATS == (EDGE_LIST, GRAPH6, SPARSE6)
        gs = [k4(), petersen()]
        for fmt in FORMATS:
            text = write(gs, fmt)
            back = list(parse(io.StringIO(text), fmt))
            assert [sorted(g.edges) for g in back] == [sorted(g.edges) for g in gs]

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="unknown format 'dot'"):
            write([k4()], "dot")
        with pytest.raises(ValueError, match="unknown format 'dot'"):
            list(parse(io.StringIO(write([k4()])), "dot"))

    def test_parse_from_path(self, tmp_path):
        p = tmp_path / "g.el"
        p.write_text(write_edge_list(petersen()))
        gs = list(parse(str(p), EDGE_LIST))
        assert gs[0].vertex_count == 10

    def test_parse_from_path_object(self, tmp_path):
        # a pathlib.Path used to raise AttributeError: no attribute 'read'
        p = tmp_path / "g.el"
        p.write_text(write_edge_list(petersen()))
        assert [g.edges for g in parse(p)] == [petersen().edges]

    def test_missing_path_reported_as_missing(self, tmp_path):
        missing = str(tmp_path / "nosuchfile.el")
        with pytest.raises(FileNotFoundError) as err:
            list(parse(missing, EDGE_LIST))
        assert missing in str(err.value)

    def test_existing_path_that_cannot_be_opened_is_an_error(self, tmp_path):
        # a directory named like K4's graph6 line is not read as that line
        directory = tmp_path / "C~"
        directory.mkdir()
        for fmt in (GRAPH6, EDGE_LIST):
            with pytest.raises(OSError) as err:
                list(parse(str(directory), fmt))
            assert str(directory) in str(err.value)

    def test_a_string_is_always_a_path(self, tmp_path, monkeypatch):
        # "C~" is K4 in graph6; it used to be read as that line, or as the
        # file where one of that name exists
        monkeypatch.chdir(tmp_path)
        with pytest.raises(FileNotFoundError):
            list(parse("C~", GRAPH6))
        with open("C~", "w") as fh:
            fh.write(write_edge_list(petersen()))
        with pytest.raises(ParseError, match="invalid byte"):
            list(parse("C~", GRAPH6))
        assert [g.edges for g in parse("C~", EDGE_LIST)] == [petersen().edges]
        assert [sorted(g.edges) for g in parse(io.StringIO("C~"), GRAPH6)] == [sorted(k4().edges)]

    def test_text_too_long_for_a_file_name_still_parses(self):
        g = MultiGraph(400, tuple((v, (v + 1) % 400) for v in range(400)))
        text = write_sparse6(g)
        with pytest.raises(OSError) as err:
            list(parse(text, SPARSE6))
        assert err.value.errno == errno.ENAMETOOLONG
        assert [sorted(h.edges) for h in parse(io.StringIO(text), SPARSE6)] == [sorted(g.edges)]

    def test_one_line_text_still_parses(self):
        assert [g.vertex_count for g in parse(io.StringIO(write_graph6(k4())), GRAPH6)] == [4]

    def test_header_error_names_its_line(self):
        # it used to say "no such file, and not valid graph text (3 x)"
        with pytest.raises(ParseError, match=r"^non-integer header fields \(line 1\)$"):
            list(parse(io.StringIO("3 x")))

    def test_non_ascii_file_reported_with_position(self, tmp_path):
        p = tmp_path / "g.el"
        p.write_bytes(b"2 1\n0 1 \xe9\n")
        with pytest.raises(ParseError) as err:
            list(parse(str(p), EDGE_LIST))
        assert "byte 8" in str(err.value)


class TestFuzz:
    """Seeded random input: every parser raises ParseError and nothing else."""

    ALPHABET = [chr(c) for c in range(128)] + ["\xe9", " "]

    @staticmethod
    def parse_errors(parser, text):
        try:
            parser(text)
        except ParseError as exc:
            return [str(exc)]
        return []

    def test_sparse6_and_graph6_payloads(self):
        rnd = random.Random(107)
        errors = []
        accepted = 0
        for _ in range(3000):
            body = "".join(chr(rnd.randint(63, 126)) for _ in range(rnd.randint(0, 12)))
            errors += self.parse_errors(parse_sparse6, ":" + body)
            errors += self.parse_errors(parse_graph6, body)
            mine, theirs = graph6_verdicts(body)
            assert mine == theirs, body
            accepted += mine
        # some payloads decode to loops, which a MultiGraph refuses
        assert any("loop" in e for e in errors)
        assert accepted

    def test_arbitrary_text(self):
        rnd = random.Random(109)

        def edge_list(text):
            return list(parse(io.StringIO(text), EDGE_LIST))

        for _ in range(3000):
            text = "".join(rnd.choice(self.ALPHABET) for _ in range(rnd.randint(0, 12)))
            for parser in (parse_sparse6, parse_graph6, edge_list):
                self.parse_errors(parser, text)

    def test_edge_list_records(self):
        rnd = random.Random(113)
        tokens = ["0", "1", "2", "3", "5", "-1", "x", ""]
        for _ in range(3000):
            lines = [
                " ".join(rnd.choice(tokens) for _ in range(rnd.randint(0, 3)))
                for _ in range(rnd.randint(1, 6))
            ]
            self.parse_errors(lambda t: list(parse(io.StringIO(t), EDGE_LIST)), "\n".join(lines))
