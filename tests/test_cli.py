import hashlib
import io
import json
import os

import pytest

from cubicmatch import matching
from cubicmatch.cli import main
from cubicmatch.formats import parse, write_edge_list
from cubicmatch.harness import generate_catalog, verify_catalog
from cubicmatch.named_graphs import exceptional_graph, petersen


@pytest.fixture
def petersen_file(tmp_path):
    p = tmp_path / "petersen.el"
    p.write_text(write_edge_list(petersen()))
    return str(p)


def test_count(petersen_file, capsys):
    assert main(["count", petersen_file]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "6"
    assert all(line.endswith(" 2") for line in out[1:])


def test_count_forbid(petersen_file, capsys):
    assert main(["count", "--forbid", "0", petersen_file]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "4"


def test_count_oracle(petersen_file, capsys):
    assert main(["count", "--oracle", petersen_file]) == 0
    lines = "".join(f"edge {e} {u} {v} 2\n" for e, (u, v) in enumerate(petersen().edges))
    assert capsys.readouterr().out == "6\n" + lines


@pytest.mark.parametrize("constraints", [[], ["--force", "0", "--forbid", "7"]])
def test_count_oracle_per_edge_from_oracle(petersen_file, capsys, monkeypatch, constraints):
    assert main(["count", *constraints, petersen_file]) == 0
    expected = capsys.readouterr().out

    def unavailable(*args, **kwargs):
        raise AssertionError("count --oracle must not use matching_profile")

    monkeypatch.setattr("cubicmatch.cli.matching_profile", unavailable)
    assert main(["count", "--oracle", *constraints, petersen_file]) == 0
    assert capsys.readouterr().out == expected


def test_decompose(petersen_file, capsys):
    assert main(["decompose", petersen_file]) == 0
    assert capsys.readouterr().out == (
        "piece 0 kind=brick n=10 m=15\nbricks 1\nbraces 0\ndimension 5\n"
    )


def test_decompose_pieces(tmp_path, capsys):
    p = tmp_path / "exceptional.el"
    p.write_text(write_edge_list(exceptional_graph()))
    assert main(["decompose", str(p)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "piece 0 kind=brick n=4 m=6",
        "piece 1 kind=brace n=6 m=9",
        "piece 2 kind=brick n=4 m=6",
        "piece 3 kind=brick n=4 m=6",
        "bricks 3",
        "braces 1",
        "dimension 4",
    ]


def test_analyze_json(petersen_file, capsys):
    assert main(["analyze", petersen_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["pm_count"] == 6
    assert data["all_satisfied"] is True


def test_analyze_reads_stdin_from_dash(petersen_file, capsys, monkeypatch):
    assert main(["analyze", petersen_file]) == 0
    expected = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(write_edge_list(petersen())))
    assert main(["analyze", "-"]) == 0
    assert capsys.readouterr().out == expected


def test_missing_file_exits_2_with_the_os_error(tmp_path, capsys):
    # it used to say "cannot open input file", in words of its own
    missing = tmp_path / "nosuchfile.el"
    assert main(["analyze", str(missing)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"


def test_klee_enum(capsys):
    assert main(["klee", "enum", "--n", "10"]) == 0
    graphs = list(parse(io.StringIO(capsys.readouterr().out), "edge_list"))
    assert len(graphs) == 3
    assert all(g.vertex_count == 10 for g in graphs)


def test_catalog_verify(tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    assert main(["catalog", "verify", "--n", "6", "--class", "all_bridgeless_cubic",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 5
    reports = [json.loads(line) for line in lines]
    assert all(r["all_satisfied"] for r in reports)
    assert [r["index"] for r in reports] == list(range(5))


def test_catalog_verify_deterministic(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    main(["catalog", "verify", "--n", "6", "--out", str(a)])
    main(["catalog", "verify", "--n", "6", "--out", str(b)])
    assert a.read_text() == b.read_text()


def test_gen_sparse6(capsys):
    assert main(["gen", "--n", "6", "--out-format", "sparse6"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 5
    assert all(line.startswith(":") for line in out)


@pytest.mark.parametrize(
    "out_format, digest",
    [
        ("edge_list", "26a3011c736a110d441d9765b78101a5784a468f5878ce3096850f66a2e28daf"),
        ("sparse6", "06793429d6e1ca73a54f656bdef45a5901a9fab48b06499e67b4966bc90d1dea"),
    ],
)
def test_gen_12_keeps_its_representatives(catalogs, capsys, out_format, digest):
    # the bytes of `gen --n 12`, which name the representative kept for
    # each class; the catalog comes from the session cache
    catalogs(12)
    assert main(["gen", "--n", "12", "--out-format", out_format]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_catalog_verify_12_keeps_its_reports(catalogs, capsys):
    # the reports on stdout and the summary on stderr; the catalog comes
    # from the session cache
    catalogs(12)
    assert main(["catalog", "verify", "--n", "12"]) == 0
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6afcb81d59a3c66062d4683d75126273a830c7a35ad322065d8aa2eada35d280"
    )
    assert hashlib.sha256(err.encode()).hexdigest() == (
        "f70c5eb204b54f0f1331a15fee827784bdfc710fd35a68a4bee0a2107e7ca921"
    )


@pytest.mark.parametrize(
    "n, digest",
    [
        (2, "eff95c6eefaf5d57c2027c4c84349983ac1931db439193a353ef17aa5c50e4c2"),
        (4, "fcc9fe4744deb5d0154a821e4c3bea96678c774daea8486a7301e2430acf6794"),
        (6, "3c69f5fbd3a7e1b508504387417269c2c6e97c5d9078b2b625012dae8a5b77ba"),
        (8, "9777237e22ac0e63199ff63a87c6b7e5e74a6f628ee6d5da217997b746294cae"),
        (10, "b2b156186b49f4f62b99b5a93d699d14b84da74836ab38507f404af665d58ef6"),
    ],
)
def test_catalog_verify_small_orders_keep_their_reports(catalogs, capsys, n, digest):
    # the bounds 3n/4 - 10 and 3n/4 - 9 are negative here, and some
    # bounds and slacks are fractions, so the strings take every form
    catalogs(n)
    assert main(["catalog", "verify", "--n", str(n)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_catalog_verify_help_says_what_the_scarce_line_counts(capsys):
    assert main(["catalog", "verify", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "perfect matchings up to n=N' counts such graphs over every even order" in text
    assert "it ignores --class and --simple-only" in text


def test_catalog_verify_14_keeps_its_reports(capsys):
    # every n = 14 brick count passes through the tight-cut rule
    assert main(["catalog", "verify", "--n", "14"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "4f227e80600cc6798d552253a69eee6187d0a1c47c79796aded9bfe458df0001"


def test_gen_14_keeps_its_representatives(capsys):
    # the edge lists kept for each n = 14 class, which `catalog verify`
    # does not show: its reports name canonical forms
    assert main(["gen", "--n", "14", "--out-format", "sparse6"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "f89f059be4207f100df1bca069f789612db85e724975a7b0015feca0aad6bd31"


def test_usage_error_exit_code():
    assert main(["count"]) == 2
    assert main(["nonsense"]) == 2


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.el"
    bad.write_text("4 2\n0 1\n")
    assert main(["count", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, fmt",
    [("4 -1\n", "edge_list"), ("C~~\n", "graph6"), ("C~?\n", "graph6")],
)
def test_malformed_header_or_length_is_a_parse_error(tmp_path, capsys, text, fmt):
    # each used to exit 0: "4 -1" printed 0, and both graph6 lines K4's 3
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    assert main(["count", str(bad), "--format", fmt]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:")


def test_analyze_refuses_the_order_zero_graph(tmp_path, capsys):
    # it used to print "error: max() arg is an empty sequence"
    empty = tmp_path / "empty.el"
    empty.write_text("0 0\n")
    assert main(["analyze", str(empty)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: verify_graph requires a graph with at least one vertex\n"



def test_analyze_refuses_a_huge_order_before_building_it(tmp_path, capsys):
    # "1000000 0" used to build a million incidence lists (95 MB) before
    # the cubic check failed; never test a larger order
    huge = tmp_path / "huge.el"
    huge.write_text("1000000 0\n")
    assert main(["analyze", str(huge)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: verify_graph requires a cubic graph\n"


def prism_edge_list(n):
    """The order-n prism, two n/2-cycles joined by rungs, as edge-list text."""
    k = n // 2
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [(k + i, k + (i + 1) % k) for i in range(k)]
    edges += [(i, k + i) for i in range(k)]
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


@pytest.mark.parametrize("command", ["analyze", "count", "decompose"])
def test_count_overflow_is_an_error_not_a_failed_bound(tmp_path, capsys, command):
    # the order-400 prism has more than 2^63 perfect matchings; each
    # command used to end in a traceback and exit 1, which for analyze
    # means "a bound failed". analyze refuses the order before it counts.
    prism = tmp_path / "prism400.el"
    prism.write_text(prism_edge_list(400))
    assert main([command, str(prism)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    if command == "analyze":
        assert err == "error: verify_graph takes at most 16 vertices, got 400\n"
    else:
        assert err == "error: perfect matching count exceeds 64-bit range\n"


def test_count_refuses_an_order_past_the_kernel_limit(tmp_path, capsys):
    # a perfect matching of 1,990 vertices used to overflow the stack
    # (RecursionError, exit 1); the limit is checked before any table
    limit = matching._ORDER_LIMIT
    past = tmp_path / "past.el"
    past.write_text(f"{limit + 2} {limit // 2 + 1}\n"
                    + "".join(f"{2 * i} {2 * i + 1}\n" for i in range(limit // 2 + 1)))
    assert main(["count", str(past)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: matching_profile counts perfect matchings of at most "
                   f"{limit} vertices, got {limit + 2}\n")


def test_count_oracle_refuses_more_than_512_edges(tmp_path, capsys):
    # a ring of 700 vertices plus its 350 diameters: the subset walk would
    # overflow the stack (RecursionError, exit 1, the "bound failed" code)
    ladder = tmp_path / "ladder.el"
    ladder.write_text("700 1050\n" + "".join(f"{i} {(i + 1) % 700}\n" for i in range(700))
                      + "".join(f"{i} {i + 350}\n" for i in range(350)))
    assert main(["count", "--oracle", str(ladder)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: count_perfect_matchings_oracle walks at most 512 edges, got 1050\n"


def test_count_at_the_kernel_limit(tmp_path, capsys):
    limit = matching._ORDER_LIMIT
    at = tmp_path / "at.el"
    at.write_text(f"{limit} {limit // 2}\n"
                  + "".join(f"{2 * i} {2 * i + 1}\n" for i in range(limit // 2)))
    assert main(["count", str(at)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "1" and len(lines) == 1 + limit // 2


def test_directory_named_like_graph_text_is_an_error(tmp_path, capsys, monkeypatch):
    # "C~" is also K4 in graph6; the directory must not be read as that text
    monkeypatch.chdir(tmp_path)
    os.mkdir("C~")
    assert main(["count", "C~", "--format", "graph6"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and "C~" in err


def test_directory_input_is_an_error(tmp_path, capsys):
    assert main(["analyze", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert str(tmp_path) in err and "expected header" not in err


@pytest.mark.parametrize("command", ["analyze", "count", "decompose"])
def test_single_graph_commands_refuse_two_graphs(tmp_path, capsys, command):
    two = tmp_path / "two.el"
    two.write_text(write_edge_list(petersen()) + write_edge_list(exceptional_graph()))
    assert main([command, str(two)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "expected one graph, found 2" in err


@pytest.mark.parametrize(
    "command, digest",
    [
        ("analyze", "5080ef0dd1fee4c2256fee36f58489cc415933641651b32ffd7ebdb4d1cc1168"),
        ("count", "3d38a955f015104901fcbd587cb6767668dbd95a5bcd0093cb8ceb495233d032"),
    ],
)
def test_single_graph_commands_keep_their_bytes(petersen_file, capsys, command, digest):
    # the bytes each command printed on Petersen before it refused more
    # than one graph; test_decompose pins those of decompose
    assert main([command, petersen_file]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_analyze_exceptional(tmp_path, capsys):
    p = tmp_path / "ex.el"
    p.write_text(write_edge_list(exceptional_graph()))
    assert main(["analyze", str(p)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["pm_count"] == 6 and data["invariants"]["exceptional"] is True


def test_catalog_verify_names_each_violator(tmp_path, capsys, monkeypatch):
    real = verify_catalog

    failing = {1: ("pm_ge_n4_plus_2",), 3: ("pm_ge_n4_plus_2", "pm_ge_3n4_minus_10")}

    def two_failing(graphs):
        reports = real(graphs, workers=1)
        for index, tags in failing.items():
            bad = reports[index]
            bad.results = [
                r._replace(satisfied=False) if r.tag in tags else r for r in bad.results
            ]
        return reports

    monkeypatch.setattr("cubicmatch.cli.verify_catalog", two_failing)
    assert main(["catalog", "verify", "--n", "6"]) == 1
    captured = capsys.readouterr()
    reports = two_failing(generate_catalog(6))
    # the reports on stdout are exactly the JSONL lines, names only on stderr
    assert captured.out == "".join(
        json.dumps(r.to_json(), sort_keys=True) + "\n" for r in reports
    )
    err = captured.err.splitlines()
    assert err[0].endswith("VIOLATIONS FOUND")
    assert err[1:3] == [
        f"violation: index 1 canonical {reports[1].canonical_hex} failed pm_ge_n4_plus_2",
        f"violation: index 3 canonical {reports[3].canonical_hex} "
        "failed pm_ge_n4_plus_2,pm_ge_3n4_minus_10",
    ]
    assert not any(line.startswith("violation:") for line in err[3:])
    out = tmp_path / "report.jsonl"
    assert main(["catalog", "verify", "--n", "6", "--out", str(out)]) == 1
    captured_out = capsys.readouterr()
    assert captured_out.out == ""
    assert out.read_text() == captured.out
    assert captured_out.err == captured.err


def no_sweep(*args, **kwargs):
    raise AssertionError("the catalog was built before the settings were checked")


def test_catalog_verify_rejects_non_integer_workers(monkeypatch, capsys):
    monkeypatch.setattr("cubicmatch.cli.generate_catalog", no_sweep)
    for value in ("two", "2.5"):
        monkeypatch.setenv("CUBICMATCH_WORKERS", value)
        assert main(["catalog", "verify", "--n", "4"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: CUBICMATCH_WORKERS must be an integer >= 1, got {value!r}\n"


@pytest.mark.parametrize("value", ["0", "-3"])
def test_catalog_verify_rejects_workers_below_one(monkeypatch, capsys, value):
    monkeypatch.setattr("cubicmatch.cli.generate_catalog", no_sweep)
    monkeypatch.setenv("CUBICMATCH_WORKERS", value)
    assert main(["catalog", "verify", "--n", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: CUBICMATCH_WORKERS must be an integer >= 1, got {value!r}\n"


def test_catalog_verify_opens_out_before_the_sweep(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("cubicmatch.cli.generate_catalog", no_sweep)
    target = tmp_path / "missing" / "report.jsonl"
    assert main(["catalog", "verify", "--n", "4", "--out", str(target)]) == 2
    out, err = capsys.readouterr()
    with pytest.raises(OSError) as missing:
        open(target, "w")
    assert out == ""
    assert err == f"error: {missing.value}\n"
