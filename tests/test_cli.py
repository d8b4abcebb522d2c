import json

import pytest

from cubicmatch.cli import main
from cubicmatch.formats import parse, write_edge_list
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
    assert capsys.readouterr().out.splitlines()[0] == "6"


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


def test_klee_enum(capsys):
    assert main(["klee", "enum", "--n", "10"]) == 0
    graphs = list(parse(capsys.readouterr().out, "edge_list"))
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


def test_usage_error_exit_code():
    assert main(["count"]) == 2
    assert main(["nonsense"]) == 2


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.el"
    bad.write_text("4 2\n0 1\n")
    assert main(["count", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_analyze_exceptional(tmp_path, capsys):
    p = tmp_path / "ex.el"
    p.write_text(write_edge_list(exceptional_graph()))
    assert main(["analyze", str(p)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["pm_count"] == 6 and data["invariants"]["exceptional"] is True
