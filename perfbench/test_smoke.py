"""Smoke test of the benchmark on tiny inputs (``run.py --smoke``).

Checks that every metric BENCHMARK.json names is emitted with its unit,
that spans nest, that each correctness gate fails a run when its recorded
value is wrong, and that the benchmark refuses to run without sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        return json.load(fh)


def _run(root, workload, *extra):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--smoke", "--seconds", "0.2", *extra]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=root, timeout=300)


def _result(proc) -> dict:
    return json.loads(proc.stdout.splitlines()[-1])


def _copy_checkout(tmp_path, with_sources=True):
    root = tmp_path / "checkout"
    skip = shutil.ignore_patterns("__pycache__", "*.jsonl")
    shutil.copytree(os.path.join(ROOT, "perfbench"), root / "perfbench", ignore=skip)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root / "BENCHMARK.json")
    if with_sources:
        shutil.copytree(os.path.join(ROOT, "src"), root / "src", ignore=skip)
    return root


@pytest.mark.parametrize("workload", [w["name"] for w in _spec()["workloads"]])
def test_every_metric_is_emitted(workload, tmp_path):
    spec = _spec()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(ROOT, workload, "--trace", str(trace), "--spans", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        result = _result(proc)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        assert emitted == {m["name"]: m["unit"] for m in spec[key]}
        if trace == 0:
            assert all(m["value"] > 0 for m in result["metrics"].values())
    with open(tmp_path / f"{workload}-seed1.jsonl", encoding="ascii") as fh:
        spans = [json.loads(line) for line in fh]
    assert spans
    for span in spans:
        assert -1 <= span["parent"] < span["id"]
        assert 0 <= span["busy"] <= span["end"] - span["start"] + 1e-9


@pytest.mark.parametrize(
    "workload, field, failed",
    [("gen12", "canonical_sha256", 16), ("verify12", "line_sha256", 1),
     ("analyze16", "line_sha256", 1)],
)
def test_gate_fails_the_run(workload, field, failed, tmp_path):
    root = _copy_checkout(tmp_path)
    path = root / "perfbench" / "expected.json"
    expected = json.loads(path.read_text())
    record = expected["smoke"][workload]
    wrong = "0" * 64
    record[field] = [wrong] + record[field][1:] if isinstance(record[field], list) else wrong
    path.write_text(json.dumps(expected))
    proc = _run(str(root), workload)
    assert proc.returncode == 1
    result = _result(proc)
    assert not result["correct"]
    assert result["failed"] > 0 and result["failed"] % failed == 0
    if workload == "analyze16":
        other_seed = _run(str(root), workload, "--seed", "2")
        assert other_seed.returncode == 0 and _result(other_seed)["correct"]


def test_input_file_gate(tmp_path):
    root = _copy_checkout(tmp_path)
    path = root / "perfbench" / "catalog8.s6"
    path.write_text("".join(path.read_text().splitlines(True)[1:]))
    proc = _run(str(root), "verify12")
    assert proc.returncode == 1 and not _result(proc)["correct"]


def test_refuses_to_run_without_sources(tmp_path):
    root = _copy_checkout(tmp_path, with_sources=False)
    proc = _run(str(root), "gen12")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
