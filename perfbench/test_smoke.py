"""Tiny-size smoke test of the benchmark harness.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload at a tenth of its size with one measured call, traced
and untraced, and checks the result records against BENCHMARK.json.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TS = run.import_treesent()


def tiny(workload, trace, seed=3):
    return run.Run(TS, workload, seed, seconds=0, trace=trace, scale=0.1).execute()


@pytest.mark.parametrize("workload", sorted(run.workloads.WORKLOADS))
def test_workload_reports_every_metric(workload):
    plain_detail, plain = tiny(workload, trace=False)
    traced_detail, traced = tiny(workload, trace=True)
    for detail, result, spec in ((plain_detail, plain, BENCH["end_to_end"]),
                                 (traced_detail, traced, BENCH["per_layer"])):
        assert result["correct"], detail["failures"]
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert detail["error_rate"] == 0.0
        assert sorted(m["name"] for m in spec) == sorted(result["metrics"])
        assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert all(v["value"] > 0 for v in plain["metrics"].values())
    # tracing must not perturb the byte-compared artifacts
    assert plain_detail["digests"] == traced_detail["digests"]
    assert len(plain_detail["digests"]["stage"]) == 1
    env = plain_detail["env"]
    assert env["blas_threads"] is None or 1 <= env["blas_threads"] <= env["nproc"]


def test_generator_is_seeded():
    a = gen.polar_split(np.random.default_rng(5), 20)
    b = gen.polar_split(np.random.default_rng(5), 20)
    c = gen.polar_split(np.random.default_rng(6), 20)
    assert a == b and a.lines != c.lines
    assert len(a.nodes) == len(c.nodes) == 20 * (2 * 5 - 1)


def test_generator_nodes_match_the_parser():
    from treesent.treebank import extract_phrases, parse_tree

    split = gen.polar_split(np.random.default_rng(1), 10)
    records = [r for line in split.lines for r in extract_phrases(parse_tree(line))]
    assert [(r.text, r.label.value) for r in records] == list(split.nodes)


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-grid", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
