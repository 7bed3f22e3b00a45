"""Self-test of the benchmark at a tiny size.

    python3 -m pytest -q perfbench/test_perfbench.py

Runs every workload through ``run.py --size tiny``, with the arguments of a
full run otherwise, and checks the report rather than any timing.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, WORKLOADS  # noqa: E402


def _run(workload, seed, trace):
    """(report lines by key, printed metric units by name, final JSON)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    report, units = {}, {}
    for line in lines[:-1]:
        key, _, rest = line.partition(" ")
        if key == "metric":
            name, _, unit = rest.split(" ")
            units[name] = unit
        else:
            report[key] = rest
    return report, units, json.loads(lines[-1])


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    w = request.param
    return _run(w, 1, 0), _run(w, 1, 1), _run(w, 2, 0)


def test_end_to_end_metrics_printed_with_units(runs):
    (report, units, result), _, _ = runs
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert units == END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == END_TO_END
    assert float(report["host_slowness_median"]) > 0
    assert float(report["raw_wall_s_median"]) > 0


def test_traced_digest_matches_untraced(runs):
    (plain, _, _), (traced, _, result), _ = runs
    assert result["correct"], traced
    assert traced["output_digest"] == traced["traced_output_digest"]
    assert traced["output_digest"] == plain["output_digest"]
    assert result["metrics"]["algorithms.alpha_probes"]["value"] >= 4


def test_seed_changes_inputs(runs):
    (one, _, _), _, (two, _, result) = runs
    assert result["correct"]
    assert one["input_digest"] != two["input_digest"]


def test_bare_directory_fails(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
