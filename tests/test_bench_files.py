"""Every ``BENCH_*.json`` at the repository root parses and says what it
measured, on which host, which parent and change it compares, and what it
concludes."""

import json
from pathlib import Path

import pytest

_FILES = sorted(Path(__file__).resolve().parents[1].glob("BENCH_*.json"))


def test_bench_files_exist():
    assert _FILES


@pytest.mark.parametrize("path", _FILES, ids=lambda p: p.name)
def test_bench_file_carries_its_context(path):
    data = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(data, dict)
    for key in ("what", "host", "parent", "change", "statements"):
        assert data.get(key), f"{path.name} has no {key!r}"
