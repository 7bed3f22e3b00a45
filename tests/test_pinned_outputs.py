"""Byte-exact pins of CLI output.

The digests were recorded from the implementation that re-partitioned the
survivor submatrix on every semi iteration, fed the quorum heap from a stable
argsort of each distance row, and built ``generate`` output in its own
if-chain. Any change to alpha, clusters, balls, quality or error text of the
four algorithms, or to a generated file, alters one of them.
"""

import csv
import hashlib
import io

import numpy as np

from sepclust.algorithms import ColoredInstance
from sepclust.cli import main
from sepclust.files import points_text, read_points

_INPUTS = {
    "grid-8-2": ["grid", "--side", "8", "--dim", "2"],
    "expline-24": ["expline", "--n", "24"],
    "random-60-2-s3": ["random", "--n", "60", "--dim", "2", "--seed", "3"],
}
_ALGOS = ("semi", "strong", "semi-colored", "well-colored")
_PARAMS = ((2, "1"), (3, "2"))

BENCH_DEFAULT_SHA256 = (
    "c6d2824dfb8b692d487fcbf073da1d3762c0c2264b58783d94beb3794edba07b"
)
CLUSTER_SHA256 = {
    "expline-24/semi-colored/k=2/sigma=1": (
        "7bb5e686561496cd6fed347def4709bd62bd10f8abca163731edbb5dffcd3f61"
    ),
    "expline-24/semi-colored/k=3/sigma=2": (
        "1570190364ffb14f450cb897fa17f72f22e611860bce01e289a38584d6a8e002"
    ),
    "expline-24/semi/k=2/sigma=1": (
        "0063caddbeca8be27449a0666c2e0379ed567e778f2b1b8b55891c87097cdc93"
    ),
    "expline-24/semi/k=3/sigma=2": (
        "20e602f17f6aad6fd58f533a8be415078d90d513d528c6ff9408e141a34707a8"
    ),
    "expline-24/strong/k=2/sigma=1": (
        "2924e64162ef77671dfe4a85ee0f84789512cdbd84e132470ff8f978d7c12be2"
    ),
    "expline-24/strong/k=3/sigma=2": (
        "695d9748121a1976a8ea3a9bceaca4df03799d813c5f20f16c80733cd7353d5b"
    ),
    "expline-24/well-colored/k=2/sigma=1": (
        "7bc092c20885d71923af8b1149e392244adfc73f693b9770b2fc65a0a39f8f31"
    ),
    "expline-24/well-colored/k=3/sigma=2": (
        "7c59b345e0caa3b83ac18c74a6d3b81f590052255246b2243f94ddf8c19c964e"
    ),
    "grid-8-2/semi-colored/k=2/sigma=1": (
        "94404eb2599d04881be91a4767cbb6de4f701df0139786e82b4fda6e70c22fab"
    ),
    "grid-8-2/semi-colored/k=3/sigma=2": (
        "8d4cf7f44075a486a4ee88051721ade528a18131a6f843407ff142124e05db0f"
    ),
    "grid-8-2/semi/k=2/sigma=1": (
        "6b3fa82d06e9eca95c84d7fc1a5ffe567e57b0cee06dc908274c1cc20c7f2c67"
    ),
    "grid-8-2/semi/k=3/sigma=2": (
        "0ddc4ee54bc55ed04aad05f2e5ebfa6fe03d70cfab21f876927ca0683b1e4dbe"
    ),
    "grid-8-2/strong/k=2/sigma=1": (
        "555b1402663178cba3ec0fa97c5b5aa04aa94416a3314372000c8458719233be"
    ),
    "grid-8-2/strong/k=3/sigma=2": (
        "e632e4b40d0e88d1a264e8ea7697c6ac7988635dd6403677a796ceed1b4f2d2c"
    ),
    "grid-8-2/well-colored/k=2/sigma=1": (
        "9813b35641078209a475982da8875885aa0edc1acda7c8c6320d56b810e15eff"
    ),
    "grid-8-2/well-colored/k=3/sigma=2": (
        "5ca26a3ed100a6ecb2f3410e002086150821781cdf83e7f46cf16d0665ccc695"
    ),
    "random-60-2-s3/semi-colored/k=2/sigma=1": (
        "df559348dded32b60fbb88b07cccce2d108472b7e1d903ec3fad1fbb140c9e6e"
    ),
    "random-60-2-s3/semi-colored/k=3/sigma=2": (
        "72eb4ae5fbc2ed7e4b3b7b2fdf16f7b93c8f43e7ca4d71d00bdf64d25cb5bb30"
    ),
    "random-60-2-s3/semi/k=2/sigma=1": (
        "53793c63651cad4a47a0c40eaa375df919510b3df8fe0f5e29826d07e7d1c5d3"
    ),
    "random-60-2-s3/semi/k=3/sigma=2": (
        "c4ae7bbeb380840a9440d3b97109d2ba9ebe20f6a9452dab2aff21b6629a126d"
    ),
    "random-60-2-s3/strong/k=2/sigma=1": (
        "65c41ad4ce6216669208bc1d78f7958a6c3a0817122024e50c5db725bec1eaa1"
    ),
    "random-60-2-s3/strong/k=3/sigma=2": (
        "9e7e8452d5e1e20dc4e0e22e29b22cdd1ebcc95ce2b8360771f3f203a275f735"
    ),
    "random-60-2-s3/well-colored/k=2/sigma=1": (
        "2554b0f44549aad40425faa4814f51418bbc0d45e73e94f9c771e21aa3465e70"
    ),
    "random-60-2-s3/well-colored/k=3/sigma=2": (
        "e6bfbe99c147d41dd16297d8e956fe05c28b015cf36022f82f5dbc6ec58286c3"
    ),
}

_GENERATE = {
    "grid": ["grid", "--side", "5", "--dim", "2"],
    "expline": ["expline", "--n", "12"],
    "threecolor": ["threecolor", "--n", "6"],
    "expgrid": ["expgrid", "--n", "16", "--spread", "64", "--dim", "2"],
    "nearuniform": ["nearuniform", "--n", "8", "--eps", "0.5", "--seed", "4"],
    "random": ["random", "--n", "10", "--dim", "3", "--seed", "9"],
    "random-env-seed": ["random", "--n", "10", "--dim", "3"],
    "nearuniform-env-seed": ["nearuniform", "--n", "8", "--eps", "0.5"],
}
GENERATE_SHA256 = {
    "expgrid": (
        "4be7325aae916b8c577e687c4cfa2a5f5407d065381234f888e6beebc86f44b3"
    ),
    "expline": (
        "67b461eadd06b8e86c6515b76561afaeac4dcf3054b6cb5393c568c3ce072187"
    ),
    "grid": (
        "5f91750e486a1f455dd6b30215671a3e5180d49cf81fbd1efd9d8287fb4ea11b"
    ),
    "kcopies": (
        "a20cdb1931415b8c784c9b1b9c688d3058b61946eadc8ed3408379c2426388be"
    ),
    "nearuniform": (
        "f5e4fc6fa190e7e6e858e98a7ecaa73c3119e4e0b5e6af4e7046e4afc8dc3b30"
    ),
    "nearuniform-env-seed": (
        "ab789b8b888de84b8d137004c69fe20dc5b2fd3972be80015742d7415692b1f6"
    ),
    "random": (
        "5b6c3237cb4de988003e7ef8b095bd9fbee05cd09ea64c4cc3820cbec3c4b534"
    ),
    "random-env-seed": (
        "5b6c3237cb4de988003e7ef8b095bd9fbee05cd09ea64c4cc3820cbec3c4b534"
    ),
    "threecolor": (
        "b9014a43366444ce81b94536c6e5a05d3f0bb784c54d89b09a334d1c7e124abe"
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _bench_digest(tmp_path) -> str:
    path = tmp_path / "bench.csv"
    assert main(["bench", "--suite", "default", "--out", str(path)]) == 0
    rows = list(csv.reader(io.StringIO(path.read_text())))
    drop = rows[0].index("wall_ms")
    buf = io.StringIO()
    csv.writer(buf).writerows([r[:drop] + r[drop + 1 :] for r in rows])
    return _sha(buf.getvalue().encode())


def _cluster_digests(tmp_path, capsys) -> dict:
    """sha256 of exit code, stderr and ``--out`` bytes for every case."""
    out = {}
    for name, argv in _INPUTS.items():
        plain = tmp_path / f"{name}.txt"
        assert main(["generate", *argv, "--out", str(plain)]) == 0
        ps = read_points(str(plain))
        for k, sigma in _PARAMS:
            colored = tmp_path / f"{name}-c{k}.txt"
            inst = ColoredInstance(ps, np.arange(ps.n) % k)
            colored.write_text(points_text(inst))
            for algo in _ALGOS:
                src = colored if algo.endswith("colored") else plain
                dest = tmp_path / f"{name}-{algo}-{k}-{sigma}.json"
                capsys.readouterr()
                code = main([
                    "cluster", "--algo", algo, "--k", str(k), "--sigma", sigma,
                    "--in", str(src), "--out", str(dest),
                ])
                err = capsys.readouterr().err
                body = dest.read_bytes() if dest.exists() else b""
                key = f"{name}/{algo}/k={k}/sigma={sigma}"
                out[key] = _sha(f"{code}\n{err}\n".encode() + body)
    return out


def test_bench_default_csv_pinned(tmp_path):
    assert _bench_digest(tmp_path) == BENCH_DEFAULT_SHA256


def test_cluster_outputs_pinned(tmp_path, capsys):
    assert _cluster_digests(tmp_path, capsys) == CLUSTER_SHA256


def test_generate_outputs_pinned(tmp_path, monkeypatch):
    monkeypatch.setenv("SEPCLUST_SEED", "9")
    got = {}
    for name, argv in _GENERATE.items():
        path = tmp_path / f"{name}.txt"
        assert main(["generate", *argv, "--out", str(path)]) == 0
        got[name] = _sha(path.read_bytes())
    path = tmp_path / "kcopies.txt"
    argv = ["kcopies", "--k", "4", "--input", str(tmp_path / "grid.txt")]
    assert main(["generate", *argv, "--out", str(path)]) == 0
    got["kcopies"] = _sha(path.read_bytes())
    assert got == GENERATE_SHA256
