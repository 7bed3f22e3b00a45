"""The benchmark tracer's hooks still resolve against the library.

``perfbench/spans.py`` wraps names that ``sepclust.algorithms`` and
``sepclust.cli`` look up at call time, private ones included. Renaming one of
them breaks ``perfbench/run.py --trace 1`` without failing any other test;
this file fails instead. It reads ``perfbench/`` and changes nothing there.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from sepclust import algorithms, cli
from sepclust.algorithms import ColoredInstance, ExtractionConfig
from sepclust.files import points_text
from sepclust.generators import gen_random_uniform

# Imported without writing bytecode, so perfbench/ is left as it was.
_PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
_WRITE_BYTECODE = sys.dont_write_bytecode
sys.path.insert(0, _PERFBENCH)
sys.dont_write_bytecode = True
try:
    import spans
finally:
    sys.path.remove(_PERFBENCH)
    sys.dont_write_bytecode = _WRITE_BYTECODE


def test_hooked_names_exist():
    for module, attr, _ in spans._HOOKS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    assert callable(algorithms._resolve_alpha)
    assert all(issubclass(cls, Exception) for cls in algorithms._INFEASIBLE)
    assert {"strong", "well-colored"} <= set(cli._ALGOS)


def test_tracer_records_quorum_spans_and_restores_names():
    before = [(m, a, getattr(m, a)) for m, a, _ in spans._HOOKS]
    before.append((algorithms, "_resolve_alpha", algorithms._resolve_alpha))
    before.append((cli, "main", cli.main))
    algos = dict(cli._ALGOS)

    ps = gen_random_uniform(30, 2, 0)
    cfg = ExtractionConfig(sigma=1.0, k=2)
    tracer = spans.Tracer()
    with tracer.installed():
        cli._ALGOS["strong"][0](ps, cfg)
        cli._ALGOS["well-colored"][0](ColoredInstance(ps, np.arange(ps.n) % 2), cfg)

    names = {}
    for s in tracer.spans:
        names.setdefault(s.call, set()).add(s.name)
    strong, well = names[1], names[2]
    assert {"algorithms.strong_separated_k", "algorithms.probe"} <= strong
    assert {"quorum.steps", "quorum.epochs"} <= strong
    assert {"algorithms.well_separated_k_colored", "quorum.steps"} <= well

    for module, attr, value in before:
        assert getattr(module, attr) is value, f"{module.__name__}.{attr}"
    assert cli._ALGOS == algos


@pytest.mark.parametrize("prebuilt", [False, True])
def test_tracer_sees_through_the_cached_parser(tmp_path, prebuilt):
    # The parser is shared across cli.main calls; the handlers it dispatches to
    # must still reach the names the tracer swaps in, whether the parser was
    # first built inside the traced block or before it.
    pts = tmp_path / "p.txt"
    pts.write_text(points_text(gen_random_uniform(30, 2, 0)))
    argv = ["cluster", "--algo", "strong", "--k", "2", "--sigma", "1",
            "--in", str(pts), "--out", str(tmp_path / "c.json")]
    cli._build_parser.cache_clear()
    if prebuilt:
        cli._build_parser()
    tracer = spans.Tracer()
    with tracer.installed():
        assert cli.main(argv) == 0
        assert cli.main(argv) == 0

    mains = [s for s in tracer.spans if s.name == "cli.main"]
    assert len(mains) == 2
    for main in mains:
        children = {s.name for s in tracer.spans if s.parent is main}
        assert {
            "files.read_points", "files.clustering_payload",
            "algorithms.strong_separated_k",
        } <= children
