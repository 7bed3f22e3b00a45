"""Spans recorded around the library calls the benchmark makes.

The tracer replaces, for the duration of a traced pass, the names that
``sepclust.algorithms`` and ``sepclust.cli`` look up at call time (plus the
generators the benchmark's own set-up calls) with wrappers that record a
span: name, start, end, parent span and call id. Nothing under ``src/``
changes; every replaced name is restored when the pass ends.

Two private hooks are wrapped because the algorithms call no public
function at those boundaries:

* ``algorithms._quorum_steps``, the quorum engine;
* the ``run`` callable handed to ``algorithms._resolve_alpha``, which gives
  one span per alpha probe in auto, explicit and ``c_override`` modes alike.

Spans are kept in memory; ``layer_metrics`` folds them into the per-layer
numbers and ``dump`` writes them out once the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

from sepclust import algorithms, cli, generators

# (module, attribute, span name) for every plain function the tracer wraps.
_HOOKS = (
    (algorithms, "pairwise_distances", "geometry.pairwise_distances"),
    (algorithms, "closest_pair", "geometry.closest_pair"),
    (algorithms, "spread", "geometry.spread"),
    (algorithms, "_quorum_steps", "quorum.steps"),
    (algorithms, "epochs", "quorum.epochs"),
    (algorithms, "check_separation", "separation.check"),
    (cli, "read_points", "files.read_points"),
    (cli, "read_clustering", "files.read_clustering"),
    (cli, "clustering_from_payload", "files.clustering_from_payload"),
    (cli, "clustering_payload", "files.clustering_payload"),
    (cli, "clustering_text", "files.clustering_text"),
    (cli, "_emit", "files.emit"),
    (cli, "pair_margins", "separation.pair_margins"),
    (cli, "quality", "separation.quality"),
    (cli, "exact_min_ball_alpha", "oracle.min_ball"),
    (generators, "gen_random_uniform", "generators.build"),
    (generators, "gen_exponential_ring_grid", "generators.build"),
    (generators, "gen_grid", "generators.build"),
    (generators, "gen_exponential_line", "generators.build"),
    (generators, "gen_three_color_line", "generators.build"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "call", "error", "children", "bytes")

    def __init__(self, name, start, parent, call):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.call = call
        self.error = None
        self.children = []
        self.bytes = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - sum(c.duration for c in self.children)


class Tracer:
    """Collects spans from the hooked names while ``installed``."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._calls = 0

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._calls += 1
        span = Span(name, time.perf_counter(), parent, parent.call if parent else self._calls)
        if parent is not None:
            parent.children.append(span)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, nbytes=None):
        """``fn`` recording one span per call; ``nbytes(*args)`` sizes its output."""

        def traced(*args, **kwargs):
            s = self.open(name)
            if nbytes is not None:
                s.bytes = nbytes(*args, **kwargs)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                s.error = type(exc).__name__
                raise
            finally:
                self.close(s)

        return traced

    @contextmanager
    def installed(self):
        """Replace the hooked names for the duration of the block."""
        saved = []
        saved_algos = dict(cli._ALGOS)

        def replace(module, attr, value):
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)

        resolve = algorithms._resolve_alpha

        def traced_resolve(cfg, run, cap, formula=None):
            return resolve(cfg, self.wrap("algorithms.probe", run), cap, formula)

        try:
            for module, attr, name in _HOOKS:
                nbytes = _matrix_bytes if name == "geometry.pairwise_distances" else None
                replace(module, attr, self.wrap(name, getattr(module, attr), nbytes))
            replace(algorithms, "_resolve_alpha", traced_resolve)
            replace(cli, "main", self.wrap("cli.main", cli.main))
            for algo, (fn, colored) in saved_algos.items():
                cli._ALGOS[algo] = (self.wrap(f"algorithms.{fn.__name__}", fn), colored)
            yield self
        finally:
            cli._ALGOS.update(saved_algos)
            for module, attr, value in reversed(saved):
                setattr(module, attr, value)

    def dump(self, path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": None if s.parent is None else index[id(s.parent)],
                    "call": s.call,
                    "error": s.error,
                }) + "\n")


def _matrix_bytes(a, b=None) -> int:
    """Computed size of the float64 matrix ``pairwise_distances`` returns."""
    return len(a) * len(a if b is None else b) * 8


def _total(spans, *names) -> float:
    return sum(s.duration for s in spans if s.name in names)


def _count(spans, name) -> int:
    return sum(1 for s in spans if s.name == name)


def layer_metrics(spans) -> dict:
    """Per-layer numbers of one traced pass, keyed by metric name."""
    algo_calls = [
        s for s in spans
        if s.name.startswith("algorithms.") and s.name != "algorithms.probe"
    ]
    prep_self = 0.0
    for a in algo_calls:
        # Set-up is everything before the first alpha probe; the children
        # that end before it are the geometry kernels.
        first = next((c.start for c in a.children if c.name == "algorithms.probe"), a.end)
        prep_self += (first - a.start) - sum(
            c.duration for c in a.children if c.end <= first
        )
    probes = [s for s in spans if s.name == "algorithms.probe"]
    infeasible = {cls.__name__ for cls in algorithms._INFEASIBLE}
    return {
        "files.write_s": _total(spans, "files.clustering_text", "files.emit"),
        "files.read_s": _total(
            spans, "files.read_points", "files.read_clustering",
            "files.clustering_from_payload",
        ),
        "files.payload_s": _total(spans, "files.clustering_payload"),
        "cli.self_s": sum(s.self_time for s in spans if s.name == "cli.main"),
        "geometry.pairwise_s": _total(spans, "geometry.pairwise_distances"),
        "geometry.pairwise_calls": _count(spans, "geometry.pairwise_distances"),
        "geometry.pairwise_bytes": sum(s.bytes for s in spans),
        "geometry.closest_pair_s": _total(spans, "geometry.closest_pair"),
        "algorithms.prep_self_s": prep_self,
        "algorithms.alpha_probes": len(probes),
        "algorithms.alpha_probes_infeasible": sum(
            1 for s in probes if s.error in infeasible
        ),
        "algorithms.probe_self_s": sum(s.self_time for s in probes),
        "quorum.steps_s": _total(spans, "quorum.steps"),
        "quorum.steps_calls": _count(spans, "quorum.steps"),
        "quorum.epochs_s": _total(spans, "quorum.epochs"),
        "separation.check_s": _total(spans, "separation.check"),
        "separation.pair_margins_s": _total(spans, "separation.pair_margins"),
        "oracle.min_ball_s": _total(spans, "oracle.min_ball"),
    }
