"""Host-speed reference: a fixed kernel timed between the library calls of a pass.

The hosts this benchmark runs on are shared, and their speed drifts by tens
of percent over seconds to minutes; a run's raw times move with it. So a
pass runs one *tick* of a fixed reference kernel next to every library call
it times. The kernel is the benchmark's own code, which the program under
test cannot change, and it does the same kind of work as the workload: n×n
distance matrices and a stable row argsort for the large workloads, argument
parsing, float text and small arrays for desk-sweep. The mean tick of a pass
over the kernel's nominal time is the host's slowness during that pass
(``factor``); every time metric of the pass is divided by it, which gives
seconds at the nominal host speed. Ticks are not part of any timed span.

The nominal times are about the median tick on a 2-vCPU Intel Xeon host
(Python 3.11, numpy 2.4, one thread) while it ran undisturbed. They only set
the scale; a change to the program moves the measured times, not the kernel.
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

_RNG = np.random.default_rng(20210609)
_MATRIX_POINTS = _RNG.random((512, 2))
_MATRIX_SUBSET = np.sort(_RNG.choice(512, 160, replace=False))
_TEXT_VALUES = _RNG.random((100, 2)).tolist()


def _matrix_kernel():
    """Distance matrix, stable row argsort and a submatrix, as the algorithms do."""
    diff = _MATRIX_POINTS[:, None, :] - _MATRIX_POINTS[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=-1))
    order = np.argsort(dist, axis=1, kind="stable")
    return float(dist[np.ix_(_MATRIX_SUBSET, _MATRIX_SUBSET)].min()) + int(order[0, 1])


def _text_kernel():
    """Argument parser, float text round trip, small arrays and JSON, as the CLI does."""
    parser = argparse.ArgumentParser(prog="reference")
    sub = parser.add_subparsers(dest="command")
    for name in ("cluster", "verify", "oracle"):
        cmd = sub.add_parser(name)
        for opt in ("--k", "--sigma", "--in", "--out"):
            cmd.add_argument(opt)
    parser.parse_args(["verify", "--k", "3", "--sigma", "2.0", "--in", "points.txt"])
    text = "\n".join(f"{x!r} {y!r}" for x, y in _TEXT_VALUES)
    pts = np.array([[float(v) for v in line.split()] for line in text.splitlines()])
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=-1))
    order = np.argsort(dist, axis=1, kind="stable")
    return json.loads(json.dumps({"order": order[:3].tolist(), "row": dist[0, :5].tolist()}))


# kernel name -> (kernel, nominal seconds a tick)
KERNELS = {
    "matrix": (_matrix_kernel, 0.029),
    "text": (_text_kernel, 0.0024),
}


class Pace:
    """Ticks of one reference kernel over one stretch of a run, such as a pass.

    One tick opens the stretch; the caller ticks again after every call it
    times. ``spent_s`` is the time the ticks took, to be left out of the
    stretch's own wall time.
    """

    def __init__(self, kernel: str):
        self._kernel, self.nominal_s = KERNELS[kernel]
        self.ticks = 0
        self.spent_s = 0.0
        self.tick()

    def tick(self) -> None:
        t0 = time.perf_counter()
        self._kernel()
        self.spent_s += time.perf_counter() - t0
        self.ticks += 1

    def factor(self) -> float:
        """Mean tick over the nominal tick: above 1 while the host runs slow."""
        return self.spent_s / self.ticks / self.nominal_s
