"""The benchmark's own certificate check of a clustering payload.

Independent of ``sepclust.separation`` on purpose: the package verifier
checks only the pairwise separation, so a defect there would pass through
it unseen. Everything here is recomputed in numpy from the input
coordinates the benchmark generated itself. Only the tolerance constant
``REL_TOL`` is taken from the package, so boundary cases are judged as the
package documents them.
"""

from __future__ import annotations

import numpy as np

from sepclust.geometry import REL_TOL

# Separation kind promised by each algorithm, and whether every cluster
# holds exactly alpha points (otherwise at least alpha).
PROMISE = {
    "semi": ("semi", True),
    "strong": ("strong", True),
    "semi-colored": ("semi", True),
    "well-colored": ("well", False),
}


def _dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def certificate_errors(coords, colors, payload: dict, algo: str, k: int,
                       sigma: float, alpha=None) -> list:
    """Reasons the payload is not a valid certified answer; empty if valid.

    ``coords`` and ``colors`` are the inputs as generated; ``alpha`` is the
    requested value in explicit mode and None in auto mode.
    """
    kind, exact = PROMISE[algo]
    errors = []
    if payload.get("kind") != kind:
        errors.append(f"kind {payload.get('kind')!r}, promised {kind!r}")
    if payload.get("sigma") != sigma:
        errors.append(f"sigma {payload.get('sigma')!r}, requested {sigma!r}")
    if payload.get("verified") is not True:
        errors.append("payload not marked verified")
    got_alpha = payload.get("alpha")
    if not isinstance(got_alpha, int) or got_alpha < 1:
        return errors + [f"alpha {got_alpha!r} is not a positive integer"]
    if alpha is not None and got_alpha != alpha:
        errors.append(f"alpha {got_alpha}, requested {alpha}")
    n = coords.shape[0]
    clusters = []
    for c in payload.get("clusters", []):
        idx = np.asarray(c, dtype=np.int64)
        if idx.ndim != 1 or idx.size == 0 or idx.min() < 0 or idx.max() >= n:
            return errors + ["cluster is empty or indexes outside the input"]
        clusters.append(idx)
    if len(clusters) != k:
        return errors + [f"{len(clusters)} clusters, requested k={k}"]
    if np.unique(np.concatenate(clusters)).size != sum(c.size for c in clusters):
        errors.append("clusters overlap")
    sizes = [c.size for c in clusters]
    if exact and any(s != got_alpha for s in sizes):
        errors.append(f"cluster sizes {sizes}, promised exactly alpha={got_alpha}")
    if not exact and min(sizes) < got_alpha:
        errors.append(f"cluster sizes {sizes}, promised at least alpha={got_alpha}")
    if payload.get("quality") != min(sizes):
        errors.append(f"quality {payload.get('quality')!r}, smallest cluster {min(sizes)}")
    if colors is not None:
        for i, c in enumerate(clusters):
            if (colors[c] != i).any():
                errors.append(f"cluster {i} holds points of another colour")
    balls = payload.get("balls") or []
    if len(balls) != k:
        errors.append(f"{len(balls)} balls for {k} clusters")
    else:
        for i, (c, ball) in enumerate(zip(clusters, balls)):
            center = np.asarray(ball["center"], dtype=float)[None, :]
            reach = _dist(coords[c], center).max()
            if reach > float(ball["radius"]) * (1.0 + REL_TOL):
                errors.append(f"cluster {i} leaves its ball")
    pts = [coords[c] for c in clusters]
    diam = [float(_dist(p, p).max()) for p in pts]
    for i in range(k):
        for j in range(i + 1, k):
            if kind == "strong":
                term = max(diam)
            elif kind == "well":
                term = max(diam[i], diam[j])
            else:
                term = min(diam[i], diam[j])
            gap = float(_dist(pts[i], pts[j]).min())
            if gap < sigma * term * (1.0 - REL_TOL):
                errors.append(
                    f"clusters {i},{j}: distance {gap:.6g} < {sigma:g} x {term:.6g}"
                )
    return errors
