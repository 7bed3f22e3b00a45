"""Separation predicates and clustering quality.

Three nested notions of sigma-separation for a collection of clusters, all of
the form ``dist(C_i, C_j) >= sigma * D`` for every distinct pair:

* strong: D is the largest diameter among *all* clusters,
* well:   D is the larger of the pair's two diameters,
* semi:   D is the smaller of the pair's two diameters (clusters may nest).

Quality of a collection is the size of its smallest cluster; a collection is
useless when the quality is one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .geometry import REL_TOL, Ball, PointSet, diameter, set_distance


def check_sigma(sigma) -> float:
    """``sigma`` as a float; a ValueError unless it is positive and the
    largest scale any algorithm forms from it, ``2 sigma + 2``, is finite."""
    s = float(sigma)
    if not (s > 0.0 and math.isfinite(2.0 * s + 2.0)):
        raise ValueError(f"sigma must be positive with 2*sigma + 2 finite, got {s!r}")
    return s


class SeparationKind(Enum):
    STRONG = "strong"
    WELL = "well"
    SEMI = "semi"

    @classmethod
    def parse(cls, text: str) -> "SeparationKind":
        try:
            return cls(str(text).strip().lower())
        except ValueError:
            raise ValueError(f"unknown separation kind: {text!r}") from None


@dataclass(frozen=True, eq=False)
class Clustering:
    """k disjoint, nonempty index subsets of a point set plus its claim.

    ``clusters`` index into ``points`` (original input order). ``colors`` is
    set for colored instances, in which case cluster i must draw from color i
    (a ValueError otherwise).
    ``balls`` and ``alpha`` carry the extraction certificate when an
    algorithm produced the clustering.
    """

    points: PointSet
    clusters: tuple
    sigma: float
    kind: SeparationKind
    colors: Optional[np.ndarray] = None
    balls: Optional[tuple] = None
    alpha: Optional[int] = None

    def __post_init__(self):
        if not isinstance(self.points, PointSet):
            object.__setattr__(self, "points", PointSet(self.points))
        object.__setattr__(self, "sigma", check_sigma(self.sigma))
        if not isinstance(self.kind, SeparationKind):
            object.__setattr__(self, "kind", SeparationKind.parse(self.kind))
        clusters = tuple(np.asarray(c, dtype=int).ravel() for c in self.clusters)
        if len(clusters) < 1:
            raise ValueError("need at least one cluster")
        n = self.points.n
        total = 0
        seen = set()
        for c in clusters:
            if c.size == 0:
                raise ValueError("clusters must be nonempty")
            if c.min() < 0 or c.max() >= n:
                raise ValueError("cluster index out of range")
            total += c.size
            seen.update(c.tolist())
        if len(seen) != total:
            raise ValueError("clusters must be pairwise disjoint")
        object.__setattr__(self, "clusters", clusters)
        if self.colors is not None:
            colors = np.asarray(self.colors, dtype=int).ravel()
            if colors.shape[0] != n:
                raise ValueError("colors must label every point")
            for i, c in enumerate(clusters):
                if (colors[c] != i).any():
                    raise ValueError(f"cluster {i} must draw from color {i}")
            object.__setattr__(self, "colors", colors)
        if self.balls is not None:
            balls = tuple(self.balls)
            if any(not isinstance(b, Ball) for b in balls):
                raise ValueError("balls must be Ball instances")
            object.__setattr__(self, "balls", balls)

    @property
    def k(self) -> int:
        return len(self.clusters)

    @property
    def sizes(self) -> list:
        return [int(c.size) for c in self.clusters]


def cluster_diameters(clustering: Clustering) -> np.ndarray:
    coords = clustering.points.coords
    return np.array([diameter(coords[c]) for c in clustering.clusters])


def pair_margins(clustering: Clustering) -> list:
    """Per-pair report: distance, required separation, ratio, verdict.

    The required separation is ``sigma * D`` with D chosen by the clustering's
    kind; the verdict allows a relative slack of ``REL_TOL`` so constructions
    sitting exactly on the boundary verify.
    """
    coords = clustering.points.coords
    diams = cluster_diameters(clustering)
    d_strong = float(diams.max())
    sigma = clustering.sigma
    kind = clustering.kind
    rows = []
    for i in range(clustering.k):
        for j in range(i + 1, clustering.k):
            dist = set_distance(
                coords[clustering.clusters[i]], coords[clustering.clusters[j]]
            )
            if kind is SeparationKind.STRONG:
                term = d_strong
            elif kind is SeparationKind.WELL:
                term = max(diams[i], diams[j])
            else:
                term = min(diams[i], diams[j])
            required = sigma * term
            ok = dist >= required * (1.0 - REL_TOL)
            ratio = float(dist / required) if required > 0.0 else float("inf")
            rows.append(
                {
                    "i": i,
                    "j": j,
                    "distance": float(dist),
                    "diameter_term": float(term),
                    "required": float(required),
                    "ratio": ratio,
                    "ok": bool(ok),
                }
            )
    return rows


def check_separation(clustering: Clustering) -> bool:
    """True iff every cluster pair meets the declared separation."""
    return all(row["ok"] for row in pair_margins(clustering))


def quality(clustering: Clustering) -> int:
    """Size of the smallest cluster."""
    return min(clustering.sizes)


def is_useless(clustering: Clustering) -> bool:
    """True iff some cluster is a singleton (quality one)."""
    return quality(clustering) == 1
