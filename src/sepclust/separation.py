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
from functools import cached_property
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


def _int_labels(values, what: str) -> np.ndarray:
    """``values`` as a flat int array; a ValueError unless their dtype is a
    signed or unsigned integer (bool is not). Empty input passes through."""
    arr = np.asarray(values).ravel()
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"{what} must be integers, got dtype {arr.dtype}")
    return arr.astype(int, copy=False)


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

    The pair margins are computed once per object, on first use by
    ``pair_margins`` or ``check_separation``; a clustering rebuilt from its
    payload is a new object and is checked afresh.
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
        clusters = tuple(_int_labels(c, "cluster indices") for c in self.clusters)
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
            colors = _int_labels(self.colors, "colors")
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

    @cached_property
    def _margins(self) -> tuple:
        return _margin_rows(self)


def cluster_diameters(clustering: Clustering) -> np.ndarray:
    coords = clustering.points.coords
    return np.array([diameter(coords[c]) for c in clustering.clusters])


def pair_margins(clustering: Clustering) -> list:
    """Per-pair report: distance, required separation, ratio, verdict.

    The required separation is ``sigma * D`` with D chosen by the clustering's
    kind; the verdict allows a relative slack of ``REL_TOL`` so constructions
    sitting exactly on the boundary verify. The rows are copies of the
    clustering's cached margins.
    """
    return [dict(row) for row in clustering._margins]


def _margin_rows(clustering: Clustering) -> tuple:
    """The rows of ``pair_margins``, computed from the clustering."""
    coords = clustering.points.coords
    diams = cluster_diameters(clustering).tolist()
    d_strong = max(diams)
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
            # Python floats: a quotient beyond a double is inf, without the
            # overflow warning that numpy scalars print.
            required = sigma * term
            ok = dist >= required * (1.0 - REL_TOL)
            ratio = dist / required if required > 0.0 else float("inf")
            rows.append(
                {
                    "i": i,
                    "j": j,
                    "distance": dist,
                    "diameter_term": term,
                    "required": required,
                    "ratio": ratio,
                    "ok": ok,
                }
            )
    return tuple(rows)


def check_separation(clustering: Clustering) -> bool:
    """True iff every cluster pair meets the declared separation."""
    return all(row["ok"] for row in clustering._margins)


def quality(clustering: Clustering) -> int:
    """Size of the smallest cluster."""
    return min(clustering.sizes)
