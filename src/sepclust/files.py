"""Stable text formats for point sets and clustering results.

Points file: an optional header line ``# dim=<d> colored=<0|1>`` (each key
at most once) followed by one point per line, whitespace separated, 17
significant digits (doubles round-trip bit-exactly). Colored files carry the integer color as the first
field; colors must form the contiguous range 0..k-1. Files without a header
are read as uncolored with the dimension inferred from the field count.

Every file is read by one parse: each line is split once, blank lines
drop, the first nonblank line is the header when it starts with ``#`` and
any later ``#`` line is a comment. All fields go through ``map(float, ...)``
(and the color column through ``map(int, ...)``) into ``np.fromiter``, so a
field is accepted exactly when ``float()`` or ``int()`` accepts it. When one
is not, a scan of the lines words the error of the first line at fault.

Clustering file: a JSON document with sorted keys holding the declared kind
and sigma, zero-based cluster index arrays, extraction balls when available,
quality, the verification verdict, algorithm name, alpha, seed, and tool
version. Serialization is deterministic byte for byte.
"""

from __future__ import annotations

import itertools
import json
import operator
import sys

import numpy as np

from ._version import __version__
from .algorithms import ColoredInstance
from .geometry import Ball, PointSet
from .separation import Clustering, SeparationKind, check_separation, quality


# An index or a color must fit an int64.
_MIN_INDEX, _MAX_INDEX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def points_text(obj) -> str:
    colored = isinstance(obj, ColoredInstance)
    ps = obj.points if colored else obj
    if not isinstance(ps, PointSet):
        ps = PointSet(ps)
    # One % operation per line: "%.17g" % x is format(x, ".17g") and "%d" % c
    # is str(c), on the Python floats and ints that tolist() makes.
    pattern = " ".join(["%.17g"] * ps.dim)
    rows = ps.coords.tolist()
    if colored:
        pattern = "%d " + pattern
        rows = [[c, *row] for c, row in zip(obj.colors.tolist(), rows)]
    lines = [f"# dim={ps.dim} colored={int(colored)}"]
    lines += [pattern % tuple(row) for row in rows]
    return "\n".join(lines) + "\n"


def _header(line: str):
    """(dim, colored) from a stripped ``# dim=<d> colored=<0|1>`` line; a
    ValueError if either key repeats or ``colored`` is not exactly 0 or 1.
    Tokens with another key are ignored."""
    dim, colored, seen = None, False, set()
    for token in line.lstrip("#").split():
        key, _, value = token.partition("=")
        if key not in ("dim", "colored"):
            continue
        if key in seen or key == "colored" and value not in ("0", "1"):
            raise ValueError(f"bad header token {token!r}")
        seen.add(key)
        if key == "dim":
            dim = int(value)
        else:
            colored = value == "1"
    return dim, colored


def _raise_first_error(text: str) -> None:
    """Raise the error of the first line at fault, in the words and order of
    a line-by-line read; build nothing."""
    colored = None  # until the first nonblank line: a header, or a point (False)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if colored is None and line.startswith("#"):
            try:
                colored = _header(line)[1]
            except ValueError:
                raise ValueError(f"line {lineno}: cannot parse header {line!r}") from None
        if not line or line.startswith("#"):
            continue
        colored = bool(colored)
        fields = line.split()
        try:
            color = int(fields[0]) if colored else 0
            list(map(float, fields[colored:]))  # float() raises on a bad field
        except ValueError:
            raise ValueError(f"line {lineno}: cannot parse point {line!r}") from None
        if not _MIN_INDEX <= color <= _MAX_INDEX:
            raise ValueError(f"line {lineno}: color {color} is outside the int64 range")


def parse_points(text: str):
    rows = list(filter(None, map(str.split, text.splitlines())))
    dim, colored = None, False
    try:
        if rows and rows[0][0].startswith("#"):
            dim, colored = _header(" ".join(rows.pop(0)))
        if text.find("#", 1) >= 0:  # a comment line may follow the header
            rows = [r for r in rows if not r[0].startswith("#")]
        # Every field goes through float(), the color too: float() takes
        # every string that int() takes.
        tokens = list(itertools.chain.from_iterable(rows))
        values = np.fromiter(map(float, tokens), dtype=float, count=len(tokens))
        if colored:
            firsts = map(operator.itemgetter(0), rows)
            colors = np.fromiter(map(int, firsts), dtype=int, count=len(rows))
    except (ValueError, OverflowError):
        _raise_first_error(text)
        raise  # the scan raises first for every field the parse rejects
    if not rows:
        raise ValueError("points file holds no points")
    if len(set(map(len, rows))) != 1:
        raise ValueError("inconsistent coordinate count across lines")
    width = len(rows[0]) - colored
    if dim is not None and width != dim:
        raise ValueError(f"header says dim={dim} but lines have {width} fields")
    points = PointSet(values.reshape(len(rows), -1)[:, int(colored):])
    return ColoredInstance(points, colors) if colored else points


def read_points(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_points(fh.read())


def clustering_payload(
    clustering: Clustering, algorithm: str, seed=None
) -> dict:
    balls = None
    if clustering.balls is not None:
        balls = [
            {"center": b.center.tolist(), "radius": b.radius} for b in clustering.balls
        ]
    return {
        "algorithm": str(algorithm),
        "alpha": None if clustering.alpha is None else int(clustering.alpha),
        "balls": balls,
        "clusters": [c.tolist() for c in clustering.clusters],
        "k": clustering.k,
        "kind": clustering.kind.value,
        "quality": quality(clustering),
        "seed": seed,
        "sigma": float(clustering.sigma),
        "verified": bool(check_separation(clustering)),
        "version": __version__,
    }


def clustering_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# json.loads makes exact int/float/bool objects, so type() tells them apart.
# JSON integers are unbounded: one that no double holds, or as an index no
# int64, is rejected here rather than overflowing in float() or np.array().
def _is_number(v) -> bool:
    return type(v) is float or (type(v) is int and abs(v) <= sys.float_info.max)


def _is_index(v) -> bool:
    return type(v) is int and abs(v) <= _MAX_INDEX


def _is_ball(b) -> bool:
    center = b.get("center") if isinstance(b, dict) else None
    return (
        isinstance(center, list)
        and all(map(_is_number, center))
        and _is_number(b.get("radius"))
    )


def parse_clustering(text: str) -> dict:
    """Parse a clustering file; a field of the wrong JSON type is a ValueError."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("clustering file must hold a JSON object")
    for key in ("kind", "sigma", "clusters"):
        if key not in data:
            raise ValueError(f"clustering file missing key {key!r}")
    clusters, balls, alpha = data["clusters"], data.get("balls"), data.get("alpha")
    if not isinstance(clusters, list) or not clusters:
        raise ValueError("clustering file holds no clusters")
    if not all(isinstance(c, list) and all(map(_is_index, c)) for c in clusters):
        raise ValueError("clusters must be lists of integer indices")
    if balls is not None and not (isinstance(balls, list) and all(map(_is_ball, balls))):
        raise ValueError("balls must be null or a list of {center, radius} objects")
    if not _is_number(data["sigma"]):
        raise ValueError("sigma must be a number")
    if alpha is not None and type(alpha) is not int:
        raise ValueError("alpha must be null or an integer")
    return data


def read_clustering(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_clustering(fh.read())


def clustering_from_payload(points_obj, data: dict, kind=None, sigma=None) -> Clustering:
    """Rebuild a Clustering for verification, with optional kind/sigma overrides."""
    colored = isinstance(points_obj, ColoredInstance)
    points = points_obj.points if colored else points_obj
    balls = None
    if data.get("balls"):
        balls = tuple(Ball(np.array(b["center"]), b["radius"]) for b in data["balls"])
    return Clustering(
        points=points,
        clusters=tuple(np.array(c, dtype=int) for c in data["clusters"]),
        sigma=float(sigma if sigma is not None else data["sigma"]),
        kind=SeparationKind.parse(kind if kind is not None else data["kind"]),
        colors=points_obj.colors if colored else None,
        balls=balls,
        alpha=data.get("alpha"),
    )
