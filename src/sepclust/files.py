"""Stable text formats for point sets and clustering results.

Points file: an optional header line ``# dim=<d> colored=<0|1>`` (each key
at most once) followed by one point per line, whitespace separated, 17
significant digits (doubles round-trip bit-exactly). Colored files carry the integer color as the first
field; colors must form the contiguous range 0..k-1. Files without a header
are read as uncolored with the dimension inferred from the field count.

A regular file is read in bulk: the header on the first line, then every
line split into the same number of fields, converted by ``map(float, ...)``
and ``map(int, ...)`` into ``np.fromiter``, so a field is accepted exactly
when ``float()`` or ``int()`` accepts it. Anything else (a blank or ``#``
line in the body, mixed widths, a header mismatch, a field that does not
parse, a color outside int64) is read again line by line, and that reader
alone words every error.

Clustering file: a JSON document with sorted keys holding the declared kind
and sigma, zero-based cluster index arrays, extraction balls when available,
quality, the verification verdict, algorithm name, alpha, seed, and tool
version. Serialization is deterministic byte for byte.
"""

from __future__ import annotations

import itertools
import json
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


def _parse_lines(text: str):
    """(coords, colors or None) read line by line; the source of every error."""
    dim = None
    colored = False
    rows = []
    saw_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if not saw_header and not rows:
                saw_header = True
                try:
                    dim, colored = _header(line)
                except ValueError:
                    raise ValueError(f"line {lineno}: cannot parse header {line!r}") from None
            continue
        fields = line.split()
        try:
            if colored:
                color = int(fields[0])
                coords = [float(v) for v in fields[1:]]
            else:
                color = None
                coords = [float(v) for v in fields]
        except (ValueError, IndexError):
            raise ValueError(f"line {lineno}: cannot parse point {line!r}") from None
        if colored and not _MIN_INDEX <= color <= _MAX_INDEX:
            raise ValueError(f"line {lineno}: color {color} is outside the int64 range")
        rows.append((color, coords))
    if not rows:
        raise ValueError("points file holds no points")
    widths = {len(c) for _, c in rows}
    if len(widths) != 1:
        raise ValueError("inconsistent coordinate count across lines")
    width = widths.pop()
    if dim is not None and width != dim:
        raise ValueError(f"header says dim={dim} but lines have {width} fields")
    coords = np.array([c for _, c in rows])
    if not colored:
        return coords, None
    return coords, np.array([c for c, _ in rows], dtype=int)


def _parse_bulk(text: str):
    """(coords, colors or None) for a regular file, or None to read it line
    by line: an optional header on the first line, then lines that all hold
    the same number of fields, every one accepted by ``float()`` (and the
    color by ``int()``). A blank line, a mid-file ``#`` line (``#`` is no
    number) or anything the line reader would reject returns None."""
    lines = text.splitlines()
    dim, colored = None, False
    try:
        if lines and lines[0].lstrip().startswith("#"):
            dim, colored = _header(lines[0].strip())
            lines = lines[1:]
        rows = list(map(str.split, lines))
        width = len(rows[0]) if rows else 0
        coord_width = width - 1 if colored else width
        if coord_width < 1 or {width} != set(map(len, rows)):
            return None
        if dim is not None and coord_width != dim:
            return None
        # The color column goes through float() too; a color that int()
        # takes and float() rejects would return None, never a wrong value.
        tokens = list(itertools.chain.from_iterable(rows))
        values = np.fromiter(map(float, tokens), dtype=float, count=len(tokens))
        values = values.reshape(len(rows), width)
        if not colored:
            return values, None
        colors = np.fromiter(map(int, tokens[::width]), dtype=int, count=len(rows))
        return values[:, 1:], colors
    except (ValueError, OverflowError):
        return None


def parse_points(text: str):
    parsed = _parse_bulk(text)
    coords, colors = _parse_lines(text) if parsed is None else parsed
    if colors is None:
        return PointSet(coords)
    return ColoredInstance(PointSet(coords), colors)


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
