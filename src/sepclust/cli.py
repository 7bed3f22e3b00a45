"""Command-line front end.

Subcommands: ``generate`` instances, ``cluster`` a points file, ``verify`` a
clustering file against its points, run ``oracle`` baselines, and ``bench``
a seeded suite to CSV.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error (or
an input too large to allocate), 3 infeasible extraction, 4 oracle budget
exceeded. All randomness flows from explicit seeds; the environment variable
``SEPCLUST_SEED`` serves as a fallback when a seeded generator is invoked
without ``--seed``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import os
import stat
import sys
import time
from typing import Optional

import numpy as np

from ._version import __version__
from .algorithms import (
    ColorExhausted,
    ColoredInstance,
    ExtractionConfig,
    InsufficientPoints,
    VerificationFailed,
    semi_separated_k,
    semi_separated_k_colored,
    strong_separated_k,
    well_separated_k_colored,
)
from .files import (
    clustering_from_payload,
    clustering_payload,
    clustering_text,
    points_text,
    read_clustering,
    read_points,
)
from .generators import GENERATORS, GeneratorSpec, gen_k_copies
from .oracle import (
    OracleBudget,
    OracleBudgetExceeded,
    best_separated_pair,
    check_three_color_hopeless,
    exact_min_ball_alpha,
)
from .quorum import epochs, max_epoch_depth, quorum_clustering
from .separation import pair_margins, quality

_ALGOS = {
    "semi": (semi_separated_k, False),
    "semi-colored": (semi_separated_k_colored, True),
    "strong": (strong_separated_k, False),
    "well-colored": (well_separated_k_colored, True),
}

def _resolve_seed(value: Optional[int]) -> int:
    if value is not None:
        return int(value)
    env = os.environ.get("SEPCLUST_SEED")
    if env is None:
        raise ValueError("seed required: pass --seed or set SEPCLUST_SEED")
    return int(env)


def _emit(text: str, out: Optional[str]) -> None:
    """Write ``text`` to the file ``out``, or to stdout when ``out`` is None.

    An existing file is rewritten in place and then cut to the new length,
    not truncated to zero first: on ext4 (``auto_da_alloc``) a close after a
    truncate to zero, or a rename over the file, starts writeback (README,
    "Performance notes"). A device or FIFO, which has no length, is not
    cut. A new file gets the mode ``open(out, "w")`` would give it.
    """
    if out is None:
        sys.stdout.write(text)
        return
    fd = os.open(out, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8") as fh:
        fh.write(text)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


def _read(path, colored: bool, user: str):
    """The points file at ``path``; a ValueError naming ``user`` unless the
    file is colored exactly when ``colored`` is set."""
    obj = read_points(path)
    if isinstance(obj, ColoredInstance) != colored:
        raise ValueError(
            f"{user} expects a {'colored' if colored else 'plain'} points file"
        )
    return obj


def _cmd_generate(args) -> int:
    if args.generator == "kcopies":
        obj = gen_k_copies(_read(args.input, False, "kcopies"), args.k)
    else:
        fields = {f: getattr(args, f) for f in GENERATORS[args.generator][1]}
        if "seed" in fields:
            fields["seed"] = _resolve_seed(fields["seed"])
        obj = GeneratorSpec(kind=args.generator, **fields).build()
    _emit(points_text(obj), args.out)
    return 0


def _cmd_cluster(args) -> int:
    fn, colored = _ALGOS[args.algo]
    obj = _read(args.infile, colored, f"algorithm {args.algo!r}")
    cfg = ExtractionConfig(sigma=args.sigma, k=args.k, alpha=args.alpha)
    clustering = fn(obj, cfg)
    payload = clustering_payload(clustering, algorithm=args.algo, seed=args.seed)
    _emit(clustering_text(payload), args.out)
    return 0 if payload["verified"] else 1


def _cmd_verify(args) -> int:
    obj = read_points(args.points)
    data = read_clustering(args.clusters)
    clustering = clustering_from_payload(obj, data, kind=args.kind, sigma=args.sigma)
    rows = pair_margins(clustering)
    for row in rows:
        print(
            f"pair ({row['i']},{row['j']}): distance={row['distance']:.6g} "
            f"required={row['required']:.6g} ratio={row['ratio']:.4g} "
            f"{'ok' if row['ok'] else 'VIOLATED'}"
        )
    ok = all(row["ok"] for row in rows)
    print(
        f"{'PASS' if ok else 'FAIL'}: kind={clustering.kind.value} "
        f"sigma={clustering.sigma:g} k={clustering.k} "
        f"quality={quality(clustering)}"
    )
    return 0 if ok else 1


def _budget(max_n: Optional[int], field: str) -> OracleBudget:
    """``OracleBudget``'s defaults, with ``field`` set to ``--max-n`` if given."""
    return OracleBudget() if max_n is None else OracleBudget(**{field: max_n})


def _cmd_oracle(args) -> int:
    obj = _read(args.infile, args.oracle == "three-color", args.oracle)
    if args.oracle == "best-pair":
        budget = _budget(args.max_n, "max_n_assignment")
        q, (c1, c2) = best_separated_pair(obj, args.sigma, args.kind, budget)
        print(f"quality {q}")
        print(f"C1 {' '.join(map(str, c1.tolist()))}")
        print(f"C2 {' '.join(map(str, c2.tolist()))}")
    elif args.oracle == "min-ball":
        budget = _budget(args.max_n, "max_n_ball")
        r = exact_min_ball_alpha(obj, args.alpha, budget)
        print(f"radius {r:.17g}")
    else:
        verdict = check_three_color_hopeless(obj, args.sigma)
        print(f"hopeless {'true' if verdict else 'false'}")
    return 0


@dataclasses.dataclass
class BenchRow:
    """One bench CSV row; the fields, in order, are the columns."""

    generator: str
    n: int
    d: int
    k: int
    sigma: float
    algo: str
    alpha: int
    quality: int
    epochs: int
    max_depth: int
    verified: bool
    wall_ms: int


BENCH_COLUMNS = [f.name for f in dataclasses.fields(BenchRow)]


def _default_suite():
    random2 = GeneratorSpec(kind="random", n=600, dim=2, seed=11)
    grid16 = GeneratorSpec(kind="grid", side=16, dim=2)
    expline = GeneratorSpec(kind="expline", n=24)
    expgrid = GeneratorSpec(kind="expgrid", n=32, spread=64.0, dim=2)
    entries = []
    for k in (2, 3):
        for sigma in (1.0, 2.0, 4.0):
            entries.append((random2, "semi", k, sigma))
            entries.append((random2, "strong", k, sigma))
    for sigma in (1.0, 2.0):
        entries.append((grid16, "semi", 2, sigma))
        entries.append((grid16, "strong", 2, sigma))
    entries.append((expline, "strong", 2, 1.0))
    entries.append((expgrid, "strong", 2, 2.0))
    for sigma in (1.0, 2.0):
        entries.append(("colored-random", "semi-colored", 3, sigma))
        entries.append(("colored-random", "well-colored", 3, sigma))
    return entries


def _smoke_suite():
    random2 = GeneratorSpec(kind="random", n=120, dim=2, seed=5)
    return [
        (random2, "semi", 2, 1.0),
        (random2, "strong", 2, 1.0),
        ("colored-random", "semi-colored", 2, 1.0),
        ("colored-random", "well-colored", 2, 1.0),
    ]


def _colored_random(k: int, per_color: int, dim: int, seed: int) -> ColoredInstance:
    ps = GeneratorSpec(kind="random", n=k * per_color, dim=dim, seed=seed).build()
    colors = np.arange(ps.n) % k
    return ColoredInstance(ps, colors)


def bench_rows(suite: str = "default"):
    """Run a seeded suite; every row is verified and annotated with the epoch
    count and max per-epoch depth of a quorum clustering at the row's alpha."""
    entries = {"default": _default_suite, "smoke": _smoke_suite}[suite]()
    rows = []
    for gen, algo, k, sigma in entries:
        if gen == "colored-random":
            per_color = 200 if suite == "default" else 60
            inst = _colored_random(k, per_color, 2, seed=13)
            label = f"colored-random:k={k}:per={per_color}:dim=2:seed=13"
            obj, ps_union = inst, inst.points
        else:
            built = gen.build()
            label = gen.label()
            obj, ps_union = built, built
        fn, _ = _ALGOS[algo]
        cfg = ExtractionConfig(sigma=sigma, k=k)
        t0 = time.perf_counter()
        clustering = fn(obj, cfg)
        wall_ms = int(round((time.perf_counter() - t0) * 1000.0))
        qc = quorum_clustering(ps_union, clustering.alpha)
        rows.append(
            BenchRow(
                generator=label,
                n=ps_union.n,
                d=ps_union.dim,
                k=k,
                sigma=sigma,
                algo=algo,
                alpha=clustering.alpha,
                quality=quality(clustering),
                epochs=len(epochs(qc.radii)),
                max_depth=max_epoch_depth(qc, ps_union),
                verified=True,  # algorithms re-verify before returning
                wall_ms=wall_ms,
            )
        )
    return rows


def _cmd_bench(args) -> int:
    rows = bench_rows(args.suite)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(BENCH_COLUMNS)
    writer.writerows(
        [str(v).lower() if isinstance(v, bool) else v for v in dataclasses.astuple(row)]
        for row in rows
    )
    _emit(buf.getvalue(), args.out)
    return 0


def _add_out(p) -> None:
    p.add_argument("--out", default=None, help="output path (default stdout)")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and reused by every ``main`` call.
    It binds only the ``_cmd_*`` handlers, which read module globals at call time."""
    parser = argparse.ArgumentParser(
        prog="sepclust",
        description="compute and certify large sigma-separated clusters",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a points file")
    gsub = gen.add_subparsers(dest="generator", required=True)
    for kind, (_, fields) in GENERATORS.items():
        g = gsub.add_parser(kind)
        for f in fields:
            if f == "base":
                g.add_argument("--input", required=True)
            elif f == "seed":
                g.add_argument("--seed", type=int, default=None)
            else:
                ftype = float if f in ("spread", "eps") else int
                g.add_argument(f"--{f}", type=ftype, required=True)
        _add_out(g)
    gen.set_defaults(func=_cmd_generate)

    clu = sub.add_parser("cluster", help="run an extraction algorithm")
    clu.add_argument("--algo", choices=sorted(_ALGOS), required=True)
    clu.add_argument("--k", type=int, required=True)
    clu.add_argument("--sigma", type=float, required=True)
    mode = clu.add_mutually_exclusive_group()
    mode.add_argument("--alpha", type=int, default=None)
    mode.add_argument(
        "--auto",
        action="store_true",
        help="search a feasible alpha whose alpha+1 fails, or the cap n//k or "
        "smallest color size (default)",
    )
    clu.add_argument("--in", dest="infile", required=True)
    clu.add_argument("--seed", type=int, default=None, help="echoed into the output")
    _add_out(clu)
    clu.set_defaults(func=_cmd_cluster)

    ver = sub.add_parser("verify", help="re-check a clustering file")
    ver.add_argument("--points", required=True)
    ver.add_argument("--clusters", required=True)
    ver.add_argument("--kind", choices=["strong", "well", "semi"], default=None)
    ver.add_argument("--sigma", type=float, default=None)
    ver.set_defaults(func=_cmd_verify)

    orc = sub.add_parser("oracle", help="exact exponential-time baselines")
    osub = orc.add_subparsers(dest="oracle", required=True)
    o = osub.add_parser("best-pair")
    o.add_argument("--in", dest="infile", required=True)
    o.add_argument("--sigma", type=float, required=True)
    o.add_argument("--kind", choices=["strong", "well", "semi"], required=True)
    o.add_argument("--max-n", type=int, default=None)
    o = osub.add_parser("min-ball")
    o.add_argument("--in", dest="infile", required=True)
    o.add_argument("--alpha", type=int, required=True)
    o.add_argument("--max-n", type=int, default=None)
    o = osub.add_parser("three-color")
    o.add_argument("--in", dest="infile", required=True)
    o.add_argument("--sigma", type=float, default=3.0)
    orc.set_defaults(func=_cmd_oracle)

    ben = sub.add_parser("bench", help="run a seeded suite, emit CSV")
    ben.add_argument("--suite", choices=["default", "smoke"], default="default")
    _add_out(ben)
    ben.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (InsufficientPoints, ColorExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OracleBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except VerificationFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, MemoryError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
