"""The three workloads: inputs built from a seed, one timed pass, its checks.

A pass runs the whole batch of a workload once. Timing covers only calls
into the library; the benchmark's own checks run after the pass, outside
every timer. See README.md for why each workload exists and which layer
does most of its work there.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sepclust import algorithms, cli, generators
from sepclust.files import points_text
from sepclust.geometry import REL_TOL

from certify import certificate_errors
from pace import Pace

ALGOS = ("semi", "strong", "semi-colored", "well-colored")

# Base draws for the two large workloads. Their geometry (and colour
# classes) is one fixed draw; the run seed permutes the rows and relabels
# the colours. Auto-alpha's probe count and the alpha it lands on depend on
# the geometry: across three fresh uniform draws strong made 10 to 12
# probes and semi-colored 12 to 14, so the work itself would change from
# seed to seed. A row permutation keeps the work while still changing every
# byte of input order and every index tie-break the program sees.
_BASE_SEED = 20210609

SIZES = {
    "full": {
        "uniform_n": 3999,
        # Re-verifications per clustering on the large workloads, where one
        # takes only ~3 ms (uniform-auto) or ~30 ms (multiscale-fixed) and a
        # run holds few passes; verify_s sums the per-clustering medians.
        "uniform_verify_reps": 25,
        "ring_verify_reps": 3,
        "ring": (256, 4096, 2),
        # Explicit alphas, feasible on seeds 0-39. Feasibility is not
        # downward closed here: strong at alpha 10 fails on 6 of those seeds.
        "ring_alpha": {"semi": 768, "strong": 8, "semi-colored": 192, "well-colored": 8},
        "desk_n": (60, 120),
        "desk_reps": 3,
        "desk_grids": ((8, 2), (40, 1), (4, 3)),
        "desk_explines": (24, 40),
        "desk_oracle_reps": 3,
    },
    "tiny": {
        "uniform_n": 300,
        "uniform_verify_reps": 3,
        "ring_verify_reps": 3,
        "ring": (32, 64, 2),
        "ring_alpha": {"semi": 24, "strong": 1, "semi-colored": 8, "well-colored": 1},
        "desk_n": (60,),
        "desk_reps": 1,
        "desk_grids": ((40, 1),),
        "desk_explines": (),
        "desk_oracle_reps": 1,
    },
}

# Hostile points files and the exit code `sepclust cluster` gives each,
# pinned as observed at the commit that introduced this benchmark.
HOSTILE = {
    "duplicates": ("# dim=2 colored=0\n0 0\n0 0\n1 1\n2 2\n3 3\n5 5\n",
                   {"semi": 0, "strong": 2}),
    "fewer-than-k": ("# dim=2 colored=0\n0 0\n1 1\n", {"semi": 2, "strong": 2}),
    "nan": ("# dim=2 colored=0\n0 0\nnan 1\n1 1\n2 2\n", {"semi": 2, "strong": 2}),
    "colour-range": ("# dim=1 colored=1\n0 0\n0 1\n5 2\n5 3\n",
                     {"semi-colored": 2, "well-colored": 2}),
    "huge": ("# dim=2 colored=0\n1e300 0\n-1e300 0\n0 1e300\n0 -1e300\n1 1\n2 2\n",
             {"semi": 2, "strong": 2}),
    "junk-line": ("# dim=2 colored=0\n0 0\nhello world\n1 1\n", {"semi": 2, "strong": 2}),
}
HOSTILE_K, HOSTILE_SIGMA = 3, 2.0
ORACLE_MAX_N = 40


@dataclass
class Case:
    """One `cluster` call: algorithm, instance and configuration."""

    algo: str
    coords: np.ndarray
    colors: object  # np.ndarray for colored instances, else None
    k: int
    sigma: float
    alpha: object = None  # explicit alpha, or None for auto mode
    obj: object = None  # in-memory instance (large workloads)
    path: str = ""  # points file (desk-sweep)
    oracle: bool = False  # cross-check the first ball against the exact oracle

    @property
    def cfg(self):
        return algorithms.ExtractionConfig(sigma=self.sigma, k=self.k, alpha=self.alpha)


@dataclass
class Inputs:
    cases: list
    hostile: list = field(default_factory=list)  # (path, algo, expected exit code)
    verify_reps: int = 1  # text-form re-verifications per clustering (large workloads)
    kernel: str = "matrix"  # reference kernel of the pace ticks (pace.KERNELS)

    def digest(self) -> str:
        h = hashlib.sha256()
        for c in self.cases:
            h.update(f"{c.algo} {c.k} {c.sigma} {c.alpha}\n".encode())
            h.update(np.ascontiguousarray(c.coords).tobytes())
            if c.colors is not None:
                h.update(np.ascontiguousarray(c.colors).tobytes())
        return h.hexdigest()


@dataclass
class PassResult:
    wall_s: float = 0.0  # pace ticks excluded
    factor: float = 1.0  # the host's slowness during the pass (pace.Pace.factor)
    algo_s: dict = field(default_factory=lambda: dict.fromkeys(ALGOS, 0.0))
    verify_s: float = 0.0
    latencies: list = field(default_factory=list)
    payloads: list = field(default_factory=list)  # per case: dict, or None on failure
    exit_codes: list = field(default_factory=list)  # per hostile file
    hostile_payloads: list = field(default_factory=list)  # (path, algo, dict) on exit 0
    oracle: list = field(default_factory=list)  # (case index, exact radius)
    failures: list = field(default_factory=list)
    attempted: int = 0
    digest: str = ""
    quality: int = 0


# --------------------------------------------------------------------- set-up

def _permuted(coords, colors, rng):
    perm = rng.permutation(coords.shape[0])
    coords = coords[perm]
    if colors is None:
        return coords, None
    relabel = rng.permutation(int(colors.max()) + 1)
    return coords, relabel[colors[perm]]


def _large_cases(plain, colored, colors, k, sigma, alphas, seed, verify_reps):
    rng = np.random.default_rng(seed)
    plain, _ = _permuted(plain, None, rng)
    colored, colors = _permuted(colored, colors, rng)
    ps = algorithms.PointSet(plain)
    inst = algorithms.ColoredInstance(algorithms.PointSet(colored), colors)
    cases = []
    for algo in ALGOS:
        is_colored = algo.endswith("colored")
        cases.append(Case(
            algo=algo,
            coords=inst.points.coords if is_colored else ps.coords,
            colors=inst.colors if is_colored else None,
            k=k, sigma=sigma, alpha=alphas.get(algo),
            obj=inst if is_colored else ps,
        ))
    return Inputs(cases, verify_reps=verify_reps)


def setup_uniform(seed, size, workdir):
    spec = SIZES[size]
    n = spec["uniform_n"]
    plain = generators.gen_random_uniform(n, 2, _BASE_SEED).coords
    colored = generators.gen_random_uniform(n, 2, _BASE_SEED + 1).coords
    return _large_cases(plain, colored, np.arange(n) % 3, 3, 2.0, {}, seed,
                        spec["uniform_verify_reps"])


def setup_multiscale(seed, size, workdir):
    spec = SIZES[size]
    coords = generators.gen_exponential_ring_grid(*spec["ring"]).coords
    colors = np.random.default_rng(_BASE_SEED).permutation(np.arange(coords.shape[0]) % 3)
    return _large_cases(coords, coords, colors, 3, 2.0, spec["ring_alpha"], seed,
                        spec["ring_verify_reps"])


def setup_desk(seed, size, workdir):
    """Points files for a sweep of small instances, plus the hostile files."""
    spec = SIZES[size]
    workdir = Path(workdir)
    cases = []
    files = 0

    def write(obj):
        nonlocal files
        files += 1
        path = workdir / f"points-{files}.txt"
        path.write_text(points_text(obj), encoding="utf-8")
        return str(path)

    def sweep(obj, colors, algos, ks, sigmas, oracle=False):
        path = write(obj)
        coords = obj.points.coords if colors is not None else obj.coords
        for k in ks:
            for sigma in sigmas:
                for algo in algos:
                    cases.append(Case(
                        algo=algo, coords=coords, colors=colors, k=k, sigma=sigma,
                        path=path, oracle=oracle and algo == "semi",
                    ))

    sigmas = (1.0, 2.0, 4.0)
    plain_algos = ("semi", "strong")
    colored_algos = ("semi-colored", "well-colored")
    for n in spec["desk_n"]:
        for d in (1, 2):
            for rep in range(spec["desk_reps"]):
                rng = np.random.default_rng([seed, n, d, rep])
                ps = generators.gen_random_uniform(n, d, int(rng.integers(2**31)))
                sweep(ps, None, plain_algos, (2, 3), sigmas)
            for k in (2, 3):
                rng = np.random.default_rng([seed, n, d, k, 99])
                ps = generators.gen_random_uniform(n, d, int(rng.integers(2**31)))
                colors = rng.permutation(np.arange(n) % k)
                inst = algorithms.ColoredInstance(ps, colors)
                sweep(inst, inst.colors, colored_algos, (k,), sigmas)
    for side, dim in spec["desk_grids"]:
        ps = generators.gen_grid(side, dim)
        sweep(ps, None, plain_algos, (2, 3), sigmas, oracle=ps.n <= ORACLE_MAX_N)
    for n in spec["desk_explines"]:
        ps = generators.gen_exponential_line(n)
        sweep(ps, None, plain_algos, (2, 3), sigmas, oracle=n <= ORACLE_MAX_N)
    inst = generators.gen_three_color_line(20)
    sweep(inst, inst.colors, colored_algos, (3,), sigmas)
    for d in (1, 2):
        for rep in range(spec["desk_oracle_reps"]):
            rng = np.random.default_rng([seed, ORACLE_MAX_N, d, rep])
            ps = generators.gen_random_uniform(ORACLE_MAX_N, d, int(rng.integers(2**31)))
            sweep(ps, None, ("semi",), (2,), (2.0,), oracle=True)
    hostile = []
    for name, (text, codes) in HOSTILE.items():
        path = workdir / f"hostile-{name}.txt"
        path.write_text(text, encoding="utf-8")
        hostile.extend((str(path), algo, code) for algo, code in codes.items())
    return Inputs(cases, hostile, kernel="text")


def setup_batch(setup, seed, size, workdir, batch_s):
    """Build the inputs until the builds have taken ``batch_s``, with pace ticks.

    A tick follows each build, or each run of builds as long as a tick.
    Returns the inputs and (mean seconds a build, the host's slowness).
    """
    builds, build_s, untimed_s, pace = 0, 0.0, 0.0, None
    while build_s < batch_s:
        t0 = time.perf_counter()
        inputs = setup(seed, size, workdir)
        dt = time.perf_counter() - t0
        builds += 1
        build_s += dt
        untimed_s += dt
        if pace is None:
            pace = Pace(inputs.kernel)
            untimed_s = 0.0
        elif untimed_s >= pace.nominal_s:
            pace.tick()
            untimed_s = 0.0
    return inputs, (build_s / builds, pace.factor())


SETUP = {
    "uniform-auto": setup_uniform,
    "multiscale-fixed": setup_multiscale,
    "desk-sweep": setup_desk,
}


# ----------------------------------------------------------------- one pass

def pass_large(inputs, workdir):
    """Call each algorithm in-process, then re-verify through the text form."""
    res = PassResult()
    out = str(Path(workdir) / "clustering.json")
    start = time.perf_counter()
    pace = Pace(inputs.kernel)
    for i, case in enumerate(inputs.cases):
        res.attempted += 2
        try:
            t0 = time.perf_counter()
            clustering = cli._ALGOS[case.algo][0](case.obj, case.cfg)
            dt = time.perf_counter() - t0
            pace.tick()
            res.algo_s[case.algo] += dt
            res.latencies.append(dt)
            payload = cli.clustering_payload(clustering, algorithm=case.algo)
            times = []
            for _ in range(inputs.verify_reps):
                t0 = time.perf_counter()
                cli._emit(cli.clustering_text(payload), out)
                data = cli.read_clustering(out)
                rebuilt = cli.clustering_from_payload(case.obj, data)
                ok = all(row["ok"] for row in cli.pair_margins(rebuilt))
                times.append(time.perf_counter() - t0)
                pace.tick()
            res.verify_s += statistics.median(times)
        except Exception:
            res.failures.append(f"case {i} {case.algo}: {traceback.format_exc(limit=-1).strip()}")
            res.payloads.append(None)
            continue
        if not ok:
            res.failures.append(f"case {i} {case.algo}: package verifier rejects the output")
        res.payloads.append(data)
    _close(res, start, pace)
    return res


def _close(res, start, pace):
    """Set a pass's wall time, pace ticks left out, and the host's slowness during it."""
    res.wall_s = time.perf_counter() - start - pace.spent_s
    res.factor = pace.factor()


def _cli(argv, pace):
    """Run `sepclust` in-process, then tick: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue(), time.perf_counter() - t0
    finally:
        pace.tick()


def pass_desk(inputs, workdir):
    """points file -> `cluster` (auto alpha) -> `verify`, per case, then hostile files."""
    res = PassResult()
    workdir = Path(workdir)
    start = time.perf_counter()
    pace = Pace(inputs.kernel)
    for i, case in enumerate(inputs.cases):
        out = str(workdir / f"clustering-{i}.json")
        res.attempted += 2 + case.oracle
        try:
            code, _, err, dt = _cli([
                "cluster", "--algo", case.algo, "--k", str(case.k),
                "--sigma", repr(case.sigma), "--in", case.path, "--out", out,
            ], pace)
            res.algo_s[case.algo] += dt
            res.latencies.append(dt)
            if code != 0:
                res.failures.append(f"case {i} {case.algo}: cluster exit {code}: {err.strip()}")
                res.payloads.append(None)
                continue
            code, stdout, err, dt = _cli(["verify", "--points", case.path, "--clusters", out], pace)
            res.verify_s += dt
            if code != 0 or not stdout.splitlines()[-1].startswith("PASS"):
                res.failures.append(f"case {i} {case.algo}: verify exit {code}: {err.strip()}")
            with open(out, encoding="utf-8") as fh:
                payload = json.load(fh)
            res.payloads.append(payload)
            if case.oracle:
                code, stdout, err, _ = _cli([
                    "oracle", "min-ball", "--in", case.path, "--alpha", str(payload["alpha"]),
                ], pace)
                if code != 0:
                    res.failures.append(f"case {i}: oracle exit {code}: {err.strip()}")
                else:
                    res.oracle.append((i, float(stdout.split()[1])))
        except Exception:
            res.failures.append(f"case {i} {case.algo}: {traceback.format_exc(limit=-1).strip()}")
            if len(res.payloads) == i:
                res.payloads.append(None)
    for path, algo, expected in inputs.hostile:
        res.attempted += 1
        out = workdir / "hostile.json"
        argv = ["cluster", "--algo", algo, "--k", str(HOSTILE_K), "--sigma",
                repr(HOSTILE_SIGMA), "--in", path, "--out", str(out)]
        try:
            code = _cli(argv, pace)[0]
            if code == 0:
                res.hostile_payloads.append((path, algo, json.loads(out.read_text())))
        except Exception:
            code = f"exception {traceback.format_exc(limit=-1).strip()}"
        res.exit_codes.append(code)
        if code != expected:
            res.failures.append(f"hostile {Path(path).name} {algo}: exit {code}, pinned {expected}")
    _close(res, start, pace)
    return res


PASS = {
    "uniform-auto": pass_large,
    "multiscale-fixed": pass_large,
    "desk-sweep": pass_desk,
}


# ------------------------------------------------------------------- checks

def finish(inputs, res):
    """Check a pass's outputs, record its digest and quality, drop the outputs.

    Runs between passes, outside every timer; dropping the payloads keeps
    the benchmark's own bookkeeping out of ``peak_rss_mb``.
    """
    for i, (case, payload) in enumerate(zip(inputs.cases, res.payloads)):
        if payload is None:
            continue
        for err in certificate_errors(case.coords, case.colors, payload, case.algo,
                                      case.k, case.sigma, case.alpha):
            res.failures.append(f"case {i} {case.algo}: {err}")
    for path, algo, payload in res.hostile_payloads:
        coords = np.loadtxt(path, ndmin=2)
        for err in certificate_errors(coords, None, payload, algo, HOSTILE_K, HOSTILE_SIGMA):
            res.failures.append(f"hostile {Path(path).name} {algo}: {err}")
    for i, exact in res.oracle:
        approx = float(res.payloads[i]["balls"][0]["radius"])
        if not exact * (1.0 - REL_TOL) <= approx <= 2.0 * exact * (1.0 + REL_TOL):
            res.failures.append(f"case {i}: first ball radius {approx!r} vs exact {exact!r}")
    res.digest = _output_digest(res)
    res.quality = sum(p["quality"] for p in res.payloads if p is not None)
    res.payloads = res.hostile_payloads = None


def _output_digest(res) -> str:
    """sha256 over alpha and the sorted clusters of every call, in call order,
    then the exit code (and output, on success) of every hostile file."""
    h = hashlib.sha256()
    outputs = res.payloads + [p for _, _, p in res.hostile_payloads]
    for payload in outputs:
        if payload is None:
            h.update(b"failed\n")
            continue
        clusters = ";".join(",".join(map(str, sorted(c))) for c in payload["clusters"])
        h.update(f"{payload['alpha']}:{clusters}\n".encode())
    for code in res.exit_codes:
        h.update(f"exit {code}\n".encode())
    return h.hexdigest()
