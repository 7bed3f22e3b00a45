import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sepclust import cli, separation
from sepclust.cli import bench_rows, main


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generate_expline(capsys, tmp_path):
    path = tmp_path / "e.txt"
    code, _, _ = run(capsys, "generate", "expline", "--n", "3", "--out", str(path))
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines == ["# dim=1 colored=0", "3", "7", "15"]


def test_generate_grid_stdout(capsys):
    code, out, _ = run(capsys, "generate", "grid", "--side", "2", "--dim", "1")
    assert code == 0
    assert out.strip().splitlines()[1:] == ["1", "2"]


def test_generate_threecolor(capsys, tmp_path):
    path = tmp_path / "tc.txt"
    code, _, _ = run(capsys, "generate", "threecolor", "--n", "3", "--out", str(path))
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "# dim=1 colored=1"
    assert len(lines) == 10
    assert lines[1] == "0 1" and lines[7] == "2 7"


def test_generate_seed_required(capsys, monkeypatch):
    monkeypatch.delenv("SEPCLUST_SEED", raising=False)
    code, _, err = run(capsys, "generate", "random", "--n", "5", "--dim", "1")
    assert code == 2 and "seed" in err


def test_generate_seed_env_fallback(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("SEPCLUST_SEED", "7")
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run(capsys, "generate", "random", "--n", "5", "--dim", "2", "--out", str(a))[0] == 0
    assert run(capsys, "generate", "random", "--n", "5", "--dim", "2", "--seed", "7", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("spread", ["inf", "nan"])
def test_generate_expgrid_non_finite_spread_exit_2(capsys, spread):
    code, out, err = run(capsys, "generate", "expgrid", "--n", "4", "--spread", spread, "--dim", "2")
    assert code == 2 and out == ""
    assert f"spread target must be finite, got {spread}" in err


@pytest.mark.parametrize("spread, levels", [("1e308", 1024), ("1e160", 532)])
def test_generate_expgrid_underflowing_spread_exit_2(capsys, spread, levels):
    # The deepest levels' squared gaps underflow: no file of duplicates.
    code, out, err = run(capsys, "generate", "expgrid", "--n", "4", "--spread", spread, "--dim", "2")
    assert code == 2 and out == ""
    assert err.count("error:") == 1 and f"needs {levels} levels" in err


def test_generate_out_of_memory_exit_2(capsys, monkeypatch):
    def too_large(n, dim, seed):
        raise MemoryError(f"cannot allocate {n} x {dim} points")

    fields = cli.GENERATORS["random"][1]
    monkeypatch.setitem(cli.GENERATORS, "random", (too_large, fields))
    code, out, err = run(capsys, "generate", "random", "--n", "1000000000000", "--dim", "2", "--seed", "1")
    assert code == 2 and out == ""
    assert err == "error: cannot allocate 1000000000000 x 2 points\n"


def test_generate_expgrid_cell_search_limit_exit_2(capsys, tmp_path):
    # At d = 1 three million ring points need a cell beyond the search's
    # candidate limit: a usage error, with no traceback and no file.
    out = tmp_path / "g.txt"
    code, stdout, err = run(capsys, "generate", "expgrid", "--n", "3000000",
                            "--spread", "4e6", "--dim", "1", "--out", str(out))
    assert code == 2 and stdout == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "2000000" in err
    assert not out.exists()


def test_generate_expgrid_denser_ring_exit_2(capsys):
    code, out, err = run(capsys, "generate", "expgrid", "--n", "1", "--spread", "4", "--dim", "3")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "27 > 6n = 6" in err


@pytest.mark.parametrize("header", ["# dim=x", "# dim=1 colored=q", "# dim=1 colored=2"])
def test_malformed_header_exit_2(capsys, tmp_path, header):
    pts = tmp_path / "p.txt"
    pts.write_text(f"{header}\n1\n2\n")
    code, out, err = run(capsys, "cluster", "--algo", "semi", "--k", "1", "--sigma", "1", "--in", str(pts))
    assert code == 2 and out == ""
    assert err == f"error: line 1: cannot parse header {header!r}\n"


def test_usage_error_exit_2(capsys):
    assert main(["generate", "grid", "--side", "2"]) == 2  # missing --dim
    assert main(["cluster", "--algo", "bogus"]) == 2
    code, out, err = run(capsys, "generate", "nope")  # no such generator kind
    assert code == 2 and out == "" and "'nope'" in err


def test_cluster_strong_expline_quality_one(capsys, tmp_path):
    pts = tmp_path / "p.txt"
    out = tmp_path / "c.json"
    run(capsys, "generate", "expline", "--n", "10", "--out", str(pts))
    code, _, _ = run(
        capsys, "cluster", "--algo", "strong", "--k", "2", "--sigma", "1",
        "--in", str(pts), "--out", str(out),
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["quality"] == 1 and data["verified"] is True


def test_cluster_semi_k1(capsys, tmp_path):
    pts = tmp_path / "p.txt"
    out = tmp_path / "c.json"
    run(capsys, "generate", "random", "--n", "30", "--dim", "2", "--seed", "1", "--out", str(pts))
    code, _, _ = run(
        capsys, "cluster", "--algo", "semi", "--k", "1", "--sigma", "2",
        "--in", str(pts), "--out", str(out),
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["k"] == 1 and data["verified"] is True


def test_cluster_auto_random_2000(capsys, tmp_path):
    pts = tmp_path / "p.txt"
    out = tmp_path / "c.json"
    run(capsys, "generate", "random", "--n", "2000", "--dim", "2", "--seed", "7", "--out", str(pts))
    code, _, _ = run(
        capsys, "cluster", "--algo", "semi", "--k", "3", "--sigma", "2", "--auto",
        "--in", str(pts), "--out", str(out),
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["verified"] is True
    assert data["quality"] >= 1  # documented bound floor(2000/(3*K_semi(2)*4)) is 0


def test_cluster_colored_mismatch_exit_2(capsys, tmp_path):
    pts = tmp_path / "p.txt"
    run(capsys, "generate", "threecolor", "--n", "4", "--out", str(pts))
    code, _, err = run(
        capsys, "cluster", "--algo", "semi", "--k", "3", "--sigma", "1", "--in", str(pts),
    )
    assert code == 2 and "points file" in err


@pytest.mark.parametrize("sigma", ["inf", "nan", "1e308", "0", "-1"])
@pytest.mark.parametrize("algo", ["semi", "strong", "semi-colored", "well-colored"])
def test_cluster_sigma_out_of_range_exit_2(capsys, tmp_path, algo, sigma):
    pts = tmp_path / "p.txt"
    if algo.endswith("colored"):
        run(capsys, "generate", "threecolor", "--n", "4", "--out", str(pts))
    else:
        run(capsys, "generate", "random", "--n", "30", "--dim", "2", "--seed", "1",
            "--out", str(pts))
    code, out, err = run(
        capsys, "cluster", "--algo", algo, "--k", "3", "--sigma", sigma, "--in", str(pts),
    )
    assert code == 2 and out == ""
    assert err.startswith("error: sigma must be positive with 2*sigma + 2 finite")


@pytest.mark.parametrize(
    "algo, generator",
    [
        ("well-colored", ["threecolor", "--n", "5"]),
        ("strong", ["expline", "--n", "24"]),
        ("semi", ["random", "--n", "10", "--dim", "2", "--seed", "1"]),
        ("semi-colored", ["threecolor", "--n", "5"]),
    ],
)
def test_cluster_huge_sigma_writes_no_warning(capsys, tmp_path, algo, generator):
    # At the largest valid sigma, 2 sigma r overflows to inf inside the
    # selector; that drops the pair as it should and must print nothing. At a
    # subnormal sigma the distance over the required separation overflows to
    # an infinite ratio, which verify prints, also without a warning.
    # A fresh interpreter with warnings shown sees what a shell user would.
    pts = tmp_path / "p.txt"
    run(capsys, "generate", *generator, "--out", str(pts))
    calls = []
    for sigma in ("8.98e307", "1e-310"):
        out = str(tmp_path / f"c{sigma}.json")
        calls.append(["cluster", "--algo", algo, "--k", "3", "--sigma", sigma,
                      "--in", str(pts), "--out", out])
        calls.append(["verify", "--points", str(pts), "--clusters", out])
    env = dict(os.environ, PYTHONWARNINGS="default",
               PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys; from sepclust.cli import main; "
         "sys.exit(max([main(argv) for argv in json.loads(sys.argv[1])]))",
         json.dumps(calls)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.count("PASS:") == 2
    for sigma in ("8.98e307", "1e-310"):
        assert json.loads((tmp_path / f"c{sigma}.json").read_text())["verified"] is True


def test_huge_coordinates_write_no_warning(tmp_path):
    # Squared gaps of 2e300 overflow to inf inside the distance kernel, and
    # an infinite radius makes a ball gap inf - inf; inf already reads as
    # too far, so neither may print a numpy warning. Each call keeps its exit
    # code: semi, strong and semi-colored reject an infinite radius (2), and
    # well-colored finds singleton clusters (0) that verify accepts.
    plain, colored = tmp_path / "p.txt", tmp_path / "c.txt"
    plain.write_text("# dim=2 colored=0\n1e300 0\n-1e300 0\n0 1e300\n0 -1e300\n1 1\n2 2\n")
    colored.write_text("# dim=2 colored=1\n0 1e300 0\n0 -1e300 0\n1 0 1e300\n1 0 -1e300\n")
    out = str(tmp_path / "w.json")
    calls = [
        ["cluster", "--algo", "semi", "--k", "3", "--sigma", "2", "--in", str(plain)],
        ["cluster", "--algo", "strong", "--k", "3", "--sigma", "2", "--in", str(plain)],
        ["cluster", "--algo", "semi-colored", "--k", "2", "--sigma", "2",
         "--in", str(colored)],
        ["cluster", "--algo", "well-colored", "--k", "2", "--sigma", "2",
         "--in", str(colored), "--out", out],
        ["verify", "--points", str(colored), "--clusters", out],
    ]
    env = dict(os.environ, PYTHONWARNINGS="default",
               PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys; from sepclust.cli import main; "
         "codes = [main(argv) for argv in json.loads(sys.argv[1])]; "
         "print(json.dumps(codes))",
         json.dumps(calls)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert json.loads(proc.stdout.splitlines()[-1]) == [2, 2, 2, 0, 0]
    assert "PASS:" in proc.stdout
    errors = proc.stderr.splitlines()
    assert len(errors) == 3 and all(e.startswith("error: ") for e in errors), proc.stderr


_RADIUS = "error: ball radius must be finite and nonnegative\n"
_HUGE = ["1e300 0", "-1e300 0", "0 1e300", "0 -1e300", "1 1", "2 2"]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_overflowing_distances_exit_codes(tmp_path, k):
    # Points 1e300 apart on the axes are at distance inf in the kernel. Semi
    # and semi-colored reject an infinite radius at the pick that takes it,
    # which ends auto mode with exit 2 instead of a smaller alpha; strong's
    # epochs reject infinite radii. Well-colored never picks an infinite ball
    # beside another color (the gap to it is nan or -inf), so it exits 2 only
    # at k = 1.
    plain, colored = tmp_path / "p.txt", tmp_path / "c.txt"
    plain.write_text("# dim=2 colored=0\n" + "\n".join(_HUGE) + "\n")
    colored.write_text(
        "# dim=2 colored=1\n" + "".join(f"{i % k} {p}\n" for i, p in enumerate(_HUGE))
    )
    want = {
        ("semi", plain): [2, _RADIUS],
        ("strong", plain): [2, "error: radii must be finite and nonnegative\n"],
        ("semi-colored", colored): [2, _RADIUS],
        ("well-colored", colored): [2, _RADIUS] if k == 1 else [0, ""],
    }
    calls = [["cluster", "--algo", algo, "--k", str(k), "--sigma", "2", "--in", str(path),
              "--out", str(tmp_path / "c.json")] for algo, path in want]
    env = dict(os.environ, PYTHONWARNINGS="always",
               PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import contextlib, io, json, sys; from sepclust.cli import main\n"
         "got = []\n"
         "for argv in json.loads(sys.argv[1]):\n"
         "    err = io.StringIO()\n"
         "    with contextlib.redirect_stderr(err):\n"
         "        got.append([main(argv), err.getvalue()])\n"
         "print(json.dumps(got))",
         json.dumps(calls)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert json.loads(proc.stdout) == list(want.values())


@pytest.mark.parametrize("color", ["99999999999999999999999", "-99999999999999999999999"])
def test_color_outside_int64_exit_2(capsys, tmp_path, color):
    pts, cl = tmp_path / "p.txt", tmp_path / "c.json"
    pts.write_text(f"# dim=1 colored=1\n{color} 1\n")
    cl.write_text('{"kind": "semi", "sigma": 1, "clusters": [[0]]}')
    for argv in (
        ["cluster", "--algo", "semi-colored", "--k", "1", "--sigma", "1", "--in", str(pts)],
        ["verify", "--points", str(pts), "--clusters", str(cl)],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: line 2: color {color} is outside the int64 range\n"


@pytest.mark.parametrize(
    "algo, generator",
    [
        ("semi", ["random", "--n", "30", "--dim", "2", "--seed", "1"]),
        ("strong", ["random", "--n", "30", "--dim", "2", "--seed", "1"]),
        ("semi-colored", ["threecolor", "--n", "5"]),
        ("well-colored", ["threecolor", "--n", "5"]),
    ],
)
def test_one_margin_computation_per_clustering(capsys, tmp_path, monkeypatch, algo, generator):
    # cluster self-checks and writes "verified" from one computation; verify
    # rebuilds the clustering from the file and checks it afresh
    computed = []
    rows = separation._margin_rows
    monkeypatch.setattr(separation, "_margin_rows", lambda c: computed.append(c) or rows(c))
    pts, out = str(tmp_path / "p.txt"), str(tmp_path / "c.json")
    run(capsys, "generate", *generator, "--out", pts)
    code, _, _ = run(capsys, "cluster", "--algo", algo, "--k", "3", "--sigma", "1",
                     "--in", pts, "--out", out)
    assert code == 0 and len(computed) == 1
    code, stdout, _ = run(capsys, "verify", "--points", pts, "--clusters", out)
    assert code == 0 and "PASS" in stdout
    assert len(computed) == 2 and computed[1] is not computed[0]


def test_cluster_infeasible_exit_3(capsys, tmp_path):
    pts = tmp_path / "p.txt"
    run(capsys, "generate", "grid", "--side", "3", "--dim", "1", "--out", str(pts))
    code, _, _ = run(
        capsys, "cluster", "--algo", "semi", "--k", "2", "--sigma", "1",
        "--alpha", "3", "--in", str(pts),
    )
    assert code == 3
    # strong with alpha above n has no full quorum step at all
    code, _, err = run(
        capsys, "cluster", "--algo", "strong", "--k", "2", "--sigma", "1",
        "--alpha", "4", "--in", str(pts),
    )
    assert code == 3 and "iteration 0" in err


def test_cluster_auto_alpha_one_infeasible_exit_3(capsys, tmp_path):
    # Three copies of one point: auto mode's alpha = 1 probe fails at the
    # second iteration, and that probe's error is the command's.
    pts = tmp_path / "p.txt"
    pts.write_text("0 0\n0 0\n0 0\n")
    code, out, err = run(
        capsys, "cluster", "--algo", "semi", "--k", "2", "--sigma", "1", "--in", str(pts),
    )
    assert code == 3 and out == "" and "iteration 1" in err


def test_verify_flow_and_tamper(capsys, tmp_path):
    pts = tmp_path / "p.txt"
    cl = tmp_path / "c.json"
    run(capsys, "generate", "random", "--n", "40", "--dim", "2", "--seed", "3", "--out", str(pts))
    run(
        capsys, "cluster", "--algo", "strong", "--k", "2", "--sigma", "1",
        "--in", str(pts), "--out", str(cl),
    )
    code, out, _ = run(capsys, "verify", "--points", str(pts), "--clusters", str(cl))
    assert code == 0 and "PASS" in out
    # verifying a strong-verified file as semi passes (implication chain)
    code, out, _ = run(
        capsys, "verify", "--kind", "semi", "--points", str(pts), "--clusters", str(cl)
    )
    assert code == 0
    # move one index into the other cluster: verification fails
    data = json.loads(cl.read_text())
    data["clusters"][1].append(data["clusters"][0].pop())
    cl.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", "--points", str(pts), "--clusters", str(cl))
    assert code == 1 and "FAIL" in out


def test_verify_color_swapped_clustering_rejected(capsys, tmp_path):
    pts, cl = tmp_path / "p.txt", tmp_path / "c.json"
    run(capsys, "generate", "threecolor", "--n", "8", "--out", str(pts))
    run(
        capsys, "cluster", "--algo", "semi-colored", "--k", "3", "--sigma", "1",
        "--alpha", "1", "--in", str(pts), "--out", str(cl),
    )
    assert run(capsys, "verify", "--points", str(pts), "--clusters", str(cl))[0] == 0
    data = json.loads(cl.read_text())
    data["clusters"] = data["clusters"][::-1]
    cl.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "--points", str(pts), "--clusters", str(cl))
    assert code == 2 and "PASS" not in out
    assert "cluster 0 must draw from color 0" in err


@pytest.mark.parametrize("text", ["1e400", "1e308", "0", "-2"])
def test_verify_sigma_out_of_range_exit_2(capsys, tmp_path, text):
    # 1e400 is JSON float text, which Python reads as inf
    pts, cl = tmp_path / "p.txt", tmp_path / "c.json"
    run(capsys, "generate", "grid", "--side", "4", "--dim", "1", "--out", str(pts))
    cl.write_text('{"kind": "strong", "sigma": %s, "clusters": [[0], [3]]}' % text)
    code, out, err = run(capsys, "verify", "--points", str(pts), "--clusters", str(cl))
    assert code == 2 and out == "" and "sigma" in err
    cl.write_text('{"kind": "strong", "sigma": 1, "clusters": [[0], [3]]}')
    code, out, err = run(
        capsys, "verify", "--points", str(pts), "--clusters", str(cl), "--sigma", text
    )
    assert code == 2 and out == "" and "sigma" in err


def test_verify_parse_error_exit_2(capsys, tmp_path):
    pts = tmp_path / "p.txt"
    bad = tmp_path / "bad.json"
    run(capsys, "generate", "grid", "--side", "2", "--dim", "1", "--out", str(pts))
    bad.write_text("{not json")
    assert run(capsys, "verify", "--points", str(pts), "--clusters", str(bad))[0] == 2


def test_oracle_best_pair(capsys, tmp_path):
    pts = tmp_path / "p.txt"
    run(capsys, "generate", "expline", "--n", "8", "--out", str(pts))
    code, out, _ = run(
        capsys, "oracle", "best-pair", "--in", str(pts), "--sigma", "1", "--kind", "strong"
    )
    assert code == 0 and out.splitlines()[0] == "quality 1"


def test_oracle_min_ball(capsys, tmp_path):
    pts = tmp_path / "p.txt"
    pts.write_text("0\n1\n2\n10\n")
    code, out, _ = run(capsys, "oracle", "min-ball", "--in", str(pts), "--alpha", "3")
    assert code == 0 and out.strip() == "radius 1"
    code, out, _ = run(capsys, "oracle", "min-ball", "--in", str(pts), "--alpha", "1")
    assert code == 0 and out.strip() == "radius 0"


def test_oracle_budget_exit_4(capsys, tmp_path):
    pts = tmp_path / "p.txt"
    run(capsys, "generate", "random", "--n", "20", "--dim", "1", "--seed", "2", "--out", str(pts))
    code, _, _ = run(
        capsys, "oracle", "best-pair", "--in", str(pts), "--sigma", "1", "--kind", "semi"
    )
    assert code == 4


def test_oracle_max_n(capsys, tmp_path):
    pts = tmp_path / "p.txt"
    pts.write_text("0\n1\n2\n10\n")
    for oracle, extra in (("min-ball", ["--alpha", "2"]),
                          ("best-pair", ["--sigma", "1", "--kind", "semi"])):
        argv = ["oracle", oracle, "--in", str(pts), *extra]
        assert run(capsys, *argv)[0] == 0  # within the default budget
        assert run(capsys, *argv, "--max-n", "3")[0] == 4
        code, _, err = run(capsys, *argv, "--max-n", "0")
        assert code == 2 and "budgets must be positive" in err


@pytest.mark.parametrize("dim", [2, 3])
def test_oracle_min_ball_overflowing_midpoint_exit_2(capsys, tmp_path, dim):
    # The midpoint of (1e308, 0) and (1e308, 1) overflows to inf; the oracle
    # rejects it rather than count points around an infinite center.
    pad = " 0" * (dim - 2)
    pts = tmp_path / "p.txt"
    pts.write_text("".join(f"{p}{pad}\n" for p in ("1e308 0", "1e308 1", "0 1", "5 5")))
    code, out, err = run(capsys, "oracle", "min-ball", "--in", str(pts), "--alpha", "2")
    assert (code, out, err) == (2, "", "error: coordinates must be finite\n")


@pytest.mark.parametrize("lines, alpha", [
    (("-1e308 0", "1e308 1", "0 1", "5 5"), "4"),
    (("-1e308", "1e308", "3"), "3"),
])
def test_oracle_min_ball_overflowing_radius_exit_2(capsys, tmp_path, lines, alpha):
    # The ball (d = 2) or window (d = 1) spanning -1e308 and 1e308 has an
    # infinite radius; the oracle rejects it rather than answer inf.
    pts = tmp_path / "p.txt"
    pts.write_text("".join(f"{p}\n" for p in lines))
    code, out, err = run(capsys, "oracle", "min-ball", "--in", str(pts), "--alpha", alpha)
    assert (code, out, err) == (2, "", "error: coordinates must be finite\n")


@pytest.mark.parametrize(
    "argv, colored",
    [
        (["generate", "kcopies", "--k", "2", "--input"], True),
        (["oracle", "best-pair", "--sigma", "1", "--kind", "strong", "--in"], True),
        (["oracle", "min-ball", "--alpha", "2", "--in"], True),
        (["oracle", "three-color", "--in"], False),
    ],
    ids=["kcopies", "best-pair", "min-ball", "three-color"],
)
def test_points_file_kind_mismatch_exit_2(capsys, tmp_path, argv, colored):
    pts = tmp_path / "p.txt"
    gen = ["threecolor", "--n", "2"] if colored else ["grid", "--side", "3", "--dim", "1"]
    run(capsys, "generate", *gen, "--out", str(pts))
    code, out, err = run(capsys, *argv, str(pts))
    want = "plain" if colored else "colored"
    assert code == 2 and out == ""
    assert err == f"error: {argv[1]} expects a {want} points file\n"


def test_oracle_three_color(capsys, tmp_path):
    pts = tmp_path / "p.txt"
    run(capsys, "generate", "threecolor", "--n", "5", "--out", str(pts))
    code, out, _ = run(capsys, "oracle", "three-color", "--in", str(pts))
    assert code == 0 and out.strip() == "hopeless true"


@pytest.mark.parametrize("sigma", ["nan", "inf", "-1", "0", "1e308"])
@pytest.mark.parametrize(
    "oracle, extra, gen",
    [
        ("best-pair", ["--kind", "strong"], ["random", "--n", "8", "--dim", "2", "--seed", "1"]),
        ("three-color", [], ["threecolor", "--n", "4"]),
    ],
    ids=["best-pair", "three-color"],
)
def test_oracle_sigma_out_of_range_exit_2(capsys, tmp_path, oracle, extra, gen, sigma):
    pts = tmp_path / "p.txt"
    run(capsys, "generate", *gen, "--out", str(pts))
    code, out, err = run(capsys, "oracle", oracle, "--in", str(pts), "--sigma", sigma, *extra)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: sigma must be positive with 2*sigma + 2 finite")


def test_kcopies_roundtrip(capsys, tmp_path):
    base = tmp_path / "b.txt"
    out = tmp_path / "k.txt"
    base.write_text("0\n1\n")
    code, _, _ = run(
        capsys, "generate", "kcopies", "--k", "4", "--input", str(base), "--out", str(out)
    )
    assert code == 0
    assert out.read_text().strip().splitlines()[1:] == ["0", "1", "2", "3"]


def test_bench_smoke_csv(capsys, tmp_path):
    out = tmp_path / "b.csv"
    code, _, _ = run(capsys, "bench", "--suite", "smoke", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[:10] == [
        "generator", "n", "d", "k", "sigma", "algo", "alpha", "quality",
        "epochs", "max_depth",
    ]
    assert header == cli.BENCH_COLUMNS and len(header) == 12
    assert len(lines) == 5
    assert all(row.split(",")[10] == "true" for row in lines[1:])


def test_bench_suite_labels():
    assert [e[0] for e in cli._default_suite()] == (
        ["random:n=600:dim=2:seed=11"] * 12
        + ["grid:side=16:dim=2"] * 4
        + ["expline:n=24", "expgrid:n=32:dim=2:spread=64.0"]
        + ["colored-random:k=3:per=200:dim=2:seed=13"] * 4
    )
    assert [e[0] for e in cli._smoke_suite()] == (
        ["random:n=120:dim=2:seed=5"] * 2 + ["colored-random:k=2:per=60:dim=2:seed=13"] * 2
    )


def test_bench_rows_all_verified():
    rows = bench_rows("smoke")
    assert all(r.verified for r in rows)
    assert all(r.quality >= 1 for r in rows)


def test_bench_semi_quality_falls_with_sigma():
    # quality of the semi rows decreases roughly like the inverse of
    # sigma^d within the extraction's own constants
    rows = bench_rows("default")
    q = {
        r.sigma: r.quality
        for r in rows
        if r.algo == "semi" and r.k == 2 and r.generator.startswith("random")
    }
    assert q[1.0] > q[2.0] > q[4.0]
    assert 2.0 <= q[1.0] / q[4.0] <= 16.0


def test_determinism_generate_and_cluster(capsys, tmp_path):
    pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
    ca, cb = tmp_path / "a.json", tmp_path / "b.json"
    for pts, cl in ((pa, ca), (pb, cb)):
        run(capsys, "generate", "nearuniform", "--n", "12", "--eps", "0.4",
            "--seed", "5", "--out", str(pts))
        run(capsys, "cluster", "--algo", "semi", "--k", "2", "--sigma", "1",
            "--in", str(pts), "--out", str(cl))
    assert pa.read_bytes() == pb.read_bytes()
    assert ca.read_bytes() == cb.read_bytes()


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0 and out.strip() == "0.1.0"


def test_main_reuses_one_parser_statelessly(capsys, monkeypatch, tmp_path):
    # Every call below must give what it gives on a freshly built parser, even
    # though, in sequence, each one follows a call that set the flags it omits.
    pts, cl = tmp_path / "p.txt", tmp_path / "c.json"
    run(capsys, "generate", "random", "--n", "60", "--dim", "2", "--seed", "3", "--out", str(pts))
    strong = ["cluster", "--algo", "strong", "--k", "2", "--sigma", "2", "--in", str(pts)]
    assert run(capsys, *strong, "--out", str(cl))[0] == 0
    verify = ["verify", "--points", str(pts), "--clusters", str(cl)]
    rand = ["generate", "random", "--n", "5", "--dim", "2"]
    monkeypatch.setenv("SEPCLUST_SEED", "6")
    calls = [
        strong + ["--alpha", "3"], strong,
        ["cluster", "--algo", "bogus"], strong,
        verify + ["--kind", "semi", "--sigma", "1"], verify,
        rand + ["--seed", "5"], rand,
    ]
    first = []
    for argv in calls:
        cli._build_parser.cache_clear()
        first.append(run(capsys, *argv))
    assert [r[0] for r in first] == [0, 0, 2, 0, 0, 0, 0, 0]
    for a, b in zip(first[::2], first[1::2]):
        assert a != b  # each follow-up call would show a leaked flag

    cli._build_parser.cache_clear()
    parser = cli._build_parser()
    assert cli._build_parser() is parser
    assert [run(capsys, *argv) for argv in calls] == first
    assert cli._build_parser() is parser


@pytest.mark.parametrize(
    "field, value",
    [
        ("balls", [1, 2]),
        ("balls", "x"),
        ("clusters", [{"a": 1}]),
        ("sigma", [1]),
        ("clusters", [[0.5], [1.5]]),
        ("clusters", [[[1]], [[2]]]),
        ("clusters", [[True], [False]]),
        ("balls", [{"center": [0], "radius": "0"}]),
        ("alpha", 1.5),
        ("clusters", [[100000000000000000000000], [3]]),
        pytest.param("sigma", 10**400, id="sigma-10^400"),
        ("balls", [{"center": [10**400], "radius": 1}]),
    ],
)
def test_verify_malformed_clustering_exit_2(capsys, tmp_path, field, value):
    pts, cl = tmp_path / "p.txt", tmp_path / "c.json"
    run(capsys, "generate", "grid", "--side", "4", "--dim", "1", "--out", str(pts))
    data = {"kind": "strong", "sigma": 1.0, "clusters": [[0], [3]], field: value}
    cl.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "--points", str(pts), "--clusters", str(cl))
    assert code == 2 and "PASS" not in out
    assert err.startswith("error: ") and field in err


def _cluster_args(tmp_path):
    pts = tmp_path / "p.txt"
    pts.write_text("# dim=1 colored=0\n0\n1\n10\n11\n")
    return ["cluster", "--algo", "strong", "--k", "2", "--sigma", "1", "--in", str(pts)]


@pytest.mark.parametrize("extra", [-5, 0, 40])
def test_out_rewrites_an_existing_file_in_place(capsys, tmp_path, extra):
    # The file is opened without truncation and cut after the write: an old
    # file longer, shorter or as long as the new bytes leaves none of its own.
    fresh, out = tmp_path / "fresh.json", tmp_path / "c.json"
    argv = _cluster_args(tmp_path)
    assert run(capsys, *argv, "--out", str(fresh))[0] == 0
    want = fresh.read_bytes()
    out.write_bytes(b"x" * (len(want) + extra))
    assert run(capsys, *argv, "--out", str(out)) == (0, "", "")
    assert out.read_bytes() == want
    for text in ("é\n" * 3, "\n"):  # _emit itself: non-ASCII, then shorter
        cli._emit(text, str(out))
        assert out.read_bytes() == text.encode("utf-8")


def test_out_failed_write_leaves_no_old_tail(capsys, tmp_path):
    # Under a 100,000-byte file size limit a 147,618-byte rewrite of a
    # 200,000-byte file fails part way. The file must end where the new
    # bytes do: an old tail after them could still parse.
    argv = ["generate", "grid", "--side", "150", "--dim", "2"]
    want = run(capsys, *argv)[1].encode()
    out = tmp_path / "g.txt"
    out.write_bytes(b"x" * 200_000)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import resource, signal, sys; from sepclust.cli import main; "
         "signal.signal(signal.SIGXFSZ, signal.SIG_IGN); "
         "hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]; "
         "resource.setrlimit(resource.RLIMIT_FSIZE, (100_000, hard)); "
         "sys.exit(main(sys.argv[1:]))",
         *argv, "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ")
    got = out.read_bytes()
    assert 0 < len(got) <= 100_000 and got == want[: len(got)]


@pytest.mark.parametrize("mask", [0o022, 0o027, 0o077, 0o000])
def test_out_creates_a_file_with_the_mode_of_open_w(tmp_path, mask):
    old = os.umask(mask)
    try:
        cli._emit("1\n", str(tmp_path / "new.txt"))
        with open(tmp_path / "ref.txt", "w"):
            pass
    finally:
        os.umask(old)
    mode = os.stat(tmp_path / "new.txt").st_mode
    assert mode == os.stat(tmp_path / "ref.txt").st_mode
    assert mode & 0o777 == 0o666 & ~mask


@pytest.mark.parametrize("target", ["dir", "missing/c.json"])
@pytest.mark.parametrize("command", ["generate", "cluster"])
def test_out_unwritable_path_exit_2(capsys, tmp_path, target, command):
    (tmp_path / "dir").mkdir()
    out = str(tmp_path / target)
    if command == "generate":
        argv = ["generate", "expline", "--n", "3"]
    else:
        argv = _cluster_args(tmp_path)
    code, stdout, err = run(capsys, *argv, "--out", out)
    assert code == 2 and stdout == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and out in err
    assert not (tmp_path / "missing").exists()


@pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
def test_out_null_device_exit_0(capsys, tmp_path):
    # A character device has no length to cut.
    assert run(capsys, *_cluster_args(tmp_path), "--out", os.devnull) == (0, "", "")
    assert run(capsys, "generate", "expline", "--n", "3", "--out", os.devnull) == (0, "", "")
