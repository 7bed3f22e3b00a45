import numpy as np
import pytest

from sepclust.algorithms import (
    ColoredInstance,
    ExtractionConfig,
    semi_separated_k,
)
from sepclust.files import (
    clustering_from_payload,
    clustering_payload,
    clustering_text,
    parse_clustering,
    parse_points,
    points_text,
    read_points,
)
from sepclust.generators import gen_exponential_line, gen_random_uniform, gen_three_color_line
from sepclust.geometry import PointSet
from sepclust.separation import check_separation


def test_points_roundtrip_bit_exact():
    ps = gen_random_uniform(50, 3, 123)
    back = parse_points(points_text(ps))
    assert isinstance(back, PointSet)
    assert np.array_equal(back.coords, ps.coords)


def test_points_roundtrip_huge_coordinates():
    ps = gen_exponential_line(50)
    back = parse_points(points_text(ps))
    assert np.array_equal(back.coords, ps.coords)


def test_colored_roundtrip():
    inst = gen_three_color_line(4)
    back = parse_points(points_text(inst))
    assert isinstance(back, ColoredInstance)
    assert np.array_equal(back.points.coords, inst.points.coords)
    assert np.array_equal(back.colors, inst.colors)


def test_headerless_file_inferred():
    ps = parse_points("0 0\n1 2\n")
    assert isinstance(ps, PointSet)
    assert ps.n == 2 and ps.dim == 2


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_points("")
    with pytest.raises(ValueError):
        parse_points("# dim=2 colored=0\n1 2\n3\n")
    with pytest.raises(ValueError):
        parse_points("# dim=3 colored=0\n1 2\n")
    with pytest.raises(ValueError):
        parse_points("# dim=1 colored=1\n0 1\n2 5\n")  # colors 0,2 not contiguous
    with pytest.raises(ValueError, match="line 3: cannot parse point"):
        parse_points("# dim=2 colored=0\n0 0\nhello world\n")
    with pytest.raises(ValueError, match="line 2: cannot parse point"):
        parse_points("# dim=1 colored=1\nred 1\n")


def test_file_io(tmp_path):
    ps = gen_random_uniform(10, 2, 9)
    path = tmp_path / "pts.txt"
    path.write_text(points_text(ps))
    assert np.array_equal(read_points(path).coords, ps.coords)


def test_clustering_payload_and_rebuild():
    ps = gen_random_uniform(60, 2, 4)
    cl = semi_separated_k(ps, ExtractionConfig(sigma=1.0, k=2))
    payload = clustering_payload(cl, algorithm="semi", seed=4)
    assert payload["verified"] is True
    assert payload["quality"] == min(c.size for c in cl.clusters)
    assert payload["alpha"] == cl.alpha
    assert payload["k"] == 2 and payload["kind"] == "semi"
    data = parse_clustering(clustering_text(payload))
    rebuilt = clustering_from_payload(ps, data)
    assert check_separation(rebuilt)
    assert all(
        np.array_equal(a, b) for a, b in zip(rebuilt.clusters, cl.clusters)
    )


def test_clustering_text_deterministic():
    ps = gen_random_uniform(30, 2, 8)
    cl = semi_separated_k(ps, ExtractionConfig(sigma=1.0, k=2))
    a = clustering_text(clustering_payload(cl, algorithm="semi"))
    b = clustering_text(clustering_payload(cl, algorithm="semi"))
    assert a == b


def test_parse_clustering_schema_errors():
    with pytest.raises(ValueError):
        parse_clustering('{"kind": "semi", "sigma": 1.0}')
    with pytest.raises(ValueError):
        parse_clustering('{"kind": "semi", "sigma": 1.0, "clusters": []}')
