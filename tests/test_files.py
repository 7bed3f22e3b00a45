import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sepclust import files
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


def _points_text_reference(obj):
    # One format() call per value, the writer's layout before it moved to
    # one % operation per line.
    colored = isinstance(obj, ColoredInstance)
    ps = obj.points if colored else obj
    lines = [f"# dim={ps.dim} colored={int(colored)}"]
    for i in range(ps.n):
        fields = [format(float(v), ".17g") for v in ps.coords[i]]
        if colored:
            fields.insert(0, str(int(obj.colors[i])))
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1.7976931348623157e308, 0.1]
_INT64 = (int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max))


@settings(max_examples=200)
@given(
    rows=st.integers(1, 3).flatmap(
        lambda d: st.lists(
            st.lists(
                st.sampled_from(_EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False),
                min_size=d, max_size=d,
            ),
            min_size=1, max_size=6,
        )
    ),
    colors=st.lists(st.sampled_from([*_INT64, 0, -1]) | st.integers(*_INT64), min_size=6, max_size=6),
)
def test_points_text_matches_format_per_value(rows, colors):
    ps = PointSet(np.array(rows))
    assert points_text(ps) == _points_text_reference(ps)
    inst = ColoredInstance(ps, np.zeros(ps.n, dtype=int))
    # ColoredInstance admits only colors 0..k-1; the writer formats any int64.
    object.__setattr__(inst, "colors", np.array(colors[: ps.n], dtype=np.int64))
    assert points_text(inst) == _points_text_reference(inst)


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
    for header in ("# dim=x", "# dim=1 colored=q"):
        with pytest.raises(ValueError, match=f"^line 3: cannot parse header '{header}'$"):
            parse_points(f"\n  \n{header}\n1 2\n")
    # colored is exactly 0 or 1, and each key comes at most once.
    for header in (
        "# dim=1 colored=2",
        "# dim=1 colored=-1",
        "# dim=1 colored=01",
        "# dim=1 dim=2",
        "# dim=2 colored=1 colored=0",
    ):
        with pytest.raises(ValueError, match=f"^line 1: cannot parse header '{header}'$"):
            parse_points(f"{header}\n1 2\n")
    for color in ("99999999999999999999999", "-99999999999999999999999"):
        with pytest.raises(ValueError, match=f"line 3: color {color} is outside the int64"):
            parse_points(f"# dim=1 colored=1\n0 0\n{color} 1\n")


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_written_files_take_the_bulk_path(newline):
    inst = gen_three_color_line(4)
    for obj in (gen_random_uniform(30, 3, 2), inst):
        text = points_text(obj).replace("\n", newline)
        assert files._parse_bulk(text) is not None
        assert files._parse_bulk(text.split(newline, 1)[1]) is not None  # no header


def _read_by_lines(text):
    coords, colors = files._parse_lines(text)
    return PointSet(coords) if colors is None else ColoredInstance(PointSet(coords), colors)


def _outcome(read, text):
    try:
        obj = read(text)
    except Exception as exc:  # the type and message must match
        return type(exc), str(exc)
    colored = isinstance(obj, ColoredInstance)
    ps = obj.points if colored else obj
    return ps.coords.shape, ps.coords.tobytes(), obj.colors.tolist() if colored else None


_TOKENS = [  # float() takes the first eleven, and gives a finite value
    "0", "1", "2", "-3.5", "+.5", "5.", "1e-400", "1_0", "\uff11\uff12", "007", "1.0",
    "1e400", "-1e400", "inf", "-Infinity", "nan", "-nan", "\u0663", "1__0", "0x1p3",
    "1,5", "abc", "99999999999999999999999", "-99999999999999999999999", "#", "#5",
]
_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c"]


@st.composite
def _points_files(draw):
    # Mostly regular files, which the bulk path reads, with some irregular
    # lines mixed in, which send the whole file to the line reader.
    dim = draw(st.integers(1, 3))
    colored = draw(st.booleans())
    header = draw(st.sampled_from([
        "", f"# dim={dim} colored={int(colored)}", f"  # dim={dim} colored={int(colored)}",
        "# dim=2 colored=0", "# dim=1 colored=1", "#dim=2", "# colored=1", "# note",
        "# dim=x",
    ]))
    regular = st.lists(st.sampled_from(_TOKENS[:11]), min_size=dim, max_size=dim)
    if colored:
        color = st.sampled_from(["0", "1", "0", "1", "2", "-1", "1_0"])
        regular = st.tuples(color, regular).map(lambda ct: [ct[0], *ct[1]])
    width = dim + colored
    line = regular if draw(st.booleans()) else st.one_of(
        regular, regular, regular,
        st.lists(st.sampled_from(_TOKENS), min_size=width, max_size=width),
        st.lists(st.sampled_from(_TOKENS[:4]), min_size=0, max_size=4),
        st.just(["#", "comment"]),
    )
    line = line.map(lambda toks: " \t"[len(toks) % 2].join(toks))
    body = draw(st.lists(line, min_size=0, max_size=6))
    lines = ([header] if header else []) + body
    return "".join(ln + draw(st.sampled_from(_BREAKS)) for ln in lines)


@settings(max_examples=600)
@given(text=_points_files())
@example(text="1 2\n3\n4 5 6\n")  # ragged lines whose tokens fill a 3 x 2 array
@example(text="# dim=1 colored=1\n0 1 2\n1\n")
def test_bulk_reader_agrees_with_line_reader(text):
    bulk = files._parse_bulk(text)
    if bulk is not None:
        coords, colors = files._parse_lines(text)  # must not raise
        assert bulk[0].tobytes() == coords.tobytes() and bulk[0].shape == coords.shape
        assert (bulk[1] is None) == (colors is None)
        assert colors is None or bulk[1].tolist() == colors.tolist()
    assert _outcome(parse_points, text) == _outcome(_read_by_lines, text)


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
