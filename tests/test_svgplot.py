import math
import re
import signal
from contextlib import contextmanager
import xml.etree.ElementTree as ET
from xml.dom import minidom

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pareto_forge import Front, ParetoPoint, Sense
from pareto_forge.cli import main
from pareto_forge.svgplot import HEIGHT, WIDTH, front_svg

MIN_MAX = (Sense.MINIMIZE, Sense.MAXIMIZE)


def make_front():
    points = (
        ParetoPoint((314.0, 0.04, 0.2), (0.5055, 2781.8), "weighted_sum", "w=1"),
        ParetoPoint((314.0, 0.16, 0.6), (0.7962, 35241.0), "weighted_sum", "w=0"),
        ParetoPoint((314.0, 0.1154, 0.6), (0.7111, 25448.0), "global_criterion", "p=2"),
    )
    return Front(points, MIN_MAX)


def test_svg_is_deterministic():
    front = make_front()
    assert front_svg(front) == front_svg(front)


def test_svg_is_wellformed_xml():
    root = ET.fromstring(front_svg(make_front(), title="fronts"))
    assert root.tag.endswith("svg")
    assert root.attrib["width"] == "800" and root.attrib["height"] == "600"


def test_svg_has_marker_per_point_and_legend():
    svg = front_svg(make_front())
    # 2 weighted_sum circles + legend swatch, 1 global_criterion square + swatch
    assert svg.count("<circle") == 3
    assert svg.count("<rect") >= 2  # background + squares
    assert "weighted_sum" in svg and "global_criterion" in svg


def test_svg_axis_labels():
    svg = front_svg(make_front())
    assert "Ra (um)" in svg and "MRR (mm^3/min)" in svg


def tick_labels(svg):
    """The x and the y tick labels of ``svg``; legend entries carry no text-anchor."""
    found = re.findall(r'text-anchor="(middle|end)" font-family="sans-serif" '
                       r'font-size="12">([^<]*)<', svg)
    return ([t for anchor, t in found if anchor == "middle"],
            [t for anchor, t in found if anchor == "end"])


def test_tick_labels_keep_six_significant_digits():
    x, y = tick_labels(front_svg(make_front()))
    assert x and y
    assert all(f"{float(t):g}" == t for t in x + y)


@pytest.mark.parametrize("ra, want", [
    # ticks past the sixth digit: 6 digits would print 1e+06 four times
    ((1000000.1, 1000000.2, 1000000.3, 1000000.4),
     ["1000000.1", "1000000.2", "1000000.3", "1000000.4"]),
    # the bare-range axis of two floats one unit in the last place apart
    ((1e20, 100000000000000016384.0), ["1e+20", "1.0000000000000002e+20"]),
])
def test_tick_labels_tell_close_ticks_apart(ra, want):
    points = tuple(ParetoPoint((314.0, 0.1, 0.4), (r, 1000.0 * (i + 1)), "m", str(i))
                   for i, r in enumerate(ra))
    x, _ = tick_labels(front_svg(Front(points, MIN_MAX)))
    assert x == want


def test_svg_empty_front():
    svg = front_svg(Front((), MIN_MAX))
    ET.fromstring(svg)


def test_svg_single_point_front():
    front = Front((ParetoPoint((314.0, 0.16, 0.6), (0.7962, 35241.0), "lexicographic", "order"),), MIN_MAX)
    ET.fromstring(front_svg(front))


def test_svg_draws_every_point():
    front = Front(
        (
            ParetoPoint((314.0, 0.16, 0.6), (0.7962, 35241.0), "eps", "a"),
            ParetoPoint((314.0, 0.04, 0.2), (0.4, 1000.0), "eps", "b"),
        ),
        MIN_MAX,
    )
    svg = front_svg(front)
    assert svg.count("<circle") == 3  # two data points + one legend swatch


def test_svg_escapes_labels_and_title():
    front = Front((ParetoPoint((314.0, 0.04, 0.2), (0.5, 2781.0), "a&b<c>", "w=1"),), MIN_MAX)
    dom = minidom.parseString(front_svg(front, title='"x" < y & z'))
    texts = [t.firstChild.data for t in dom.getElementsByTagName("text") if t.firstChild]
    assert "a&b<c>" in texts and '"x" < y & z' in texts


def coordinates(svg):
    """Every number in the position attributes of ``svg``'s elements."""
    attrs = re.findall(r' (?:x|y|cx|cy|x1|y1|x2|y2|points|d)="([^"]*)"', svg)
    return [float(t) for a in attrs for t in re.split(r"[ ,]+", a) if t not in ("M", "L")]


def assert_plottable(svg):
    minidom.parseString(svg)
    values = coordinates(svg)
    assert values and all(0.0 <= v <= max(WIDTH, HEIGHT) for v in values), values


@contextmanager
def within_5_s():
    # a tick loop whose step no longer moves the tick never returns: fail instead
    def expire(signum, frame):
        raise TimeoutError("no return within 5 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("rows", [
    # one unit in the last place apart, equal MRR: the merge's eps band keeps both
    (("1e20", "5000"), ("100000000000000016384", "5000")),
    (("-1e308", "4000"), ("1e308", "5000")),  # a span past the largest float
])
def test_front_of_extreme_finite_values_exits_0_with_a_plottable_svg(tmp_path, capsys, rows):
    csv = tmp_path / "front.csv"
    lines = [f"m,{i},100,0.1,0.3,{ra},{mrr}" for i, (ra, mrr) in enumerate(rows)]
    csv.write_text("method,param,vc,fz,t,ra,mrr\n" + "\n".join(lines) + "\n")
    with within_5_s():
        assert main(["front", str(csv), "--out", str(tmp_path / "o")]) == 0
    assert "into 2 points" in capsys.readouterr().out
    assert_plottable((tmp_path / "o" / "front_all.svg").read_text())


def near_equal(base, steps):
    """``base`` and, per entry of ``steps``, the float that many units in the last
    place above the one before."""
    column = [base]
    for k in steps:
        for _ in range(k):
            base = math.nextafter(base, math.inf)
        column.append(base)
    return column


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_COLUMN = st.one_of(
    st.lists(_FINITE, min_size=1, max_size=6),
    st.lists(st.sampled_from([0.0, 5e-324, -5e-324, 1e-310, 2.2e-308, 1.0, 1e308, -1e308,
                              1.7976931348623157e308, -1.7976931348623157e308]),
             min_size=1, max_size=6),
    st.builds(near_equal, st.floats(-1e308, 1e308), st.lists(st.integers(1, 4), max_size=4)),
)


@settings(max_examples=300, deadline=None)
@given(ra=_COLUMN, mrr=_COLUMN)
def test_front_svg_of_finite_floats_is_plottable(ra, mrr):
    points = tuple(ParetoPoint((314.0, 0.1, 0.4), (r, m), "m", "t") for r, m in zip(ra, mrr))
    with within_5_s():
        svg = front_svg(Front(points, MIN_MAX))
    assert_plottable(svg)
    for labels in tick_labels(svg):
        assert len(set(labels)) == len(labels), labels
