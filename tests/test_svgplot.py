import xml.etree.ElementTree as ET
from xml.dom import minidom

from pareto_forge import Front, ParetoPoint, Sense
from pareto_forge.svgplot import front_svg

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
    svg = front_svg(make_front(), x_label="Ra (um)", y_label="MRR (mm^3/min)")
    assert "Ra (um)" in svg and "MRR (mm^3/min)" in svg


def test_svg_empty_front():
    svg = front_svg(Front((), MIN_MAX))
    ET.fromstring(svg)


def test_svg_single_point_front():
    front = Front((ParetoPoint((314.0, 0.16, 0.6), (0.7962, 35241.0), "lexicographic", "order"),), MIN_MAX)
    ET.fromstring(front_svg(front))


def test_svg_skips_infeasible_points():
    front = Front(
        (
            ParetoPoint((314.0, 0.16, 0.6), (0.7962, 35241.0), "eps", "a"),
            ParetoPoint((314.0, 0.04, 0.2), (0.4, 1000.0), "eps", "b", feasible=False),
        ),
        MIN_MAX,
    )
    svg = front_svg(front)
    assert svg.count("<circle") == 2  # one data point + one legend swatch


def test_svg_escapes_labels_and_title():
    front = Front((ParetoPoint((314.0, 0.04, 0.2), (0.5, 2781.0), "a&b<c>", "w=1"),), MIN_MAX)
    dom = minidom.parseString(front_svg(front, title='"x" < y & z'))
    texts = [t.firstChild.data for t in dom.getElementsByTagName("text") if t.firstChild]
    assert "a&b<c>" in texts and '"x" < y & z' in texts
