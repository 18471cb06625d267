"""SVG line plots: scaling branches, labels, coordinate text and structure."""

import xml.etree.ElementTree as ET

import numpy as np
import reference_writers as ref

from gclab.svgplot import _coordinates, line_plot_svg

SVG = "{http://www.w3.org/2000/svg}"


def test_matches_the_per_point_writer():
    rng = np.random.default_rng(0)
    x = np.sort(rng.standard_normal(30))
    series = [rng.standard_normal(30) for _ in range(4)]
    labels = ["a", "b", "c", "d"]
    expected = ref.line_plot_svg(x, series, title="t", labels=labels)
    assert line_plot_svg(x, series, title="t", labels=labels) == expected


def test_constant_series_is_centred_in_a_unit_band():
    x = np.arange(5.0)
    svg = line_plot_svg(x, [np.full(5, 3.0)])
    assert svg == ref.line_plot_svg(x, [np.full(5, 3.0)])
    root = ET.fromstring(svg)
    # y_lo == y_hi widens the band to [2, 4], so every point sits at mid-height
    assert {c.get("cy") for c in root.iter(f"{SVG}circle")} == {"200.00"}


def test_fewer_labels_than_series_labels_the_first_ones():
    x = np.arange(4.0)
    series = [x, -x, 2 * x]
    svg = line_plot_svg(x, series, labels=["first"])
    assert svg == ref.line_plot_svg(x, series, labels=["first"])
    texts = [t.text for t in ET.fromstring(svg).iter(f"{SVG}text")]
    assert texts == [None, "first"]  # the empty title, then one label


def test_negative_values_match_the_per_point_writer():
    x = np.array([-3.0, -2.5, -1e-9, -0.0])
    series = [np.array([-1.0, -0.004, -2.0, -1e-300]), np.array([-5.0, -5.0, -4.0, -4.5])]
    assert line_plot_svg(x, series) == ref.line_plot_svg(x, series)


def test_coordinate_text_keeps_the_sign_of_small_negatives():
    values = np.array([-0.001, -0.0, 0.004, -12.345, 48.0])
    assert _coordinates(values) == ["-0.00", "-0.00", "0.00", "-12.35", "48.00"]
    assert _coordinates(values) == [f"{v:.2f}" for v in values]  # numpy scalars, one by one


def test_one_polyline_and_n_circles_per_series():
    n, count = 7, 3
    x = np.linspace(0.0, 2.0, n)
    series = [np.sin(x + k) for k in range(count)]
    root = ET.fromstring(line_plot_svg(x, series, title="waves"))
    polylines = list(root.iter(f"{SVG}polyline"))
    circles = list(root.iter(f"{SVG}circle"))
    assert len(polylines) == count and len(circles) == count * n
    for k, line in enumerate(polylines):
        points = [p.split(",") for p in line.get("points").split(" ")]
        assert points == [[c.get("cx"), c.get("cy")] for c in circles[k * n : (k + 1) * n]]
        assert {c.get("fill") for c in circles[k * n : (k + 1) * n]} == {line.get("stroke")}
