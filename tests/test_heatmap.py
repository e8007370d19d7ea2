"""Heatmap container, CSV round trip and SVG rendering."""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from emgrid.errors import ConfigError, DataFormatError
from emgrid.grid import GridGeometry
from emgrid.heatmap import (
    COLOR_RAMP,
    MASK_FILL,
    Heatmap,
    heatmap_from_csv,
    heatmap_to_csv,
    heatmap_to_svg,
)

DATA = Path(__file__).parent / "data"
G32 = GridGeometry(3, 2, 1, 1.0, 1.0, (0.0, 0.0, 0.0))
VALS = [0.0, 60.0, 120.0, 127.5, math.inf, 20.0]
GRID32 = np.array(VALS).reshape(2, 3)


def g(nx, ny, nz=1):
    return GridGeometry(nx, ny, nz, 1.0, 1.0, (0.0, 0.0, 0.0))


# ------------------------------------------------------------------ basics

def test_heatmap_length_validated():
    with pytest.raises(ConfigError):
        Heatmap(G32, np.zeros(5), "x")


def hatched_cells(svg: str) -> list:
    """Per cell, in row-major order, whether the SVG hatches it."""
    cells = re.findall(r'<rect x="\d+" y="\d+" width="24" height="24" '
                       r'fill="([^"]+)"', svg)
    hatched, i = [], 0
    while i < len(cells):
        hatched.append(cells[i] == MASK_FILL)
        i += 2 if hatched[-1] else 1  # a masked cell is a grey rect + hatch
    return hatched


def test_masked_semantics():
    assert hatched_cells(heatmap_to_svg(GRID32, "x")) == [False] * 6
    # strictly-greater cells hide; the threshold value itself stays visible
    assert hatched_cells(heatmap_to_svg(GRID32, "x", 120.0)) == \
        [False, False, False, True, True, False]


def test_slice_z():
    geom = g(2, 2, 3)
    h = Heatmap(geom, np.arange(12, dtype=np.float64), "x")
    layer = h.slice_z(2)
    assert layer.geometry.nz == 1
    assert layer.values.tolist() == [8.0, 9.0, 10.0, 11.0]
    assert np.array_equal(layer.grid2d(), [[8.0, 9.0], [10.0, 11.0]])
    with pytest.raises(ConfigError):
        h.slice_z(3)
    with pytest.raises(ConfigError):
        h.grid2d()  # 3D needs slicing first


# --------------------------------------------------------------------- CSV

def test_csv_smallest_case():
    h = Heatmap(g(1, 1), np.array([5.0]), "x")
    assert heatmap_to_csv(h) == "y\\x,0\n0,5"


def test_csv_inf_token_and_layout():
    h = Heatmap(G32, np.array(VALS), "mean_rank")
    assert heatmap_to_csv(h) == "y\\x,0,1,2\n0,0,60,120\n1,127.5,inf,20"


def test_csv_round_trip_exact():
    vals = np.array([0.1, 1 / 3, 127.5, 1e-17, -2.5e17, math.inf])
    h = Heatmap(G32, vals, "x")
    assert np.array_equal(heatmap_from_csv(heatmap_to_csv(h)).ravel(), vals)


@given(st.lists(st.one_of(
    st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
    st.just(math.inf)), min_size=6, max_size=6))
def test_csv_round_trip_property(vals):
    h = Heatmap(G32, np.array(vals, dtype=np.float64), "x")
    back = heatmap_from_csv(heatmap_to_csv(h))
    assert np.array_equal(back.ravel(), h.values)


BAD_CSVS = (
    "a,b\n1,2",
    "y\\x,0,1\n0,5",  # ragged row
    "y\\x,0,1",  # no data rows
    "y\\x,0,1\n0,5,abc",  # non-numeric cell
    "y\\x,0,1\n0,5,nan",
    "y\\x,0,1\n0,-inf,5",
    "y\\x,0,1\n1,5,6\n0,7,8",  # rows out of order
    "y\\x,a,b\nq,5,6",  # labels that are not indices
    "y\\x,1,0\n0,5,6",
)


def test_csv_parse_errors():
    for text in BAD_CSVS:
        with pytest.raises(DataFormatError):
            heatmap_from_csv(text)


# --------------------------------------------------------------------- SVG

def test_svg_golden_plain():
    expected = (DATA / "heatmap_plain.svg").read_text()
    assert heatmap_to_svg(GRID32, "mean_rank", vmin=0.0, vmax=127.5) == expected


def test_svg_golden_masked():
    expected = (DATA / "heatmap_masked.svg").read_text()
    assert heatmap_to_svg(GRID32, "mean_rank", 120.0) == expected


def test_svg_byte_stable():
    assert heatmap_to_svg(GRID32, "mean_rank", 120.0) == \
        heatmap_to_svg(GRID32, "mean_rank", 120.0)


def test_svg_structure():
    svg = heatmap_to_svg(GRID32, "mean_rank", 120.0)
    # 4 visible cells + 2 masked cells drawn as grey+hatch pairs + background
    assert svg.count("<rect") == 1 + 4 + 2 * 2
    assert svg.count(f'fill="{MASK_FILL}"') == 2
    assert svg.count('fill="url(#hatch)"') == 2
    # extremes of the scale
    assert f'fill="{COLOR_RAMP[0]}"' in svg


def test_svg_inf_uses_ramp_extreme():
    svg = heatmap_to_svg(np.array([[1.0, math.inf]]), "x", vmin=0.0, vmax=2.0)
    assert f'fill="{COLOR_RAMP[255]}"><title>inf</title>' in svg


def test_svg_vmin_vmax_clamp():
    svg = heatmap_to_svg(np.array([[-5.0, 50.0, 500.0]]), "x",
                         vmin=0.0, vmax=100.0)
    assert f'fill="{COLOR_RAMP[0]}"><title>-5</title>' in svg
    assert f'fill="{COLOR_RAMP[128]}"><title>50</title>' in svg
    assert f'fill="{COLOR_RAMP[255]}"><title>500</title>' in svg


def test_color_ramp_fixed_table():
    assert len(COLOR_RAMP) == 256
    assert COLOR_RAMP[0] == "#440154"
    assert COLOR_RAMP[255] == "#fde725"
    assert all(re.fullmatch(r"#[0-9a-f]{6}", c) for c in COLOR_RAMP)


def test_svg_metric_name_escaped():
    svg = heatmap_to_svg(np.array([[1.0]]), "a<b&c")
    assert "<title>a&lt;b&amp;c</title>" in svg
