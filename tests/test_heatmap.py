"""Heatmap container, CSV round trip, SVG rendering, cellwise comparison."""

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
    compare_heatmaps,
    heatmap_from_csv,
    heatmap_to_csv,
    heatmap_to_svg,
)

DATA = Path(__file__).parent / "data"
G32 = GridGeometry(3, 2, 1, 1.0, 1.0, (0.0, 0.0, 0.0))
VALS = [0.0, 60.0, 120.0, 127.5, math.inf, 20.0]


def g(nx, ny, nz=1):
    return GridGeometry(nx, ny, nz, 1.0, 1.0, (0.0, 0.0, 0.0))


# ------------------------------------------------------------------ basics

def test_heatmap_length_validated():
    with pytest.raises(ConfigError):
        Heatmap(G32, np.zeros(5), "x")


def test_masked_semantics():
    h = Heatmap(G32, np.array(VALS), "x")
    assert not h.masked().any()
    hm = Heatmap(G32, np.array(VALS), "x", mask_threshold=120.0)
    # strictly-greater cells hide; the threshold value itself stays visible
    assert hm.masked().tolist() == [False, False, False, True, True, False]
    assert np.array_equal(hm.masked(), hm.masked())  # idempotent


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
)


def test_csv_parse_errors():
    for text in BAD_CSVS:
        with pytest.raises(DataFormatError):
            heatmap_from_csv(text)


# --------------------------------------------------------------------- SVG

def test_svg_golden_plain():
    h = Heatmap(G32, np.array(VALS), "mean_rank")
    expected = (DATA / "heatmap_plain.svg").read_text()
    assert heatmap_to_svg(h, vmin=0.0, vmax=127.5) == expected


def test_svg_golden_masked():
    h = Heatmap(G32, np.array(VALS), "mean_rank", mask_threshold=120.0)
    expected = (DATA / "heatmap_masked.svg").read_text()
    assert heatmap_to_svg(h) == expected


def test_svg_byte_stable():
    h = Heatmap(G32, np.array(VALS), "mean_rank", mask_threshold=120.0)
    assert heatmap_to_svg(h) == heatmap_to_svg(h)


def test_svg_structure():
    h = Heatmap(G32, np.array(VALS), "mean_rank", mask_threshold=120.0)
    svg = heatmap_to_svg(h)
    # 4 visible cells + 2 masked cells drawn as grey+hatch pairs + background
    assert svg.count("<rect") == 1 + 4 + 2 * 2
    assert svg.count(f'fill="{MASK_FILL}"') == 2
    assert svg.count('fill="url(#hatch)"') == 2
    # extremes of the scale
    assert f'fill="{COLOR_RAMP[0]}"' in svg


def test_svg_inf_uses_ramp_extreme():
    h = Heatmap(g(2, 1), np.array([1.0, math.inf]), "x")
    svg = heatmap_to_svg(h, vmin=0.0, vmax=2.0)
    assert f'fill="{COLOR_RAMP[255]}"><title>inf</title>' in svg


def test_svg_vmin_vmax_clamp():
    h = Heatmap(g(3, 1), np.array([-5.0, 50.0, 500.0]), "x")
    svg = heatmap_to_svg(h, vmin=0.0, vmax=100.0)
    assert f'fill="{COLOR_RAMP[0]}"><title>-5</title>' in svg
    assert f'fill="{COLOR_RAMP[128]}"><title>50</title>' in svg
    assert f'fill="{COLOR_RAMP[255]}"><title>500</title>' in svg


def test_color_ramp_fixed_table():
    assert len(COLOR_RAMP) == 256
    assert COLOR_RAMP[0] == "#440154"
    assert COLOR_RAMP[255] == "#fde725"
    assert all(re.fullmatch(r"#[0-9a-f]{6}", c) for c in COLOR_RAMP)


def test_svg_metric_name_escaped():
    h = Heatmap(g(1, 1), np.array([1.0]), "a<b&c")
    svg = heatmap_to_svg(h)
    assert "<title>a&lt;b&amp;c</title>" in svg


# -------------------------------------------------------------- comparison

def test_compare_identical_all_ties():
    a = Heatmap(G32, np.array(VALS), "x")
    b = Heatmap(G32, np.array(VALS), "x")
    cmp = compare_heatmaps(a, b)
    assert cmp.fraction_a_better == 0.0
    assert cmp.a_better == cmp.b_better == 0
    assert cmp.ties + cmp.ties_infinite == 6
    assert cmp.ties_infinite == 1
    assert np.all(cmp.wins == 0)


def test_compare_strict_dominance():
    a = Heatmap(G32, np.zeros(6), "x")
    b = Heatmap(G32, np.full(6, 127.5), "x")
    cmp = compare_heatmaps(a, b)
    assert cmp.fraction_a_better == 1.0
    assert cmp.mean_difference == -127.5


def test_compare_infinity_rules():
    a = Heatmap(g(3, 1), np.array([math.inf, 1.0, math.inf]), "x")
    b = Heatmap(g(3, 1), np.array([5.0, math.inf, math.inf]), "x")
    cmp = compare_heatmaps(a, b)
    assert cmp.wins.tolist() == [1, -1, 0]  # finite beats inf; inf-inf ties
    assert cmp.ties_infinite == 1
    assert math.isnan(cmp.mean_difference)  # no both-finite cell


def test_compare_matches_cell_loop_oracle():
    rng = np.random.default_rng(5)
    av = rng.uniform(0, 200, 24)
    bv = rng.uniform(0, 200, 24)
    av[rng.choice(24, 5, replace=False)] = math.inf
    bv[rng.choice(24, 5, replace=False)] = math.inf
    geom = g(6, 4)
    cmp = compare_heatmaps(Heatmap(geom, av, "x"), Heatmap(geom, bv, "x"))
    a_better = b_better = ties = ties_inf = 0
    diffs = []
    for x, y in zip(av, bv):
        if math.isinf(x) and math.isinf(y):
            ties_inf += 1
        elif x < y:
            a_better += 1
        elif y < x:
            b_better += 1
        else:
            ties += 1
        if math.isfinite(x) and math.isfinite(y):
            diffs.append(x - y)
    assert (cmp.a_better, cmp.b_better, cmp.ties, cmp.ties_infinite) == \
        (a_better, b_better, ties, ties_inf)
    assert cmp.fraction_a_better == a_better / 24
    assert cmp.mean_difference == pytest.approx(np.mean(diffs))


def test_compare_geometry_mismatch():
    with pytest.raises(ConfigError):
        compare_heatmaps(Heatmap(g(2, 1), np.zeros(2), "x"),
                         Heatmap(g(1, 2), np.zeros(2), "x"))
