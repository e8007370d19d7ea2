"""Per-position metric maps and their CSV/SVG renderings.

A Heatmap carries one real value per grid position (math.inf marks positions
where the metric never resolved, e.g. no disclosure within budget). Lower is
better for every metric produced here (mean rank, traces to disclosure).

CSV layout: header row "y\\x" then the x indices; each following row is the y
index then that row's values, x-fastest. Values parse back exactly: integers
print bare, other reals print with full round-trip precision, infinity prints
as "inf". Rendering and CSV are 2D; slice 3D maps into z-layers first.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataFormatError
from .grid import GridGeometry

# Dark-to-light perceptual ramp, fixed by these anchor colors and linear
# interpolation to 256 entries. Index 0 = best (lowest value), 255 = worst.
_RAMP_ANCHORS = (
    (0x44, 0x01, 0x54),
    (0x47, 0x2D, 0x7B),
    (0x3B, 0x52, 0x8B),
    (0x2C, 0x72, 0x8E),
    (0x21, 0x91, 0x8C),
    (0x28, 0xAE, 0x80),
    (0x5E, 0xC9, 0x62),
    (0xAD, 0xDC, 0x30),
    (0xFD, 0xE7, 0x25),
)


def _build_ramp() -> list:
    ramp = []
    segs = len(_RAMP_ANCHORS) - 1
    for i in range(256):
        pos = i / 255 * segs
        k = min(int(pos), segs - 1)
        frac = pos - k
        a, b = _RAMP_ANCHORS[k], _RAMP_ANCHORS[k + 1]
        rgb = tuple(round(a[c] + frac * (b[c] - a[c])) for c in range(3))
        ramp.append("#{:02x}{:02x}{:02x}".format(*rgb))
    return ramp


COLOR_RAMP = _build_ramp()
MASK_FILL = "#9e9e9e"


@dataclass(eq=False)
class Heatmap:
    geometry: GridGeometry
    values: np.ndarray        # flat (position_count,), float64, +inf allowed
    metric: str

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.geometry.position_count,):
            raise ConfigError(
                f"heatmap needs {self.geometry.position_count} values, "
                f"got {self.values.shape}")

    def slice_z(self, iz: int) -> "Heatmap":
        """Extract one z-layer as a 2D heatmap."""
        g = self.geometry
        if not 0 <= iz < g.nz:
            raise ConfigError(f"z index {iz} outside grid")
        layer = g.nx * g.ny
        geom2d = replace(g, nz=1)
        return Heatmap(geom2d, self.values[iz * layer:(iz + 1) * layer],
                       self.metric)

    def grid2d(self) -> np.ndarray:
        """(ny, nx) view of a single-layer map."""
        g = self.geometry
        if g.nz != 1:
            raise ConfigError("slice a z-layer before 2D rendering")
        return self.values.reshape(g.ny, g.nx)


def _format_value(v: float) -> str:
    v = float(v)
    if math.isinf(v):
        return "inf"
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def heatmap_to_csv(h: Heatmap) -> str:
    grid = h.grid2d()
    ny, nx = grid.shape
    lines = ["y\\x," + ",".join(str(x) for x in range(nx))]
    for y in range(ny):
        lines.append(f"{y}," + ",".join(_format_value(v) for v in grid[y]))
    return "\n".join(lines)


def heatmap_from_csv(text: str) -> np.ndarray:
    """Parse the CSV layout, labels checked, back into a (ny, nx) array."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("y\\x,"):
        raise DataFormatError("not a heatmap CSV: missing y\\x header")
    nx = len(lines[0].split(",")) - 1
    if [x.strip() for x in lines[0].split(",")[1:]] != [str(x) for x in range(nx)]:
        raise DataFormatError(f"heatmap CSV x labels are not 0..{nx - 1}")
    rows = []
    for y, ln in enumerate(lines[1:]):
        parts = ln.split(",")
        if len(parts) != nx + 1:
            raise DataFormatError(f"heatmap CSV row has {len(parts) - 1} cells, expected {nx}")
        if parts[0].strip() != str(y):
            raise DataFormatError(f"heatmap CSV row {y} has y label {parts[0]!r}")
        rows.append([_parse_value(p) for p in parts[1:]])
    if not rows:
        raise DataFormatError("heatmap CSV has no data rows")
    return np.array(rows, dtype=np.float64)


def _parse_value(cell: str) -> float:
    """A finite number or inf; nan and -inf have no place in any metric."""
    try:
        v = float(cell)
    except ValueError:
        raise DataFormatError(f"heatmap CSV cell {cell!r} is not a number") from None
    if math.isnan(v) or v == -math.inf:
        raise DataFormatError(f"heatmap CSV cell {cell!r}: only finite values and inf")
    return v


def heatmap_to_svg(grid: np.ndarray, title: str, mask_threshold: float = None,
                   vmin: float = None, vmax: float = None) -> str:
    """Deterministic SVG of a (ny, nx) grid: one rect per cell, dark-to-light
    ramp, infinity at the ramp's extreme, and cells above mask_threshold
    (v > threshold) grey with diagonal hatching."""
    ny, nx = grid.shape
    masked = np.zeros(grid.shape, dtype=bool) if mask_threshold is None \
        else grid > mask_threshold
    finite = grid[np.isfinite(grid)]
    if vmin is None:
        vmin = float(finite.min()) if len(finite) else 0.0
    if vmax is None:
        vmax = float(finite.max()) if len(finite) else 1.0
    if vmax <= vmin:
        vmax = vmin + 1.0

    cell = 24
    left, top = 34, 34
    width = left + nx * cell + 8
    height = top + ny * cell + 8
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        "<defs>",
        '<pattern id="hatch" width="6" height="6" patternUnits="userSpaceOnUse" '
        'patternTransform="rotate(45)">'
        '<line x1="0" y1="0" x2="0" y2="6" stroke="#555555" stroke-width="2"/>'
        "</pattern>",
        "</defs>",
        f'<title>{_escape(title)}</title>',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    for x in range(nx):
        out.append(f'<text x="{left + x * cell + cell // 2}" y="{top - 8}" '
                   f'font-size="10" font-family="monospace" '
                   f'text-anchor="middle" fill="#333333">{x}</text>')
    for y in range(ny):
        out.append(f'<text x="{left - 8}" y="{top + y * cell + cell // 2 + 4}" '
                   f'font-size="10" font-family="monospace" '
                   f'text-anchor="end" fill="#333333">{y}</text>')
    # Halved operands keep the span finite for any finite vmin and vmax and
    # give the same t wherever the full-size span was finite. A span of zero
    # (vmin + 1.0 rounds to vmin beyond 2**53) puts every cell at t = 0.
    half_span = vmax / 2 - vmin / 2
    for y in range(ny):
        for x in range(nx):
            v = grid[y, x]
            px, py = left + x * cell, top + y * cell
            if masked[y, x]:
                out.append(f'<rect x="{px}" y="{py}" width="{cell}" height="{cell}" '
                           f'fill="{MASK_FILL}"/>')
                out.append(f'<rect x="{px}" y="{py}" width="{cell}" height="{cell}" '
                           f'fill="url(#hatch)"/>')
                continue
            if math.isinf(v):
                color = COLOR_RAMP[255]
            else:
                t = (v / 2 - vmin / 2) / half_span if half_span > 0 else 0.0
                t = min(max(t, 0.0), 1.0)
                color = COLOR_RAMP[round(t * 255)]
            out.append(f'<rect x="{px}" y="{py}" width="{cell}" height="{cell}" '
                       f'fill="{color}"><title>{_format_value(v)}</title></rect>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
