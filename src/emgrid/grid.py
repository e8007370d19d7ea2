"""Probe-position grid geometry.

A dataset's traces are annotated with a flat position index into a regular
(nx, ny, nz) lattice. Index p maps to lattice coordinates by

    p = iz * nx * ny + iy * nx + ix

which makes x the fastest-varying axis. Physical probe coordinates are the
lattice coordinates scaled by the step sizes and offset by the origin.

Every JSON object emgrid reads (a simulation config and its blocks, the
.emgd and .emmod headers) is typed by json_object under one rule: an int
field is a JSON integer (true and false are not), a float field any finite
JSON number, integers included, a bool or str field exactly that. Any other
value, an unknown field or a missing required one is a fault; a field left
out takes its dataclass default.
"""

import math
import sys
from dataclasses import dataclass

from .errors import ConfigError

_KINDS = {int: "an integer", float: "a finite number", bool: "true or false",
          str: "a string"}


def require_finite(what: str, *values):
    """ConfigError unless every value is finite; None (not given) passes."""
    if not all(v is None or math.isfinite(v) for v in values):
        raise ConfigError(f"{what} must be finite")


def _typed(v, kind, what: str):
    if isinstance(kind, tuple):
        kind, n = kind
        if type(v) is not list or n not in (None, len(v)):
            raise ConfigError(f"{what} must be a list" + (f" of {n} values" if n else ""))
        return tuple(_typed(x, kind, f"an entry of {what}") for x in v)
    if kind not in _KINDS:
        return kind(v)
    if kind is float and type(v) is int and abs(v) <= sys.float_info.max:
        v = float(v)
    if type(v) is not kind or kind is float and not math.isfinite(v):
        raise ConfigError(f"{what} must be {_KINDS[kind]}")
    return v


def json_object(d, what: str, required=(), **kinds) -> dict:
    """The fields of JSON object d, typed by the module's rule. A kind is int,
    float (returned as a float), bool, str, a function that reads a nested
    value, or (kind, n): a list of n values, or of any length when n is None,
    returned as a tuple. Faults raise ConfigError naming `what`; fields left
    out and not in required are left out of the result."""
    if type(d) is not dict:
        raise ConfigError(f"{what} is not a JSON object")
    unknown = sorted(d.keys() - kinds.keys())
    if unknown:
        raise ConfigError(f"{what} has unknown field {unknown[0]!r}")
    missing = [name for name in required if name not in d]
    if missing:
        raise ConfigError(f"{what} is missing field {missing[0]!r}")
    return {name: _typed(v, kinds[name], f"{what} field {name!r}")
            for name, v in d.items()}


@dataclass(frozen=True)
class GridGeometry:
    nx: int
    ny: int
    nz: int
    step_mm: float
    z_step_mm: float
    origin_mm: tuple[float, float, float]

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1 or self.nz < 1:
            raise ConfigError("grid dimensions must be positive")
        if self.step_mm <= 0:
            raise ConfigError("step_mm must be > 0")
        if self.z_step_mm < 0:
            raise ConfigError("z_step_mm must be >= 0")
        if len(self.origin_mm) != 3:
            raise ConfigError("origin_mm must be an (x, y, z) triple")
        require_finite("step sizes and origin", self.step_mm, self.z_step_mm,
                       *self.origin_mm)

    @property
    def position_count(self) -> int:
        return self.nx * self.ny * self.nz

    def index_to_coords(self, p: int) -> tuple[int, int, int]:
        if not 0 <= p < self.position_count:
            raise ConfigError(f"position index {p} outside grid of {self.position_count}")
        iz, rem = divmod(p, self.nx * self.ny)
        iy, ix = divmod(rem, self.nx)
        return ix, iy, iz

    def position_mm(self, p: int, flip_y: bool = False) -> tuple[float, float, float]:
        """Physical probe coordinates of position p.

        With flip_y the y axis of the lattice counts top to bottom, i.e. row
        iy sits at the physical location of row (ny - 1 - iy). Capture rigs
        disagree on this convention, so it is explicit.
        """
        ix, iy, iz = self.index_to_coords(p)
        if flip_y:
            iy = self.ny - 1 - iy
        ox, oy, oz = self.origin_mm
        return (
            ox + ix * self.step_mm,
            oy + iy * self.step_mm,
            oz + iz * self.z_step_mm,
        )

    @classmethod
    def from_json_dict(cls, d) -> "GridGeometry":
        kinds = dict(nx=int, ny=int, nz=int, step_mm=float, z_step_mm=float,
                     origin_mm=(float, 3))
        return cls(**json_object(d, "geometry", required=kinds, **kinds))
