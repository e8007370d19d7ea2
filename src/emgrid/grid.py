"""Probe-position grid geometry.

A dataset's traces are annotated with a flat position index into a regular
(nx, ny, nz) lattice. Index p maps to lattice coordinates by

    p = iz * nx * ny + iy * nx + ix

which makes x the fastest-varying axis. Physical probe coordinates are the
lattice coordinates scaled by the step sizes and offset by the origin.
"""

import math
from dataclasses import dataclass

from .errors import ConfigError


def require_finite(what: str, *values):
    """ConfigError unless every value is finite; None (not given) passes."""
    if not all(v is None or math.isfinite(v) for v in values):
        raise ConfigError(f"{what} must be finite")


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

    def to_json_dict(self) -> dict:
        return {
            "nx": self.nx,
            "ny": self.ny,
            "nz": self.nz,
            "step_mm": self.step_mm,
            "z_step_mm": self.z_step_mm,
            "origin_mm": list(self.origin_mm),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "GridGeometry":
        try:
            return cls(
                nx=int(d["nx"]),
                ny=int(d["ny"]),
                nz=int(d["nz"]),
                step_mm=float(d["step_mm"]),
                z_step_mm=float(d["z_step_mm"]),
                origin_mm=tuple(float(v) for v in d["origin_mm"]),
            )
        except KeyError as e:
            raise ConfigError(f"geometry is missing field {e}") from e
