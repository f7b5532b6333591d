"""Observation window of the simulated network.

Transmitters form a homogeneous Poisson process on a disk window centred on
the typical user; the Monte Carlo engine samples that field and its
surface offsets in radial form (see mcsim), so the window is the only
geometry object the package needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fading import _in_range

__all__ = ["Window"]


@dataclass(frozen=True)
class Window:
    """Disk observation window centred at the origin."""

    radius: float

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValueError(f"window radius must be positive, got {self.radius}")
        _in_range(f"window radius {self.radius:g} m", "area", lambda: self.area)

    @property
    def area(self) -> float:
        return math.pi * self.radius**2
