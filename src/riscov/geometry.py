"""Observation window of the simulated network.

Transmitters form a homogeneous Poisson process on a disk window centred on
the typical user; the Monte Carlo engine samples that field and its
surface offsets in radial form (see mcsim), so the window is the only
geometry object the package needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Window"]


@dataclass(frozen=True)
class Window:
    """Disk observation window centred at the origin."""

    radius: float

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValueError(f"window radius must be positive, got {self.radius}")
        try:
            self.area
        except OverflowError:
            raise ValueError(f"window radius {self.radius:g} m is out of range: its area "
                             "overflows a float") from None

    @property
    def area(self) -> float:
        return math.pi * self.radius**2
