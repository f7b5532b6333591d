"""Path-loss and fading parameters of direct and surface-reflected links.

All internal math is linear; dB and dBm values are converted once at the
boundary with the helpers below.  Direct links are Rayleigh; the two hops of
a reflected link are Nakagami-m with unit spread, so squared magnitudes are
Gamma(m, 1/m).  The serving-link path gains are SystemParams.eta_g0 and
eta_h0; mcsim._hop_power draws a hop's power and mcsim._element_amplitudes
the per-element amplitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "db_to_linear",
    "dbm_to_watts",
    "linear_to_db",
    "watts_to_dbm",
    "PathLossParams",
    "FadingParams",
]


def _from_db(db: float, value: float, unit: str) -> float:
    """10^(db / 10); the caller's value in unit is named if that overflows a float, or
    if it is finite and underflows to 0."""
    try:
        linear = 10.0 ** (db / 10.0)
    except OverflowError:
        raise ValueError(f"{value:g} {unit} is out of range: its linear value "
                         "overflows a float") from None
    if linear == 0.0 and math.isfinite(db):
        raise ValueError(f"{value:g} {unit} is out of range: its linear value underflows to 0")
    return linear


def db_to_linear(db: float) -> float:
    return _from_db(db, db, "dB")


def dbm_to_watts(dbm: float) -> float:
    return _from_db(dbm - 30.0, dbm, "dBm")


def linear_to_db(linear: float) -> float:
    return 10.0 * math.log10(linear)


def watts_to_dbm(watts: float) -> float:
    return 10.0 * math.log10(watts) + 30.0


def _check_exponent(alpha: float) -> None:
    """Raise ValueError unless the path-loss exponent exceeds 2, as every formula needs."""
    if not alpha > 2.0:
        raise ValueError(f"path-loss exponent must exceed 2, got {alpha}")


@dataclass(frozen=True)
class PathLossParams:
    """Linear unit-distance gains, exponent and transmitter-surface offset."""

    c_d: float          # direct-link gain at unit distance (linear)
    c_r: float          # reflected-link gain at unit distance (linear)
    alpha: float        # path-loss exponent, > 2
    d0: float           # transmitter-to-surface distance, metres

    def __post_init__(self):
        if not self.c_d > 0.0 or not self.c_r > 0.0:
            raise ValueError("unit-distance gains must be positive")
        _check_exponent(self.alpha)
        if not self.d0 > 0.0:
            raise ValueError(f"transmitter-surface offset must be positive, got {self.d0}")


@dataclass(frozen=True)
class FadingParams:
    """Nakagami shapes of the two reflected hops (unit spread)."""

    m_h: float
    m_r: float

    def __post_init__(self):
        if not (0.5 <= self.m_h < math.inf and 0.5 <= self.m_r < math.inf):
            raise ValueError(f"Nakagami shape parameters must be finite and at least 0.5, "
                             f"got m_h = {self.m_h}, m_r = {self.m_r}")
