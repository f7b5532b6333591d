"""Path-loss and fading parameters of direct and surface-reflected links.

All internal math is linear; dB and dBm values are converted once at the
boundary with the helpers below.  Direct links are Rayleigh; the two hops of
a reflected link are Nakagami-m with unit spread, so squared magnitudes are
Gamma(m, 1/m).  The serving-link path gains are SystemParams.eta_g0 and
eta_h0; the per-element fading draws are mcsim._element_amplitudes.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "db_to_linear",
    "dbm_to_watts",
    "PathLossParams",
    "FadingParams",
]


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


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
        if not self.alpha > 2.0:
            raise ValueError(f"path-loss exponent must exceed 2, got {self.alpha}")
        if not self.d0 > 0.0:
            raise ValueError(f"transmitter-surface offset must be positive, got {self.d0}")


@dataclass(frozen=True)
class FadingParams:
    """Nakagami shapes of the two reflected hops (unit spread)."""

    m_h: float
    m_r: float

    def __post_init__(self):
        if self.m_h < 0.5 or self.m_r < 0.5:
            raise ValueError("Nakagami shape parameters must be at least 0.5")
