"""Coverage and rate analysis of surface-assisted large-scale networks.

Analytic expressions (gamma-fitted signal power, Laplace-transform
interference, jet-evaluated derivative sums) paired with a full-fading
Monte Carlo simulator that validates every one of them.
"""

from .analytic import (DivergenceError, QuadratureError, SystemParams,
                       coverage_fixed_noris, coverage_fixed_ris,
                       coverage_nearest, coverage_nearest_alpha4,
                       coverage_nearest_intlimited, default_threshold_grid,
                       laplace_fixed, laplace_nearest, rate_fixed,
                       rate_fixed_alpha4_intlim, rate_from_coverage,
                       rate_nearest)
from .fading import FadingParams, PathLossParams, db_to_linear, dbm_to_watts
from .geometry import Window
from .mcsim import (EmpiricalDistribution, McConfig, estimate_coverage,
                    estimate_rate, sample_interferer_power, sample_signal_power,
                    simulate_sinr)
from .powerdist import (GammaFit, SignalMoments, interferer_exp_param,
                        signal_ccdf, signal_gamma_fit, signal_moments,
                        sr_gamma_fit, sr_moments)

__version__ = "0.1.0"
