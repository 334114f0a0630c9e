"""Error/erasure exponent bounds for margin decoding on the BSC and the
AWGN channel, with finite-blocklength union bounds, an exhaustive decoding
oracle and seeded Monte Carlo simulation."""

__version__ = "0.1.0"

from .numerics import (
    BoundValue,
    BracketError,
    ConvergenceError,
    binary_entropy,
    entropy_inverse,
    log_sum,
    maximize_unimodal,
    solve_bracketed,
)
from .binary import (
    BinaryBoundValue,
    BinaryLandmarks,
    BscChannel,
    WeightProfile,
    bounded_distance_exponent,
    bz_bounds,
    delta_gv,
    entropy_family,
    gallager_exponent,
    landmarks,
    nontrivial_rate_threshold,
    specific_code_bound,
    tradeoff_bounds,
    typical_error_geometry,
)
from .spherical import (
    AwgnChannel,
    DistanceProfile,
    SphericalBoundValue,
    SphericalLandmarks,
    bounded_distance_exponent_s,
    big_g,
    decoding_radius,
    elias_theta,
    esp,
    f_exponent,
    profile_exponent,
    rankin_rate,
    rate_of_angle,
    shannon_angles,
    shannon_exponent,
    spherical_landmarks,
    theta_s,
    tradeoff_exponent,
    undetected_error_exponent,
)
from .finite import (
    MarginParams,
    WeightDistribution,
    awgn_union_bound,
    binary_union_bound,
    exact_margin_probability,
    triangle_count,
)
from .simulate import (
    LinearCode,
    RegressionResult,
    SphericalCodebook,
    TrialTally,
    estimate_exponent,
    gen_linear_code,
    margin_decode,
    margin_decode_awgn,
    simulate_awgn,
    simulate_bsc,
    simulate_cone_exit,
    weight_distribution,
    wilson_interval,
)

__all__ = [name for name in dir() if not name.startswith("_")]
