"""Sum-rate schemes and sum-capacity upper bounds for a two-user Gaussian
MAC interfering with a point-to-point link."""

from .bounds import (
    GenieParams,
    c_sigma_1,
    c_sigma_2,
    genie_bound_objective,
    montecarlo_covariance_check,
)
from .errors import (
    ConstraintError,
    ContractError,
    DomainError,
    InfeasibleError,
    InvalidRegimeError,
    NumericError,
)
from .experiments import (
    SweepConfig,
    SweepRow,
    classify_power_point,
    detect_pc_tin_regimes,
    emit_csv,
    render_csv,
    run_sweep,
)
from .model import (
    PimacParams,
    PowerAllocation,
    SchemeResult,
    TimeShare,
    effective_noise_at_rx1,
    half_log,
)
from .schemes import (
    alpha_prime,
    alpha_star,
    pc_tin_objective,
    pc_tin_sum_rate,
    plain_tdma_sum_rate,
    sd_tin_sum_rate,
    tdma_tin_sum_rate,
)

__version__ = "0.1.0"

__all__ = [
    "ConstraintError",
    "ContractError",
    "DomainError",
    "GenieParams",
    "InfeasibleError",
    "InvalidRegimeError",
    "NumericError",
    "PimacParams",
    "PowerAllocation",
    "SchemeResult",
    "SweepConfig",
    "SweepRow",
    "TimeShare",
    "alpha_prime",
    "alpha_star",
    "c_sigma_1",
    "c_sigma_2",
    "classify_power_point",
    "detect_pc_tin_regimes",
    "effective_noise_at_rx1",
    "emit_csv",
    "genie_bound_objective",
    "half_log",
    "montecarlo_covariance_check",
    "pc_tin_objective",
    "pc_tin_sum_rate",
    "plain_tdma_sum_rate",
    "render_csv",
    "run_sweep",
    "sd_tin_sum_rate",
    "tdma_tin_sum_rate",
]
