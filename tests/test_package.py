import pimac

# The 31 public names.
PUBLIC = {
    "ConstraintError", "ContractError", "DomainError", "GenieParams",
    "InfeasibleError", "InvalidRegimeError", "NumericError", "PimacParams",
    "PowerAllocation", "SchemeResult", "SweepConfig", "SweepRow", "TimeShare",
    "alpha_prime", "alpha_star", "c_sigma_1", "c_sigma_2",
    "classify_power_point", "detect_pc_tin_regimes", "effective_noise_at_rx1",
    "emit_csv", "genie_bound_objective", "half_log",
    "montecarlo_covariance_check", "pc_tin_objective", "pc_tin_sum_rate",
    "plain_tdma_sum_rate", "render_csv", "run_sweep", "sd_tin_sum_rate",
    "tdma_tin_sum_rate",
}


def test_all_names_resolve_once_and_star_import_works():
    assert len(pimac.__all__) == len(set(pimac.__all__))
    assert [name for name in pimac.__all__ if not hasattr(pimac, name)] == []
    namespace = {}
    exec("from pimac import *", namespace)
    assert set(pimac.__all__) <= set(namespace)
    # Growing or shrinking the API is a visible edit of PUBLIC.
    assert set(pimac.__all__) == PUBLIC
