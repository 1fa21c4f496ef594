import time

import pytest

from pimac import SweepConfig, run_sweep


@pytest.fixture(scope="session")
def figure3_sweep():
    """Full gain sweep shared by the acceptance tests: 101 points, all curves."""
    cfg = SweepConfig(h_min=0.0, h_max=1.0, steps=101, h22=0.2,
                      p1=10.0, p2=10.0, p3=10.0)
    t0 = time.perf_counter()
    rows = run_sweep(cfg)
    elapsed = time.perf_counter() - t0
    return {"cfg": cfg, "rows": rows, "elapsed": elapsed}
