import time
from pathlib import Path

import pytest

import pimac
from pimac import SweepConfig, run_sweep


def pytest_terminal_summary(terminalreporter):
    """Name the package under test: src/ of the checkout or an installed copy."""
    terminalreporter.write_line(f"pimac imported from {Path(pimac.__file__).parent}")


@pytest.fixture(scope="session")
def figure3_sweep():
    """Full gain sweep shared by the acceptance tests: 101 points, all curves."""
    cfg = SweepConfig(h_min=0.0, h_max=1.0, steps=101, h22=0.2,
                      p1=10.0, p2=10.0, p3=10.0)
    t0 = time.perf_counter()
    rows = run_sweep(cfg)
    elapsed = time.perf_counter() - t0
    return {"cfg": cfg, "rows": rows, "elapsed": elapsed}
