import numpy as np
import pytest
from hypothesis import settings

from liesphere import charts as CH
from liesphere import gridio as G

ROOT2_INV = 1.0 / np.sqrt(2.0)

# Example counts of the property tests that set none of their own (the CLI
# sweep, test_cli.py::test_any_argv_exits_0_1_or_2): tier-1 runs them short, and
# CI runs them long with --hypothesis-profile sweep.
settings.register_profile("tier1", max_examples=30)
settings.register_profile("sweep", max_examples=500)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def square_torus():
    return CH.CliffordTorus(ROOT2_INV)


@pytest.fixture(scope="session")
def torus_frame_16(square_torus):
    grid = G.Grid(16, 16, square_torus.domain)
    return grid, CH.eval_chart(square_torus, grid.points().reshape(-1, 2))


@pytest.fixture(scope="session")
def torus_frame_32(square_torus):
    grid = G.Grid(32, 32, square_torus.domain)
    return grid, CH.eval_chart(square_torus, grid.points().reshape(-1, 2))


@pytest.fixture(scope="session")
def random_points():
    rng = np.random.default_rng(7)
    return rng.uniform(0.05, 2.0 * np.pi - 0.05, size=(40, 2))
