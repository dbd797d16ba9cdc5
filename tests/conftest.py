"""Shared fixtures.

The linear-growth scenario (K = x + y class kernel, uniform fragments,
E = 0.5, exponential initial data on a 300-cell grid) is the workhorse of
several acceptance checks, so its trajectory is computed once per session.
"""

import numpy as np
import pytest
from hypothesis import settings

import breakcoag as bc

# Examples per property test that does not set its own: "default" locally,
# "ci" under ``pytest --hypothesis-profile=ci``
settings.register_profile("default", max_examples=150, deadline=None)
settings.register_profile("ci", max_examples=500, deadline=None)
settings.load_profile("default")


@pytest.fixture(scope="session")
def linear_scenario():
    grid = bc.make_grid(1e-4, 1e3, 300)
    kernel = bc.KernelSpec.sum_product(0.0, 1.0)
    daughter = bc.DaughterSpec.power_total(0.0)
    prob = bc.ProbSpec.constant(0.5)
    tables = bc.build_tables(grid, kernel, grid.x_max, daughter, prob)
    ic = bc.InitialCondition.exponential(1.0)
    control = bc.StepControl(t_end=5.0,
                             output_times=tuple(np.linspace(0.0, 5.0, 201)))
    traj = bc.integrate(tables, bc.sample_initial(ic, grid), control)
    return {
        "grid": grid, "kernel": kernel, "daughter": daughter, "prob": prob,
        "tables": tables, "ic": ic, "control": control, "traj": traj,
    }


@pytest.fixture(scope="session")
def small_grid():
    return bc.make_grid(1e-3, 1e2, 100)
