"""One SCF solve and one reference run shared by every merger-under-faults
module: they depend only on the scenario and the step count, never on the
fault plan."""

import pytest

from repro.core.scenario import v1309_binary
from repro.resilience.merger import FaultPlan, run_reference


@pytest.fixture(scope="session")
def merger_scenario():
    return v1309_binary(M=16, scf_iters=12)


@pytest.fixture(scope="session")
def merger_reference(merger_scenario):
    return run_reference(merger_scenario, FaultPlan().steps)
