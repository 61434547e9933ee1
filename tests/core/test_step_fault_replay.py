"""A fault raised *inside* an RK stage must leave the mesh replayable.

``evolve`` documents recovery from an ``InjectedFault`` raised "from
within the step itself".  A ``TransientActionFault`` whose supervisor
retry budget is exhausted is exactly that: it surfaces from
``engine.map`` in the middle of ``BlockMesh.step``.  The step used to swap
``mesh.blocks`` to its stage copies for stage 2 and swap back only on the
success path, so a stage-2 fault left ``mesh.blocks`` aliased to the stage
buffers — the checkpoint restore wrote into the wrong arrays and every
later step diverged silently.
"""

import numpy as np
import pytest

from repro.core import BlockMesh, ExecutionEngine, evolve, sedov_blast
from repro.resilience import CheckpointManager, SupervisedEngine
from repro.runtime import WorkStealingScheduler
from repro.runtime.faults import TransientActionFault


class FailNthMap(ExecutionEngine):
    """Every task of the ``fail_map``-th ``map`` call raises, once."""

    def __init__(self, fail_map, **kwargs):
        super().__init__(**kwargs)
        self.fail_map = fail_map
        self.maps = 0

    def map(self, fn, argtuples, use_device=True):
        self.maps += 1
        if self.maps == self.fail_map:
            def fn(*args):
                raise TransientActionFault("injected stage fault")
        return super().map(fn, argtuples, use_device=use_device)


def _blockmesh(engine=None):
    single = sedov_blast(n=16)
    mesh = BlockMesh(2, domain=single.domain, options=single.options,
                     bc=single.bc, engine=engine)
    mesh.load_interior(single.interior)
    return mesh


@pytest.fixture(scope="module")
def clean():
    mesh = _blockmesh()
    evolve(mesh, t_end=1.0, max_steps=3)
    return mesh.gather_interior()


# maps are issued one per RK stage: step 1 runs maps 3 (k1) and 4 (k2)
@pytest.mark.parametrize("fail_map", [3, 4], ids=["stage1", "stage2"])
def test_stage_fault_replays_byte_identically(clean, fail_map):
    with WorkStealingScheduler(1) as sched:
        engine = SupervisedEngine(FailNthMap(fail_map, scheduler=sched),
                                  max_retries=0)
        mesh = _blockmesh(engine)
        own_blocks = mesh.blocks
        manager = CheckpointManager(interval=1)
        evolve(mesh, t_end=1.0, max_steps=3, checkpoints=manager)
    assert manager.restores == 1
    assert mesh.steps == 3
    np.testing.assert_array_equal(mesh.gather_interior(), clean)
    assert mesh.blocks is own_blocks
