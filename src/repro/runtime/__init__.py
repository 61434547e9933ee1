"""HPX-semantics asynchronous many-task runtime (pure-Python model).

Substitutes for the HPX C++ runtime of the paper (see DESIGN.md §2):
futures + continuations, a work-stealing scheduler, AGAS, active-message
parcels, channels, a simulated CUDA co-processor, and APEX-style counters.
"""

from . import trace
from .future import (Future, Promise, FutureError, FutureTimeout,
                     make_ready_future, make_exceptional_future, when_all,
                     dataflow, async_execute)
from .scheduler import WorkStealingScheduler, TaskStats
from .agas import AgasRuntime, Component, Gid, AgasError, LocalityFailed
from .faults import InjectedFault, SimulationFault, TransientActionFault
from .parcel import Parcel, ParcelHandler, EAGER_THRESHOLD, serialized_size
from .channel import (Channel, ChannelError, ChannelReset,
                      ChannelGenerationError)
from .cuda import (CudaDevice, CudaStream, StreamPool, StreamLease,
                   AggregatedOp, DEFAULT_STREAMS_PER_GPU,
                   DEFAULT_LEASE_TIMEOUT_S)
from .aggregate import AggregationRegion, DEFAULT_AGG_SLOTS
from .counters import CounterRegistry, default_registry

__all__ = [
    "Future", "Promise", "FutureError", "FutureTimeout",
    "make_ready_future", "make_exceptional_future", "when_all",
    "dataflow", "async_execute",
    "WorkStealingScheduler", "TaskStats",
    "AgasRuntime", "Component", "Gid", "AgasError", "LocalityFailed",
    "InjectedFault", "SimulationFault", "TransientActionFault",
    "Parcel", "ParcelHandler", "EAGER_THRESHOLD", "serialized_size",
    "Channel", "ChannelError", "ChannelReset", "ChannelGenerationError",
    "CudaDevice", "CudaStream", "StreamPool", "StreamLease", "AggregatedOp",
    "DEFAULT_STREAMS_PER_GPU", "DEFAULT_LEASE_TIMEOUT_S",
    "AggregationRegion", "DEFAULT_AGG_SLOTS",
    "CounterRegistry", "default_registry", "trace",
]
