"""Simulated parallel machines: shared-memory node and distributed cluster."""

from repro.runtime.delays import (
    CompositeDelay,
    ConstantDelay,
    DelayModel,
    HangDelay,
    NO_DELAY,
    StochasticStall,
    StragglerDelay,
)
from repro.runtime.calibration import (
    BarrierFit,
    CalibrationError,
    ComputeFit,
    calibrated_machine,
    fit_barrier_costs,
    fit_compute_costs,
)
from repro.runtime.distributed import DistributedJacobi
from repro.runtime.engine import (
    HeapEventQueue,
    JitterStream,
    NormalStream,
    PatternJitterStream,
)
from repro.runtime.machine import (
    ARIES,
    CPU20,
    ClusterModel,
    HASWELL_CLUSTER,
    HASWELL_NODE,
    KNL,
    MachineModel,
    NetworkModel,
)
from repro.runtime.results import SimulationResult
from repro.runtime.shared import SharedMemoryJacobi

__all__ = [
    "BarrierFit",
    "CalibrationError",
    "ComputeFit",
    "calibrated_machine",
    "fit_barrier_costs",
    "fit_compute_costs",
    "CompositeDelay",
    "ConstantDelay",
    "DelayModel",
    "HangDelay",
    "NO_DELAY",
    "StochasticStall",
    "StragglerDelay",
    "DistributedJacobi",
    "HeapEventQueue",
    "JitterStream",
    "NormalStream",
    "PatternJitterStream",
    "ARIES",
    "CPU20",
    "ClusterModel",
    "HASWELL_CLUSTER",
    "HASWELL_NODE",
    "KNL",
    "MachineModel",
    "NetworkModel",
    "SimulationResult",
    "SharedMemoryJacobi",
]
