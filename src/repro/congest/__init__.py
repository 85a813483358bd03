"""CONGEST model substrate: simulator, cost ledger, and node programs."""

from .batch import (
    BatchAccounting,
    BatchKernel,
    BatchTopology,
    batch_kernels,
    pad_groups,
    register_batch_kernel,
    run_batched,
)
from .instrumentation import MessageAccounting
from .ledger import ChargeRecord, RoundLedger, TreeCostModel
from .message import bit_size, default_bandwidth_bits
from .network import CongestNetwork, SimulationResult
from .node import BROADCAST, NodeContext, NodeProgram
from .plane import DenseMessagePlane, SlotInbox
from .plane_batched import BatchedMessagePlane
from .topology import (
    BatchArrays,
    CompiledTopology,
    compile_topology,
    reset_topology_stats,
    topology_stats,
)

__all__ = [
    "BROADCAST",
    "BatchAccounting",
    "BatchArrays",
    "BatchKernel",
    "BatchTopology",
    "BatchedMessagePlane",
    "ChargeRecord",
    "CompiledTopology",
    "CongestNetwork",
    "DenseMessagePlane",
    "MessageAccounting",
    "NodeContext",
    "NodeProgram",
    "RoundLedger",
    "SimulationResult",
    "SlotInbox",
    "TreeCostModel",
    "batch_kernels",
    "bit_size",
    "compile_topology",
    "default_bandwidth_bits",
    "pad_groups",
    "register_batch_kernel",
    "reset_topology_stats",
    "run_batched",
    "topology_stats",
]
