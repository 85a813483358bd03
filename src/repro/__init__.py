"""Reproduction of *Property Testing of Planarity in the CONGEST model*.

Levi, Medina, Ron; PODC 2018 (arXiv:1805.10657).

Quick tour (ARCHITECTURE.md maps the layers; ``examples/quickstart.py``
runs a fuller tour):

>>> from repro import make_planar, test_planarity
>>> G = make_planar("delaunay", 500, seed=1)
>>> result = test_planarity(G, epsilon=0.1, seed=1)
>>> result.accepted
True

The package layers:

* :mod:`repro.congest` -- CONGEST simulator, round ledger, node programs;
* :mod:`repro.planarity` -- LR planarity test + combinatorial embeddings;
* :mod:`repro.graphs` -- generators, farness certification, lower bound;
* :mod:`repro.partition` -- Stage I (Thm 1/3) and randomized (Thm 4);
* :mod:`repro.testers` -- the planarity tester (Thm 1) and Corollary 16;
* :mod:`repro.applications` -- spanners (Corollary 17);
* :mod:`repro.baselines` -- MPX partition and baseline spanners;
* :mod:`repro.runtime` -- parallel batch-execution engine with caching;
* :mod:`repro.analysis` -- experiment statistics and tables.
"""

from ._version import __version__
from .applications.spanner import SpannerResult, build_spanner, measure_stretch
from .baselines.mpx_partition import MPXResult, mpx_partition
from .congest.ledger import RoundLedger, TreeCostModel
from .congest.network import CongestNetwork, SimulationResult
from .congest.node import NodeContext, NodeProgram
from .errors import (
    BandwidthExceededError,
    CongestError,
    EmbeddingError,
    GraphInputError,
    PartitionError,
    ProtocolError,
    ReproError,
)
from .graphs.far_from_planar import FAR_FAMILIES, make_far
from .graphs.generators import PLANAR_FAMILIES, make_planar
from .graphs.lower_bound import LowerBoundInstance, lower_bound_instance
from .partition.stage1 import Stage1Result, partition_stage1
from .partition.weighted_selection import (
    RandomizedPartitionResult,
    partition_randomized,
)
from .planarity.embedding import verify_planar_embedding
from .runtime import (
    JobSpec,
    SweepResult,
    SweepSpec,
    derive_seed,
    run_jobs,
    run_sweep,
)
from .planarity.lr_planarity import PlanarityResult, check_planarity, is_planar
from .planarity.rotation import RotationSystem
from .testers.applications import (
    test_bipartiteness,
    test_cycle_freeness,
    test_hereditary_property,
)
from .testers.planarity import PlanarityTestConfig, test_planarity
from .testers.results import (
    ApplicationTestResult,
    PartVerdict,
    PlanarityTestResult,
)

__all__ = [
    "ApplicationTestResult",
    "BandwidthExceededError",
    "CongestError",
    "CongestNetwork",
    "EmbeddingError",
    "FAR_FAMILIES",
    "GraphInputError",
    "JobSpec",
    "LowerBoundInstance",
    "MPXResult",
    "NodeContext",
    "NodeProgram",
    "PLANAR_FAMILIES",
    "PartitionError",
    "PartVerdict",
    "PlanarityResult",
    "PlanarityTestConfig",
    "PlanarityTestResult",
    "ProtocolError",
    "RandomizedPartitionResult",
    "ReproError",
    "RotationSystem",
    "RoundLedger",
    "SimulationResult",
    "SpannerResult",
    "Stage1Result",
    "SweepResult",
    "SweepSpec",
    "TreeCostModel",
    "__version__",
    "build_spanner",
    "check_planarity",
    "derive_seed",
    "is_planar",
    "lower_bound_instance",
    "make_far",
    "make_planar",
    "measure_stretch",
    "mpx_partition",
    "partition_randomized",
    "partition_stage1",
    "run_jobs",
    "run_sweep",
    "test_bipartiteness",
    "test_cycle_freeness",
    "test_hereditary_property",
    "test_planarity",
    "verify_planar_embedding",
]
