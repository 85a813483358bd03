"""Test-side switches onto the reference implementations.

No runtime knob selects a reference path any more: the package runs one
production path per layer.  The differential suites patch the oracle in
for the duration of a ``with`` block instead:

* :func:`dict_plane` -- the seed's per-node dict-inbox delivery loop
  (:func:`repro.congest._differential.run_dict_plane`) in place of the
  dense message plane;
* :func:`seed_stage2` -- Stage II relabeling each part from its
  ``graph.subgraph`` view (``test_part(subgraph=None)``) and checking
  samples with the ``O(s*k)`` pairwise scan
  (``sample_and_detect(universe=None)``).
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

from repro.congest import CongestNetwork
from repro.congest._differential import run_dict_plane
import repro.testers.planarity as planarity
import repro.testers.stage2 as stage2


def _run_dict_plane(self, programs, prof, max_rounds, round_hook=None):
    return run_dict_plane(programs, prof, max_rounds, round_hook)


@contextmanager
def dict_plane():
    """Run every ``CongestNetwork.run`` inside the block on the dict plane."""
    with mock.patch.object(CongestNetwork, "_run_dense_plane", _run_dict_plane):
        yield


def _per_part_views(graph, partition):
    return dict.fromkeys(partition.parts)


_SAMPLE_AND_DETECT = stage2.sample_and_detect


def _pairwise_scan(intervals, s, rng, universe=None, mask=None):
    return _SAMPLE_AND_DETECT(intervals, s, rng)


@contextmanager
def seed_stage2():
    """Run Stage II inside the block on its reference relabeling and scan."""
    with mock.patch.object(
        planarity, "extract_part_subgraphs", _per_part_views
    ), mock.patch.object(stage2, "sample_and_detect", _pairwise_scan):
        yield
