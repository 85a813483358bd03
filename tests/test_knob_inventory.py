"""Every environment knob the package names is documented.

Scans ``src/`` for ``REPRO_*`` names and pins the set to the table under
"Environment knobs" in ARCHITECTURE.md, so adding (or removing) a knob
fails here until the documentation follows.  Retired knobs, exports,
class members and modules must stay gone, and every top-level
definition under ``src/`` must be named somewhere other than ``tests/``.
"""

from __future__ import annotations

import ast
import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
KNOB = re.compile(r"REPRO_[A-Z_]+")


def source_knobs():
    names = set()
    for path in (ROOT / "src").rglob("*.py"):
        names.update(KNOB.findall(path.read_text(encoding="utf-8")))
    return names


def documented_knobs():
    text = (ROOT / "ARCHITECTURE.md").read_text(encoding="utf-8")
    section = text.split("\n## Environment knobs\n", 1)[1].split("\n## ", 1)[0]
    return {
        match
        for line in section.splitlines()
        if line.startswith("| `REPRO_")
        for match in KNOB.findall(line.split("|")[1])
    }


def test_every_source_knob_is_documented():
    assert source_knobs() == documented_knobs()


def test_retired_knobs_are_gone():
    retired = {
        "REPRO_SIM_XP",
        "REPRO_SIM_PLANE",
        "REPRO_CACHE_COORD_KEYS",
        "REPRO_SIM_BATCH_WASTE",
        "REPRO_PARTITION_ENGINE",
        "REPRO_SIM_PROFILE",
    }
    assert not retired & source_knobs()


RETIRED_EXPORTS = (
    "Part",
    "Partition",
    "cole_vishkin_emulated",
    "randomized_coloring_emulated",
    "DisjointSets",
    "FenwickTree",
    "arboricity_bounds",
    "tree_height",
    "ensure_int_labels",
    "degeneracy",
    "greedy_forest_partition",
    "planarity_farness_bounds",
    "greedy_maximal_planar_subgraph",
    "flood_eccentricity",
    "CycleCheckProgram",
    "BipartiteCheckProgram",
    "PartCheckResult",
    "run_cycle_check_simulated",
    "run_bipartite_check_simulated",
    "degeneracy_checker",
    "is_planar_embedding",
    "predicted_detection_probability",
    "fit_rounds_vs_log2_n",
    "planarity_ground_truth",
    "cycle_freeness_ground_truth",
    "bipartiteness_ground_truth",
    "PartChecker",
    "BUILTIN_CHECKERS",
    "HereditaryTestResult",
    "cycle_freeness_checker",
    "bipartiteness_checker",
    "planarity_checker",
    "outerplanarity_checker",
    "_bfs_rounds",
    "color_roots",
    "_run_cycle_freeness",
    "_run_bipartiteness",
)
"""Names that left ``src/``; the first four live on as test oracles."""

RETIRED_MODULES = {
    "repro.partition.coloring",
    "repro.graphs.structures",
    "repro.congest.programs.part_checks",
    "repro.baselines.centralized",
    "repro.testers.hereditary",
}

RETIRED_MEMBERS = {
    "repro.partition.dense.DensePartitionState": ("node_sets",),
    "repro.partition.dense.MarkingResult": ("marked_edges",),
    "repro.runtime.sweeps.ShardedSweep": ("run_shard", "merge"),
}
"""Methods and fields that left ``src/`` classes (test helpers replace
``node_sets`` and ``marked_edges``)."""


@pytest.mark.parametrize(
    "module",
    [
        "repro",
        "repro.partition",
        "repro.graphs",
        "repro.congest.programs",
        "repro.testers",
        "repro.planarity",
        "repro.analysis",
        "repro.baselines",
        "repro.partition.dense",
        "repro.runtime.jobs",
    ],
)
def test_retired_exports_are_gone(module):
    package = importlib.import_module(module)
    assert [name for name in RETIRED_EXPORTS if hasattr(package, name)] == []


@pytest.mark.parametrize("owner", sorted(RETIRED_MEMBERS))
def test_retired_members_are_gone(owner):
    module, name = owner.rsplit(".", 1)
    cls = getattr(importlib.import_module(module), name)
    fields = getattr(cls, "__dataclass_fields__", {})
    assert [
        member
        for member in RETIRED_MEMBERS[owner]
        if hasattr(cls, member) or member in fields
    ] == []


def imported_modules(path):
    """Absolute names of the modules *path* (a file under ``src/``) imports."""
    package = list(path.relative_to(ROOT / "src").parent.parts)
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            prefix = ".".join(base + ([node.module] if node.module else []))
            yield prefix
            yield from (f"{prefix}.{alias.name}" for alias in node.names)


def test_retired_modules_are_not_imported():
    offenders = {
        (str(path.relative_to(ROOT)), name)
        for path in (ROOT / "src").rglob("*.py")
        for name in imported_modules(path)
        if name in RETIRED_MODULES
    }
    assert offenders == set()


# -- reachability ------------------------------------------------------------

REACH_DIRS = ("src", "benchmarks", "examples", "perfbench", ".github")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def top_level_definitions():
    """``(module path, name)`` of every top-level function and class of a
    non-``__init__`` module under ``src/``."""
    for path in sorted((ROOT / "src").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, DEFINITIONS):
                yield str(path.relative_to(ROOT)), node.name


def _names_in(tree):
    """Identifiers, attribute names, import names and aliases, and the
    words of string constants under *tree*."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
            if node.asname:
                yield node.asname
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from WORD.findall(node.value)


def named_elsewhere():
    """``{name: set of top-level definitions it is named inside}``, over the
    reach dirs: a name used at module level maps to ``None``.  Package
    ``__init__`` modules under ``src/`` only re-export and do not count;
    non-Python files under ``.github/`` count word by word."""
    seen = {}
    for top in REACH_DIRS:
        for path in (ROOT / top).rglob("*"):
            if not path.is_file() or "__pycache__" in path.parts:
                continue
            if path.suffix != ".py":
                if top == ".github":
                    for word in WORD.findall(path.read_text(encoding="utf-8")):
                        seen.setdefault(word, set()).add(None)
                continue
            if top == "src" and path.name == "__init__.py":
                continue
            for node in ast.parse(path.read_text(encoding="utf-8")).body:
                owner = getattr(node, "name", None)
                for name in _names_in(node):
                    seen.setdefault(name, set()).add(owner)
    return seen


def test_every_definition_is_reached():
    """A top-level ``src/`` definition that only tests name is dead surface:
    delete it (a test oracle lives under ``tests/``) rather than keep it."""
    roots = set(importlib.import_module("repro").__all__)
    seen = named_elsewhere()
    unreached = [
        f"{module}::{name}"
        for module, name in top_level_definitions()
        if name not in roots and not seen.get(name, set()) - {name}
    ]
    assert unreached == [], "only tests reach:\n" + "\n".join(unreached)
