"""Every environment knob the package names is documented.

Scans ``src/`` for ``REPRO_*`` names and pins the set to the table under
"Environment knobs" in ARCHITECTURE.md, so adding (or removing) a knob
fails here until the documentation follows.  Retired knobs, exports and
modules must stay gone.
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
)
"""Names that left ``src/``; the first four live on as test oracles."""

RETIRED_MODULES = {"repro.partition.coloring", "repro.graphs.structures"}


@pytest.mark.parametrize("module", ["repro", "repro.partition", "repro.graphs"])
def test_retired_exports_are_gone(module):
    package = importlib.import_module(module)
    assert [name for name in RETIRED_EXPORTS if hasattr(package, name)] == []


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
