"""Every environment knob the package names is documented.

Scans ``src/`` for ``REPRO_*`` names and pins the set to the table under
"Environment knobs" in ARCHITECTURE.md, so adding (or removing) a knob
fails here until the documentation follows.
"""

from __future__ import annotations

import pathlib
import re

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
