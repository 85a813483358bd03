"""Packaging metadata for the reproduction (offline-friendly).

Kept as a plain ``setup.py`` so ``pip install -e . --no-use-pep517``
works where the ``wheel`` package is unavailable (PEP 660 editable
builds require it).  Registers the ``repro-planarity`` console script.
"""

import os
import re

from setuptools import find_packages, setup


def _version() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "src", "repro", "_version.py")) as handle:
        match = re.search(r'__version__ = "([^"]+)"', handle.read())
    return match.group(1) if match else "0.0.0"


setup(
    name="repro-planarity",
    version=_version(),
    description=(
        "Reproduction of 'Property Testing of Planarity in the CONGEST "
        "model' (Levi-Medina-Ron, PODC 2018) with a parallel batch runtime"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=["networkx>=2.6", "numpy>=1.22"],
    extras_require={
        "delaunay": ["scipy"],
        "bench": ["pytest", "pytest-benchmark", "hypothesis"],
    },
    entry_points={
        "console_scripts": [
            "repro-planarity=repro.cli:main",
        ],
    },
)
