"""Benchmark-suite configuration: make the harness and the test oracles
(``tests/_stage1_reference.py``, ``tests/_reference_paths.py``) importable."""

import pathlib
import sys

HERE = pathlib.Path(__file__).parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "tests"))
