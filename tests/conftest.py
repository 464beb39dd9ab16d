"""Shared test set-up.

Tests that run ``python -m ellipspin`` in a subprocess need the package
importable there too, so this checkout's ``src`` leads ``PYTHONPATH``;
``pythonpath`` in ``pyproject.toml`` covers the test process itself.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
