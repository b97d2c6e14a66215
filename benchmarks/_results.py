"""Benchmark gate results, one ``BENCH_<name>.json`` per gate.

Each perf gate serializes one JSON document describing its workload,
measurements, and the threshold it enforces. The one copy lives at the
repository root, so the current numbers sit in the repository listing
alongside README.md.

Kept out of ``conftest.py`` so benchmark modules can import it plainly
(pytest imports conftest files under mangled module names).
"""

from __future__ import annotations

import json
import pathlib

REPO_ROOT = pathlib.Path(__file__).parent.parent

__all__ = ["REPO_ROOT", "write_bench_result"]


def write_bench_result(name: str, document: dict) -> pathlib.Path:
    """Write ``BENCH_<name>.json`` at the repository root; return its path."""
    path = REPO_ROOT / f"BENCH_{name}.json"
    path.write_text(json.dumps(document, indent=2) + "\n")
    return path
