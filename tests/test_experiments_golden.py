"""Golden pins: the paper outputs regenerate byte-identically.

The Figure 7 artefacts committed under ``benchmarks/results/`` are
regenerated from the configurations of ``benchmarks/test_bench_figure7.py``
and compared byte for byte; the Figure 8 rendering is pinned by digest.
Any change to assignment, summarisation or clustering that moves a single
character of these outputs fails here, not silently in a benchmark run.
"""

from __future__ import annotations

import hashlib
import importlib.util
import pathlib
from dataclasses import replace

import pytest

from repro.experiments import (
    render_figure7,
    render_figure8,
    run_figure7,
    run_figure8,
)

from test_experiments_figure8 import QUICK

BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"

#: sha256 of ``render_figure8(run_figure8(QUICK, checkpoints=(0, 2, 4)))``.
FIGURE8_DIGEST = (
    "eb82299933f47fa9554bda7d0ced757117cf2d0108e199964d1f5082550d11df"
)


def _figure7_config():
    spec = importlib.util.spec_from_file_location(
        "_bench_figure7", BENCHMARKS / "test_bench_figure7.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.FIG7_CONFIG


@pytest.mark.parametrize(
    ("artefact", "overrides"),
    [
        ("figure7.txt", {}),
        ("figure7_80bubbles.txt", {"num_bubbles": 80, "seed": 1}),
    ],
)
def test_figure7_regenerates_byte_identically(artefact, overrides):
    config = replace(_figure7_config(), **overrides)
    text = render_figure7(run_figure7(config)) + "\n"
    assert text == (BENCHMARKS / "results" / artefact).read_text()


def test_figure8_digest_is_pinned():
    text = render_figure8(run_figure8(QUICK, checkpoints=(0, 2, 4)))
    assert hashlib.sha256(text.encode()).hexdigest() == FIGURE8_DIGEST
