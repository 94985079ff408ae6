"""Shared benchmark configuration.

Every benchmark regenerates one of the paper's tables or figures and
prints the corresponding rows/series next to the paper's reference
numbers.  Because the substrate is a simulator (not the authors'
hardware testbed), the *shapes* — who wins, by what factor, where the
crossovers are — are the reproduction target, not absolute values.

Environment knobs:

* ``REPRO_BENCH_SCALE``: float multiplier on workload sizes (default 1.0
  uses CI-friendly sizes; the full paper-scale run is noted per bench).
* ``REPRO_BENCH_SEED``: base RNG seed (default 2015).
* ``REPRO_BENCH_OUT``: directory for machine-readable ``BENCH_*.json``
  artifacts (default: the git-ignored ``.bench_out/``, so a test run
  leaves ``git status`` clean; set it to ``.`` to refresh the tracked
  artifacts at the repo root, as the CI ``bench`` job does).

Benchmarks that track a performance trajectory write a ``BENCH_*.json``
artifact via :func:`write_bench_artifact`; CI uploads every
``BENCH_*.json`` produced by a run, so regressions are visible as data,
not just as prose in a log.
"""

import json
import os
import pathlib

import pytest


def bench_scale() -> float:
    """Workload scale factor from the environment."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def bench_seed() -> int:
    """Base seed from the environment."""
    return int(os.environ.get("REPRO_BENCH_SEED", "2015"))


@pytest.fixture(scope="session")
def scale() -> float:
    return bench_scale()


@pytest.fixture(scope="session")
def seed() -> int:
    return bench_seed()


def print_header(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def write_bench_artifact(name: str, payload: dict) -> pathlib.Path:
    """Write a machine-readable benchmark artifact.

    The file lands at ``$REPRO_BENCH_OUT/BENCH_<name>.json`` (default:
    ``.bench_out/``) with the scale and seed of the run stamped
    in, so trajectories across commits compare like with like.
    """
    out_dir = pathlib.Path(os.environ.get("REPRO_BENCH_OUT", ".bench_out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = dict(payload)
    payload.setdefault("scale", bench_scale())
    payload.setdefault("seed", bench_seed())
    path = out_dir / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
