"""The benchmark's stored FerPoints, recomputed through the public API.

``perfbench/references.json`` holds the exact points every benchmark run
is gated on.  These tests recompute some of them at test time, with the
workload definitions read from ``perfbench/run.py`` itself, so a change
that moves a FerPoint fails here before any benchmark runs.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

import qsagms

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(mp: pytest.MonkeyPatch, name: str):
    """``perfbench/<name>.py`` as module ``name``, in ``sys.modules`` while
    ``mp`` lasts (its dataclasses and imports look it up there)."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    mp.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    """(run, gate, references, H, graph): ``perfbench/run.py`` and its
    ``gate`` imported by path, writing no bytecode under ``perfbench/``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)
        gate = _load(mp, "gate")  # run.py imports it by name
        run = _load(mp, "run")
    H = qsagms.load_code(run.CODE_FILE, validate=True)
    return run, gate, gate.load_references(), H, qsagms.tanner_graph(H)


def _canonical(points: list[dict]) -> list[str]:
    return [json.dumps(p, sort_keys=True) for p in points]


def _round(run, wl, H, graph, seed: int) -> list[str]:
    """Each point of one round of ``wl`` at 1 worker, as canonical JSON."""
    return _canonical([
        asdict(qsagms.run_point(H, graph, cfg, eps))
        for cfg in run.sweep_configs(qsagms, wl, seed, 1)
        for eps in wl.epsilons
    ])


@pytest.mark.parametrize("workload", ["deep", "waterfall", "sweep-2w"])
def test_check_round_equals_its_reference(bench, workload):
    run, gate, references, H, graph = bench
    wl = run.check_workload(run.WORKLOADS[workload])
    got = _round(run, wl, H, graph, gate.DEFAULT_SEED)
    assert got == _canonical(references["check"][workload])


@pytest.mark.parametrize("workload", ["deep", "waterfall"])
def test_default_seed_round_equals_its_reference(bench, workload):
    run, gate, references, H, graph = bench
    wl = run.WORKLOADS[workload]
    assert not wl.sweep  # perfbench computes these points with run_point too
    got = _round(run, wl, H, graph, gate.DEFAULT_SEED)
    assert got == _canonical(references["rounds"][workload][str(gate.DEFAULT_SEED)])
