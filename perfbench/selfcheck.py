#!/usr/bin/env python3
"""Self-check of the benchmark, at the smallest size it runs (about a minute).

    python3 perfbench/selfcheck.py

Checks that BENCHMARK.json keeps to its schema, that a run prints exactly
the declared metrics with their units in both modes, that a corrupted
reference value trips the correctness gate, and that a directory holding
only the benchmark (no package sources) makes the run fail without a
result.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import tempfile
from pathlib import Path

import gate
import run

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selfcheck FAILED: {message}")
    print(f"ok: {message}")


def load_benchmark() -> dict:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check(set(bench) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check(1 <= len(bench["paths"]) <= 16 and all(
        PATH.fullmatch(p) and ".." not in p.split("/") and not p.startswith("/")
        for p in bench["paths"]), "paths")
    check(len(bench["command"]) <= 32 and all(
        len(c) <= 200 and not c.startswith("/") for c in bench["command"]), "command")
    check(isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60,
          "run_seconds")
    check(2 <= len(bench["workloads"]) <= 8 and all(
        set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        for w in bench["workloads"]), "workloads")
    check({w["name"] for w in bench["workloads"]} == set(run.WORKLOADS),
          "declared workloads are the ones run.py runs")
    e2e, layers = bench["end_to_end"], bench["per_layer"]
    check(1 <= len(e2e) <= 16 and all(
        set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
        for m in e2e), "end_to_end entries")
    check(1 <= len(layers) <= 128 and all(
        set(m) == {"name", "unit", "better"} for m in layers), "per_layer entries")
    names = [m["name"] for m in e2e + layers]
    check(len(names) == len(set(names)) and all(NAME.fullmatch(n) for n in names)
          and all(UNIT.fullmatch(m["unit"]) for m in e2e + layers)
          and all(m["better"] in ("lower", "higher") for m in e2e + layers),
          "metric names and units")
    setup = [m for m in e2e if m["name"] == "setup_s"]
    check(bool(setup) and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in e2e), "setup_s entry")
    return bench


def run_benchmark(bench: dict, cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        bench["command"] + ["--workload", "deep", "--seed", str(gate.DEFAULT_SEED),
                            "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False,
    )


def check_output(bench: dict, trace: int) -> None:
    proc = run_benchmark(bench, run.ROOT, trace)
    check(proc.returncode == 0, f"trace {trace} run exits 0 ({proc.stderr[-300:]})")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"trace {trace} result keys")
    check(result["correct"] is True and result["failed"] == 0
          and isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"trace {trace} run passes the gate")
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = result["metrics"]
    check(set(metrics) == {m["name"] for m in declared},
          f"trace {trace} prints exactly the declared metrics")
    check(all(metrics[m["name"]]["unit"] == m["unit"]
              and isinstance(metrics[m["name"]]["value"], (int, float))
              for m in declared), f"trace {trace} values are numbers in declared units")
    if not trace:
        check(all(metrics[m["name"]]["value"] > 0 for m in declared),
              "end-to-end metrics are positive")


def corrupted(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value + max(abs(value), 1e-300) * 1e-12
    return value[::-1]


def check_gate() -> None:
    qsagms = run.import_qsagms()
    refs = gate.load_references()
    for name, wl in run.WORKLOADS.items():
        rounds = refs["rounds"][name]
        check(set(rounds) == {str(seed) for seed in gate.REFERENCE_SEEDS},
              f"{name}: reference rounds for every reference seed")
        for seed, points in rounds.items():
            expect = run.expectations(qsagms, wl, int(seed))
            check(all(not gate.check_point(p, e, p, rounds[str(gate.DEFAULT_SEED)][k])
                      for k, (p, e) in enumerate(zip(points, expect))),
                  f"{name} seed {seed}: reference points pass the gate")
        expect = run.expectations(qsagms, run.check_workload(wl), gate.DEFAULT_SEED)
        check(all(not gate.check_point(p, e, p, None)
                  for p, e in zip(refs["check"][name], expect)),
              f"{name}: check-round reference points pass the gate")
    point = refs["rounds"]["deep"][str(gate.DEFAULT_SEED)][0]
    expect = run.expectations(qsagms, run.WORKLOADS["deep"], gate.DEFAULT_SEED)[0]
    for key in gate.FIELDS:
        reference = dict(point, **{key: corrupted(point[key])})
        check(bool(gate.check_point(point, expect, reference, None)),
              f"a corrupted reference {key} trips the gate")
    # Whole runs against corrupted references; their records go to a
    # temporary directory so that they overwrite no record of a real run.
    saved_out = run.OUT
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=saved_out, prefix="selfcheck-") as tmp:
        run.OUT = Path(tmp)
        try:
            bad = copy.deepcopy(refs)
            bad_point = bad["rounds"]["deep"][str(gate.DEFAULT_SEED)][0]
            bad_point["mean_iterations"] = corrupted(bad_point["mean_iterations"])
            result = run.measure(qsagms, "deep", gate.DEFAULT_SEED, 1.0, bad)
            check(not result["correct"] and result["failed"] == result["attempted"] - 1,
                  "a corrupted reference round fails every point but the check round's")
            bad = copy.deepcopy(refs)
            bad_point = bad["check"]["deep"][0]
            bad_point["mean_iterations"] = corrupted(bad_point["mean_iterations"])
            seed = max(gate.REFERENCE_SEEDS) + 1
            result = run.measure(qsagms, "deep", seed, 1.0, bad)
            check(not result["correct"] and result["failed"] == 1,
                  f"at seed {seed}, which has no reference round, a corrupted "
                  "check-round reference fails the run")
        finally:
            run.OUT = saved_out


def check_bare_directory(bench: dict) -> None:
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT, prefix="bare-") as tmp:
        bare = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(run.ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run_benchmark(bench, bare, 0)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    check(proc.returncode != 0 and '"metrics"' not in last,
          "without package sources the run fails and prints no result")


def main() -> None:
    bench = load_benchmark()
    check_bare_directory(bench)
    check_gate()
    check_output(bench, 0)
    check_output(bench, 1)
    print("selfcheck passed")


if __name__ == "__main__":
    main()
