#!/usr/bin/env python3
"""FER benchmark of qsagms: time to converged FER points, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload deep --seed 1 --seconds 25 --trace 0

Every workload is driven through the public library API (``load_code``,
``tanner_graph``, ``run_point``, ``run_sweep``) on the [[126,28]] code with
l_max 8, marginal mode and the default batch size.  A run first times
fresh processes from start to ready-to-decode (``setup_s``), then repeats
the workload's round -- all of its FER points, from the same seed -- until
``--seconds`` are used, and reports medians over the rounds.  Before the
rounds, an untimed check round at the default seed meets exact reference
points whatever ``--seed`` is.  Every point of every round passes the
correctness gate in ``gate.py``.

``--trace 1`` reports the per-layer numbers instead, from one traced round
at 1 worker.  A multi-worker workload also runs a round at its own worker
count, whose points must equal the 1-worker points byte for byte.  See
README.md for the workloads and how the metrics relate.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
are a readable report.  Full records (machine facts, rounds, points, spans)
go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from time import perf_counter

import gate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CODE_FILE = ROOT / "codes" / "gb-126-28.qpc"
OUT = HERE / "out"

#: Fresh processes timed per run for ``setup_s``; the median is reported.
#: An untraced run times half of them before its rounds and half after, so
#: that the median spans the run and not only the machine speed at its start.
SETUP_PROCESSES = 16
#: Frames per variant in the check round, which every run makes at the
#: default seed so that it meets an exact reference whatever its own seed.
CHECK_FRAMES = 256

SMS_ALPHA = 0.50
SAGMS_GAIN = (0.30, 0.50, 1.10)
L_MAX = 8


@dataclass(frozen=True)
class Workload:
    """One set of FER points; ``epsilon0=None`` means a matched prior."""

    variants: tuple[str, ...]
    epsilons: tuple[float, ...]
    epsilon0: float | None
    target_failures: int
    max_frames: int
    workers: int
    sweep: bool  # run_sweep into a directory, then rerun it to resume

    @property
    def capped(self) -> bool:
        return self.target_failures > self.max_frames


WORKLOADS = {
    # the target exceeds the budget: every point is capped at 8192 frames
    "deep": Workload(
        variants=("sagms",), epsilons=(0.01,), epsilon0=None,
        target_failures=8193, max_frames=8192, workers=1, sweep=False,
    ),
    # ~290-310 failures per batch for bp4, sms and sagms, ~2100 for ms: all
    # four points stop in their first batch, over 5 standard deviations early
    "waterfall": Workload(
        variants=("bp4", "ms", "sms", "sagms"), epsilons=(0.05,), epsilon0=None,
        target_failures=200, max_frames=20_000_000, workers=1, sweep=False,
    ),
    # ~340 failures per batch at eps 0.05 and ~725 at 0.06: the 0.05 point
    # stops in its second batch and the 0.06 point in its first, each more
    # than 6 standard deviations from the batch boundary.
    "sweep-2w": Workload(
        variants=("sagms",), epsilons=(0.05, 0.06), epsilon0=0.1,
        target_failures=500, max_frames=20_000_000, workers=2, sweep=True,
    ),
}


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_qsagms():
    """Import the package from this checkout's ``src``, nothing else."""
    if not (SRC / "qsagms" / "__init__.py").is_file() or not CODE_FILE.is_file():
        die(f"no package sources under {SRC} or no code file {CODE_FILE}")
    sys.path.insert(0, str(SRC))
    import qsagms

    if Path(qsagms.__file__).resolve().parent != (SRC / "qsagms").resolve():
        die(f"imported qsagms from {qsagms.__file__}, not from {SRC}")
    return qsagms


# ---------------------------------------------------------------------------
# Machine and input facts

def _read(path: str) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def steal_seconds() -> float | None:
    """CPU steal time of the whole machine so far, from /proc/stat."""
    line = (_read("/proc/stat") or "").splitlines()[:1]
    fields = line[0].split() if line else []
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def machine_facts(qsagms, graph) -> dict:
    import numpy

    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level, size = _read(f"{base}/level"), _read(f"{base}/size")
        if level in ("2", "3") and size:
            caches[f"l{level}_cache"] = size
    batch = qsagms.harness.BATCH_FRAMES
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        **caches,
        "batch_array_mb": batch * graph.edge_count * 8 / 1e6,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "start_method": multiprocessing.get_start_method(),
        "code_sha256": hashlib.sha256(CODE_FILE.read_bytes()).hexdigest(),
        "batch_frames": batch,
    }


# ---------------------------------------------------------------------------
# Set-up: a fresh process until it is ready to decode

_SETUP_CHILD = """
import json, sys
from time import perf_counter
t0 = perf_counter()
sys.path.insert(0, sys.argv[1])
import qsagms
t1 = perf_counter()
H = qsagms.load_code(sys.argv[2], validate=True)
t2 = perf_counter()
qsagms.tanner_graph(H)
t3 = perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1, "graph_s": t3 - t2}), flush=True)
"""


def time_setup() -> tuple[float, dict]:
    """Seconds from spawning a process to its ready line, and its own split."""
    start = perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(CODE_FILE)],
        stdout=subprocess.PIPE, cwd=ROOT, text=True,
    ) as proc:
        line = proc.stdout.readline()
        ready = perf_counter()
        if proc.wait(timeout=120) != 0 or not line:
            raise RuntimeError("set-up process failed")
    return ready - start, json.loads(line)


# ---------------------------------------------------------------------------
# Rounds

def decoder_config(qsagms, variant: str):
    if variant == "sms":
        return qsagms.DecoderConfig("sms", l_max=L_MAX, alpha=SMS_ALPHA)
    if variant == "sagms":
        return qsagms.DecoderConfig(
            "sagms", l_max=L_MAX, gain=qsagms.GainParams(*SAGMS_GAIN)
        )
    return qsagms.DecoderConfig(variant, l_max=L_MAX)


def sweep_configs(qsagms, wl: Workload, seed: int, workers: int) -> list:
    """One SweepConfig per variant; variant k draws its frames from seed + k.

    Distinct seeds keep the variants' counted frames independent: with one
    shared seed they rise and fall together, and ``frames_per_s`` of a
    multi-variant workload would vary twice as much from seed to seed.
    """
    return [
        qsagms.SweepConfig(
            code_id=CODE_FILE.name,
            decoder=decoder_config(qsagms, variant),
            epsilon_list=wl.epsilons,
            seed=seed + k,
            epsilon0_mode="matched" if wl.epsilon0 is None else "fixed",
            epsilon0=wl.epsilon0,
            target_failures=wl.target_failures,
            max_frames=wl.max_frames,
            workers=workers,
        )
        for k, variant in enumerate(wl.variants)
    ]


def expectations(qsagms, wl: Workload, seed: int) -> list[dict]:
    """What the workload fixes about each of its points, in round order."""
    return [
        {
            "epsilon": eps,
            "epsilon0": eps if wl.epsilon0 is None else wl.epsilon0,
            "seed": cfg.seed,
            "cap_hit": wl.capped,
            "config_digest": qsagms.harness.config_digest(cfg),
            "target_failures": wl.target_failures,
            "max_frames": wl.max_frames,
            "l_max": L_MAX,
        }
        for cfg in sweep_configs(qsagms, wl, seed, 1)
        for eps in wl.epsilons
    ]


def run_round(qsagms, wl: Workload, H, graph, seed: int, workers: int):
    """All points of the workload once: (points, problems, resume seconds).

    Names are looked up on ``qsagms.harness`` at call time so that the
    tracer's wrappers apply.
    """
    harness = qsagms.harness
    points, problems, resume_s = [], [], 0.0
    for cfg in sweep_configs(qsagms, wl, seed, workers):
        if not wl.sweep:
            points += [harness.run_point(H, graph, cfg, eps) for eps in wl.epsilons]
            continue
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT, prefix="sweep-") as out_dir:
            first = harness.run_sweep(H, graph, cfg, out_dir)
            start = perf_counter()
            again = harness.run_sweep(H, graph, cfg, out_dir)
            resume_s += perf_counter() - start
            files = list(Path(out_dir, "points").glob("*.json"))
            results = json.loads(Path(out_dir, "results.json").read_text())
        if again != first:
            problems.append("resumed sweep differs from the computed sweep")
        if len(files) != len(wl.epsilons) or len(results) != len(wl.epsilons):
            problems.append(f"{len(files)} point files, {len(results)} results")
        points += first
    return [asdict(p) for p in points], problems, resume_s


def check_workload(wl: Workload) -> Workload:
    """The check round: every variant of ``wl`` at its first epsilon, capped
    at CHECK_FRAMES frames, run at 1 worker through ``run_point``."""
    return replace(
        wl, epsilons=wl.epsilons[:1], target_failures=CHECK_FRAMES + 1,
        max_frames=CHECK_FRAMES, workers=1, sweep=False,
    )


def warm_up(qsagms, H, graph) -> None:
    """Decode one full batch so that first-batch costs stay out of the timings.

    The first batch a process decodes runs 10-15% slower than later ones
    (the allocator has not yet grown to batch-sized arrays); a long point
    pays that once, so no round should.
    """
    batch = qsagms.harness.BATCH_FRAMES
    cfg = qsagms.SweepConfig(
        code_id=CODE_FILE.name, decoder=decoder_config(qsagms, "sagms"),
        epsilon_list=(0.01,), seed=0, target_failures=batch + 1, max_frames=batch,
    )
    qsagms.harness.run_point(H, graph, cfg, 0.01)


def cpu_seconds() -> tuple[float, float]:
    """(this process, reaped child processes) user+system CPU seconds."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def timed_round(qsagms, wl, H, graph, seed, workers):
    """One round with its wall and CPU time; an exception becomes a problem."""
    cpu0 = cpu_seconds()
    steal0 = steal_seconds()
    start = perf_counter()
    try:
        points, problems, resume_s = run_round(qsagms, wl, H, graph, seed, workers)
    except Exception as exc:  # a crashing round is a failed operation
        points, problems, resume_s = None, [f"{type(exc).__name__}: {exc}"], 0.0
    wall = perf_counter() - start
    cpu1 = cpu_seconds()
    steal1 = steal_seconds()
    return {
        "wall_s": wall,
        "cpu_s": (cpu1[0] - cpu0[0]) + (cpu1[1] - cpu0[1]),
        "worker_cpu_s": cpu1[1] - cpu0[1],
        "steal_s": None if steal0 is None else steal1 - steal0,
        "resume_s": resume_s,
        "frames": sum(p["frames"] for p in points) if points else 0,
        "points": points,
        "problems": problems,
    }


# ---------------------------------------------------------------------------
# Runs

def check_round(qsagms, wl_name, H, graph, references) -> gate.Gate:
    """The run's exact check at the default seed; see ``check_workload``."""
    wl = check_workload(WORKLOADS[wl_name])
    checks = gate.Gate(
        expectations(qsagms, wl, gate.DEFAULT_SEED),
        {str(gate.DEFAULT_SEED): references["check"][wl_name]},
        gate.DEFAULT_SEED,
    )
    r = timed_round(qsagms, wl, H, graph, gate.DEFAULT_SEED, 1)
    checks.round("check round", r["points"], r["problems"])
    return checks


def measure(qsagms, wl_name, seed, seconds, references) -> dict:
    """Untraced run: end-to-end metrics over repeated rounds."""
    wl = WORKLOADS[wl_name]
    steal0 = steal_seconds()
    setups = [time_setup()[0] for _ in range(SETUP_PROCESSES // 2)]
    H = qsagms.code.load_code(CODE_FILE, validate=True)
    graph = qsagms.code.tanner_graph(H)
    exact = check_round(qsagms, wl_name, H, graph, references)
    warm_up(qsagms, H, graph)
    checks = gate.Gate(
        expectations(qsagms, wl, seed), references["rounds"][wl_name], seed
    )
    rounds = []
    start = perf_counter()
    while True:
        r = timed_round(qsagms, wl, H, graph, seed, wl.workers)
        checks.round(f"round {len(rounds)}", r["points"], r["problems"])
        rounds.append(r)
        typical = statistics.median(x["wall_s"] for x in rounds)
        if perf_counter() - start + typical > seconds:
            break
    setups += [time_setup()[0] for _ in range(SETUP_PROCESSES - len(setups))]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
        "frames_per_s": (
            statistics.median(r["frames"] / r["wall_s"] for r in rounds), "1/s"
        ),
        "cpu_s": (statistics.median(r["cpu_s"] for r in rounds), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    record = {"steal0": steal0, "setup_s": setups, "rounds": rounds}
    return finish(qsagms, graph, wl_name, seed, 0, [exact, checks], metrics, record)


def measure_traced(qsagms, wl_name, seed, references) -> dict:
    """Traced run: per-layer metrics, tracing overhead, worker identity."""
    import tracing  # imports qsagms, so only after import_qsagms()

    wl = WORKLOADS[wl_name]
    steal0 = steal_seconds()
    splits = [time_setup()[1] for _ in range(SETUP_PROCESSES)]
    setup_tracer = tracing.Tracer()
    with setup_tracer.patched(["load_code", "tanner_graph"]):
        H = qsagms.code.load_code(CODE_FILE, validate=True)
        graph = qsagms.code.tanner_graph(H)
    exact = check_round(qsagms, wl_name, H, graph, references)
    warm_up(qsagms, H, graph)
    checks = gate.Gate(
        expectations(qsagms, wl, seed), references["rounds"][wl_name], seed
    )

    tracer = tracing.Tracer()
    with tracer.patched(["run_sweep", "run_point", "sample_error", "decode_batch"]):
        traced = timed_round(qsagms, wl, H, graph, seed, 1)
    checks.round("traced 1-worker round", traced["points"], traced["problems"])
    layers = layer_summary(tracer, tracing.TARGETS)
    overhead = len(tracer.spans) * tracing.span_cost()
    metrics = {
        "code.load_s": (statistics.median(s["load_s"] for s in splits), "s"),
        "code.graph_s": (statistics.median(s["graph_s"] for s in splits), "s"),
        **layers["metrics"],
        "trace.wall_s": (traced["wall_s"], "s"),
        "trace.overhead_s": (overhead, "s"),
    }
    extra = dict(layers["extra"])
    rounds = {"traced": traced}
    pool_tracer = tracing.Tracer()
    if wl.workers > 1:
        with pool_tracer.patched(["run_sweep", "run_point"]):
            pooled = timed_round(qsagms, wl, H, graph, seed, wl.workers)
        # equal to the 1-worker points byte for byte, or the round fails
        checks.round(f"{wl.workers}-worker round", pooled["points"], pooled["problems"])
        rounds["pooled"] = pooled
        sweep_self = layer_summary(pool_tracer, tracing.TARGETS)["self_s"]
        extra.update({
            "harness.worker_cpu_s": (pooled["worker_cpu_s"], "s"),
            "harness.parallel_speedup": (
                (traced["wall_s"] - overhead) / pooled["wall_s"], "ratio"
            ),
            "harness.pool_cpu_ratio": (pooled["cpu_s"] / traced["cpu_s"], "ratio"),
            "harness.sweep_self_s": (sweep_self.get("run_sweep", 0.0), "s"),
            "harness.resume_s": (pooled["resume_s"], "s"),
        })
    accounted = sum(layers["layer_self_s"].values())
    report = [
        "layer self times (traced 1-worker round): "
        + ", ".join(f"{k} {v:.3f} s" for k, v in layers["layer_self_s"].items())
        + f"; sum {accounted:.3f} s of traced wall {traced['wall_s']:.3f} s,"
        + f" unaccounted {traced['wall_s'] - accounted:.4f} s;"
        + f" tracing overhead {overhead:.4f} s over {len(tracer.spans)} spans",
        "absent layers: " + (", ".join(layers["absent"]) or "none"),
    ]
    record = {
        "steal0": steal0,
        "setup_splits": splits,
        "rounds": rounds,
        "layer_self_s": layers["layer_self_s"],
        "extra": extra,
        "spans": {
            "setup": setup_tracer.spans,
            "traced": tracer.spans,
            "pooled": pool_tracer.spans,
        },
    }
    return finish(qsagms, graph, wl_name, seed, 1, [exact, checks], metrics, record,
                  extra=extra, report=report)


def layer_summary(tracer, targets: dict) -> dict:
    """Per-layer metrics of one traced round, from its spans and counts."""
    own = tracer.self_times()
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    layer_self: dict[str, float] = {}
    decoded = iterations = converged = counted = 0
    per_variant: dict[str, list[float]] = {}
    for (name, _, _, _, counts), t in zip(tracer.spans, own):
        self_s[name] = self_s.get(name, 0.0) + t
        calls[name] = calls.get(name, 0) + 1
        layer = targets[name][1]
        layer_self[layer] = layer_self.get(layer, 0.0) + t
        if name == "decode_batch":
            decoded += counts["frames"]
            iterations += counts["iterations"]
            converged += counts["converged"]
            acc = per_variant.setdefault(counts["variant"], [0.0, 0])
            acc[0] += t
            acc[1] += counts["frames"]
        elif name == "run_point":
            counted += counts["frames"]
    metrics, extra, absent = {}, {}, []
    if calls.get("sample_error"):
        metrics["channel.sample_us_per_frame"] = (
            self_s["sample_error"] / calls["sample_error"] * 1e6, "us"
        )
        metrics["channel.frames"] = (calls["sample_error"], "count")
    else:
        absent.append("channel")
    if decoded:
        metrics["decoder.decode_us_per_frame"] = (
            self_s["decode_batch"] / decoded * 1e6, "us"
        )
        for variant, (t, frames) in sorted(per_variant.items()):
            target = metrics if variant == "sagms" else extra
            target[f"decoder.decode_us_per_frame.{variant}"] = (t / frames * 1e6, "us")
        metrics["decoder.us_per_frame_iteration"] = (
            self_s["decode_batch"] / max(iterations, 1) * 1e6, "us"
        )
        metrics["decoder.frame_iterations"] = (iterations, "count")
        metrics["decoder.converged_ratio"] = (converged / decoded, "ratio")
        metrics["harness.self_us_per_frame"] = (
            self_s.get("run_point", 0.0) / decoded * 1e6, "us"
        )
        metrics["harness.useful_frame_ratio"] = (counted / decoded, "ratio")
    else:
        absent.append("decoder")
    return {
        "metrics": metrics,
        "extra": extra,
        "absent": absent,
        "self_s": self_s,
        "layer_self_s": layer_self,
    }


def finish(qsagms, graph, wl_name, seed, trace, gates, metrics, record,
           extra=None, report=()) -> dict:
    facts = machine_facts(qsagms, graph)
    if record["steal0"] is not None:
        facts["steal_s"] = steal_seconds() - record["steal0"]
    attempted = sum(g.attempted for g in gates)
    failed = sum(g.failed for g in gates)
    messages = [m for g in gates for m in g.messages]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{wl_name}-seed{seed}-trace{trace}.json"
    path.write_text(
        json.dumps({"workload": wl_name, "seed": seed, "facts": facts,
                    "result": result, "gate": messages, **record}),
        encoding="utf-8",
    )
    print("facts: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    for line in report:
        print(line)
    for k, (v, u) in {**metrics, **(extra or {})}.items():
        print(f"{k} = {v:.6g} {u}")
    for message in messages:
        print(f"gate: {message}")
    print(f"failed operations: {failed} of {attempted}; record {path}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=gate.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    qsagms = import_qsagms()
    references = gate.load_references()
    if args.trace:
        result = measure_traced(qsagms, args.workload, args.seed, references)
    else:
        result = measure(qsagms, args.workload, args.seed, args.seconds, references)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
