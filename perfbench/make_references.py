#!/usr/bin/env python3
"""Regenerate ``references.json``: every workload's round at each seed of
``gate.REFERENCE_SEEDS``, and its check round.

    python3 perfbench/make_references.py

Run it only when a change alters FerPoints on purpose (the configuration
digest or the estimator changed), and say so in the change: the gate
exists to catch every other change to these values.  Points do not depend
on the worker count, so each round runs at 1 worker.  It takes about ten
minutes.
"""

from __future__ import annotations

import json

import run


def computed(qsagms, wl, H, graph, seed: int) -> list[dict]:
    """One round's points, which must pass every check but the exact one."""
    import gate

    points, problems, _ = run.run_round(qsagms, wl, H, graph, seed, 1)
    for point, expect in zip(points, run.expectations(qsagms, wl, seed)):
        problems += gate.check_point(point, expect, None, None)
    if problems:
        raise SystemExit(f"{wl} seed {seed}: {problems}")
    print(wl.variants, wl.epsilons, seed,
          [(p["frames"], p["failures"]) for p in points], flush=True)
    return points


def main() -> None:
    qsagms = run.import_qsagms()
    import gate

    H = qsagms.code.load_code(run.CODE_FILE, validate=True)
    graph = qsagms.code.tanner_graph(H)
    references = {"rounds": {}, "check": {}}
    for name, wl in run.WORKLOADS.items():
        references["check"][name] = computed(
            qsagms, run.check_workload(wl), H, graph, gate.DEFAULT_SEED
        )
        references["rounds"][name] = {
            str(seed): computed(qsagms, wl, H, graph, seed)
            for seed in gate.REFERENCE_SEEDS
        }
    gate.REFERENCES.write_text(json.dumps(references, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
