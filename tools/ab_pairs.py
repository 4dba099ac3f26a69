"""Alternating benchmark pairs of two checkouts, and the verdict on a claim.

    python tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs 10 \\
        --seconds 35 --seeds 901,902

Runs each checkout's own, unmodified ``perfbench/run.py --workload W --seed
S --seconds X --trace 0`` as a subprocess, one process at a time, in
``--pairs`` pairs.  Pair ``i`` uses seed ``seeds[i % len(seeds)]``; even
pairs run the parent first, odd pairs the change first.  Each run writes
its report under its own checkout's ``.bench_out/``; this tool writes
nothing.

It prints each run's end-to-end metrics as it finishes, then, per metric
named in ``CHANGE_DIR/BENCHMARK.json``, each side's median and quartiles,
the pairs the change wins (ties count for neither side) and the verdict of
the benchmark's gain rule: the change wins at least nine tenths of the
pairs, and its median is better than the parent's by more than the
distance between the parent's quartiles.  The last line is the summary as
one JSON object.  The exit code is 0 when every run was correct, else 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (linear interpolation
    between order statistics, numpy's default)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """The verdict on each metric over ``pairs``.

    ``pairs`` holds one ``{"parent": {name: value}, "change": {name:
    value}}`` per pair; ``metrics`` the ``end_to_end`` entries of
    BENCHMARK.json (``name`` and ``better``, ``"lower"`` or ``"higher"``).
    """
    out = {}
    for spec in metrics:
        name, sign = spec["name"], 1 if spec["better"] == "lower" else -1
        values = {side: [p[side][name] for p in pairs] for side in SIDES}
        stats = {side: dict(zip(("q1", "median", "q3"), quartiles(values[side])))
                 for side in SIDES}
        wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        spread = stats["parent"]["q3"] - stats["parent"]["q1"]
        gain = sign * (stats["parent"]["median"] - stats["change"]["median"])
        out[name] = {**{side: stats[side] for side in SIDES},
                     "wins": wins, "pairs": len(pairs),
                     "median_change": stats["change"]["median"] - stats["parent"]["median"],
                     "parent_spread": spread,
                     "gain": 10 * wins >= 9 * len(pairs) and gain > spread}
    return out


def run_one(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; its correctness and end-to-end metric values."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"{checkout}: no result (exit {proc.returncode})") from None
    return {"correct": result["correct"], "failed": result["failed"],
            "attempted": result["attempted"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--seeds", default="901,902")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    if args.pairs < 1 or not seeds:
        parser.error("need at least one pair and one seed")
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = json.loads((dirs["change"] / "BENCHMARK.json").read_text())["end_to_end"]

    pairs, correct = [], True
    for i in range(args.pairs):
        seed = seeds[i % len(seeds)]
        pair = {}
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            run = run_one(dirs[side], args.workload, seed, args.seconds)
            correct = correct and run["correct"] and run["failed"] == 0
            pair[side] = run["metrics"]
            shown = "  ".join(f"{m['name']} {run['metrics'][m['name']]:.6g}"
                              for m in metrics)
            print(f"pair {i + 1} seed {seed} {side:6s} "
                  f"{'correct' if run['correct'] else 'INCORRECT'} "
                  f"{run['attempted'] - run['failed']}/{run['attempted']}  {shown}",
                  flush=True)
        pairs.append(pair)

    summary = summarize(pairs, metrics)
    for name, s in summary.items():
        p, c = s["parent"], s["change"]
        print(f"{name}: parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]  "
              f"change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]  "
              f"change wins {s['wins']}/{s['pairs']}  "
              f"median moved {s['median_change']:+.6g} "
              f"(parent quartile spread {s['parent_spread']:.6g})  "
              f"gain {'shown' if s['gain'] else 'not shown'}")
    print(json.dumps({"workload": args.workload, "seeds": seeds, "seconds": args.seconds,
                      "correct": correct, "pairs": pairs, "summary": summary}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
