"""Alternating benchmark pairs of two source checkouts.

    python scripts/bench_pairs.py PARENT CHANGE --workload oscillator_lab \
        --pairs 10 --seeds 0,1,2 --seconds 4

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, as a
subprocess with the checkout as its working directory; the first side
alternates from pair to pair (the parent first in even pairs), and pair i uses
seed i modulo the seed list.  A run that reports ``correct: false`` or
``failed > 0`` stops the script.  For each end-to-end metric of
BENCHMARK.json it prints each side's median and quartiles, the pairs the
change won and the median of the per-pair ratios change / parent.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

import numpy as np

SIDES = ("parent", "change")


class RefusedRun(RuntimeError):
    pass


def order(pair: int) -> tuple[str, str]:
    """The sides of a pair in the order they run."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def metrics_of(result: dict, where: str) -> dict:
    """The metric values of one run's result line, refused unless the run
    was correct and nothing failed."""
    if result.get("correct") is not True or result.get("failed") != 0:
        raise RefusedRun(f"{where}: correct = {result.get('correct')}, "
                         f"failed = {result.get('failed')}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(pairs: list[dict], better: dict) -> dict:
    """Per metric: each side's quartiles (25th, 50th and 75th percentiles),
    the pairs the change won, and the median ratio change / parent.  pairs
    holds {"parent": metrics, "change": metrics} per pair; better maps each
    metric to "lower" or "higher"."""
    out = {}
    for name, direction in better.items():
        p = np.array([pair["parent"][name] for pair in pairs], dtype=float)
        c = np.array([pair["change"][name] for pair in pairs], dtype=float)
        wins = c < p if direction == "lower" else c > p
        out[name] = {"parent": np.percentile(p, [25, 50, 75]).tolist(),
                     "change": np.percentile(c, [25, 50, 75]).tolist(),
                     "wins": int(np.count_nonzero(wins)), "pairs": len(pairs),
                     "ratio": float(np.median(c / p))}
    return out


def run_once(tree: pathlib.Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RefusedRun(f"{tree}: perfbench/run.py exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=pathlib.Path)
    ap.add_argument("change", type=pathlib.Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seeds", default="0")
    ap.add_argument("--seconds", type=float, default=4.0)
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    trees = {"parent": args.parent, "change": args.change}
    pairs = []
    try:
        for i in range(args.pairs):
            seed = seeds[i % len(seeds)]
            pair = {side: metrics_of(run_once(trees[side], args.workload, seed, args.seconds),
                                     f"pair {i}, {side}, seed {seed}")
                    for side in order(i)}
            pairs.append(pair)
            print(f"pair {i} seed {seed} first {order(i)[0]}: run_s parent "
                  f"{pair['parent']['run_s']:.4f} change {pair['change']['run_s']:.4f}", flush=True)
    except RefusedRun as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    print(f"{args.workload}: {len(pairs)} pairs, seeds {args.seeds}, --seconds {args.seconds}")
    print(f"{'metric':<14}{'parent q1/med/q3':>34}{'change q1/med/q3':>34}  wins  ratio")
    for name, s in summarize(pairs, better).items():
        fmt = lambda q: "/".join(f"{v:.4g}" for v in q)  # noqa: E731
        print(f"{name:<14}{fmt(s['parent']):>34}{fmt(s['change']):>34}"
              f"  {s['wins']:>2}/{s['pairs']}  {s['ratio']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
