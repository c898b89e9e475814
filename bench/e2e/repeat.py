#!/usr/bin/env python3
"""Run K sets of the end-to-end benchmark and summarize each metric.

Each set runs every requested workload once through run.py, set k with
seed base+k, workloads interleaved so slow drifts of the host spread
over all of them.  For every workload and metric it prints the median,
the quartiles (statistics.quantiles(values, n=4)), the spread
(Q3 - Q1) / median, and a suggested bound: twice the spread, at least
0.03.  For end-to-end metrics it also prints BENCHMARK.json's bound and
flags a spread above a third of it.

Usage:
  bench/e2e/repeat.py [--sets 10] [--workloads mlp_open,gpt_decode]
                      [--seed-base 1] [--seconds S] [--trace 0|1]
                      [--save raw.json]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def run_once(workload: str, seed: int, seconds: float | None,
             trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", repr(seconds)]
    r = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stderr)
        raise SystemExit(f"repeat.py: {workload} seed {seed} failed "
                         f"(exit {r.returncode})")
    result = json.loads(lines[-1])
    # Keep every printed `name value unit` line, declared or not.
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 3 and not line.startswith("#"):
            result["metrics"].setdefault(
                fields[0], {"value": float(fields[1]), "unit": fields[2]})
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, Q1, Q3, (Q3 - Q1) / median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sets", type=int, default=10)
    ap.add_argument("--workloads",
                    default="mlp_open,gpt_decode,gpt_prefill")
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", type=Path, default=None,
                    help="write every run's result line here as JSON")
    args = ap.parse_args()
    if args.sets < 2:
        ap.error("--sets must be at least 2 to give quartiles")

    workloads = args.workloads.split(",")
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for k in range(args.sets):
        for w in workloads:
            res = run_once(w, args.seed_base + k, args.seconds, args.trace)
            if not res["correct"] or res["failed"]:
                raise SystemExit(f"repeat.py: {w} seed {args.seed_base + k}"
                                 f" failed its output checks")
            runs[w].append(res)
            print(f"set {k + 1}/{args.sets} {w} done", file=sys.stderr)
    if args.save:
        args.save.write_text(json.dumps(runs, indent=1))

    bounds = {m["name"]: m["bound"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    print(f"{'workload':<12} {'metric':<28} {'median':>12} {'Q1':>12} "
          f"{'Q3':>12} {'spread':>7} {'suggest':>7} {'bound':>6}")
    for w in workloads:
        for name in runs[w][0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs[w]]
            med, q1, q3, rel = spread(values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and rel > bound / 3:
                flag = "  <-- spread above bound/3"
            print(f"{w:<12} {name:<28} {med:>12.5g} {q1:>12.5g} "
                  f"{q3:>12.5g} {rel:>7.3f} {max(0.03, 2 * rel):>7.3f} "
                  f"{'' if bound is None else bound:>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
