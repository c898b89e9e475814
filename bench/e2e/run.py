#!/usr/bin/env python3
"""Run one workload of the end-to-end MX serving benchmark.

Builds the driver (a standalone CMake tree under .bench_build/e2e),
writes the workload's MXFROZEN artifact in one process, serves it from
another, folds the trace when tracing, and prints every metric as
`name value unit`.  The last line is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are BENCHMARK.json's end_to_end list (--trace 0) or its
per_layer list (--trace 1).  `failed` counts requests that threw or
whose reply differed by a single bit from the direct model call.

Usage:
  python3 bench/e2e/run.py --workload gpt_decode [--seed N]
                           [--seconds S] [--trace 0|1]

Exit status: 0 when every output check passed and every declared
metric was measured.  Outputs (artifact, E2E_<workload>.json,
TRACE_<workload>.json) go to $MX_BENCH_OUT_DIR, default
.bench_build/e2e/out.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import NoReturn

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build" / "e2e"
WORKLOADS = ("mlp_open", "gpt_decode", "gpt_prefill")

sys.dont_write_bytecode = True  # write nothing beside the sources
sys.path.insert(0, str(HERE))
import fold_trace  # noqa: E402


def die(msg: str) -> NoReturn:
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build() -> Path:
    """Configure once, then build mx_e2e (a no-op when up to date)."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "mx_e2e",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          check=False).returncode != 0:
            die(f"build failed: {' '.join(cmd)}")
    return BUILD / "mx_e2e"


def git_sha() -> str:
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def drive(cmd: list[str], env: dict[str, str]) -> int:
    """Run one driver process; its stdout goes to our stderr so the
    result line stays last on stdout."""
    try:
        return subprocess.run(cmd, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=170,
                              check=False).returncode
    except subprocess.TimeoutExpired:
        die(f"timed out: {' '.join(cmd)}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    driver = build()
    out = Path(os.environ.get("MX_BENCH_OUT_DIR") or BUILD / "out")
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, MX_BENCH_OUT_DIR=str(out))
    w = args.workload

    # Export in its own process: the server never holds the FP32 model.
    if drive([str(driver), "--export", "--workload", w], env) != 0:
        die("export failed")
    result = out / f"E2E_{w}.json"
    result.unlink(missing_ok=True)
    status = drive([str(driver), "--workload", w, "--seed", str(args.seed),
                    "--seconds", repr(args.seconds), "--trace",
                    str(args.trace), "--git-sha", git_sha()], env)
    if not result.exists():
        die(f"driver exited {status} without writing {result}")
    report = json.loads(result.read_text())

    metrics = {k: (v["value"], v["unit"])
               for k, v in report["metrics"].items()}
    correct = status == 0 and report["errors"] == 0 and \
        report["mismatches"] == 0
    if args.trace:
        try:
            metrics.update(fold_trace.fold(out / f"TRACE_{w}.json", w))
        except (OSError, ValueError, KeyError, fold_trace.FoldError) as e:
            print(f"run.py: cannot fold the trace: {e}", file=sys.stderr)
            correct = False
        if "gemm.gmacs_per_s" in metrics:
            metrics["gemm.peak_frac"] = (
                metrics["gemm.gmacs_per_s"][0] /
                metrics["gemm.peak_gmacs_per_s"][0], "ratio")
    else:
        metrics["error_rate"] = (report["error_rate"], "ratio")

    print(f"# {w}: " + json.dumps(report["fingerprint"]) + " " +
          json.dumps(report["params"]))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")

    wanted = declared["per_layer" if args.trace else "end_to_end"]
    bad = [m["name"] for m in wanted
           if metrics.get(m["name"], (0, None))[1] != m["unit"]]
    if bad:
        print(f"run.py: not measured in the declared unit: {bad}",
              file=sys.stderr)
        correct = False
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["errors"] + report["mismatches"],
        "metrics": {m["name"]: {"value": metrics[m["name"]][0],
                                "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
