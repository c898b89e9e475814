#!/usr/bin/env python3
"""Diff a run's BENCH_*.json reports against a committed baseline.

The bench regression gate (ROADMAP): every bench binary emits
BENCH_<name>.json (see bench/bench_report.h); a snapshot lives in
bench/baselines/.  This script compares a fresh run against that
snapshot and fails when

  - a *_items_per_sec throughput metric drops below
    ``baseline * --throughput-tol`` (throughput is noisy on shared CI
    runners, so the default tolerance is a generous ratio, not a tight
    percentage);
  - a QSNR/dB metric drops by more than ``--qsnr-tol`` dB (fidelity is
    deterministic, so the default tolerance is tight);
  - a claim check ("checks": [...]) that passed in the baseline fails;
  - a bench whose baseline says "reproduced": true no longer reproduces;
  - a baseline bench or metric is missing from the current run.

Benches and throughput metrics present only in the current run are
reported as informational, never as regressions (new benches and
metrics are added by PRs all the time).

Usage:
  scripts/compare_benches.py --baseline bench/baselines \
      --current build/bench_results [--throughput-tol 0.4] [--qsnr-tol 1.0]

Exit status: number of regressions (0 = gate passes).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def is_qsnr_metric(name: str, unit: str) -> bool:
    return unit == "dB" or "qsnr" in name


def is_host_conditional(name: str) -> bool:
    """Keys only emitted on capable hosts: ISA-tagged metrics
    (quantize_mx9_avx2_*, gemm_*_avx512_*) exist only where the CPU
    reports the ISA, and pool-gated claims (gemm_prefill_pool_*) only
    where the machine has >= 2 lanes to scale across."""
    return "avx2" in name or "avx512" in name or "pool" in name


def cpu_feature_summary() -> str:
    """The host's SIMD story, so a cross-machine comparison log shows
    WHY an ISA-conditional key is absent (best effort; Linux only)."""
    feats = ("avx2", "avx512f", "avx512bw", "avx512_vnni")
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("flags"):
                    have = set(line.split(":", 1)[1].split())
                    return " ".join(
                        f"{name}={'yes' if name in have else 'no'}"
                        for name in feats
                    )
    except OSError:
        pass
    return "unknown (no /proc/cpuinfo)"


def is_throughput_metric(name: str) -> bool:
    return name.endswith("_items_per_sec")


def load_reports(directory: Path) -> dict[str, dict]:
    reports = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        try:
            with path.open() as f:
                data = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"ERROR: cannot parse {path}: {e}")
            continue
        reports[data.get("bench", path.stem)] = data
    return reports


def metric_map(report: dict) -> dict[str, dict]:
    return {m["name"]: m for m in report.get("metrics", [])}


def check_map(report: dict) -> dict[str, bool]:
    return {c["name"]: bool(c["pass"]) for c in report.get("checks", [])}


def compare(
    base: dict[str, dict],
    cur: dict[str, dict],
    throughput_tol: float,
    qsnr_tol: float,
) -> tuple[list[str], list[str]]:
    regressions: list[str] = []
    notes: list[str] = []

    for bench, base_report in sorted(base.items()):
        cur_report = cur.get(bench)
        if cur_report is None:
            regressions.append(f"{bench}: report missing from current run")
            continue

        if base_report.get("fast_mode") != cur_report.get("fast_mode"):
            notes.append(
                f"{bench}: WARNING comparing fast_mode="
                f"{cur_report.get('fast_mode')} against baseline "
                f"fast_mode={base_report.get('fast_mode')} — Monte-Carlo "
                f"sizes differ, QSNR deltas are expected"
            )

        if base_report.get("reproduced") is True and (
            cur_report.get("reproduced") is not True
        ):
            regressions.append(
                f"{bench}: claim verdict regressed "
                f"(baseline reproduced, current "
                f"{cur_report.get('reproduced')})"
            )

        base_metrics = metric_map(base_report)
        cur_metrics = metric_map(cur_report)
        for name, bm in sorted(base_metrics.items()):
            cm = cur_metrics.get(name)
            if cm is None:
                # Host-conditional keys (ISA-tagged, pool-gated) are
                # only emitted on capable hosts; their absence is not a
                # regression when the gate runs on different hardware.
                if is_host_conditional(name):
                    notes.append(
                        f"{bench}/{name}: host-conditional metric absent"
                    )
                else:
                    regressions.append(f"{bench}/{name}: metric missing")
                continue
            bv, cv = bm["value"], cm["value"]
            unit = bm.get("unit", "")
            if is_throughput_metric(name):
                floor = bv * throughput_tol
                verdict = "REGRESSION" if cv < floor else "ok"
                line = (
                    f"{bench}/{name}: {cv:.3e} vs baseline {bv:.3e} "
                    f"({cv / bv:.2f}x, floor {throughput_tol:.2f}x) "
                    f"[{verdict}]"
                )
                (regressions if cv < floor else notes).append(line)
            elif is_qsnr_metric(name, unit):
                delta = cv - bv
                verdict = "REGRESSION" if delta < -qsnr_tol else "ok"
                line = (
                    f"{bench}/{name}: {cv:.2f} dB vs baseline {bv:.2f} dB "
                    f"({delta:+.2f} dB, tol -{qsnr_tol:.2f}) [{verdict}]"
                )
                (regressions if delta < -qsnr_tol else notes).append(line)
            # Other metrics (wall times, counts, cost ratios) are
            # informational only: they either have dedicated claim
            # checks in the bench itself or are environment-dependent.

        for name in sorted(set(cur_metrics) - set(base_metrics)):
            if is_throughput_metric(name):
                notes.append(
                    f"{bench}/{name}: {cur_metrics[name]['value']:.3e} "
                    f"(new metric, no baseline yet)"
                )

        for name, passed in sorted(check_map(base_report).items()):
            cur_checks = check_map(cur_report)
            if name not in cur_checks:
                if is_host_conditional(name):
                    notes.append(
                        f"{bench}/check {name}: host-conditional "
                        f"check absent"
                    )
                else:
                    regressions.append(f"{bench}/check {name}: missing")
            elif passed and not cur_checks[name]:
                regressions.append(
                    f"{bench}/check {name}: passed in baseline, fails now"
                )

    for bench in sorted(set(cur) - set(base)):
        notes.append(f"{bench}: new bench (no baseline yet)")
    return regressions, notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--baseline",
        type=Path,
        default=Path("bench/baselines"),
        help="directory with the committed BENCH_*.json snapshot",
    )
    ap.add_argument(
        "--current",
        type=Path,
        default=Path("build/bench_results"),
        help="directory with the run under test",
    )
    ap.add_argument(
        "--throughput-tol",
        type=float,
        default=0.4,
        help="minimum allowed current/baseline throughput ratio",
    )
    ap.add_argument(
        "--qsnr-tol",
        type=float,
        default=1.0,
        help="maximum allowed QSNR drop in dB",
    )
    ap.add_argument(
        "--verbose",
        action="store_true",
        help="deprecated no-op: passing metrics always print",
    )
    args = ap.parse_args()

    if not args.baseline.is_dir():
        print(f"ERROR: baseline directory {args.baseline} does not exist")
        return 1
    if not args.current.is_dir():
        print(f"ERROR: current directory {args.current} does not exist")
        return 1

    base = load_reports(args.baseline)
    cur = load_reports(args.current)
    if not base:
        print(f"ERROR: no BENCH_*.json in {args.baseline}")
        return 1

    regressions, notes = compare(
        base, cur, args.throughput_tol, args.qsnr_tol
    )

    print(f"compare_benches: host CPU features: {cpu_feature_summary()}")
    # Per-metric comparison lines print on success too, so CI logs show
    # the speedup a PR actually delivered, not only its failures
    # (--verbose is kept for compatibility; it no longer gates output).
    for line in notes:
        print(f"  {line}")
    print(
        f"compare_benches: {len(base)} baseline bench(es), "
        f"{len(regressions)} regression(s)"
    )
    for line in regressions:
        print(f"  REGRESSION {line}")
    return len(regressions)


if __name__ == "__main__":
    sys.exit(main())
