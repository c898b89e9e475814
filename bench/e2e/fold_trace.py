#!/usr/bin/env python3
"""Fold an mx_e2e trace into the benchmark's per-layer metrics.

Reads the TRACE_<workload>.json that `mx_e2e --trace 1` writes and
returns the span-derived per-layer metrics of README.md.  Self time per
span name comes from scripts/trace_summary.py, imported rather than
copied: its summarize() checks the trace's nesting and prints a table
whose "self ms" column this module reads back.

Only spans that start inside the driver's loadgen.window span count
toward the serving metrics.  The artifact.* spans of the set-up cycles
lie before the window and give the artifact metrics.

Definitions (busy = self time of every span in the window except the
driver's own loadgen.* spans, so the shares below add up to 1 together
with serve's own self time):
  serve.overhead_share   self time of serve.* / duration of serve.batch
  serve.execute_p*_ms    serve.execute span durations
  serve.submit_block_p99_ms  loadgen.submit span durations
  models.us_per_row      models.batch duration / rows served
  models.other_share     self time of models.batch / busy: layer norm,
                         activations, embeddings, residual adds and
                         session checkout, outside gemm/attn/pool spans
  gemm|pool|attn.share   self time of that layer's spans / busy
  *.calls_per_row        that layer's span count / rows served
  gemm.gmacs_per_s       sum of m*n*k / sum of gemm span durations
  gemm.bytes_per_mac     sum of the gemm spans' `bytes` arg / MACs.  The
                         packed GEMM computes `bytes` from tensor sizes
                         (both operands' execution views plus the FP32
                         output); nothing measures memory traffic.
  gemm.m1_mean_us        mean duration of gemm spans with m == 1
  gemm.mbig_mean_us      mean duration of gemm spans with m > 1

Rows served = loadgen.submit spans in the window.  fold() raises
FoldError when a thread's ring dropped spans (obs.spans_dropped > 0),
when the trace fails trace_summary's checks, or when a layer the
workload exercises has no spans.

Usage:
  bench/e2e/fold_trace.py TRACE.json --workload gpt_decode
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import statistics
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # write nothing beside the sources
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "scripts"))
import trace_summary  # noqa: E402

# Layers (span-name prefixes) each workload must show.  The MLP has no
# attention and no sessions.
REQUIRED = {
    "mlp_open": ("loadgen", "serve", "models", "gemm", "pool"),
    "gpt_decode": ("loadgen", "serve", "models", "gemm", "pool", "attn"),
    "gpt_prefill": ("loadgen", "serve", "models", "gemm", "pool", "attn"),
}


class FoldError(Exception):
    """The trace cannot give trustworthy per-layer metrics."""


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile, as the driver computes it."""
    if not values:
        return 0.0
    v = sorted(values)
    rank = min(max(math.ceil(p * len(v)), 1), len(v))
    return v[rank - 1]


def self_ms(spans: list[dict]) -> dict[str, float]:
    """Self milliseconds per span name, via trace_summary.summarize()."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = trace_summary.summarize(spans)
    if status != 0:
        raise FoldError("trace fails trace_summary's checks:\n" +
                        out.getvalue())
    result: dict[str, float] = {}
    in_table = False
    for line in out.getvalue().splitlines():
        fields = line.split()
        if fields[:2] == ["span", "count"]:
            in_table = True
        elif line.strip().startswith("per-subsystem"):
            break
        elif in_table and len(fields) == 5:
            result[fields[0]] = float(fields[3])
    return result


def fold(path: Path, workload: str) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one trace: name -> (value, unit)."""
    events = trace_summary.load_events(path)
    spans = [e for e in events if e.get("ph") == "X"]
    counters = {e["name"]: float(e["args"]["value"])
                for e in events if e.get("ph") == "C"}

    dropped = counters.get("obs.spans_dropped", 0.0)
    if dropped > 0:
        raise FoldError(f"{dropped:.0f} spans were dropped: a ring wrapped")
    windows = [s for s in spans if s["name"] == "loadgen.window"]
    if len(windows) != 1:
        raise FoldError(f"expected one loadgen.window span, "
                        f"found {len(windows)}")
    w0 = float(windows[0]["ts"])
    w1 = w0 + float(windows[0]["dur"])
    inside = [s for s in spans
              if s is not windows[0] and w0 <= float(s["ts"]) <= w1]
    setup = [s for s in spans if s["name"].startswith("artifact.")]

    present = {s["name"].split(".", 1)[0] for s in inside}
    missing = [layer for layer in REQUIRED[workload] if layer not in present]
    if not setup:
        missing.append("artifact")
    if missing:
        raise FoldError(f"no spans from layer(s) {missing} in the trace")

    def named(prefix: str) -> list[dict]:
        return [s for s in inside if s["name"].startswith(prefix)]

    def dur_us(ss: list[dict]) -> list[float]:
        return [float(s["dur"]) for s in ss]

    selfs = self_ms(inside)
    busy = sum(ms for name, ms in selfs.items()
               if not name.startswith("loadgen."))

    def share(prefix: str) -> float:
        return sum(ms for name, ms in selfs.items()
                   if name.startswith(prefix)) / busy

    rows = len(named("loadgen.submit"))
    batches = named("serve.batch")
    batch_ms = sum(dur_us(batches)) / 1e3
    gemms = named("gemm.")
    macs = sum(float(s["args"]["m"]) * float(s["args"]["n"]) *
               float(s["args"]["k"]) for s in gemms)
    gemm_us = sum(dur_us(gemms))
    m1 = [float(s["dur"]) for s in gemms if float(s["args"]["m"]) == 1]
    mbig = [float(s["dur"]) for s in gemms if float(s["args"]["m"]) > 1]

    def mean(values: list[float]) -> float:
        return statistics.fmean(values) if values else 0.0

    return {
        "serve.batches": (float(len(batches)), "count"),
        "serve.batch_rows_mean": (
            mean([float(s["args"]["rows"]) for s in batches]), "rows"),
        "serve.execute_p50_ms": (
            percentile(dur_us(named("serve.execute")), 0.5) / 1e3, "ms"),
        "serve.execute_p99_ms": (
            percentile(dur_us(named("serve.execute")), 0.99) / 1e3, "ms"),
        "serve.submit_block_p99_ms": (
            percentile(dur_us(named("loadgen.submit")), 0.99) / 1e3, "ms"),
        "serve.overhead_share": (
            sum(ms for name, ms in selfs.items()
                if name.startswith("serve.")) / batch_ms, "ratio"),
        "models.us_per_row": (
            sum(dur_us(named("models.batch"))) / rows, "us"),
        "models.other_share": (share("models."), "ratio"),
        "gemm.share": (share("gemm."), "ratio"),
        "gemm.calls_per_row": (len(gemms) / rows, "count"),
        "gemm.gmacs_per_s": (macs / gemm_us / 1e3, "GMAC/s"),
        "gemm.bytes_per_mac": (
            sum(float(s["args"]["bytes"]) for s in gemms) / macs, "B/MAC"),
        "gemm.m1_mean_us": (mean(m1), "us"),
        "gemm.mbig_mean_us": (mean(mbig), "us"),
        "pool.share": (share("pool."), "ratio"),
        "pool.calls_per_row": (len(named("pool.")) / rows, "count"),
        "attn.share": (share("attn."), "ratio"),
        "artifact.open_ms": (
            statistics.median(dur_us([s for s in setup
                                      if s["name"] == "artifact.open"]))
            / 1e3, "ms"),
        "artifact.load_ms": (
            statistics.median(dur_us([s for s in setup
                                      if s["name"] == "artifact.load"]))
            / 1e3, "ms"),
        "trace.spans_dropped": (dropped, "count"),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace", type=Path)
    ap.add_argument("--workload", required=True, choices=sorted(REQUIRED))
    args = ap.parse_args()
    try:
        metrics = fold(args.trace, args.workload)
    except (OSError, ValueError, KeyError, FoldError) as e:
        print(f"fold_trace: {e}", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
