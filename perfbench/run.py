"""The repository benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload build --seed 1 --seconds 10 --trace 0

``--workload`` is ``build``, ``read-zipf`` or ``churn-wal`` (see
``perfbench/NOTES.md``). The run repeats identical rounds of the
workload, as many as fit ``--seconds`` at the workload's nominal round
length and at least ``min_rounds``, then sets up again until it has set
up ``min_setups`` times. The host's speed drifts in phases of seconds to
minutes, so every time is scaled to the reference host's speed by a
fixed kernel sampled between and during ops (``perfbench/hostspeed.py``), and
timings are each operation's best scaled time over the rounds (as
``timeit`` takes the best of its repeats). The raw wall times are
printed beside them, unchecked. With ``--trace 0`` the last stdout line
carries the end-to-end metrics; the lines before it print the host and
config block and every workload-specific client metric by name and
unit. With ``--trace 1`` the last round is traced: it records spans
around every layer boundary (``perfbench/spans.py``) and the result line
carries the per-layer metrics, the client metrics of the untraced rounds
and the tracing overhead (the traced round minus the untraced one before
it).

The exit code is 0 when every correctness check held, 1 when one
failed (the result line then says ``"correct": false``), and 2 when the
program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
# End-to-end metrics: every workload reports every one of them.
E2E_UNITS = {
    "setup_s": "s",
    "build_evaluations": "count",
    "build_quality": "ratio",
    "recall_at_10": "ratio",
    "ops_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "evaluations_per_op": "count",
}
# Client metrics that only some workloads have: printed, not bounded.
CLIENT_UNITS = {
    "build_s": "s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "hit_p50_ms": "ms",
    "write_p50_ms": "ms",
    "write_p99_ms": "ms",
    "recover_s": "s",
    "wal_bytes_per_write": "B",
}
INFO_UNITS = {"inputgen_s": "s", "tapegen_s": "s", "oracle_s": "s"}


def _percentile_ms(samples, q: float) -> float:
    return float(np.percentile(samples, q)) * 1e3 if len(samples) else 0.0


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def best_of(rounds, kind: str) -> np.ndarray:
    """Each op's best time over the rounds, which repeat the same ops."""
    return np.min([r.latencies[kind] for r in rounds], axis=0)


def op_times(rounds, suffix: str = "") -> dict[str, float]:
    """Throughput and primary-op latency from the per-op bests.

    ``suffix`` ``"_raw"`` takes the raw wall times instead of the scaled.
    """
    every = best_of(rounds, "all" + suffix)
    primary = best_of(rounds, "op" + suffix)
    return {
        "ops_s": every.size / every.sum(),
        "op_p50_ms": _percentile_ms(primary, 50),
        "op_p99_ms": _percentile_ms(primary, 99),
    }


def end_to_end(rounds, setups) -> dict[str, float]:
    """The end-to-end metrics of a set of rounds.

    Times are per-op bests over the rounds; counts and qualities, which
    repeat exactly, are medians over rounds; ``setup_s`` is the median
    set-up.
    """
    return {
        "setup_s": _median(setups),
        "build_evaluations": _median(r.build_evaluations for r in rounds),
        "build_quality": _median(r.build_quality for r in rounds),
        "recall_at_10": _median(r.recall_at_10 for r in rounds),
        **op_times(rounds),
        "evaluations_per_op": _median(r.evaluations / r.ops for r in rounds),
    }


def client_metrics(rounds) -> dict[str, float]:
    """Per-op-kind latencies and durability numbers (0 where absent)."""
    def pooled(kind):
        return [x for r in rounds for x in r.latencies.get(kind, ())]

    out = {
        "build_s": _median(r.build_s for r in rounds),
        "query_p50_ms": _percentile_ms(pooled("query"), 50),
        "query_p99_ms": _percentile_ms(pooled("query"), 99),
        "hit_p50_ms": _percentile_ms(pooled("hit"), 50),
        "write_p50_ms": _percentile_ms(pooled("write"), 50),
        "write_p99_ms": _percentile_ms(pooled("write"), 99),
    }
    for key in ("recover_s", "wal_bytes_per_write"):
        out[key] = _median(r.extra[key] for r in rounds if key in r.extra)
    return out


def per_layer(traced, plain) -> dict[str, float]:
    """Per-layer metrics of the traced rounds, per round, plus overhead."""
    from spans import COUNTER_METRICS, SPAN_METRICS

    n = max(1, len(traced))
    out = {name: 0.0 for name in per_layer_units()}
    spans: dict[str, dict[str, float]] = {}
    counts: dict[str, float] = {}
    maxima: dict[str, float] = {}
    for r in traced:
        for name, row in r.trace["spans"].items():
            acc = spans.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            for key in acc:
                acc[key] += row[key]
        for name, value in r.trace["counts"].items():
            counts[name] = counts.get(name, 0.0) + value
        for name, value in r.trace["maxima"].items():
            maxima[name] = max(maxima.get(name, 0.0), value)
        for name, value in r.counters.items():
            counts[name] = counts.get(name, 0.0) + value
    for span, (seconds, calls) in SPAN_METRICS.items():
        row = spans.get(span, {"s": 0.0, "self_s": 0.0, "calls": 0})
        if seconds:
            out[seconds] = row["s"] / n
        if calls:
            out[calls] = row["calls"] / n
        out[f"{span}.self_s"] = row["self_s"] / n
    for name in COUNTER_METRICS:
        if name in counts:
            out[name] = counts[name] / n
    out.update(maxima)

    def per_call(total, span):
        calls = spans.get(span, {}).get("calls", 0)
        return counts.get(total, 0.0) / calls if calls else 0.0

    looked_up = counts.get("serve.engine.hits", 0) + counts.get("serve.engine.misses", 0)
    out["serve.engine.hit_ratio"] = (
        counts.get("serve.engine.hits", 0) / looked_up if looked_up else 0.0
    )
    out["serve.searcher.top_k.evaluations_per_query"] = per_call(
        "serve.searcher.top_k.evaluations", "serve.searcher.top_k")
    out["serve.searcher.top_k.hops_per_query"] = per_call(
        "serve.searcher.top_k.hops", "serve.searcher.top_k")
    out["online.seed_candidates.seeds_per_query"] = per_call(
        "online.seed_candidates.seeds", "online.seed_candidates")

    for name, value in client_metrics(plain).items():
        out[f"client.{name}"] = value
    for name in INFO_UNITS:
        out[f"bench.{name}"] = _median(r.extra.get(name, 0.0) for r in plain + traced)
    # One round each side, so neither gets a best-of advantage.
    last = plain[-1]
    e2e_plain = end_to_end([last], [last.setup_s])
    e2e_traced = end_to_end(traced, [r.setup_s for r in traced])
    for name in E2E_UNITS:
        out[f"trace.overhead.{name}"] = e2e_traced[name] - e2e_plain[name]
    window_plain = last.window_s
    window_traced = sum(r.window_s for r in traced) / n
    out["trace.overhead_pct"] = (
        100.0 * (window_traced - window_plain) / window_plain if window_plain else 0.0
    )
    ops = sum(r.ops for r in traced)
    out["trace.spans_per_op"] = sum(r.trace["n_spans"] for r in traced) / max(1, ops)
    return out


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name the traced run emits, with its unit."""
    from spans import COUNTER_METRICS, span_metric_units

    units = {**span_metric_units(), **COUNTER_METRICS}
    units.update({f"client.{k}": u for k, u in CLIENT_UNITS.items()})
    units.update({f"bench.{k}": u for k, u in INFO_UNITS.items()})
    units.update({f"trace.overhead.{k}": u for k, u in E2E_UNITS.items()})
    units["bench.reference_kernel_ms"] = "ms"
    units["trace.overhead_pct"] = "%"
    units["trace.spans_per_op"] = "count"
    return units


def host_block() -> dict:
    """Where the numbers were measured."""
    import scipy

    return {
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool, sizes=None,
        workdir: Path | None = None) -> dict:
    """Run one workload; returns the result object plus report fields."""
    from spans import SpanTracer, install_layer_spans
    from workloads import FULL, WORKLOADS

    sizes = sizes or FULL
    cls = WORKLOADS[workload_name]
    kwargs = {"workdir": workdir} if workload_name == "churn-wal" else {}
    workload = cls(seed, sizes, **kwargs)
    tracer = SpanTracer()
    # The round count depends on ``seconds`` only, never on the host's
    # speed: a best of more rounds reads lower.
    n_rounds = max(workload.min_rounds, round(seconds / workload.round_s))
    plain = [workload.round(tracer) for _ in range(n_rounds - trace)]
    traced = []
    if trace:
        # The traced round, the last, repeats the work of the untraced
        # ones, so its difference from the one before is the overhead.
        tracer.reset()
        install_layer_spans(tracer)
        tracer.active = True
        try:
            result = workload.round(tracer)
        finally:
            tracer.active = False
            tracer.restore()
        result.trace = {
            "spans": tracer.summary(), "counts": dict(tracer.counts),
            "maxima": dict(tracer.maxima), "n_spans": len(tracer.spans),
        }
        traced.append(result)
    setups = [x.setup_s for x in plain]
    while len(setups) < workload.min_setups:
        setups.append(workload.setup_only(tracer))

    rounds = plain + traced
    errors = [e for x in rounds for e in x.errors]
    failed = sum(x.failed for x in rounds)
    reference_ms = workload.speed.median_s() * 1e3
    if trace:
        values = per_layer(traced, plain)
        values["bench.reference_kernel_ms"] = reference_ms
        units = per_layer_units()
    else:
        values = end_to_end(plain, setups)
        units = E2E_UNITS
    info = {
        "inputgen_s": workload.inputgen_s,
        "tapegen_s": workload.tapegen_s,
        "oracle_s": workload.oracle_s + sum(x.extra.get("oracle_s", 0.0) for x in rounds),
    }
    # What the scaled end-to-end times read as raw wall time, and the
    # reference kernel's median time (REFERENCE_S at the reference speed).
    raw = {f"{name}_raw": value for name, value in op_times(plain, "_raw").items()}
    raw["setup_s_raw"] = _median(x.extra["setup_raw_s"] for x in plain)
    raw["reference_kernel_ms"] = reference_ms
    return {
        "result": {
            "correct": not errors and failed == 0,
            "attempted": sum(x.ops for x in rounds),
            "failed": failed,
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        },
        "errors": errors,
        "client": client_metrics(plain),
        "info": info,
        "raw": raw,
        "rounds": len(rounds),
        "setups": len(setups) + len(traced),
        "config": {"workload": workload_name, "seed": seed, "seconds": seconds,
                   "trace": trace, "program_telemetry": "on (library default)",
                   **workload.config()},
    }


def main(argv=None) -> int:
    """Parse arguments, run the workload, print the report and result line."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["build", "read-zipf", "churn-wal"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / ".perfbench_tmp"
    workdir.mkdir(exist_ok=True)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace),
                  workdir=workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"host": host_block(), "config": out["config"],
                      "rounds": out["rounds"], "setups": out["setups"]}))
    if not args.trace:
        for name, unit in CLIENT_UNITS.items():
            print(f"{name} = {out['client'][name]:.6g} {unit}")
    for name, value in out["info"].items():
        print(f"{name} = {value:.6g} s (information, not checked)")
    for name, value in out["raw"].items():
        unit = E2E_UNITS.get(name.removesuffix("_raw"), "ms")
        print(f"{name} = {value:.6g} {unit} (not host-scaled; information, not checked)")
    for error in out["errors"]:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
