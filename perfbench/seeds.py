"""Run the benchmark over many seeds; record or compare a summary.

From the repository root::

    # ten seeds per workload, summary kept for later comparisons
    python3 perfbench/seeds.py --seeds 1-10 --out perfbench/baseline.json
    # the same seeds on the current code, compared with that summary
    python3 perfbench/seeds.py --seeds 1-10 --against perfbench/baseline.json

Each run is ``perfbench/run.py`` with ``run_seconds`` from
``BENCHMARK.json`` and tracing off. The summary holds, per workload and
end-to-end metric, the median and quartiles (``statistics.quantiles``,
n=4) of the per-run values and their spread ``(q3 - q1) / median``,
plus the host block of the first run. A comparison prints, per metric,
the change of the median as a share of the recorded median, in the
direction where positive is worse, next to the metric's bound, and
calls a metric unresolved when the two quartile ranges overlap.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_seeds(workload: str, seeds: list[int], seconds: int) -> tuple[dict, list]:
    """Run one workload per seed; returns the host block and per-run results."""
    host, runs = None, []
    for seed in seeds:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        wall = time.perf_counter() - t0
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout}{proc.stderr}")
        host = host or json.loads(lines[0])["host"]
        result = json.loads(lines[-1])
        runs.append({"seed": seed, "wall_s": round(wall, 1), **result})
        values = {k: round(v["value"], 5) for k, v in result["metrics"].items()}
        print(f"{workload} seed={seed} wall={wall:.1f}s {values}", flush=True)
    return host, runs


def summarize(runs: list, spec: dict) -> dict:
    """Median, quartiles and spread of each end-to-end metric."""
    out = {}
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        out[metric["name"]] = {
            "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "bound": metric["bound"],
        }
    return out


def compare(now: dict, then: dict, spec: dict) -> None:
    """Print the change of each median against the recorded one."""
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    for name, cur in now.items():
        old = then[name]
        change = (cur["median"] - old["median"]) / old["median"] if old["median"] else 0.0
        worse = change if better[name] == "lower" else -change
        overlap = cur["q1"] <= old["q3"] and old["q1"] <= cur["q3"]
        verdict = ("regression" if worse > cur["bound"] else
                   "unresolved" if overlap else "improved" if worse < 0 else "within bound")
        print(f"  {name:20s} {old['median']:.5g} -> {cur['median']:.5g} "
              f"worse by {worse:+.3f} (bound {cur['bound']}) {verdict}")


def main(argv=None) -> int:
    """Run the seeds, then write or compare the summary."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out", type=Path, help="write the summary here")
    parser.add_argument("--against", type=Path, help="compare with this summary")
    args = parser.parse_args(argv)

    summary = {"command": spec["command"], "run_seconds": spec["run_seconds"],
               "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        host, runs = run_seeds(workload, args.seeds, spec["run_seconds"])
        summary["host"] = host
        summary["workloads"][workload] = {
            "metrics": summarize(runs, spec),
            "walls_s": [r["wall_s"] for r in runs],
        }
        for name, row in summary["workloads"][workload]["metrics"].items():
            print(f"  {name:20s} median={row['median']:.5g} spread={row['spread']:.3f} "
                  f"bound={row['bound']}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    if args.against:
        then = json.loads(args.against.read_text())
        if then.get("host") != summary.get("host"):
            print(f"host differs: {then.get('host')} vs {summary.get('host')}; "
                  "times are not comparable")
        for workload, entry in summary["workloads"].items():
            print(workload)
            compare(entry["metrics"], then["workloads"][workload]["metrics"], spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
