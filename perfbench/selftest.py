"""Self-test of the benchmark at toy sizes.

Run from the repository root with ``python3 perfbench/selftest.py`` (or
``python3 -m pytest perfbench/selftest.py``). It checks that

* every end-to-end metric of ``BENCHMARK.json`` is emitted, with its
  unit, on every workload, and the run's correctness checks hold;
* the traced run emits exactly the per-layer names of ``BENCHMARK.json``
  and restores every function it wrapped;
* a deliberately corrupted recovery fails the parity check;
* host-speed spans sample during the block, take the samples' time out
  of it, and leave no timer or signal handler behind;
* the command fails without printing a result when the program's
  sources are missing.
"""

from __future__ import annotations

import importlib
import json
import math
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
from workloads import TOY, ChurnWalWorkload, check_recovery  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: bool, workdir: Path) -> dict:
    return run.run(workload, seed=5, seconds=0.2, trace=trace, sizes=TOY, workdir=workdir)


def _assert_metrics(result: dict, declared: list[dict]) -> None:
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in declared}, sorted(
        set(metrics) ^ {m["name"] for m in declared}
    )
    for m in declared:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got["unit"], m["unit"])
        assert isinstance(got["value"], float) and math.isfinite(got["value"]), m["name"]


def test_end_to_end_metrics_on_every_workload(tmp_path: Path) -> None:
    """Untraced runs emit every declared end-to-end metric, non-zero."""
    assert WORKLOAD_NAMES == ["build", "read-zipf", "churn-wal"]
    for name in WORKLOAD_NAMES:
        out = _run(name, trace=False, workdir=tmp_path)
        result = out["result"]
        assert result["correct"], out["errors"]
        assert result["attempted"] >= 1 and result["failed"] == 0
        _assert_metrics(result, SPEC["end_to_end"])
        assert all(m["value"] != 0 for m in result["metrics"].values()), name
        assert out["setups"] >= 3
    client = out["client"]  # churn-wal: the durability numbers exist
    assert client["recover_s"] > 0 and client["wal_bytes_per_write"] > 0


def test_traced_run_emits_per_layer_names(tmp_path: Path) -> None:
    """Traced runs emit the declared per-layer names and restore the program."""
    cc = importlib.import_module("repro.core.cluster_and_conquer")
    from repro.serve.searcher import GraphSearcher

    originals = (cc.merge_partials, GraphSearcher.__dict__["top_k"])
    exercised = {
        "build": ["core.merge.s", "core.local_knn.evaluations", "similarity.block.calls"],
        "read-zipf": ["serve.engine.hits", "serve.searcher.top_k.calls",
                      "similarity.query_many.scored", "client.hit_p50_ms"],
        "churn-wal": ["persist.wal.records", "online.add_user.calls",
                      "deltas.durable_wal.applies", "persist.recover.self_s",
                      "client.recover_s"],
    }
    for name in WORKLOAD_NAMES:
        out = _run(name, trace=True, workdir=tmp_path)
        result = out["result"]
        assert result["correct"], out["errors"]
        _assert_metrics(result, SPEC["per_layer"])
        metrics = result["metrics"]
        for metric in exercised[name]:
            assert metrics[metric]["value"] > 0, (name, metric)
        if name == "churn-wal":
            assert metrics["serve.engine.hit_ratio"]["value"] == 0
            assert metrics["persist.recover.evaluations"]["value"] == 0
        if name == "read-zipf":
            assert metrics["persist.wal.records"]["value"] == 0
    assert (cc.merge_partials, GraphSearcher.__dict__["top_k"]) == originals


def test_corrupted_recovery_fails_parity(tmp_path: Path) -> None:
    """Recovery parity holds on an intact log and fails on a truncated one."""
    from repro.graph.heap import edge_digest
    from repro.persist import DurableIndex
    from spans import SpanTracer

    # No automatic checkpoints: every record stays in the one segment.
    workload = ChurnWalWorkload(seed=2, sizes=replace(TOY, checkpoint_bytes=0),
                                workdir=tmp_path)
    tracer = SpanTracer()
    for corrupt in (False, True):
        path = Path(tempfile.mkdtemp(dir=tmp_path))
        served = workload.setup(tracer, path)
        index = served.index
        workload.play(served, workload.tape, tracer)
        version, digest = index.version, edge_digest(index.graph.heaps)
        served.close()
        if corrupt:
            segment = sorted(path.glob("*.wal"))[-1]
            segment.write_bytes(segment.read_bytes()[:-7])  # tear the last record
        recovered = DurableIndex.recover(path, background_checkpoints=False)
        errors = check_recovery(recovered, version, digest)
        recovered.close()
        assert bool(errors) == corrupt, errors


def test_host_speed_span(tmp_path: Path) -> None:
    """Samples land inside a long block and come out of its time."""
    import signal
    import time

    from hostspeed import REFERENCE_S, HostSpeed

    handler = signal.getsignal(signal.SIGALRM)
    speed = HostSpeed()
    with speed.span() as outer:
        before = len(speed.took)
        with speed.span() as inner:
            end = time.perf_counter() + 0.6
            while time.perf_counter() < end:  # Python bytecode: alarms get through
                pass
        during = len(speed.took) - before
    assert during >= 2 * 5 + 1  # the inner span's own samples, and the timer's
    assert 0.5 < inner["raw_s"] < 0.6  # 0.6 s of wall time less the timer's samples
    assert outer["raw_s"] >= inner["raw_s"]
    ratio = inner["s"] / inner["raw_s"] * np.mean(speed.took) / REFERENCE_S
    assert 0.5 < ratio < 2
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler


def test_fails_without_program_sources(tmp_path: Path) -> None:
    """Only BENCHMARK.json and the benchmark: non-zero exit, no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            test(Path(tmp))
        print(f"ok {test.__name__}")
