"""Steadiness self-check: run workloads K times and report spreads.

Each run is a fresh ``run.py`` process with its own seed (``seed`` ..
``seed + K - 1``), the way a regression check compares two commits.
For every end-to-end metric the report gives the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the relative spread
``(q3 - q1) / median``, and flags a metric whose spread exceeds its
bound in ``BENCHMARK.json`` (or a third of it, the target).  The exit
code is 1 when any metric is over its bound or any output check failed.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

from common import ROOT, output_dir

#: Per-run wall limit; a run that exceeds it fails the check.
RUN_TIMEOUT_S = 180


def _bounds() -> dict[str, float]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: float(m["bound"]) for m in spec["end_to_end"]}


def _one(name: str, seed: int, seconds: float, size: str) -> dict:
    cmd = [
        sys.executable, str(ROOT / "reprobench" / "run.py"),
        "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0", "--size", size,
    ]
    done = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    if done.returncode != 0:
        raise RuntimeError(f"{name} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def steady(names: list[str], k: int, seed: int, seconds: float, size: str) -> int:
    bounds = _bounds()
    summary = {}
    flagged = []
    for name in names:
        runs = [_one(name, seed + i, seconds, size) for i in range(k)]
        rows = {}
        print(f"# {name}: {k} runs, seeds {seed}..{seed + k - 1}")
        print(f"  {'metric':24s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} bound")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, mid, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / mid if mid else float("inf")
            mark = ""
            if spread > bound:
                mark = "  OVER BOUND"
                flagged.append(f"{name}.{metric}")
            elif spread > bound / 3:
                mark = "  over target (bound/3)"
            rows[metric] = {"values": values, "median": mid, "q1": q1, "q3": q3,
                            "spread": spread, "bound": bound}
            print(f"  {metric:24s} {mid:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bound}{mark}")
        summary[name] = {
            "rows": rows,
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
        }
        if not summary[name]["correct"]:
            flagged.append(f"{name}.correct")
            print(f"  OUTPUT CHECK FAILED in {summary[name]['failed']} frames")
    out = output_dir() / f"steady-seed{seed}-k{k}.json"
    out.write_text(json.dumps(summary, indent=2) + "\n")
    print(json.dumps({"steady": not flagged, "flagged": flagged, "report": str(out)}))
    return 1 if flagged else 0
