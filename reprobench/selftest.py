"""The benchmark's own tests, at tiny sizes.

Run from the checkout root::

    python3 -m pytest reprobench/selftest.py -q

(The file is not named ``test_*.py``, so the repository's own test run
does not collect it.)
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run as bench  # noqa: E402
from common import END_TO_END  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Per-layer counts that must repeat exactly for one seed.
EXACT_LAYER_COUNTS = (
    "core.reuse_cache.accesses_per_frame",
    "core.reuse_cache.hit_ratio",
    "stream.content_cache.lookups",
    "stream.content_cache.hit_ratio",
    "stream.binning.reuse_ratio",
    "stream.fleet.ticks",
    "stream.fleet.migrations",
    "stream.fleet.queue_depth_max",
    "stream.fleet.sim_admit_delay_ms",
)


def _run(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT, env=None):
    cmd = [
        sys.executable, str(cwd / "reprobench" / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
        "--trace", str(trace), "--size", "tiny",
    ]
    return subprocess.run(
        cmd, cwd=cwd, capture_output=True, text=True, timeout=300, env=env
    )


def _result(workload: str, trace: int) -> dict:
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results():
    """Two untraced and two traced runs of one seed per workload."""
    return {
        (w, trace, i): _result(w, trace)
        for w in WORKLOADS
        for trace in (0, 1)
        for i in (0, 1)
    }


def test_spec_matches_the_code():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: unit for name, (unit, _) in END_TO_END.items()
    }
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: unit for name, (unit, _) in LAYER_METRICS.items()
    }
    assert WORKLOADS == list(bench.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_printed_with_its_unit(results, workload, trace):
    result = results[(workload, trace, 0)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert math.isfinite(value["value"])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    if not trace:
        assert result["metrics"]["ok_frac"]["value"] == 1.0
        for name, metric in result["metrics"].items():
            # Tiny scenes render fast enough to meet every deadline.
            assert metric["value"] > 0 or name == "sim_miss_frac", name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_deterministic_metrics_repeat_exactly(results, workload):
    first, second = (results[(workload, 0, i)]["metrics"] for i in (0, 1))
    for name in ("sim_fps", "sim_miss_frac", "ok_frac"):
        assert first[name]["value"] == second[name]["value"], name
    first, second = (results[(workload, 1, i)]["metrics"] for i in (0, 1))
    for name in EXACT_LAYER_COUNTS:
        assert first[name]["value"] == second[name]["value"], name


def _corrupt_exact(monkeypatch):
    from repro.stream.pipeline import FrameStream

    original = FrameStream.render_next
    done = []

    def render_next(self):
        record = original(self)
        if not done and record.served_from is None and record.frame == 1:
            done.append(True)
            image = record.image.copy()
            image[0, 0, 0] += 1.0
            return dataclasses.replace(record, image=image)
        return record

    monkeypatch.setattr(FrameStream, "render_next", render_next)


def _corrupt_digest(monkeypatch):
    from repro.stream.fleet import EdgeFleet

    original = EdgeFleet.finish
    done = []

    def finish(self):
        result = original(self)
        if not done:
            done.append(True)
            result.results[0].report.frames.pop()
        return result

    monkeypatch.setattr(EdgeFleet, "finish", finish)


def _corrupt_gateway(monkeypatch):
    import repro.stream.gateway as gateway

    original = gateway.read_message
    done = []

    async def read_message(reader):
        message = await original(reader)
        if not done and message is not None and message.get("type") == "frame":
            done.append(True)
            message["sim_seconds"] += 1e-9
        return message

    monkeypatch.setattr(gateway, "read_message", read_message)


def _refuse_gateway_hello(monkeypatch):
    """The gateway refuses one session's hello: its frames are missing."""
    import repro.stream.gateway as gateway

    original = gateway.session_from_payload
    done = []

    def session_from_payload(payload, **kwargs):
        if not done:
            done.append(True)
            raise gateway.ValidationError("refused by the test")
        return original(payload, **kwargs)

    monkeypatch.setattr(gateway, "session_from_payload", session_from_payload)


@pytest.mark.parametrize(
    "workload, corrupt",
    [
        ("exact_mixed", _corrupt_exact),
        ("digest_storm", _corrupt_digest),
        ("gateway_loop", _corrupt_gateway),
        ("gateway_loop", _refuse_gateway_hello),
    ],
)
def test_a_corrupted_frame_is_caught(monkeypatch, workload, corrupt):
    corrupt(monkeypatch)
    record = bench.run(workload, seed=5, seconds=0.5, trace=False, size="tiny")
    assert record["failed"] >= 1
    assert record["correct"] is False
    assert record["metrics"]["ok_frac"]["value"] < 1.0


def test_refuses_a_process_wide_backend_override():
    env = dict(os.environ, REPRO_RENDER_BACKEND="reference")
    done = _run("exact_mixed", 0, env=env)
    assert done.returncode != 0
    assert "REPRO_RENDER_BACKEND" in done.stderr


def test_fails_without_the_program():
    """A directory holding only BENCHMARK.json and the benchmark fails."""
    alone = ROOT / ".bench_out" / "alone"
    shutil.rmtree(alone, ignore_errors=True)
    alone.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", alone)
    shutil.copytree(HERE, alone / "reprobench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("exact_mixed", 0, cwd=alone)
    shutil.rmtree(alone)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
