"""Shared pieces of the benchmark: metric table, statistics, round results.

Every workload returns one :class:`RoundResult` per timed round and the
runner folds them into the end-to-end metrics declared in
:data:`END_TO_END`.  Host wall-clock numbers and simulated (paper-scale)
numbers stay apart: ``sim_*`` metrics come from the frames' deterministic
``sim_seconds`` and must repeat exactly for one seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import sys
from dataclasses import dataclass, field
from pathlib import Path

#: Repository checkout root: the benchmark runs from a checkout's root
#: and builds nothing, it imports ``src/repro`` from there.
ROOT = Path(__file__).resolve().parent.parent

#: Deadline for sessions without a target FPS: the paper's real-time bar.
DEFAULT_TARGET_FPS = 60.0

#: End-to-end metrics, every one reported on every workload (the
#: benchmark's output contract prints every declared end-to-end metric
#: on every workload): name -> (unit, meaning).
END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "median seed -> ready-to-serve time over the run's set-ups"),
    # Host metrics cover every timed round of the run: throughput is
    # total frames over total round time, a latency percentile is taken
    # over the samples of all rounds pooled.
    "frames_per_s": ("1/s", "frames delivered per host second over all rounds"),
    "frame_gap_ms_p50": ("ms", "host time between consecutive frames of a session"),
    "frame_gap_ms_p90": ("ms", "90th percentile of the same gaps"),
    "session_start_ms_p50": ("ms", "session request -> its first frame delivered"),
    "resume_ms_p50": ("ms", "reconnect request -> first frame the client had not seen"),
    "sim_fps": ("1/s", "mean paper-scale frames/s of the served frames"),
    "sim_miss_frac": ("frac", "share of frames whose simulated latency misses the deadline"),
    "peak_rss_mb": ("MB", "peak resident memory of the benchmark process"),
    "ok_frac": ("frac", "frames delivered and verified / frames requested"),
}

#: Host tails reported as information lines when the run has enough
#: samples (at least ten beyond the percentile); exact_mixed never does.
INFO_TAILS = ("session_start_ms", "resume_ms")


@dataclass
class RoundResult:
    """What one timed round of a workload produced and measured."""

    wall_s: float
    frames: int
    requested: int
    verified: int
    gaps_ms: list[float] = field(default_factory=list)
    starts_ms: list[float] = field(default_factory=list)
    resumes_ms: list[float] = field(default_factory=list)
    #: Per delivered frame: (sim_seconds, deadline_seconds), in a
    #: deterministic order.
    sim: list[tuple[float, float]] = field(default_factory=list)
    #: Hash of the round's simulated evidence; equal across rounds.
    evidence: str = ""
    #: session id -> (evidence hash, frames delivered); a session whose
    #: hash differs from the first round's counts all its frames failed.
    per_session: dict[str, tuple[str, int]] = field(default_factory=dict)
    #: Deterministic per-round counts (fleet ticks, migrations, ...).
    counts: dict[str, float] = field(default_factory=dict)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100])."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return percentile(values, 50.0)


def tail_supported(n: int, q: float) -> bool:
    """At least ten samples lie beyond the ``q`` percentile."""
    return n * (100.0 - q) / 100.0 >= 10.0


def evidence_hash(payload) -> str:
    """Stable hash of JSON-able simulated evidence."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def deadline_for(target_fps: float | None) -> float:
    return 1.0 / (DEFAULT_TARGET_FPS if target_fps is None else target_fps)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(
    setups: list[float], rounds: list[RoundResult], ok_frac: float
) -> dict:
    """Fold set-up timings and rounds into the declared metrics."""
    first = rounds[0]
    gaps = pooled(rounds, "gaps_ms")
    values = {
        "setup_s": median(setups),
        "frames_per_s": sum(r.frames for r in rounds) / sum(r.wall_s for r in rounds),
        "frame_gap_ms_p50": percentile(gaps, 50.0),
        "frame_gap_ms_p90": percentile(gaps, 90.0),
        "session_start_ms_p50": percentile(pooled(rounds, "starts_ms"), 50.0),
        "resume_ms_p50": percentile(pooled(rounds, "resumes_ms"), 50.0),
        "sim_fps": sum(1.0 / s for s, _ in first.sim) / len(first.sim),
        "sim_miss_frac": sum(1 for s, d in first.sim if s > d) / len(first.sim),
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": ok_frac,
    }
    return {
        name: {"value": float(values[name]), "unit": END_TO_END[name][0]}
        for name in END_TO_END
    }


def pooled(rounds: list[RoundResult], attr: str) -> list[float]:
    """The latency samples of every round, pooled."""
    return [x for r in rounds for x in getattr(r, attr)]


def info_tails(rounds: list[RoundResult]) -> dict[str, tuple[float, int]]:
    """p90 of start/resume latency where the run's rounds support it."""
    out = {}
    for name, attr in zip(INFO_TAILS, ("starts_ms", "resumes_ms")):
        samples = pooled(rounds, attr)
        if tail_supported(len(samples), 90.0):
            out[f"{name}_p90"] = (percentile(samples, 90.0), len(samples))
    return out


def git_rev() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_fingerprint() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "git_rev": git_rev(),
        "platform": sys.platform,
        "loadavg_start": list(os.getloadavg()),
    }


def output_dir() -> Path:
    """Where traces and result records go (inside the checkout)."""
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    return out
