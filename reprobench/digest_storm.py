"""``digest_storm``: open-loop digest traffic through an ``EdgeFleet``.

``TrafficGenerator(mix="mixed", pipeline="digest")`` draws Poisson
arrivals in simulated time at a rate above the fleet's admission
capacity, so the router queue backs up.  No pixels are rendered: the
work is per-frame digest advance, per-frame checkpoint capture, the
node schedulers, fleet routing/admission/migration and report merging.

A fixed share of sessions disconnects once mid-stream and resumes from
its checkpoint (``EdgeFleet.extract_session`` + ``inject_session``, the
gateway's reconnect path), so resume latency is measured in-process.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.stream import (
    EdgeFleet,
    TrafficGenerator,
    WorkloadModelTable,
    frame_evidence,
    streaming_config,
)
from repro.stream.traffic import MIXES

from common import RoundResult, deadline_for, evidence_hash

#: Calibration is part of the program's configuration, not the
#: workload's input: one fixed seed for every run.
CALIBRATION_SEED = 0
CALIBRATION_FRAMES = 4

#: Every RESUME_EVERY-th arrival disconnects after half its frames.
RESUME_EVERY = 4


@dataclass(frozen=True)
class Size:
    detail: float
    rate: float
    duration: float
    nodes: int
    node_capacity: int


SIZES = {
    # While a node has room the fleet clock steps from arrival to
    # arrival, admitting about one session per tick, and a session
    # lasts ~9 ticks: eight slots in all fill up, and 60 arrivals/s
    # outrun the ~30 sessions/s they then complete, so the router queue
    # grows for the whole window.
    "full": Size(detail=1.0, rate=60.0, duration=16.0, nodes=4, node_capacity=2),
    "tiny": Size(detail=0.25, rate=60.0, duration=1.0, nodes=2, node_capacity=2),
}


def calibrate(mix: str, detail: float) -> WorkloadModelTable:
    """Calibrate one model per (scene, detail, trajectory) the mix draws."""
    table = WorkloadModelTable()
    combos = sorted({(a.scene, a.detail * detail, a.trajectory) for a in MIXES[mix]})
    for scene, scene_detail, kind in combos:
        for model in WorkloadModelTable.calibrate(
            [scene],
            details=[scene_detail],
            trajectories=[kind],
            n_frames=CALIBRATION_FRAMES,
            config=streaming_config(),
            seed=CALIBRATION_SEED,
        ).models:
            table.register(model)
    return table


class DigestStorm:
    name = "digest_storm"

    def __init__(self, seed: int, size: str = "full") -> None:
        self.seed = seed
        self.size = SIZES[size]
        self.models: WorkloadModelTable | None = None
        self.arrivals = []

    def setup(self) -> None:
        """Calibrate the workload models and generate the traffic."""
        size = self.size
        self.models = calibrate("mixed", size.detail)
        self.arrivals = TrafficGenerator(
            mix="mixed",
            rate=size.rate,
            duration=size.duration,
            seed=self.seed,
            detail=size.detail,
            pipeline="digest",
        ).generate()

    def run_round(self, tracer=None) -> RoundResult:
        size = self.size
        sessions = {a.session_id: a.session for a in self.arrivals}
        budgets = {sid: s.frame_budget for sid, s in sessions.items()}
        resume_after = {
            a.session_id: a.session.frame_budget // 2
            for i, a in enumerate(self.arrivals)
            if i % RESUME_EVERY == RESUME_EVERY - 1 and a.session.frame_budget >= 2
        }
        delivered = dict.fromkeys(sessions, 0)
        starts: list[float] = []
        resumes: list[float] = []
        gaps: list[float] = []
        resumed_at: dict[str, float] = {}
        last_at: dict[str, float] = {}
        fleet = EdgeFleet(
            nodes=size.nodes,
            node_capacity=size.node_capacity,
            router="least",
            migration=True,
            models=self.models,
        )
        t_round = time.perf_counter()
        fleet.begin(self.arrivals)
        max_ticks = 4 * sum(budgets.values()) + 16
        for _ in range(max_ticks):
            t_tick = time.perf_counter()
            tick = fleet.step()
            now = time.perf_counter()
            for sid, _ in tick.frames:
                count = delivered[sid]
                delivered[sid] = count + 1
                if count == 0:
                    # Routing admits a session at the start of the tick
                    # that renders its first frame.
                    starts.append((now - t_tick) * 1e3)
                elif sid in resumed_at:
                    resumes.append((now - resumed_at.pop(sid)) * 1e3)
                else:
                    gaps.append((now - last_at[sid]) * 1e3)
                last_at[sid] = now
            for sid, _ in tick.frames:
                if delivered[sid] == resume_after.get(sid, -1):
                    session, checkpoint, report = fleet.extract_session(sid)
                    resumed_at[sid] = time.perf_counter()
                    fleet.inject_session(session, checkpoint, report)
            if fleet.n_active == 0 and fleet.n_queued == 0:
                break
        result = fleet.finish()
        wall = time.perf_counter() - t_round
        fleet.close()
        return self._verify(result, sessions, budgets, wall, gaps, starts, resumes)

    def _verify(self, result, sessions, budgets, wall, gaps, starts, resumes):
        """Every generated session must complete its full frame budget."""
        reports = {r.session_id: r.report for r in result.results}
        per_session = {}
        sim = []
        verified = 0
        frames = 0
        for sid, session in sessions.items():
            report = reports.get(sid)
            evidence = [] if report is None else [frame_evidence(f) for f in report.frames]
            frames += len(evidence)
            if [f["frame"] for f in evidence] == list(range(budgets[sid])):
                verified += len(evidence)
            per_session[sid] = (evidence_hash(evidence), len(evidence))
            deadline = deadline_for(session.target_fps)
            sim.extend((f["sim_seconds"], deadline) for f in evidence)
        counts = {
            "ticks": result.ticks,
            "migrations": len(result.migrations),
            "queue_depth_max": result.max_queue_depth,
            "sim_admit_delay_ms": result.mean_admission_delay * 1e3,
        }
        return RoundResult(
            wall_s=wall,
            frames=frames,
            requested=sum(budgets.values()),
            verified=verified,
            gaps_ms=gaps,
            starts_ms=starts,
            resumes_ms=resumes,
            sim=sim,
            evidence=evidence_hash(
                [sorted(per_session.items()), counts, result.queue_depth_trace]
            ),
            per_session=per_session,
            counts=counts,
        )

    def close(self) -> None:
        self.models = None
        self.arrivals = []
