"""``exact_mixed``: the exact pipeline with co-located twin viewers.

Sessions come from the ``mixed`` traffic archetypes at detail 1.0 on
the vectorized backend and stream through an in-process
``StreamServer(workers=0)`` with the content cache on.  Every heavy
(bicycle) session has a twin viewer on the same trajectory: one of the
pair renders each frame, the other is a content-cache hit replayed
through its own reuse-cache simulator and timing model.

The benchmark is a closed-loop client: at most ``max_active`` sessions
are in flight, a new group is submitted when a session finishes, and
every session disconnects once mid-stream and resumes from its
checkpoint (extract + inject on the same server), so each round has
many short ticks, session starts and resumes.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.scenes import catalog
from repro.stream import (
    CameraTrajectory,
    ContentCacheConfig,
    FrameStream,
    StreamServer,
    StreamSession,
    frame_evidence,
    streaming_config,
)
from repro.stream.traffic import MIXES

from common import RoundResult, deadline_for, evidence_hash

#: (archetype name, target FPS or None, paired with a twin) per group of
#: one round, in submission order.  Sessions stream the fewest frames of
#: their archetype's range, so the seed moves poses, never the amount of
#: work, and a run fits several rounds.
GROUPS = (
    ("heavy", None, True),
    ("light", None, False),
    ("heavy-qos", 72.0, True),
    ("dyn", None, False),
    ("heavy-qos", 90.0, True),
    ("light", None, False),
)


@dataclass(frozen=True)
class Size:
    detail: float
    frame_scale: float
    max_active: int


SIZES = {
    "full": Size(detail=1.0, frame_scale=1.0, max_active=4),
    "tiny": Size(detail=0.25, frame_scale=0.5, max_active=4),
}


class ExactMixed:
    name = "exact_mixed"

    def __init__(self, seed: int, size: str = "full") -> None:
        self.seed = seed
        self.size = SIZES[size]
        self.groups: list[list[StreamSession]] = []
        self.twin_of: dict[str, str] = {}
        self._bundles: dict[tuple[str, float], catalog.SceneBundle] = {}

    # -- set-up -----------------------------------------------------------
    def setup(self) -> None:
        """Draw the sessions, build their scenes, warm the renderer."""
        archetypes = {a.name: a for a in MIXES["mixed"]}
        rng = np.random.default_rng(self.seed)
        detail = self.size.detail
        groups: list[list[StreamSession]] = []
        twin_of: dict[str, str] = {}
        bundles: dict[tuple[str, float], catalog.SceneBundle] = {}
        for index, (arch_name, target_fps, twinned) in enumerate(GROUPS):
            arch = archetypes[arch_name]
            n_frames = max(2, round(arch.frames[0] * self.size.frame_scale))
            spec = catalog.CATALOG[arch.scene]
            seed = int(rng.integers(0, 2**31 - 1))
            phase = float(rng.uniform(0.0, 360.0))
            ids = [f"{arch_name}-{index}"] + ([f"twin-{index}"] if twinned else [])
            group = []
            for session_id in ids:
                # Twins get their own (equal) trajectory object, exactly
                # as two clients asking for the same path would.
                trajectory = CameraTrajectory.for_scene(
                    spec,
                    kind=arch.trajectory,
                    n_frames=n_frames,
                    seed=seed,
                    detail=detail * arch.detail,
                    phase_deg=phase,
                )
                group.append(
                    StreamSession(
                        session_id=session_id,
                        scene=arch.scene,
                        trajectory=trajectory,
                        detail=detail * arch.detail,
                        keep_images=True,
                        config=streaming_config(backend="vectorized"),
                        target_fps=target_fps,
                    )
                )
            if twinned:
                twin_of[ids[1]] = ids[0]
            groups.append(group)
            key = (arch.scene, detail * arch.detail)
            if key not in bundles:
                bundles[key] = catalog.build_scene(arch.scene, detail=key[1])
        # Warm-up: one frame per scene pays the lazy imports and first-call
        # allocations before anything is timed.
        for (scene, scene_detail), bundle in bundles.items():
            spec = catalog.CATALOG[scene]
            FrameStream(
                spec,
                CameraTrajectory.for_scene(spec, "orbit", n_frames=1, detail=scene_detail),
                config=streaming_config(backend="vectorized"),
                detail=scene_detail,
                bundle=bundle,
            ).render_next()
        self.groups, self.twin_of, self._bundles = groups, twin_of, bundles

    def _bundle(self, scene, detail: float = 1.0):
        """Worker bundle builder: set-up's scenes, QoS rungs on demand."""
        name = scene if isinstance(scene, str) else scene.name
        bundle = self._bundles.get((name, float(detail)))
        if bundle is None:
            bundle = catalog.build_scene(scene, detail=detail)
        return bundle

    @property
    def sessions(self) -> list[StreamSession]:
        return [s for group in self.groups for s in group]

    # -- one round --------------------------------------------------------
    def run_round(self, tracer=None) -> RoundResult:
        sessions = {s.session_id: s for s in self.sessions}
        budgets = {sid: s.frame_budget for sid, s in sessions.items()}
        resume_after = {sid: b // 2 for sid, b in budgets.items()}
        starts: list[float] = []
        resumes: list[float] = []
        gaps: list[float] = []
        requested_at: dict[str, float] = {}
        resumed_at: dict[str, float] = {}
        last_at: dict[str, float] = {}
        delivered = {sid: 0 for sid in sessions}
        pending = deque(self.groups)
        active: set[str] = set()
        server = StreamServer(
            workers=0,
            content_cache=ContentCacheConfig(),
            bundle_builder=self._bundle,
        )
        # Every tick delivers a frame or retires a session; the cap only
        # stops a server that stops making progress.
        max_ticks = sum(budgets.values()) + len(budgets) + 16
        t_round = time.perf_counter()
        server.begin([])
        while (pending or active) and max_ticks:
            max_ticks -= 1
            while pending and len(active) + len(pending[0]) <= self.size.max_active:
                for session in pending.popleft():
                    server.submit(session)
                    active.add(session.session_id)
                    requested_at[session.session_id] = time.perf_counter()
            tick = server.step()
            now = time.perf_counter()
            for sid, record in tick.frames:
                delivered[sid] += 1
                if sid in requested_at:
                    starts.append((now - requested_at.pop(sid)) * 1e3)
                elif sid in resumed_at:
                    resumes.append((now - resumed_at.pop(sid)) * 1e3)
                else:
                    gaps.append((now - last_at[sid]) * 1e3)
                last_at[sid] = now
            for sid in tick.done:
                active.discard(sid)
            for sid, _ in tick.frames:
                if delivered[sid] == resume_after[sid] and sid in active:
                    # The client drops and reconnects: the session leaves
                    # with its checkpoint and comes back through restore.
                    session, checkpoint, report = server.extract_session(sid)
                    resumed_at[sid] = time.perf_counter()
                    server.inject_session(session, checkpoint, report)
        results = server.finish()
        wall = time.perf_counter() - t_round
        server.close()
        return self._verify(results, budgets, wall, gaps, starts, resumes)

    # -- output checks ----------------------------------------------------
    def _verify(self, results, budgets, wall, gaps, starts, resumes) -> RoundResult:
        """Twins must equal their rendered twin; budgets must complete."""
        reports = {r.session_id: r.report for r in results}
        evidence = {
            sid: [frame_evidence(f) for f in report.frames]
            for sid, report in reports.items()
        }
        bad: dict[str, set[int]] = {sid: set() for sid in budgets}
        for sid, frames in evidence.items():
            if [f["frame"] for f in frames] != list(range(budgets[sid])):
                bad[sid].update(range(budgets[sid]))
        for twin, original in self.twin_of.items():
            for a, b in zip(evidence[twin], evidence[original]):
                if _visible(a) != _visible(b):
                    bad[twin].add(a["frame"])
        frames = sum(len(f) for f in evidence.values())
        requested = sum(budgets.values())
        verified = sum(
            len([f for f in evidence.get(sid, []) if f["frame"] not in bad[sid]])
            for sid in budgets
        )
        sim = [
            (f["sim_seconds"], deadline_for(s.target_fps))
            for s in self.sessions
            for f in evidence[s.session_id]
        ]
        return RoundResult(
            wall_s=wall,
            frames=frames,
            requested=requested,
            verified=verified,
            gaps_ms=gaps,
            starts_ms=starts,
            resumes_ms=resumes,
            sim=sim,
            evidence=evidence_hash([evidence[s.session_id] for s in self.sessions]),
            per_session={
                sid: (evidence_hash(e), len(e)) for sid, e in evidence.items()
            },
        )

    def close(self) -> None:
        self.groups = []
        self._bundles = {}


def _visible(frame: dict) -> tuple:
    """What a viewer sees of a frame: pixels, latency, rung, verdict."""
    return (
        frame.get("image_sha256"),
        frame["sim_seconds"],
        frame["detail"],
        frame["deadline"],
    )
