"""``gateway_loop``: closed-loop clients over loopback TCP.

At most ``nproc`` client connections each open digest sessions of
32-64 frames, one after another, against a ``StreamGateway`` fronting a
``StreamServer`` with one worker process (the ``repro-stream serve
--workers 1`` shape).  Every ``RESUME_EVERY``-th session aborts its
connection halfway through and resumes on a new one.

This is the only workload that puts the wire codec, session admission,
the asyncio pump, checkpoint restore on resume and the process boundary
on the measured path.  Every streamed session, resumed ones included,
must equal an uninterrupted in-process reference computed in set-up.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError
from repro.stream import (
    GatewayClient,
    StreamGateway,
    StreamServer,
    report_evidence,
    session_from_payload,
)
from repro.stream.traffic import MIXES

from common import RoundResult, deadline_for, evidence_hash
from digest_storm import calibrate

#: Every RESUME_EVERY-th session aborts mid-stream and resumes.
RESUME_EVERY = 4

#: Per-message receive timeout: a stuck stream fails its session, not
#: hangs the run.
RECV_TIMEOUT_S = 60.0

#: Wire-only fields of a frame message (everything else is evidence).
WIRE_FIELDS = ("type", "session_id", "replayed")

#: Sessions per round from each ``mixed`` archetype (its weights
#: 0.6 / 0.4 / 1.0 / 0.5 scaled to twenty sessions).
COMPOSITION = {"heavy": 5, "heavy-qos": 3, "light": 8, "dyn": 4}


@dataclass(frozen=True)
class Size:
    detail: float
    frames: tuple[int, int]
    scale: int


SIZES = {
    "full": Size(detail=1.0, frames=(32, 64), scale=1),
    "tiny": Size(detail=0.25, frames=(8, 12), scale=4),
}


class GatewayLoop:
    name = "gateway_loop"

    def __init__(self, seed: int, size: str = "full") -> None:
        self.seed = seed
        self.size = SIZES[size]
        self.clients = max(1, os.cpu_count() or 1)
        self.descriptors: list[dict] = []
        self.reference: list[dict] = []
        self.models = None
        self.server: StreamServer | None = None
        self.gateway: StreamGateway | None = None
        self.runner: asyncio.Runner | None = None
        self._round = 0

    # -- set-up -----------------------------------------------------------
    def setup(self) -> None:
        """Calibrate, draw sessions, compute references, start serving."""
        size = self.size
        self.models = calibrate("mixed", size.detail)
        rng = np.random.default_rng(self.seed)
        archetypes = {a.name: a for a in MIXES["mixed"]}
        # The amount of work is fixed: each archetype's sessions spread
        # evenly over the frame range and cycle through its target FPS
        # choices; the seed draws the order, trajectory seeds and phases.
        plan = []
        for name, count in COMPOSITION.items():
            arch = archetypes[name]
            count = max(1, count // size.scale)
            lo, hi = size.frames
            step = (hi - lo) / max(count - 1, 1)
            for j in range(count):
                frames = (lo + hi) // 2 if count == 1 else lo + round(j * step)
                fps = arch.target_fps
                plan.append((arch, frames, fps[j % len(fps)] if fps else None))
        order = rng.permutation(len(plan))
        descriptors = []
        for index, position in enumerate(order):
            arch, frames, target_fps = plan[position]
            desc = {
                "session_id": f"g{index:03d}",
                "scene": arch.scene,
                "frames": frames,
                "detail": size.detail * arch.detail,
                "trajectory": {
                    "kind": arch.trajectory,
                    "seed": int(rng.integers(0, 2**31 - 1)),
                    "phase_deg": float(rng.uniform(0.0, 360.0)),
                },
                "pipeline": "digest",
            }
            if target_fps is not None:
                desc["target_fps"] = float(target_fps)
            descriptors.append(desc)
        self.descriptors = descriptors
        self.reference = self._reference(descriptors)
        self.server = StreamServer(workers=1, models=self.models)
        self.server.warm_up()
        self.runner = asyncio.Runner()
        self.runner.run(self._start_gateway())

    async def _start_gateway(self) -> None:
        self.gateway = StreamGateway(self.server, pipeline="digest")
        await self.gateway.start()

    def _reference(self, descriptors: list[dict]) -> list[dict]:
        """Uninterrupted in-process serve of every session, as JSON."""
        sessions = [session_from_payload(d) for d in descriptors]
        with StreamServer(workers=0, models=self.models) as server:
            results = {r.session_id: r.report for r in server.serve(sessions)}
        return [
            json.loads(json.dumps(report_evidence(results[d["session_id"]])))
            for d in descriptors
        ]

    # -- one round --------------------------------------------------------
    def run_round(self, tracer=None) -> RoundResult:
        self._round += 1
        return self.runner.run(self._run_round(self._round, tracer))

    async def _run_round(self, tag: int, tracer) -> RoundResult:
        jobs = deque(enumerate(self.descriptors))
        streams: dict[int, tuple[list[dict], dict | None]] = {}
        samples = {"gaps": [], "starts": [], "resumes": []}
        probe = None
        if tracer is not None:
            probe = asyncio.create_task(_lag_probe(tracer.loop_lag_ms))
        t0 = time.perf_counter()
        await asyncio.gather(
            *(
                self._client(jobs, tag, streams, samples)
                for _ in range(min(self.clients, len(self.descriptors)))
            )
        )
        wall = time.perf_counter() - t0
        if probe is not None:
            probe.cancel()
            try:
                await probe
            except asyncio.CancelledError:
                pass
        # A fresh serve per round, untimed: the server keeps finished
        # sessions' reports until its serve closes, so every round then
        # starts from the same state and memory does not grow with the
        # number of rounds a run fits.
        await self.gateway.stop()
        await self._start_gateway()
        return self._verify(streams, wall, samples)

    async def _client(self, jobs, tag, streams, samples) -> None:
        """One connection slot: run sessions back to back until none left."""
        while jobs:
            index, desc = jobs.popleft()
            desc = dict(desc, session_id=f"{desc['session_id']}-r{tag}")
            resumes = index % RESUME_EVERY == RESUME_EVERY - 1
            abort_after = desc["frames"] // 2 if resumes else 0
            streams[index] = await self._session(desc, abort_after, samples)

    async def _session(self, desc: dict, abort_after: int, samples) -> tuple:
        gateway = self.gateway
        sid = desc["session_id"]
        frames: list[dict] = []
        client = GatewayClient(gateway.host, gateway.port)
        waiting = "starts"
        last = 0.0
        end = None
        try:
            await client.connect()
            t_request = time.perf_counter()
            await client.hello(desc, timeout=RECV_TIMEOUT_S)
            while True:
                message = await client.recv(RECV_TIMEOUT_S)
                now = time.perf_counter()
                if message is None or message["type"] != "frame":
                    end = message
                    break
                if waiting:
                    samples[waiting].append((now - t_request) * 1e3)
                    waiting = ""
                else:
                    samples["gaps"].append((now - last) * 1e3)
                last = now
                frames.append(message)
                if len(frames) == abort_after:
                    client.abort()
                    await self._parked(sid)
                    client = GatewayClient(gateway.host, gateway.port)
                    await client.connect()
                    t_request = time.perf_counter()
                    await self._resume(client, sid, frames[-1]["frame"])
                    waiting = "resumes"
            if end is not None and end["type"] == "end":
                await client.bye()
        except (ValidationError, TimeoutError, OSError):
            # A refused hello or resume, a stalled stream or a dropped
            # connection: the frames so far are kept with no valid end,
            # so the check counts the rest of the session as failed.
            end = None
        finally:
            await client.close()
        return frames, end

    async def _parked(self, sid: str) -> None:
        """Wait until the gateway has checkpointed the dropped session."""
        server = self.server
        while server.has_session(sid) and not server.is_done(sid):
            await asyncio.sleep(0.0005)

    @staticmethod
    async def _resume(client: GatewayClient, sid: str, last_frame: int) -> None:
        # A session that finished before its connection was torn down is
        # briefly still "connected"; the resume is retried until it lands.
        for _ in range(2000):
            try:
                await client.resume(sid, last_frame, timeout=RECV_TIMEOUT_S)
                return
            except ValidationError as exc:
                if "already connected" not in str(exc):
                    raise
            await asyncio.sleep(0.0005)
        raise ValidationError(f"session '{sid}' never became resumable")

    # -- output checks ----------------------------------------------------
    def _verify(self, streams, wall, samples) -> RoundResult:
        """Each stream must equal its uninterrupted in-process reference."""
        per_session = {}
        sim = []
        requested = verified = frames_total = 0
        for index, desc in enumerate(self.descriptors):
            frames, end = streams.get(index, ([], None))
            reference = self.reference[index]
            evidence = [
                {k: v for k, v in f.items() if k not in WIRE_FIELDS} for f in frames
            ]
            requested += desc["frames"]
            frames_total += len(frames)
            complete = (
                end is not None
                and end.get("type") == "end"
                and end.get("report") == reference
            )
            if complete:
                verified += sum(
                    1 for got, want in zip(evidence, reference["frames"]) if got == want
                )
            per_session[f"s{index}"] = (evidence_hash(evidence), len(evidence))
            deadline = deadline_for(desc.get("target_fps"))
            sim.extend((f["sim_seconds"], deadline) for f in evidence)
        return RoundResult(
            wall_s=wall,
            frames=frames_total,
            requested=requested,
            verified=verified,
            gaps_ms=samples["gaps"],
            starts_ms=samples["starts"],
            resumes_ms=samples["resumes"],
            sim=sim,
            evidence=evidence_hash(sorted(per_session.items())),
            per_session=per_session,
        )

    def close(self) -> None:
        try:
            if self.runner is not None and self.gateway is not None:
                self.runner.run(self.gateway.stop())
        finally:
            if self.server is not None:
                self.server.close()
            if self.runner is not None:
                self.runner.close()
            self.runner = self.gateway = self.server = None


async def _lag_probe(sink: list[float], interval: float = 0.005) -> None:
    """Event-loop lag: how late a short sleep wakes up, in ms."""
    loop = asyncio.get_running_loop()
    while True:
        t0 = loop.time()
        await asyncio.sleep(interval)
        sink.append((loop.time() - t0 - interval) * 1e3)
