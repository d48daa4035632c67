"""Per-layer tracing for the benchmark's traced runs.

The tracer times calls into each layer's public entry points by
wrapping them from here, only while a traced round or set-up runs
(:meth:`Tracer.active` installs the wrappers and removes them on exit);
nothing under ``src/`` changes.  Each wrapped call is a span with a
name, start, end, parent span and session id; a layer's *busy* time is
its self time, the span minus its child spans.  Spans of set-up and of
the first traced round are kept in memory and written as Chrome
trace-event JSON (open it in Perfetto or ``chrome://tracing``).
"""

from __future__ import annotations

import json
import os
import pickle
import threading
import time
import types
from contextlib import contextmanager
from pathlib import Path

from common import median, percentile

#: Per-layer metrics: name -> (unit, the end-to-end metric it should move).
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "core.irss.busy_ms_per_frame": ("ms", "frames_per_s, frame_gap_ms_* on exact_mixed"),
    "core.reuse_cache.busy_ms_per_frame": ("ms", "frames_per_s on exact_mixed (twins most)"),
    "core.reuse_cache.accesses_per_frame": ("count", "frames_per_s on exact_mixed"),
    "core.reuse_cache.hit_ratio": ("frac", "sim_fps on exact_mixed"),
    "core.tile_engine.busy_ms_per_frame": ("ms", "frames_per_s on exact_mixed"),
    "core.gbu.busy_ms_per_frame": ("ms", "frames_per_s on exact_mixed"),
    "gaussians.projection.busy_ms_per_frame": ("ms", "frames_per_s on exact_mixed"),
    "stream.binning.busy_ms_per_frame": ("ms", "frames_per_s on exact_mixed"),
    "stream.binning.reuse_ratio": ("frac", "frames_per_s on exact_mixed"),
    "stream.content_cache.lookups": ("count", "frames_per_s on exact_mixed"),
    "stream.content_cache.hit_ratio": ("frac", "frames_per_s on exact_mixed"),
    "stream.content_cache.busy_ms_per_frame": ("ms", "frames_per_s on exact_mixed"),
    "scenes.catalog.builds": ("count", "frame_gap_ms_p90, setup_s on exact_mixed"),
    "scenes.catalog.busy_ms": ("ms", "frame_gap_ms_p90, setup_s on exact_mixed"),
    "stream.pipeline.busy_ms_per_frame": ("ms", "frames_per_s on exact_mixed"),
    "stream.digest.busy_us_per_frame": ("us", "frames_per_s on digest_storm"),
    "stream.checkpoint.captures": ("count", "frames_per_s on digest_storm"),
    "stream.checkpoint.capture_us_per_frame": ("us", "frames_per_s on digest_storm"),
    "stream.scheduler.busy_us_per_frame": ("us", "frames_per_s on digest_storm"),
    "stream.server.busy_us_per_frame": ("us", "frames_per_s on digest_storm"),
    "stream.reporting.busy_us_per_frame": ("us", "frames_per_s on digest_storm"),
    "stream.fleet.busy_ms_per_tick": ("ms", "frames_per_s, frame_gap_ms_* on digest_storm"),
    "stream.fleet.ticks": ("count", "frames_per_s on digest_storm"),
    "stream.fleet.migrations": ("count", "resume_ms_p50 on digest_storm"),
    "stream.fleet.queue_depth_max": ("count", "session_start_ms_p50 on digest_storm"),
    "stream.fleet.sim_admit_delay_ms": ("ms", "simulated admission delay on digest_storm"),
    "stream.traffic.generate_s": ("s", "setup_s on digest_storm"),
    "stream.digest.calibrate_s": ("s", "setup_s on digest_storm, gateway_loop"),
    "stream.gateway.decode_us_per_msg": ("us", "frames_per_s, frame_gap_ms_* on gateway_loop"),
    "stream.gateway.encode_us_per_msg": ("us", "frames_per_s, frame_gap_ms_* on gateway_loop"),
    "stream.gateway.bytes_per_frame": ("B", "frames_per_s on gateway_loop"),
    "stream.gateway.admit_ms_per_session": ("ms", "session_start_ms_p50 on gateway_loop"),
    "stream.gateway.loop_lag_ms_p90": ("ms", "frame_gap_ms_p90 on gateway_loop"),
    "stream.server.step_ms_per_tick": ("ms", "frames_per_s on gateway_loop"),
    "stream.server.frames_per_tick": ("count", "frames_per_s on gateway_loop"),
    "stream.server.ipc_ms_per_tick": ("ms", "frames_per_s on gateway_loop"),
    "stream.server.ipc_bytes_per_tick": ("B", "frames_per_s on gateway_loop"),
    "stream.checkpoint.restore_ms": ("ms", "resume_ms_p50 on gateway_loop"),
    "trace.untraced_frames_per_s": ("1/s", "tracing overhead: untraced rounds"),
    "trace.traced_frames_per_s": ("1/s", "tracing overhead: traced rounds"),
    "trace.overhead_pct": ("%", "tracing overhead: untraced over traced, minus one"),
}

#: Chrome trace events kept per run (set-up plus the first traced round).
MAX_EVENTS = 400_000


class _Span:
    __slots__ = ("name", "sid", "span_id", "parent_id", "child_ns")

    def __init__(self, name, sid, span_id, parent_id):
        self.name = name
        self.sid = sid
        self.span_id = span_id
        self.parent_id = parent_id
        self.child_ns = 0


class _Layer:
    """Accumulated calls, total and self nanoseconds of one span name."""

    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = iter(range(1, 1 << 62))
        self.phase = "setup"
        self.layers: dict[tuple[str, str], _Layer] = {}
        self.counters: dict[tuple[str, str], float] = {}
        self.events: list[tuple] = []
        self.keep_events = True
        self.loop_lag_ms: list[float] = []
        self.sessions: dict[int, str] = {}
        self.frames = 0
        self.rounds = 0
        self.round_counts: list[dict] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- span machinery ---------------------------------------------------
    def _stack(self) -> list[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, value: float = 1.0) -> None:
        key = (self.phase, name)
        with self._lock:
            self.counters[key] = self.counters.get(key, 0.0) + value

    def _timed(self, fn, name, sid=None, post=None):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            session = sid(args) if sid is not None else None
            if session is None and parent is not None:
                session = parent.sid
            span = _Span(
                name, session, next(tracer._ids),
                parent.span_id if parent is not None else 0,
            )
            stack.append(span)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer._close(span, parent, start, end)
            if post is not None:
                post(args, result, end - start)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _close(self, span: _Span, parent: _Span | None, start: int, end: int) -> None:
        duration = end - start
        if parent is not None:
            parent.child_ns += duration
        with self._lock:
            layer = self.layers.get((self.phase, span.name))
            if layer is None:
                layer = self.layers[(self.phase, span.name)] = _Layer()
            layer.calls += 1
            layer.total_ns += duration
            layer.self_ns += duration - span.child_ns
            if self.keep_events and len(self.events) < MAX_EVENTS:
                self.events.append(
                    (span.name, start, duration, threading.get_ident(),
                     span.span_id, span.parent_id, span.sid)
                )

    # -- patching ---------------------------------------------------------
    def _patch(self, owner, attr: str, make) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(make(raw.__func__))
        elif isinstance(raw, classmethod):
            wrapped = classmethod(make(raw.__func__))
        else:
            wrapped = make(raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def _install(self) -> None:
        import repro.core.gbu as gbu
        import repro.scenes.catalog as catalog
        import repro.stream.gateway as gateway
        import repro.stream.pipeline as pipeline
        import repro.stream.server as server
        from repro.core.reuse_cache import TemporalReuseSimulator
        from repro.stream.binning import WarmBinner
        from repro.stream.content_cache import SessionContentView
        from repro.stream.digest import DigestFrameStream, WorkloadModelTable
        from repro.stream.fleet import EdgeFleet
        from repro.stream.reporting import TickResult
        from repro.stream.scheduler import StreamScheduler
        from repro.stream.traffic import TrafficGenerator

        t = self._timed
        by_trajectory = lambda args: self.sessions.get(id(args[0].trajectory))  # noqa: E731

        def reuse_post(args, sample, _ns):
            report = sample.report
            self.count("reuse.frames")
            self.count("reuse.accesses", report.accesses)
            self.count("reuse.hits", report.hits)

        def binning_post(args, result, _ns):
            stats = result[1]
            self.count("binning.total", stats.total_instances)
            self.count("binning.reused", stats.reused_instances)

        def lookup_post(args, result, _ns):
            self.count("content.lookups")
            if result is not None:
                self.count("content.hits")

        def encode_post(args, data, _ns):
            if args[0].get("type") == "frame":
                self.count("gateway.frame_msgs")
                self.count("gateway.frame_bytes", len(data))

        def step_post(args, tick, ns):
            srv = args[0]
            self.count("server.frames", tick.n_frames)
            if not srv.local:
                # The process boundary: step wall minus what the worker
                # reports spending on the frames; the bytes are the
                # pickled tick result it sent back.
                worker_ns = sum(r.wall_seconds for _, r in tick.frames) * 1e9
                self.count("server.ipc_ns", ns - worker_ns)
                self.count("server.ipc_bytes", len(pickle.dumps(tick)))
                self.count("server.ipc_ticks")

        def register(fn):
            def wrapper(srv, session, *rest, **kwargs):
                self.sessions[id(session.trajectory)] = session.session_id
                return fn(srv, session, *rest, **kwargs)

            return wrapper

        self._patch(gbu, "render_irss", lambda f: t(f, "core.irss"))
        self._patch(gbu, "simulate_tile_engine", lambda f: t(f, "core.tile_engine"))
        self._patch(TemporalReuseSimulator, "observe_frame",
                    lambda f: t(f, "core.reuse_cache", post=reuse_post))
        self._patch(gbu.GBUDevice, "render", lambda f: t(f, "core.gbu"))
        self._patch(pipeline, "project", lambda f: t(f, "gaussians.projection"))
        self._patch(WarmBinner, "build", lambda f: t(f, "stream.binning", post=binning_post))
        self._patch(SessionContentView, "frame_key", lambda f: t(f, "stream.content_cache"))
        self._patch(SessionContentView, "lookup",
                    lambda f: t(f, "stream.content_cache", post=lookup_post))
        self._patch(SessionContentView, "insert", lambda f: t(f, "stream.content_cache"))
        for module in (catalog, pipeline):
            self._patch(module, "build_scene", lambda f: t(f, "scenes.catalog"))
        self._patch(pipeline.FrameStream, "render_next",
                    lambda f: t(f, "stream.pipeline", sid=by_trajectory))
        self._patch(DigestFrameStream, "render_next",
                    lambda f: t(f, "stream.digest", sid=by_trajectory))
        self._patch(server, "capture_checkpoint",
                    lambda f: t(f, "stream.checkpoint.capture", sid=lambda a: a[0]))
        for attr in ("tick_assignments", "observe_frame", "admit", "mark_done"):
            self._patch(StreamScheduler, attr, lambda f: t(f, "stream.scheduler"))
        self._patch(server.StreamServer, "submit", register)
        self._patch(server.StreamServer, "step",
                    lambda f: t(f, "stream.server.step", post=step_post))
        self._patch(server.StreamServer, "inject_session",
                    lambda f: register(t(f, "stream.checkpoint.restore",
                                         sid=lambda a: a[1].session_id)))
        self._patch(TickResult, "merged", lambda f: t(f, "stream.reporting"))
        self._patch(EdgeFleet, "step", lambda f: t(f, "stream.fleet.step"))
        self._patch(TrafficGenerator, "generate", lambda f: t(f, "stream.traffic.generate"))
        self._patch(WorkloadModelTable, "calibrate", lambda f: t(f, "stream.digest.calibrate"))
        self._patch(gateway, "encode_message",
                    lambda f: t(f, "stream.gateway.encode",
                                sid=lambda a: a[0].get("session_id"), post=encode_post))
        self._patch(gateway, "session_from_payload",
                    lambda f: t(f, "stream.gateway.admit",
                                sid=lambda a: a[0].get("session_id")))
        # read_message awaits the socket; its CPU part is the JSON decode,
        # so the gateway module's json.loads is what gets timed.
        codec = gateway.json
        self._patch(gateway, "json", lambda _: types.SimpleNamespace(
            loads=t(codec.loads, "stream.gateway.decode"),
            dumps=codec.dumps,
            JSONDecodeError=codec.JSONDecodeError,
        ))

    def _uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def active(self, setup: bool = False):
        """Trace the block: wrappers installed on entry, removed on exit."""
        self.phase = "setup" if setup else "round"
        self._install()
        try:
            yield self
        finally:
            self._uninstall()

    def end_round(self, result) -> None:
        self.rounds += 1
        self.frames += result.frames
        self.round_counts.append(result.counts)
        self.keep_events = False

    # -- results ----------------------------------------------------------
    def _layer(self, name: str, phase: str = "round") -> _Layer:
        return self.layers.get((phase, name), _Layer())

    def layer_metrics(self, untraced, traced) -> dict:
        frames = max(self.frames, 1)
        rounds = max(self.rounds, 1)
        def c(name, default=None):
            return self.counters.get(("round", name), default)

        def busy(name, scale, per=frames):
            return self._layer(name).self_ns / scale / per

        def ratio(num, den):
            return c(num, 0.0) / c(den) if c(den) else 0.0

        step = self._layer("stream.server.step")
        fleet = self._layer("stream.fleet.step")
        calls = lambda name: self._layer(name).calls  # noqa: E731
        counts = self.round_counts[0] if self.round_counts else {}
        untraced_fps = median([r.frames / r.wall_s for r in untraced])
        traced_fps = median([r.frames / r.wall_s for r in traced])
        values = {
            "core.irss.busy_ms_per_frame": busy("core.irss", 1e6),
            "core.reuse_cache.busy_ms_per_frame": busy("core.reuse_cache", 1e6),
            "core.reuse_cache.accesses_per_frame": ratio("reuse.accesses", "reuse.frames"),
            "core.reuse_cache.hit_ratio": ratio("reuse.hits", "reuse.accesses"),
            "core.tile_engine.busy_ms_per_frame": busy("core.tile_engine", 1e6),
            "core.gbu.busy_ms_per_frame": busy("core.gbu", 1e6),
            "gaussians.projection.busy_ms_per_frame": busy("gaussians.projection", 1e6),
            "stream.binning.busy_ms_per_frame": busy("stream.binning", 1e6),
            "stream.binning.reuse_ratio": ratio("binning.reused", "binning.total"),
            "stream.content_cache.lookups": c("content.lookups", 0.0) / rounds,
            "stream.content_cache.hit_ratio": ratio("content.hits", "content.lookups"),
            "stream.content_cache.busy_ms_per_frame": busy("stream.content_cache", 1e6),
            "scenes.catalog.builds": calls("scenes.catalog") / rounds,
            "scenes.catalog.busy_ms": self._layer("scenes.catalog").total_ns / 1e6 / rounds,
            "stream.pipeline.busy_ms_per_frame": busy("stream.pipeline", 1e6),
            "stream.digest.busy_us_per_frame": busy("stream.digest", 1e3),
            "stream.checkpoint.captures": calls("stream.checkpoint.capture") / rounds,
            "stream.checkpoint.capture_us_per_frame": busy("stream.checkpoint.capture", 1e3),
            "stream.scheduler.busy_us_per_frame": busy("stream.scheduler", 1e3),
            "stream.server.busy_us_per_frame": busy("stream.server.step", 1e3),
            "stream.reporting.busy_us_per_frame": busy("stream.reporting", 1e3),
            "stream.fleet.busy_ms_per_tick": fleet.self_ns / 1e6 / max(fleet.calls, 1),
            "stream.fleet.ticks": float(counts.get("ticks", 0)),
            "stream.fleet.migrations": float(counts.get("migrations", 0)),
            "stream.fleet.queue_depth_max": float(counts.get("queue_depth_max", 0)),
            "stream.fleet.sim_admit_delay_ms": float(counts.get("sim_admit_delay_ms", 0.0)),
            "stream.traffic.generate_s":
                self._layer("stream.traffic.generate", "setup").total_ns / 1e9,
            "stream.digest.calibrate_s":
                self._layer("stream.digest.calibrate", "setup").total_ns / 1e9,
            "stream.gateway.decode_us_per_msg": _per_call(self._layer("stream.gateway.decode"), 1e3),
            "stream.gateway.encode_us_per_msg": _per_call(self._layer("stream.gateway.encode"), 1e3),
            "stream.gateway.bytes_per_frame": ratio("gateway.frame_bytes", "gateway.frame_msgs"),
            "stream.gateway.admit_ms_per_session":
                _per_call(self._layer("stream.gateway.admit"), 1e6, total=True),
            "stream.gateway.loop_lag_ms_p90":
                percentile(self.loop_lag_ms, 90.0) if self.loop_lag_ms else 0.0,
            "stream.server.step_ms_per_tick": _per_call(step, 1e6, total=True),
            "stream.server.frames_per_tick": c("server.frames", 0.0) / max(step.calls, 1),
            "stream.server.ipc_ms_per_tick": ratio("server.ipc_ns", "server.ipc_ticks") / 1e6,
            "stream.server.ipc_bytes_per_tick": ratio("server.ipc_bytes", "server.ipc_ticks"),
            "stream.checkpoint.restore_ms":
                _per_call(self._layer("stream.checkpoint.restore"), 1e6, total=True),
            "trace.untraced_frames_per_s": untraced_fps,
            "trace.traced_frames_per_s": traced_fps,
            "trace.overhead_pct": (untraced_fps / traced_fps - 1.0) * 100.0,
        }
        return {
            name: {"value": float(values[name]), "unit": LAYER_METRICS[name][0]}
            for name in LAYER_METRICS
        }

    def table(self, metrics: dict) -> str:
        lines = [f"# per-layer metrics, {self.workload}: {self.rounds} traced rounds, "
                 f"{self.frames} frames"]
        lines.append(f"  {'metric':42s} {'value':>14s} {'unit':6s} should move")
        for name, (unit, moves) in LAYER_METRICS.items():
            lines.append(f"  {name:42s} {metrics[name]['value']:14.6g} {unit:6s} {moves}")
        return "\n".join(lines)

    def write_chrome_trace(self, out_dir: Path, seed: int) -> Path:
        pid = os.getpid()
        events = [
            {
                "name": name,
                "cat": name.rsplit(".", 1)[0],
                "ph": "X",
                "ts": start / 1e3,
                "dur": duration / 1e3,
                "pid": pid,
                "tid": tid,
                "args": {"span": span_id, "parent": parent_id, "session": sid},
            }
            for name, start, duration, tid, span_id, parent_id, sid in self.events
        ]
        path = out_dir / f"trace-{self.workload}-seed{seed}.json"
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
        return path


def _per_call(layer: _Layer, scale: float, total: bool = False) -> float:
    if not layer.calls:
        return 0.0
    return (layer.total_ns if total else layer.self_ns) / scale / layer.calls
