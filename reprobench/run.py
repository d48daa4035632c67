#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

Usage (from the root of a checkout)::

    python3 reprobench/run.py --workload exact_mixed --seed 1 --seconds 30 --trace 0
    python3 reprobench/run.py --workload digest_storm --seed 1 --seconds 30 --trace 1
    python3 reprobench/run.py --steady 10 --seed 101 --seconds 30 [--workload NAME]

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (and writes a Chrome trace under
``.bench_out/``); ``--steady K`` runs each workload K times in fresh
processes and reports the spread of every end-to-end metric.  The last
line of standard output is always one JSON object.  See METHODOLOGY.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Thread pools pinned to one thread before numpy loads: the host has
#: few cores and the load must come from this process's own threads.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: Process-wide overrides that would change what a workload measures.
FORBIDDEN_VARS = ("REPRO_RENDER_BACKEND", "REPRO_APPROX_TOLERANCE")

WORKLOADS = ("exact_mixed", "digest_storm", "gateway_loop")

#: Set-ups per run; ``setup_s`` is their median.  exact_mixed sets up
#: in half a second, so it repeats more for a steady median.
SETUP_REPEATS = {"exact_mixed": 9, "digest_storm": 3, "gateway_loop": 3}

#: Rounds every run makes at least (cross-round identity needs two).
MIN_ROUNDS = 2


def _workload(name: str, seed: int, size: str):
    if name == "exact_mixed":
        from exact_mixed import ExactMixed

        return ExactMixed(seed, size)
    if name == "digest_storm":
        from digest_storm import DigestStorm

        return DigestStorm(seed, size)
    from gateway_loop import GatewayLoop

    return GatewayLoop(seed, size)


def _cross_round_failures(rounds) -> int:
    """Frames of sessions whose simulated evidence drifted from round 0."""
    reference = rounds[0].per_session
    failed = 0
    for result in rounds[1:]:
        for sid, (digest, frames) in result.per_session.items():
            if reference.get(sid, (None, 0))[0] != digest:
                failed += frames
    return failed


def _spin() -> float:
    """Seconds a fixed few milliseconds of interpreter work take here."""
    t0 = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    return time.perf_counter() - t0


def _fastest_cpu(cpus: list[int]) -> int:
    """The CPU the host disturbs least right now, by a short probe."""
    times = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        times[cpu] = min(_spin(), _spin())
    return min(cpus, key=times.__getitem__)


def _move_to(cpu: int) -> None:
    """Pin every thread of this process, and its child processes, to cpu."""
    for task in Path("/proc/self/task").iterdir():
        ids = [int(task.name)]
        try:
            ids += [int(child) for child in (task / "children").read_text().split()]
        except OSError:
            pass
        for tid in ids:
            try:
                os.sched_setaffinity(tid, {cpu})
            except OSError:  # exited since it was listed
                pass


def _set_up(workload, cpus: list[int]) -> float:
    """Seconds one set-up of ``workload`` takes, on the least-disturbed CPU."""
    # Earlier garbage is freed here, untimed.
    gc.collect()
    _move_to(_fastest_cpu(cpus))
    t0 = time.perf_counter()
    workload.setup()
    return time.perf_counter() - t0


def _spare_set_up(
    name: str, seed: int, size: str, cpus: list[int], setups: list
) -> float:
    """Time one more set-up on a throwaway instance; returns its wall time."""
    t0 = time.perf_counter()
    spare = _workload(name, seed, size)
    try:
        setups.append(_set_up(spare, cpus))
    finally:
        spare.close()
    return time.perf_counter() - t0


def run(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """Set up, run timed rounds, check outputs; returns the result record."""
    from common import end_to_end_metrics, host_fingerprint, info_tails, output_dir

    fingerprint = host_fingerprint()
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer(name)
    cpus = sorted(os.sched_getaffinity(0))
    round_cpus: list[int] = []
    setups: list[float] = []
    workload = None
    rounds = []
    traced_rounds = []
    repeats = 1 if trace else SETUP_REPEATS[name]
    try:
        workload = _workload(name, seed, size)
        with tracer.active(setup=True) if tracer else nullcontext():
            setups.append(_set_up(workload, cpus))
        t_start = time.perf_counter()
        while (
            len(rounds) < MIN_ROUNDS
            or (trace and len(traced_rounds) < MIN_ROUNDS)
            or time.perf_counter() - t_start < seconds
        ):
            # Traced runs alternate untraced and traced rounds, so the
            # tracing overhead is measured on the same host moment.
            traced = trace and len(rounds) > len(traced_rounds)
            # Each round (and set-up) runs on the CPU a short probe finds
            # least slowed by other tenants of the host right now; their
            # slow phases are independent per CPU (METHODOLOGY.md).
            round_cpus.append(_fastest_cpu(cpus))
            _move_to(round_cpus[-1])
            with tracer.active() if traced else nullcontext():
                result = workload.run_round(tracer if traced else None)
            (traced_rounds if traced else rounds).append(result)
            if traced:
                tracer.end_round(result)
            # The other set-ups are spread over the run, so their median
            # samples the same stretch of host time as the rounds; their
            # time does not count towards ``seconds``.
            while len(setups) < repeats and (
                time.perf_counter() - t_start >= seconds * len(setups) / repeats
            ):
                t_start += _spare_set_up(name, seed, size, cpus, setups)
        while len(setups) < repeats:
            _spare_set_up(name, seed, size, cpus, setups)
    finally:
        if workload is not None:
            workload.close()
    all_rounds = rounds + traced_rounds
    drift = _cross_round_failures(all_rounds)
    attempted = sum(r.requested for r in all_rounds)
    verified = max(sum(r.verified for r in all_rounds) - drift, 0)
    fingerprint["loadavg_end"] = list(os.getloadavg())
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "size": size,
        "host": fingerprint,
        "setups_s": setups,
        "rounds": len(rounds),
        "traced_rounds": len(traced_rounds),
        "round_frames_per_s": [r.frames / r.wall_s for r in rounds + traced_rounds],
        "round_cpus": round_cpus,
        "attempted": attempted,
        "failed": attempted - verified,
        "evidence": sorted({r.evidence for r in all_rounds}),
    }
    if trace:
        metrics = tracer.layer_metrics(rounds, traced_rounds)
        record["trace_file"] = str(tracer.write_chrome_trace(output_dir(), seed))
        record["layer_table"] = tracer.table(metrics)
    else:
        metrics = end_to_end_metrics(setups, rounds, verified / attempted)
        record["info"] = {
            k: {"value": v, "samples": n} for k, (v, n) in info_tails(rounds).items()
        }
    record["metrics"] = metrics
    record["correct"] = record["failed"] == 0 and len(record["evidence"]) == 1
    out = output_dir() / f"result-{name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    return record


def _report(record: dict) -> None:
    """Human-readable lines; the JSON result follows them."""
    host = record["host"]
    print(
        f"# {record['workload']} seed={record['seed']} rounds={record['rounds']}"
        f" traced_rounds={record['traced_rounds']} python={host['python']}"
        f" numpy={host['numpy']} nproc={host['nproc']} rev={host['git_rev'][:12]}"
        f" load={host['loadavg_start'][0]:.2f}->{host['loadavg_end'][0]:.2f}"
    )
    if "layer_table" in record:
        print(record["layer_table"])
        print(f"# chrome trace: {record['trace_file']}")
    else:
        for name, metric in record["metrics"].items():
            print(f"  {name:24s} {metric['value']:14.6g} {metric['unit']}")
        for name, info in record["info"].items():
            print(f"  {name:24s} {info['value']:14.6g} ms (n={info['samples']})")
    if not record["correct"]:
        print(
            f"# OUTPUT CHECK FAILED: {record['failed']} of {record['attempted']}"
            f" frames failed, {len(record['evidence'])} distinct round evidence"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny: small inputs for the benchmark's own tests",
    )
    parser.add_argument(
        "--steady", type=int, metavar="K",
        help="run each workload K times (seeds seed..seed+K-1) and report spreads",
    )
    args = parser.parse_args(argv)
    if args.steady is None and args.workload is None:
        parser.error("--workload is required unless --steady is given")
    for var in FORBIDDEN_VARS:
        if var in os.environ:
            print(
                f"refusing to run: {var} is set and would change what is measured",
                file=sys.stderr,
            )
            return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"refusing to run: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.steady is not None:
        from steady import steady

        names = [args.workload] if args.workload else list(WORKLOADS)
        return steady(names, args.steady, args.seed, args.seconds, args.size)
    record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    _report(record)
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
